//! Pre-resolved telemetry handles for the heap's hot paths.
//!
//! [`Heap::attach_telemetry`](crate::Heap::attach_telemetry) resolves every
//! metric once into this bundle; the allocation, context-capture and GC
//! paths then pay lock-free atomic ops. With no bundle attached (the
//! default) they pay one `Option` check and are otherwise uninstrumented.

use chameleon_telemetry::{Counter, Histogram, Telemetry, BYTE_BUCKETS, UNIT_BUCKETS};

/// Metric handles used by `Heap`/`gc`, resolved at attach time.
pub(crate) struct HeapTelemetry {
    pub(crate) t: Telemetry,
    /// `heap.gc.cycles` — collection cycles run.
    pub(crate) gc_cycles: Counter,
    /// `heap.gc.pause_units` — per-cycle pause cost in SimClock units.
    pub(crate) gc_pause_units: Histogram,
    /// `heap.gc.marked_objects` — objects found live, summed over cycles.
    pub(crate) gc_marked_objects: Counter,
    /// `heap.gc.swept_objects` — objects reclaimed, summed over cycles.
    pub(crate) gc_swept_objects: Counter,
    /// `heap.alloc.batch_bytes` — size distribution of `alloc_batch` groups.
    pub(crate) alloc_batch_bytes: Histogram,
    /// `heap.context.hits` — context captures served without interning.
    pub(crate) ctx_hits: Counter,
    /// `heap.context.misses` — context captures that interned a new record.
    pub(crate) ctx_misses: Counter,
    /// `heap.context.frame_misses` — frame interns that allocated.
    pub(crate) frame_misses: Counter,
    /// `heap.prof.snapshots` — heap snapshots captured.
    pub(crate) prof_snapshots: Counter,
}

impl HeapTelemetry {
    pub(crate) fn new(t: &Telemetry) -> Self {
        HeapTelemetry {
            gc_cycles: t.counter("heap.gc.cycles"),
            gc_pause_units: t.histogram("heap.gc.pause_units", &UNIT_BUCKETS),
            gc_marked_objects: t.counter("heap.gc.marked_objects"),
            gc_swept_objects: t.counter("heap.gc.swept_objects"),
            alloc_batch_bytes: t.histogram("heap.alloc.batch_bytes", &BYTE_BUCKETS),
            ctx_hits: t.counter("heap.context.hits"),
            ctx_misses: t.counter("heap.context.misses"),
            frame_misses: t.counter("heap.context.frame_misses"),
            prof_snapshots: t.counter("heap.prof.snapshots"),
            t: t.clone(),
        }
    }
}
