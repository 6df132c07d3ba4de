//! Causal execution spans recorded into per-lane lock-free ring buffers.
//!
//! A [`Tracer`] owns one fixed-capacity [`TraceRing`] per *lane* (lane 0 is
//! the environment/coordinator thread, lane `w + 1` is mutator worker `w`).
//! Instrumented code holds a cloneable [`TraceLane`]
//! handle and opens RAII [`TraceScope`]s around phases of interest; the
//! scope records one [`SpanRecord`] — id, parent id, lane, begin/end
//! nanoseconds and up to [`MAX_SPAN_ARGS`] numeric key-value arguments —
//! into the lane's ring when it closes.
//!
//! The recording invariants mirror the telemetry layer's (DESIGN.md §8/§14):
//!
//! * **Disarmed cost is one relaxed load.** [`TraceLane::scope`] returns
//!   `None` after a single relaxed atomic read when the tracer is not
//!   armed; nothing else happens.
//! * **Zero allocation on the hot path.** Span names and argument keys are
//!   `&'static str`, argument values are `u64`, and rings are allocated
//!   up-front — recording a span writes one fixed-size slot.
//! * **Overwrite-oldest.** A full ring overwrites its oldest record; the
//!   memory bound is `capacity × lanes × size_of::<SpanRecord>()` and a
//!   long run keeps the most recent window per lane (the flight-recorder
//!   property).
//! * **Never touches the simulation.** Timestamps come from a wall-clock
//!   [`Instant`] epoch shared by parent and child tracers; no span ever
//!   charges the `SimClock`, so simulated results are bit-identical with
//!   tracing absent, armed, or exported.
//!
//! Each ring is single-writer by construction (a lane belongs to exactly
//! one thread at a time: workers own their lane for the duration of the
//! worker scope, and the parent adopts child records only after the worker
//! threads have been joined). A `writer` flag enforces this defensively —
//! a racing writer *drops* its record rather than corrupting the ring —
//! and each slot carries a sequence counter so readers discard records
//! that were mid-overwrite while being copied (the flight-recorder dump
//! path reads rings that may still be live).

use crate::chrome;
use crate::sync::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering, UnsafeCell};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum number of key-value arguments carried by one span.
pub const MAX_SPAN_ARGS: usize = 4;

/// Default per-lane ring capacity, in records.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default number of most-recent spans per lane written by a flight dump.
pub const DEFAULT_FLIGHT_TAIL: usize = 256;

/// What a [`SpanRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration (`begin_ns..end_ns`); Chrome phase `"X"`.
    Complete,
    /// A point event (`end_ns == begin_ns`); Chrome phase `"i"`.
    Instant,
}

/// One recorded span: plain copyable data, no owned allocations.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Tracer-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id; 0 for a root span.
    pub parent: u64,
    /// Display lane (thread/worker row in the timeline).
    pub lane: u32,
    /// Duration vs point event.
    pub kind: SpanKind,
    /// Begin, nanoseconds since the tracer epoch.
    pub begin_ns: u64,
    /// End, nanoseconds since the tracer epoch (== `begin_ns` for instants).
    pub end_ns: u64,
    /// Span name (static so recording never allocates).
    pub name: &'static str,
    /// Argument slots; only the first `nargs` are meaningful.
    pub args: [(&'static str, u64); MAX_SPAN_ARGS],
    /// Number of occupied argument slots.
    pub nargs: u8,
}

impl SpanRecord {
    fn empty() -> Self {
        SpanRecord {
            id: 0,
            parent: 0,
            lane: 0,
            kind: SpanKind::Instant,
            begin_ns: 0,
            end_ns: 0,
            name: "",
            args: [("", 0); MAX_SPAN_ARGS],
            nargs: 0,
        }
    }

    /// The occupied key-value argument slots.
    pub fn key_values(&self) -> &[(&'static str, u64)] {
        &self.args[..usize::from(self.nargs).min(MAX_SPAN_ARGS)]
    }

    /// Wall-clock duration in nanoseconds (0 for instants).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// One ring slot: a sequence counter (odd while being written) plus the
/// record payload.
struct Slot {
    seq: AtomicU32,
    rec: UnsafeCell<SpanRecord>,
    /// Model-only redundant copies of the record's write generation
    /// (`seq / 2`), stored between the same fences that bracket `rec`.
    /// The record payload is non-atomic, so the model's weak-memory
    /// explorer cannot serve stale values of it — these atomic mirrors
    /// carry the observable staleness instead, and the reader asserts
    /// their consistency after accepting a snapshot. See `snapshot_into`.
    #[cfg(feature = "model")]
    mirror: [AtomicU64; 2],
}

/// Fixed-capacity overwrite-oldest span ring for one lane.
pub struct TraceRing {
    lane: u32,
    /// Records ever pushed; slot index is `head % capacity`.
    head: AtomicU64,
    /// Innermost open span id on this lane (0 = none); maintained by
    /// [`TraceScope`] begin/end so nested scopes link causally.
    current: AtomicU64,
    /// Defensive single-writer flag: a second concurrent writer drops its
    /// record instead of corrupting a slot.
    writer: AtomicBool,
    slots: Box<[Slot]>,
}

// SAFETY: `rec` slots are written only while holding the `writer` flag
// (one writer at a time) between odd/even `seq` transitions; readers copy
// a slot and discard the copy when `seq` changed around the read, so a
// torn snapshot is never *used*. See `push` / `snapshot_into`.
unsafe impl Send for TraceRing {}
unsafe impl Sync for TraceRing {}

impl TraceRing {
    fn new(lane: u32, capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU32::new(0),
                rec: UnsafeCell::new(SpanRecord::empty()),
                #[cfg(feature = "model")]
                mirror: [AtomicU64::new(0), AtomicU64::new(0)],
            })
            .collect();
        TraceRing {
            lane,
            head: AtomicU64::new(0),
            current: AtomicU64::new(0),
            writer: AtomicBool::new(false),
            slots,
        }
    }

    /// Lane this ring records for.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Records ever pushed (≥ the number currently held).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn push(&self, rec: SpanRecord) {
        if self.writer.swap(true, Ordering::Acquire) {
            // A second writer raced onto this lane (contract violation);
            // drop the record rather than tear a slot.
            return;
        }
        let h = self.head.load(Ordering::Relaxed); // relaxed: only this writer moves head
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed); // relaxed: only this writer moves seq
                                                    // relaxed: odd marks in-progress; the Release fence below orders it.
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: the `writer` flag admits exactly one writer, and readers
        // validate `seq` around their copy, discarding torn records.
        slot.rec.with_mut(|p| unsafe { *p = rec });
        #[cfg(feature = "model")]
        {
            // relaxed: generation mirrors are ordered by the bracketing
            // fences, exactly like the payload they stand in for.
            let gen = u64::from(seq.wrapping_add(2) >> 1);
            slot.mirror[0].store(gen, Ordering::Relaxed); // relaxed: fenced, as above
            slot.mirror[1].store(gen, Ordering::Relaxed); // relaxed: fenced, as above
        }
        fence(Ordering::Release);
        // relaxed: even marks stable; the Release fence above orders it.
        slot.seq.store(seq.wrapping_add(2), Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
        self.writer.store(false, Ordering::Release);
    }

    /// Copies up to the newest `tail` stable records (oldest first) into
    /// `out`. Safe against a concurrent writer: records whose slot was
    /// overwritten mid-copy are skipped, so this is exact once the lane's
    /// writer has quiesced and best-effort (never corrupt) otherwise.
    fn snapshot_into(&self, tail: usize, out: &mut Vec<SpanRecord>) {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        // The slot `head` maps to may be mid-overwrite; staying one short
        // of full capacity keeps the window clear of the write frontier.
        let window = (cap - 1).min(tail as u64).min(head);
        for h in (head - window)..head {
            let slot = &self.slots[(h % cap) as usize];
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 & 1 == 1 {
                continue; // being written right now
            }
            // SAFETY: copy is discarded below unless `seq` stayed stable
            // across it (no writer touched this slot during the read).
            let rec = slot
                .rec
                .with_racy(|p| unsafe { std::ptr::read_volatile(p) });
            // relaxed: the acquire fence below orders these reads before
            // the seq recheck (the seqlock validation edge).
            #[cfg(feature = "model")]
            let mirror = (
                slot.mirror[0].load(Ordering::Relaxed), // relaxed: fenced, as above
                slot.mirror[1].load(Ordering::Relaxed), // relaxed: fenced, as above
            );
            fence(Ordering::Acquire);
            // relaxed: the Acquire fence above gives this recheck its edge.
            if slot.seq.load(Ordering::Relaxed) != s0 || rec.name.is_empty() {
                continue;
            }
            // Model invariant: an accepted snapshot is untorn and belongs
            // to exactly the generation the seq word advertised. Both
            // asserts depend on the fences above — remove either release
            // fence in `push` (or the acquire fence here) and the explorer
            // finds a schedule where a stale mirror slips through.
            #[cfg(feature = "model")]
            if loom::is_modeling() {
                assert_eq!(
                    mirror.0, mirror.1,
                    "seqlock accepted a torn record (mirror words disagree)"
                );
                assert_eq!(
                    mirror.0,
                    u64::from(s0 >> 1),
                    "seqlock accepted a stale record (generation != seq/2)"
                );
            }
            out.push(rec);
        }
    }
}

struct TracerInner {
    armed: AtomicBool,
    capacity: usize,
    default_lane: u32,
    /// Next span id (starts at 1; 0 means "no span").
    next_id: AtomicU64,
    /// Wall-clock origin of every timestamp; shared with child tracers so
    /// adopted records need no rebasing.
    epoch: Instant,
    lanes: Mutex<Vec<Arc<TraceRing>>>,
    /// Flight-recorder dump directory; `None` disables dumping.
    flight_dir: Mutex<Option<PathBuf>>,
    flight_tail: usize,
}

/// Shared handle to a set of per-lane span rings.
///
/// Cloning shares the rings (like [`crate::Telemetry`]); a *child* tracer
/// created with [`Tracer::child`] has its own rings and id space but the
/// same epoch, and its records are folded back with [`Tracer::adopt`].
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("armed", &self.is_armed())
            .field("capacity", &self.inner.capacity)
            .field("lanes", &self.inner.lanes.lock().unwrap().len())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An armed tracer with the default per-lane capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An armed tracer holding up to `capacity` records per lane.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer::build(capacity, true, 0, Instant::now())
    }

    /// A disarmed tracer: every [`TraceLane::scope`] call returns `None`
    /// after one relaxed load. Useful for overhead comparisons; arm it
    /// later with [`Tracer::set_armed`].
    pub fn disarmed() -> Self {
        Tracer::build(DEFAULT_RING_CAPACITY, false, 0, Instant::now())
    }

    fn build(capacity: usize, armed: bool, default_lane: u32, epoch: Instant) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                armed: AtomicBool::new(armed),
                capacity: capacity.max(2),
                default_lane,
                next_id: AtomicU64::new(1),
                epoch,
                lanes: Mutex::new(Vec::new()),
                flight_dir: Mutex::new(None),
                flight_tail: DEFAULT_FLIGHT_TAIL,
            }),
        }
    }

    /// Whether spans are being recorded (one relaxed load).
    #[inline]
    pub fn is_armed(&self) -> bool {
        // relaxed: advisory flag; a stale read delays arming by one event.
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Arms or disarms recording.
    pub fn set_armed(&self, armed: bool) {
        // relaxed: advisory flag; a stale read delays arming by one event.
        self.inner.armed.store(armed, Ordering::Relaxed);
    }

    /// The lane handles of this tracer default to (0 for a root tracer,
    /// the worker lane for a child).
    pub fn default_lane(&self) -> u32 {
        self.inner.default_lane
    }

    /// Nanoseconds since this tracer's epoch (shared with children).
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh span id (for low-level [`TraceLane::record`] use).
    pub fn alloc_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Handle for `lane`, creating its ring on first use. The hot path
    /// never comes back here: a [`TraceLane`] caches the ring `Arc`.
    pub fn lane(&self, lane: u32) -> TraceLane {
        let mut lanes = self.inner.lanes.lock().unwrap();
        let ring = match lanes.iter().find(|r| r.lane == lane) {
            Some(r) => Arc::clone(r),
            None => {
                let r = Arc::new(TraceRing::new(lane, self.inner.capacity));
                lanes.push(Arc::clone(&r));
                r
            }
        };
        TraceLane {
            tracer: self.clone(),
            ring,
        }
    }

    /// A hermetic child tracer for worker `lane`: fresh rings and id
    /// space, same epoch and capacity, armed iff this tracer is armed.
    /// Fold its records back with [`Tracer::adopt`].
    pub fn child(&self, lane: u32) -> Tracer {
        Tracer::build(self.inner.capacity, self.is_armed(), lane, self.inner.epoch)
    }

    /// All stable records across every lane, oldest-first per lane, lanes
    /// in ascending order. Exact once writers have quiesced.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.collect_tail(usize::MAX)
    }

    fn collect_tail(&self, tail: usize) -> Vec<SpanRecord> {
        let mut rings: Vec<Arc<TraceRing>> = self.inner.lanes.lock().unwrap().clone();
        rings.sort_by_key(|r| r.lane);
        let mut out = Vec::new();
        for ring in rings {
            ring.snapshot_into(tail, &mut out);
        }
        out
    }

    /// Adopts a finished child's records (from [`Tracer::records`] on the
    /// child) into the ring for `into_lane`: span ids are remapped into
    /// this tracer's id space and the child's *root* spans are re-parented
    /// under `reparent` (0 keeps them roots). Call in partition-index
    /// order for a deterministic timeline; records keep their own `lane`
    /// field for display.
    pub fn adopt(&self, records: &[SpanRecord], reparent: u64, into_lane: u32) {
        if records.is_empty() {
            return;
        }
        let max_id = records.iter().map(|r| r.id).max().unwrap_or(0);
        let base = self.inner.next_id.fetch_add(max_id, Ordering::Relaxed);
        let lane = self.lane(into_lane);
        for r in records {
            let mut rec = *r;
            rec.id = rec.id + base - 1;
            rec.parent = if rec.parent == 0 {
                reparent
            } else {
                rec.parent + base - 1
            };
            lane.ring.push(rec);
        }
    }

    /// Directs flight-recorder dumps (panic hook, GC anomaly trigger) to
    /// `dir`; without a directory, [`Tracer::flight_dump`] is a no-op.
    pub fn set_flight_dir(&self, dir: impl AsRef<Path>) {
        *self.inner.flight_dir.lock().unwrap() = Some(dir.as_ref().to_path_buf());
    }

    /// Dumps the last [`DEFAULT_FLIGHT_TAIL`] spans of every lane to a
    /// timestamped Chrome-trace file in the configured flight directory.
    /// Returns the file path, or `None` when disarmed, unconfigured, or
    /// the write failed (a flight dump must never panic — it runs inside
    /// panic hooks).
    pub fn flight_dump(&self, reason: &str) -> Option<PathBuf> {
        if !self.is_armed() {
            return None;
        }
        let dir = self.inner.flight_dir.lock().ok()?.clone()?;
        let records = self.collect_tail(self.inner.flight_tail);
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        // Keep the reason filename-safe.
        let reason: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let path = dir.join(format!("flight-{reason}-{stamp}.json"));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&path, chrome::render(&records)).ok()?;
        Some(path)
    }

    /// Installs a process-wide panic hook that flight-dumps this tracer's
    /// rings (reason `"panic"`) before delegating to the previous hook.
    /// The dump itself never panics; without a flight directory the hook
    /// only delegates.
    pub fn install_panic_hook(&self) {
        let tracer = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = tracer.flight_dump("panic");
            prev(info);
        }));
    }
}

/// Cheap cloneable recording handle bound to one lane's ring.
#[derive(Clone)]
pub struct TraceLane {
    tracer: Tracer,
    ring: Arc<TraceRing>,
}

impl fmt::Debug for TraceLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLane")
            .field("lane", &self.ring.lane)
            .field("armed", &self.armed())
            .finish()
    }
}

impl TraceLane {
    /// Whether spans are being recorded (one relaxed load).
    #[inline]
    pub fn armed(&self) -> bool {
        self.tracer.is_armed()
    }

    /// This handle's lane id.
    pub fn lane(&self) -> u32 {
        self.ring.lane
    }

    /// The owning tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Nanoseconds since the tracer epoch.
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// Opens a span; `None` (after one relaxed load) when disarmed. The
    /// span closes — and its record is written — when the returned scope
    /// drops. Nested scopes on the same lane link parent→child.
    pub fn scope(&self, name: &'static str) -> Option<TraceScope> {
        if !self.armed() {
            return None;
        }
        let id = self.tracer.alloc_id();
        // relaxed: `current` is lane-local (single mutator per lane).
        let parent = self.ring.current.swap(id, Ordering::Relaxed);
        Some(TraceScope {
            lane: self.clone(),
            id,
            parent,
            begin_ns: self.now_ns(),
            name,
            args: [("", 0); MAX_SPAN_ARGS],
            nargs: 0,
        })
    }

    /// Records a point event under the currently open span.
    pub fn instant(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if !self.armed() {
            return;
        }
        let now = self.now_ns();
        let mut rec = SpanRecord {
            id: self.tracer.alloc_id(),
            // relaxed: `current` is lane-local (single mutator per lane).
            parent: self.ring.current.load(Ordering::Relaxed),
            lane: self.ring.lane,
            kind: SpanKind::Instant,
            begin_ns: now,
            end_ns: now,
            name,
            args: [("", 0); MAX_SPAN_ARGS],
            nargs: 0,
        };
        for &(k, v) in args.iter().take(MAX_SPAN_ARGS) {
            rec.args[usize::from(rec.nargs)] = (k, v);
            rec.nargs += 1;
        }
        self.ring.push(rec);
    }
}

/// RAII span: records one [`SpanKind::Complete`] record when dropped.
pub struct TraceScope {
    lane: TraceLane,
    id: u64,
    parent: u64,
    begin_ns: u64,
    name: &'static str,
    args: [(&'static str, u64); MAX_SPAN_ARGS],
    nargs: u8,
}

impl TraceScope {
    /// Attaches a numeric argument (ignored beyond [`MAX_SPAN_ARGS`]).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if usize::from(self.nargs) < MAX_SPAN_ARGS {
            self.args[usize::from(self.nargs)] = (key, value);
            self.nargs += 1;
        }
        self
    }

    /// This span's id (e.g. to parent post-hoc records under it).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let end_ns = self.lane.now_ns();
        // relaxed: `current` is lane-local (single mutator per lane).
        self.lane.ring.current.store(self.parent, Ordering::Relaxed);
        self.lane.ring.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            lane: self.lane.ring.lane,
            kind: SpanKind::Complete,
            begin_ns: self.begin_ns,
            end_ns,
            name: self.name,
            args: self.args,
            nargs: self.nargs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_scope_is_none_and_records_nothing() {
        let t = Tracer::disarmed();
        let lane = t.lane(0);
        assert!(lane.scope("x").is_none());
        lane.instant("i", &[("k", 1)]);
        assert!(t.records().is_empty());
        t.set_armed(true);
        drop(lane.scope("x"));
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn nested_scopes_link_parent_to_child() {
        let t = Tracer::new();
        let lane = t.lane(0);
        let outer = lane.scope("outer").unwrap();
        let outer_id = outer.id();
        {
            let inner = lane.scope("inner").unwrap().arg("k", 7);
            assert_eq!(inner.id(), outer_id + 1);
        }
        lane.instant("tick", &[]);
        drop(outer);
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        let tick = recs.iter().find(|r| r.name == "tick").unwrap();
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(tick.parent, outer.id);
        assert_eq!(tick.kind, SpanKind::Instant);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.key_values(), &[("k", 7)]);
        assert!(inner.begin_ns >= outer.begin_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let t = Tracer::with_capacity(8);
        let lane = t.lane(3);
        for i in 0..20u64 {
            lane.instant("e", &[("i", i)]);
        }
        let recs = t.records();
        // Capacity 8, one slot kept clear of the write frontier.
        assert_eq!(recs.len(), 7);
        let is: Vec<u64> = recs.iter().map(|r| r.key_values()[0].1).collect();
        assert_eq!(is, (13..20).collect::<Vec<_>>(), "newest window survives");
        assert!(recs.iter().all(|r| r.lane == 3));
    }

    fn rec(id: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            lane: 0,
            kind: SpanKind::Instant,
            begin_ns: 0,
            end_ns: 0,
            name,
            args: [("", 0); MAX_SPAN_ARGS],
            nargs: 0,
        }
    }

    #[test]
    fn capacity_one_ring_counts_pushes_but_snapshots_nothing() {
        // Degenerate edge: with one slot the reader window (capacity − 1)
        // is empty, because the only slot is always the write frontier.
        // Pushes must still be counted and must never wedge the ring.
        let ring = TraceRing::new(0, 1);
        for i in 0..5 {
            ring.push(rec(i + 1, "e"));
        }
        assert_eq!(ring.pushed(), 5);
        let mut out = Vec::new();
        ring.snapshot_into(usize::MAX, &mut out);
        assert!(out.is_empty(), "window must stay clear of the frontier");
        // The public constructor refuses the degenerate ring: capacity is
        // clamped to 2, so a "capacity-1" tracer still keeps one record.
        let t = Tracer::with_capacity(1);
        let lane = t.lane(0);
        lane.instant("i", &[]);
        lane.instant("j", &[]);
        let recs = t.records();
        assert_eq!(recs.len(), 1, "clamped ring keeps a one-record window");
        assert_eq!(recs[0].name, "j");
    }

    #[test]
    fn seq_rollover_keeps_accepting_records() {
        // The per-slot seq word is u32 and gains 2 per overwrite; force it
        // to the wrap boundary and check the odd/even protocol survives
        // `u32::MAX − 1 → u32::MAX (odd, in progress) → 0 (even, stable)`.
        let ring = TraceRing::new(0, 2);
        for slot in ring.slots.iter() {
            slot.seq.store(u32::MAX - 1, Ordering::Release);
        }
        ring.push(rec(1, "wrap"));
        assert_eq!(ring.slots[0].seq.load(Ordering::Acquire), 0, "seq wrapped");
        let mut out = Vec::new();
        ring.snapshot_into(usize::MAX, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "wrap");
        // The next overwrite of the same slot restarts the even ladder.
        ring.push(rec(2, "a"));
        ring.push(rec(3, "b"));
        assert_eq!(ring.slots[0].seq.load(Ordering::Acquire), 2);
    }

    #[test]
    fn reader_skips_slot_held_mid_write() {
        // A slot whose seq is odd is mid-write; the reader must skip it
        // (not block, not surface a half-written record) and still return
        // the stable neighbours.
        let ring = TraceRing::new(0, 4);
        ring.push(rec(1, "a"));
        ring.push(rec(2, "b"));
        ring.push(rec(3, "c"));
        let held = &ring.slots[1];
        let seq = held.seq.load(Ordering::Acquire);
        held.seq.store(seq.wrapping_add(1), Ordering::Release); // odd: writer parked
        let mut out = Vec::new();
        ring.snapshot_into(usize::MAX, &mut out);
        let names: Vec<_> = out.iter().map(|r| r.name).collect();
        assert_eq!(names, ["a", "c"], "mid-write slot must be skipped");
        held.seq.store(seq.wrapping_add(2), Ordering::Release); // even again
        out.clear();
        ring.snapshot_into(usize::MAX, &mut out);
        assert_eq!(out.len(), 3, "slot returns once the write completes");
    }

    #[test]
    fn child_adoption_remaps_ids_and_reparents_roots() {
        let t = Tracer::new();
        let lane0 = t.lane(0);
        let parent_span = lane0.scope("partition").unwrap();
        let parent_id = parent_span.id();

        let child = t.child(2);
        let clane = child.lane(2);
        {
            let outer = clane.scope("c_outer").unwrap();
            drop(clane.scope("c_inner"));
            drop(outer);
        }
        let child_recs = child.records();
        t.adopt(&child_recs, parent_id, 2);
        drop(parent_span);

        let recs = t.records();
        let outer = recs.iter().find(|r| r.name == "c_outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "c_inner").unwrap();
        assert_eq!(outer.parent, parent_id, "child roots hang off the span");
        assert_eq!(inner.parent, outer.id, "internal links survive the remap");
        assert_ne!(outer.id, parent_id);
        // Ids are unique across the merged timeline.
        let mut ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), recs.len());
    }

    #[test]
    fn flight_dump_writes_timestamped_chrome_json() {
        let t = Tracer::new();
        drop(t.lane(0).scope("s").map(|s| s.arg("n", 1)));
        assert!(t.flight_dump("test").is_none(), "no dir configured yet");
        let dir = std::env::temp_dir().join(format!("chameleon-flight-{}", std::process::id()));
        t.set_flight_dir(&dir);
        let path = t.flight_dump("unit test!").expect("dump written");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("flight-unit-test-"));
        let body = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::parse(&body).expect("valid JSON");
        assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
