//! The simulated managed heap.
//!
//! [`Heap`] is a cheaply cloneable handle to one heap: an object table,
//! a root set, a class registry, an allocation-context table, and a
//! mark-sweep collector. Collection implementations mirror every internal
//! allocation (wrappers, backing arrays, entry objects) into this heap so
//! the collector can account for them exactly the way the paper's
//! J9-instrumented GC did.
//!
//! # Storage layout
//!
//! Objects live in a *dense* slab (`Vec<Object>`) with a parallel packed
//! flag vector (`Vec<u8>`): one byte per slot records whether the slot is
//! occupied, whether the object is an array, whether its class carries
//! a top-level semantic map, and whether it was written since the last GC
//! cycle. The GC's fused scan reads the flag byte
//! instead of an `Option` discriminant plus a class-registry lookup, and a
//! swept slot keeps its (stale) object in place so reuse writes fields
//! instead of constructing.
//!
//! Roots are a third parallel vector: a `u32` root count per slot.
//! Rooting and unrooting index it directly — no hashing on the allocation
//! path — and the collector enumerates roots in slot order. A handle
//! whose generation no longer matches its slot is stale, and rooting or
//! unrooting it is a no-op, so a reused slot is never rooted by its
//! previous occupant's id. A rooted object is always marked, so a swept
//! slot's count is zero by construction.
//!
//! Reference fields and array slots live in one shared *ref pool* arena
//! per heap, handed out as [`RefRange`](crate::object::RefRange)s with
//! exact-size free-list buckets keyed by length under a multiplicative
//! hash. Allocating or sweeping an object touches no process allocator
//! once the pool is warm — crucial for parallel mutators, where
//! per-object `Box` traffic from many threads serializes on `malloc` even
//! when the heaps themselves are disjoint.
//!
//! # Single-mutator contract
//!
//! Every heap has exactly one mutator. Its state lives in a
//! single-mutator cell: a `RefCell` behind an `Rc`, so a [`Heap`] is
//! neither `Send` nor `Sync` and the compiler keeps it on the thread that
//! built it. Each operation borrows the state mutably for its duration
//! (unwinds release the borrow). Entering a heap from inside one of its
//! own operations panics, naming the operation and (with
//! [`HeapConfig::shard_index`]) the partition. Each environment owns its
//! heap — sequential runs, minimal-heap trials, parallel partitions and
//! serve tenants alike. The allocation-context table lives in the cell
//! too: every capture enters the heap like any other operation, between
//! the mutator's allocations.

use crate::clock::SimClock;
use crate::context::{ContextExport, ContextId, ContextTable, FrameId};
use crate::gc::{self, AdtCached};
use crate::layout::MemoryModel;
use crate::lifetime::Lifetimes;
use crate::object::{ClassId, ElemKind, ObjBody, ObjId, Object, ObjectView, RefRange};
use crate::semantic::{ClassRegistry, SemanticMap};
use crate::snapshot::{HeapProfConfig, HeapProfState, HeapSnapshot};
use crate::stats::CycleStats;
use crate::telemetry::HeapTelemetry;
use chameleon_telemetry::{Telemetry, TraceLane};
use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Panic payload used for the simulated `OutOfMemoryError`.
///
/// [`Heap`] panics with this payload when an allocation does not fit under
/// the configured capacity even after a full GC. Only the minimal-heap
/// bisection oracle (`completes_under_with` in `chameleon-core`) catches
/// it, with `std::panic::catch_unwind`, to learn that a capacity is too
/// small; the production search reads the capacity it needs from a
/// lifetime trace ([`Heap::record_lifetimes`]). Elsewhere (a
/// serve tenant, a parallel partition) it is an ordinary panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the failing allocation requested.
    pub requested: u64,
    /// Configured heap capacity.
    pub capacity: u64,
    /// Live bytes remaining after the emergency GC.
    pub live_after_gc: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated OutOfMemoryError: requested {} B, capacity {} B, live {} B",
            self.requested, self.capacity, self.live_after_gc
        )
    }
}

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Simulated cost units charged per KiB of live data marked.
    pub cost_per_live_kib: u64,
    /// Fixed simulated cost units charged per cycle (stop-the-world pause).
    pub cost_per_cycle: u64,
    /// Flight-recorder anomaly trigger: when an execution tracer is
    /// attached and a cycle's pause cost exceeds `anomaly_factor ×` the
    /// running median of the last [`PAUSE_HISTORY`] cycles (after
    /// [`ANOMALY_WARMUP`] warm-up cycles), the tracer's ring buffers are
    /// dumped to its flight directory. The trigger compares deterministic
    /// simulated cost units, never wall clock. `0` disables the trigger.
    pub anomaly_factor: u64,
}

/// Pause-cost samples retained for the anomaly trigger's running median.
pub const PAUSE_HISTORY: usize = 32;
/// Cycles observed before the anomaly trigger may fire.
pub const ANOMALY_WARMUP: usize = 8;

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            cost_per_live_kib: 600,
            cost_per_cycle: 50_000,
            anomaly_factor: 8,
        }
    }
}

/// Heap construction parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapConfig {
    /// Object layout model (defaults to the paper's 32-bit JVM).
    pub model: MemoryModel,
    /// Optional capacity in bytes; `None` means unbounded (no automatic GC).
    pub capacity: Option<u64>,
    /// If set, run a GC every time this many bytes have been allocated
    /// since the last cycle — allocation-driven GC pressure for unbounded
    /// profiling runs.
    pub gc_interval_bytes: Option<u64>,
    /// Collector configuration.
    pub gc: GcConfig,
    /// Partition index of this heap, named in the re-entry panic message
    /// so a single-mutator contract violation reports *which* partition
    /// was entered twice. The parallel runner and the serve
    /// tenants set it; `None` leaves the partition out of the message.
    pub shard_index: Option<usize>,
}

/// Packed per-slot flags (`HeapInner::flags`), one byte per slab slot.
///
/// The slot holds a live-or-garbage object (cleared when swept).
pub(crate) const F_OCCUPIED: u8 = 1;
/// The object is an array (its body carries `slots`/`capacity`).
pub(crate) const F_ARRAY: u8 = 1 << 1;
/// The object's class registered a *top-level* semantic map, so the GC
/// scan computes collection statistics for it. Precomputed at insert so
/// the scan skips the class-registry lookup for ordinary objects.
pub(crate) const F_TOP_COLL: u8 = 1 << 2;
/// A reference field, array slot or meta slot of the object was written
/// since the last GC cycle, which clears the bit on every slot. The GC
/// reuses a collection's cached semantic totals only while no object its
/// walk resolved carries this bit.
pub(crate) const F_DIRTY: u8 = 1 << 3;
/// Set between the mark and the sweep of a cycle on the footprint of each
/// mark summary that holds its slots exclusively this cycle. The scan skips
/// such a slot unless it also carries `F_TOP_COLL`: the summary's stored
/// accounting covers it. Cleared on every slot after the sweep.
pub(crate) const F_SUMMARIZED: u8 = 1 << 4;

pub(crate) struct HeapInner {
    pub(crate) model: MemoryModel,
    /// Dense object storage; `flags` gates which slots are occupied.
    pub(crate) slab: Vec<Object>,
    /// Packed per-slot flag bytes, parallel to `slab`.
    pub(crate) flags: Vec<u8>,
    pub(crate) free: Vec<u32>,
    /// Arena backing every object's reference fields / array slots.
    pub(crate) ref_pool: Vec<Option<ObjId>>,
    /// Exact-size free-range buckets into `ref_pool`: `len → start offsets`
    /// (LIFO, so reuse is cache-warm).
    free_ranges: HashMap<u32, Vec<u32>, BuildHasherDefault<LenHasher>>,
    pub(crate) generation: u32,
    /// Bytes currently occupied in the object table (live + garbage).
    pub(crate) heap_bytes: u64,
    pub(crate) capacity: Option<u64>,
    pub(crate) gc_interval_bytes: Option<u64>,
    pub(crate) bytes_since_gc: u64,
    /// Largest live-after-GC plus request over the collections
    /// `ensure_room` ran: a lower bound on the capacity a run needs.
    pub(crate) peak_need: u64,
    /// Merlin lifetime trace; `None` (the default) keeps allocation and
    /// the reference barriers free of it.
    pub(crate) lifetimes: Option<Lifetimes>,
    /// Root registrations per slot, parallel to `slab` (0 = not a root).
    pub(crate) root_counts: Vec<u32>,
    pub(crate) classes: ClassRegistry,
    pub(crate) contexts: ContextTable,
    pub(crate) cycles: Vec<CycleStats>,
    pub(crate) gc_config: GcConfig,
    pub(crate) clock: Option<SimClock>,
    pub(crate) total_allocated_bytes: u64,
    pub(crate) total_allocated_objects: u64,
    pub(crate) gc_count: u64,
    /// Reusable epoch-stamped mark array (slot i is marked iff
    /// `marks[i] == mark_epoch`); lives here so collection cycles neither
    /// allocate nor clear marks.
    pub(crate) marks: Vec<u32>,
    pub(crate) mark_epoch: u32,
    /// Pre-resolved telemetry handles; `None` (the default) keeps every hot
    /// path exactly as uninstrumented.
    pub(crate) telemetry: Option<HeapTelemetry>,
    /// Execution-trace lane for GC phase spans; `None` (the default)
    /// keeps collection cycles span-free.
    pub(crate) tracer: Option<TraceLane>,
    /// Recent `pause_cost_units` (deterministic sim units) feeding the
    /// flight-recorder anomaly trigger's running median.
    pub(crate) pause_history: VecDeque<u64>,
    /// Continuous heap profiling; `None` (the default) keeps the GC scan
    /// free of snapshot work.
    pub(crate) heapprof: Option<HeapProfState>,
    /// Semantic totals of the large top-level collections walked last
    /// cycle, ascending by slot (see `gc::AdtCached`).
    pub(crate) adt_cache: Vec<AdtCached>,
}

/// Single-mutator cell behind every [`Heap`]: entry borrows `inner`
/// mutably or panics, so at most one `&mut HeapInner` ever exists. The
/// cell is `!Send` and `!Sync` (it sits behind an `Rc` and holds a
/// `RefCell`), so the compiler keeps every heap on the thread that built
/// it.
struct HeapCell {
    /// Partition index this heap belongs to (from
    /// [`HeapConfig::shard_index`]); names the partition in the re-entry
    /// panic so the report points at a partition, not just "a heap".
    index: Option<usize>,
    inner: RefCell<HeapInner>,
}

/// Cloneable handle to a simulated heap (see the module docs for the
/// single-mutator contract).
///
/// # Examples
///
/// ```
/// use chameleon_heap::{Heap, ElemKind};
///
/// let heap = Heap::new();
/// let class = heap.register_class("Point", None);
/// let p = heap.alloc_scalar(class, 2, 8, None);
/// heap.add_root(p);
/// let before = heap.gc().live_objects;
/// heap.remove_root(p);
/// let after = heap.gc().live_objects;
/// assert_eq!(before - after, 1);
/// let _ = ElemKind::Ref; // arrays work the same way via `alloc_array`
/// ```
///
/// A heap never leaves the thread that built it: it is not `Send`
///
/// ```compile_fail
/// fn f<T: Send>() {}
/// f::<chameleon_heap::Heap>();
/// ```
///
/// and not `Sync`.
///
/// ```compile_fail
/// fn f<T: Sync>() {}
/// f::<chameleon_heap::Heap>();
/// ```
#[derive(Clone)]
pub struct Heap {
    cell: Rc<HeapCell>,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `try_lock_inner`, not `lock`: debug-printing a heap that is
        // already entered (e.g. from a panic hook mid-allocation) must not
        // panic a second time.
        match self.try_lock_inner() {
            Some(inner) => f
                .debug_struct("Heap")
                .field("objects", &(inner.slab.len() - inner.free.len()))
                .field("heap_bytes", &inner.heap_bytes)
                .field("capacity", &inner.capacity)
                .field("gc_count", &inner.gc_count)
                .finish(),
            None => f.write_str("Heap(<locked>)"),
        }
    }
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

impl Heap {
    /// Creates an unbounded heap with the paper's 32-bit layout.
    pub fn new() -> Self {
        Heap::with_config(HeapConfig::default())
    }

    /// Creates a heap with an explicit configuration.
    pub fn with_config(config: HeapConfig) -> Self {
        let inner = HeapInner {
            model: config.model,
            slab: Vec::new(),
            flags: Vec::new(),
            free: Vec::new(),
            ref_pool: Vec::new(),
            free_ranges: HashMap::default(),
            generation: 1,
            heap_bytes: 0,
            capacity: config.capacity,
            gc_interval_bytes: config.gc_interval_bytes,
            bytes_since_gc: 0,
            peak_need: 0,
            lifetimes: None,
            root_counts: Vec::new(),
            classes: ClassRegistry::new(),
            contexts: ContextTable::new(),
            cycles: Vec::new(),
            gc_config: config.gc,
            clock: None,
            total_allocated_bytes: 0,
            total_allocated_objects: 0,
            gc_count: 0,
            marks: Vec::new(),
            mark_epoch: 0,
            telemetry: None,
            tracer: None,
            pause_history: VecDeque::new(),
            heapprof: None,
            adt_cache: Vec::new(),
        };
        Heap {
            cell: Rc::new(HeapCell {
                index: config.shard_index,
                inner: RefCell::new(inner),
            }),
        }
    }

    /// Enters the heap by borrowing its state mutably.
    ///
    /// `op` names the heap operation being entered; it appears in the
    /// re-entry panic so a violation report says which operation
    /// collided on which partition.
    ///
    /// # Panics
    ///
    /// Panics if the heap is entered while an enclosing operation is
    /// still inside it (single-mutator contract).
    fn lock(&self, op: &'static str) -> RefMut<'_, HeapInner> {
        if let Some(guard) = self.try_lock_inner() {
            return guard;
        }
        match self.cell.index {
            Some(i) => {
                panic!("heap of partition {i} re-entered during `{op}` (single-mutator contract)")
            }
            None => panic!("heap re-entered during `{op}` (single-mutator contract)"),
        }
    }

    /// Non-panicking entry; `None` when the heap is already entered.
    fn try_lock_inner(&self) -> Option<RefMut<'_, HeapInner>> {
        self.cell.inner.try_borrow_mut().ok()
    }

    /// Creates a heap capped at `capacity` bytes (allocations GC on
    /// exhaustion and panic with [`OutOfMemory`] if still full).
    pub fn with_capacity(capacity: u64) -> Self {
        Heap::with_config(HeapConfig {
            capacity: Some(capacity),
            ..HeapConfig::default()
        })
    }

    /// Attaches a simulated clock; the collector charges its cycle costs to
    /// it.
    pub fn attach_clock(&self, clock: SimClock) {
        self.lock("attach_clock").clock = Some(clock);
    }

    /// Attaches a telemetry handle. Metric handles are resolved once, here;
    /// afterwards the allocation/capture/GC paths record into lock-free
    /// atomics. Telemetry never charges the [`SimClock`], so simulated
    /// results are identical with it attached or absent. The allocation,
    /// GC and context-capture counters all resolve from this one handle.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.lock("attach_telemetry").telemetry = Some(HeapTelemetry::new(telemetry));
    }

    /// Attaches an execution-trace lane: GC cycles record causal phase
    /// spans (mark, scan, sweep, snapshot capture). Tracing reads only the
    /// wall clock and never charges the [`SimClock`], so simulated results
    /// are bit-identical with it absent, attached, or exporting. Also arms the
    /// flight-recorder anomaly trigger (see [`GcConfig::anomaly_factor`]).
    pub fn attach_tracer(&self, lane: &TraceLane) {
        self.lock("attach_tracer").tracer = Some(lane.clone());
    }

    /// Enables (with `Some`) or disables (with `None`) continuous heap
    /// profiling. While enabled, every `config.every`-th GC cycle captures a
    /// [`HeapSnapshot`] during the fused scan — per-context self bytes,
    /// object and edge counts, semantic collection totals, and
    /// dominator-based retained sizes over the context condensation.
    /// Snapshot capture only reads the heap and never charges the
    /// [`SimClock`], so simulated results are bit-identical with profiling
    /// on, off, or absent. Re-enabling discards previously captured
    /// snapshots.
    pub fn set_heap_profiling(&self, config: Option<HeapProfConfig>) {
        self.lock("set_heap_profiling").heapprof = config.map(HeapProfState::new);
    }

    /// The active heap-profiling configuration, if any.
    pub fn heap_profiling(&self) -> Option<HeapProfConfig> {
        self.lock("heap_profiling")
            .heapprof
            .as_ref()
            .map(|s| s.config)
    }

    /// All heap snapshots captured so far (empty unless
    /// [`Heap::set_heap_profiling`] enabled capture).
    pub fn heap_snapshots(&self) -> Vec<HeapSnapshot> {
        self.lock("heap_snapshots")
            .heapprof
            .as_ref()
            .map(|s| s.snapshots.clone())
            .unwrap_or_default()
    }

    /// Discards captured snapshots while keeping profiling enabled.
    pub fn clear_heap_snapshots(&self) {
        if let Some(s) = self.lock("clear_heap_snapshots").heapprof.as_mut() {
            s.snapshots.clear();
        }
    }

    /// The layout model this heap uses.
    pub fn model(&self) -> MemoryModel {
        self.lock("model").model
    }

    // ----- classes and contexts -------------------------------------------------

    /// Registers a class (idempotent by name).
    pub fn register_class(&self, name: &str, map: Option<SemanticMap>) -> ClassId {
        self.lock("register_class").classes.register(name, map)
    }

    /// Returns the display name of `class`.
    pub fn class_name(&self, class: ClassId) -> String {
        self.lock("class_name").classes.info(class).name.clone()
    }

    /// Interns an allocation context from frame display names
    /// (innermost first), truncated to `depth`.
    pub fn intern_context(&self, src_type: &str, frames: &[String], depth: usize) -> ContextId {
        let mut inner = self.lock("intern_context");
        let ids: Vec<FrameId> = frames
            .iter()
            .take(depth)
            .map(|f| inner.contexts.intern_frame(f))
            .collect();
        inner.contexts.intern(src_type, &ids, depth)
    }

    /// Interns a single stack frame into this heap's context table.
    ///
    /// The hit path is a borrowed lookup: no allocation once the frame is
    /// warm.
    /// [`CallStackSim::for_heap`](crate::context::CallStackSim::for_heap)
    /// stacks use this so their frame ids are directly valid for
    /// [`Heap::intern_context_ids`].
    pub fn intern_frame(&self, name: &str) -> FrameId {
        let mut guard = self.lock("intern_frame");
        let inner = &mut *guard;
        let known = inner.contexts.frame_misses();
        let id = inner.contexts.intern_frame(name);
        if inner.contexts.frame_misses() > known {
            if let Some(ht) = &inner.telemetry {
                ht.frame_misses.inc();
            }
        }
        id
    }

    /// Resolves a frame id previously returned by [`Heap::intern_frame`].
    pub fn frame_name(&self, frame: FrameId) -> String {
        self.lock("frame_name")
            .contexts
            .frame_name(frame)
            .to_owned()
    }

    /// Interns an allocation context from already-interned frame ids
    /// (innermost first, truncated to `depth`).
    ///
    /// This is the hot capture path: a borrowed-key probe and zero
    /// allocations when the context is already known.
    pub fn intern_context_ids(
        &self,
        src_type: &str,
        frames: &[FrameId],
        depth: usize,
    ) -> ContextId {
        let mut guard = self.lock("intern_context_ids");
        let inner = &mut *guard;
        let known = inner.contexts.len();
        let ctx = inner.contexts.intern(src_type, frames, depth);
        if let Some(ht) = &inner.telemetry {
            if inner.contexts.len() > known {
                ht.ctx_misses.inc();
            } else {
                ht.ctx_hits.inc();
            }
        }
        ctx
    }

    /// `(frame_misses, context_misses)` of the context table: how many
    /// intern calls actually allocated. Warm capture paths leave both
    /// counters unchanged, which tests assert on.
    pub fn context_intern_misses(&self) -> (u64, u64) {
        let inner = self.lock("context_intern_misses");
        (
            inner.contexts.frame_misses(),
            inner.contexts.context_misses(),
        )
    }

    /// Formats a context in the paper's `Type:frame;frame` style.
    pub fn format_context(&self, ctx: ContextId) -> String {
        self.lock("format_context").contexts.format(ctx)
    }

    /// Source type recorded for a context.
    pub fn context_src_type(&self, ctx: ContextId) -> String {
        self.lock("context_src_type")
            .contexts
            .record(ctx)
            .src_type
            .to_string()
    }

    /// Frame display names of a context, innermost first (portable across
    /// heaps: re-interning them reproduces the same logical context).
    pub fn context_frames(&self, ctx: ContextId) -> Vec<String> {
        let inner = self.lock("context_frames");
        inner
            .contexts
            .record(ctx)
            .stack
            .iter()
            .map(|f| inner.contexts.frame_name(*f).to_owned())
            .collect()
    }

    /// Changes the allocation-driven GC interval.
    pub fn set_gc_interval_bytes(&self, interval: Option<u64>) {
        self.lock("set_gc_interval_bytes").gc_interval_bytes = interval;
    }

    /// Number of distinct allocation contexts interned.
    pub fn context_count(&self) -> usize {
        self.lock("context_count").contexts.len()
    }

    /// Dumps every interned context as a `(src_type, frames)` pair, in
    /// context-id order (index `i` is `ContextId(i)`).
    ///
    /// This materializes owned `String`s; the parallel runner's merge uses
    /// the allocation-free [`Heap::export_contexts`] /
    /// [`Heap::import_contexts`] pair instead.
    pub fn context_records(&self) -> Vec<(String, Vec<String>)> {
        let inner = self.lock("context_records");
        inner
            .contexts
            .iter()
            .map(|(_, rec)| {
                let frames = rec
                    .stack
                    .iter()
                    .map(|f| inner.contexts.frame_name(*f).to_owned())
                    .collect();
                (rec.src_type.to_string(), frames)
            })
            .collect()
    }

    /// Dumps the context table as an `Arc`-shared [`ContextExport`]:
    /// frame names in `FrameId` order plus records in `ContextId` order,
    /// with every string shared rather than copied.
    pub fn export_contexts(&self) -> ContextExport {
        self.lock("export_contexts").contexts.export()
    }

    /// Re-interns `export` (from another heap) into this heap's context
    /// table and returns the remap: index `i` — the exporter's
    /// `ContextId(i)` — maps to this heap's returned id. Used by the
    /// parallel runner's partition merge; by construction the remap is a
    /// pure function of the two tables' contents, never of thread timing.
    pub fn import_contexts(&self, export: &ContextExport) -> Vec<ContextId> {
        self.lock("import_contexts").contexts.import(export)
    }

    // ----- allocation -----------------------------------------------------------

    /// Allocates a scalar object with `ref_fields` reference fields (all
    /// null) and `prim_bytes` of primitive payload.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// object does not fit even after a GC.
    pub fn alloc_scalar(
        &self,
        class: ClassId,
        ref_fields: u32,
        prim_bytes: u32,
        ctx: Option<ContextId>,
    ) -> ObjId {
        let mut inner = self.lock("alloc_scalar");
        let size = inner.model.object_size(ref_fields, prim_bytes);
        inner.ensure_room(u64::from(size));
        let refs = inner.alloc_range(ref_fields);
        inner.insert(class, size, ctx, ObjBody::Scalar { refs, prim_bytes })
    }

    /// Allocates an array of `capacity` elements of kind `elem`.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// array does not fit even after a GC.
    pub fn alloc_array(
        &self,
        class: ClassId,
        elem: ElemKind,
        capacity: u32,
        ctx: Option<ContextId>,
    ) -> ObjId {
        let mut inner = self.lock("alloc_array");
        let elem_bytes = match elem {
            ElemKind::Ref => inner.model.ref_bytes,
            ElemKind::Prim { bytes_per_elem } => bytes_per_elem,
        };
        let size = inner.model.array_size(elem_bytes, capacity);
        inner.ensure_room(u64::from(size));
        let slots = match elem {
            ElemKind::Ref => inner.alloc_range(capacity),
            ElemKind::Prim { .. } => RefRange::EMPTY,
        };
        let body = ObjBody::Array {
            elem,
            slots,
            capacity,
        };
        inner.insert(class, size, ctx, body)
    }

    /// Allocates `N` objects, wires `links` and registers `roots`, all
    /// under a single heap entry and a single capacity check.
    ///
    /// Collection constructors allocate a wrapper, an implementation object
    /// and often a backing array together; doing that through three
    /// `alloc_*` calls enters the heap three times and — worse — can run a
    /// capacity-pressure GC between the allocations, sweeping the fresh,
    /// not-yet-linked objects. `alloc_batch` reserves room for the whole
    /// group up front, so a mid-batch GC is impossible. Collection updates
    /// use it too: a hash entry is allocated with its initial references
    /// and published into its bucket slot in one entry.
    ///
    /// `links` entries are `(src, field, dst)`: object `src` gets its
    /// reference field (or array slot) `field` pointed at `dst`. Either end
    /// may be a fresh object of this batch ([`BatchRef::New`]) or an
    /// existing one ([`BatchRef::Obj`]); a `None` destination stores null.
    /// Links are written after the capacity check, so any GC it runs sees
    /// the heap exactly as before the call. `roots` lists request indices
    /// to register as GC roots.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// combined batch does not fit even after a GC.
    pub fn alloc_batch<const N: usize>(
        &self,
        reqs: [BatchAlloc; N],
        links: &[(BatchRef, usize, Option<BatchRef>)],
        roots: &[usize],
    ) -> [ObjId; N] {
        let mut inner = self.lock("alloc_batch");
        let model = inner.model;
        let sizes = reqs.map(|r| r.size(&model));
        let batch_bytes: u64 = sizes.iter().map(|s| u64::from(*s)).sum();
        if let Some(ht) = &inner.telemetry {
            ht.alloc_batch_bytes.record(batch_bytes);
        }
        inner.ensure_room(batch_bytes);
        let mut ids = [ObjId {
            index: 0,
            generation: 0,
        }; N];
        for (i, req) in reqs.into_iter().enumerate() {
            let (class, ctx, body) = match req {
                BatchAlloc::Scalar {
                    class,
                    ref_fields,
                    prim_bytes,
                    ctx,
                } => (
                    class,
                    ctx,
                    ObjBody::Scalar {
                        refs: inner.alloc_range(ref_fields),
                        prim_bytes,
                    },
                ),
                BatchAlloc::Array {
                    class,
                    elem,
                    capacity,
                    ctx,
                } => (
                    class,
                    ctx,
                    ObjBody::Array {
                        elem,
                        slots: match elem {
                            ElemKind::Ref => inner.alloc_range(capacity),
                            ElemKind::Prim { .. } => RefRange::EMPTY,
                        },
                        capacity,
                    },
                ),
            };
            ids[i] = inner.insert(class, sizes[i], ctx, body);
        }
        let id = |r: BatchRef| match r {
            BatchRef::New(i) => ids[i],
            BatchRef::Obj(obj) => obj,
        };
        for &(src, field, dst) in links {
            let src = id(src);
            let slot = inner.resolve(src).body.ref_range().slot(field);
            if inner.lifetimes.is_some() {
                inner.stamp_target(slot);
            }
            inner.ref_pool[slot] = dst.map(id);
            inner.flags[src.index as usize] |= F_DIRTY;
        }
        for &root in roots {
            inner.root_counts[ids[root].index as usize] += 1;
        }
        ids
    }

    // ----- object access --------------------------------------------------------

    /// Stores `target` into reference field `field` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is stale or `field` is out of bounds.
    pub fn set_ref(&self, obj: ObjId, field: usize, target: Option<ObjId>) {
        let mut inner = self.lock("set_ref");
        let range = match inner.resolve(obj).body {
            ObjBody::Scalar { refs, .. } => refs,
            ObjBody::Array { .. } => panic!("set_ref on array object; use set_elem"),
        };
        let slot = range.slot(field);
        if inner.lifetimes.is_some() {
            inner.stamp_target(slot);
        }
        inner.ref_pool[slot] = target;
        inner.flags[obj.index as usize] |= F_DIRTY;
    }

    /// Reads reference field `field` of `obj`.
    pub fn get_ref(&self, obj: ObjId, field: usize) -> Option<ObjId> {
        let inner = self.lock("get_ref");
        let range = match inner.resolve(obj).body {
            ObjBody::Scalar { refs, .. } => refs,
            ObjBody::Array { .. } => panic!("get_ref on array object; use get_elem"),
        };
        inner.ref_pool[range.slot(field)]
    }

    /// Stores `target` into slot `idx` of a reference array.
    pub fn set_elem(&self, arr: ObjId, idx: usize, target: Option<ObjId>) {
        let mut inner = self.lock("set_elem");
        let range = match inner.resolve(arr).body {
            ObjBody::Array { slots, .. } => slots,
            ObjBody::Scalar { .. } => panic!("set_elem on scalar object; use set_ref"),
        };
        let slot = range.slot(idx);
        if inner.lifetimes.is_some() {
            inner.stamp_target(slot);
        }
        inner.ref_pool[slot] = target;
        inner.flags[arr.index as usize] |= F_DIRTY;
    }

    /// Reads slot `idx` of a reference array.
    pub fn get_elem(&self, arr: ObjId, idx: usize) -> Option<ObjId> {
        let inner = self.lock("get_elem");
        let range = match inner.resolve(arr).body {
            ObjBody::Array { slots, .. } => slots,
            ObjBody::Scalar { .. } => panic!("get_elem on scalar object; use get_ref"),
        };
        inner.ref_pool[range.slot(idx)]
    }

    /// Writes `values` into consecutive semantic-map metadata slots
    /// starting at `first` (grows the vector as needed), in one heap entry.
    pub fn set_meta(&self, obj: ObjId, first: usize, values: &[i64]) {
        let mut inner = self.lock("set_meta");
        let meta = &mut inner.resolve_mut(obj).meta;
        let end = first + values.len();
        if meta.len() < end {
            meta.resize(end, 0);
        }
        meta[first..end].copy_from_slice(values);
        inner.flags[obj.index as usize] |= F_DIRTY;
    }

    /// Reads semantic-map metadata slot `idx` (0 if never written).
    pub fn get_meta(&self, obj: ObjId, idx: usize) -> i64 {
        let inner = self.lock("get_meta");
        inner.resolve(obj).meta.get(idx).copied().unwrap_or(0)
    }

    /// Returns a snapshot view of `obj`.
    pub fn view(&self, obj: ObjId) -> ObjectView {
        let inner = self.lock("view");
        let o = inner.resolve(obj);
        ObjectView {
            class: o.class,
            size: o.size,
            ctx: o.ctx,
            refs: inner.ref_pool[o.body.ref_range().as_range()].to_vec(),
            array_capacity: o.array_capacity(),
            meta: o.meta.clone(),
        }
    }

    /// Whether `obj` still resolves (has not been swept).
    pub fn is_live(&self, obj: ObjId) -> bool {
        self.lock("is_live").live_slot(obj).is_some()
    }

    /// Aligned size of `obj` in bytes.
    pub fn size_of(&self, obj: ObjId) -> u32 {
        self.lock("size_of").resolve(obj).size
    }

    /// Class of `obj`.
    pub fn class_of(&self, obj: ObjId) -> ClassId {
        self.lock("class_of").resolve(obj).class
    }

    // ----- roots ----------------------------------------------------------------

    /// Registers `obj` as a GC root (reference counted). A stale `obj`
    /// (swept, or its slot reused) is ignored.
    pub fn add_root(&self, obj: ObjId) {
        let mut inner = self.lock("add_root");
        if let Some(i) = inner.live_slot(obj) {
            inner.root_counts[i] += 1;
        }
    }

    /// Releases one root registration of `obj`. A stale or unrooted `obj`
    /// is ignored.
    pub fn remove_root(&self, obj: ObjId) {
        let mut inner = self.lock("remove_root");
        if let Some(i) = inner.live_slot(obj) {
            let n = &mut inner.root_counts[i];
            *n = n.saturating_sub(1);
            if let Some(lt) = &mut inner.lifetimes {
                lt.touch(i);
            }
        }
    }

    /// Number of distinct live roots.
    pub fn root_count(&self) -> usize {
        let inner = self.lock("root_count");
        inner.root_counts.iter().filter(|&&n| n > 0).count()
    }

    // ----- GC and statistics ----------------------------------------------------

    /// Runs a full mark-sweep cycle and returns its statistics.
    pub fn gc(&self) -> CycleStats {
        let mut inner = self.lock("gc");
        gc::collect(&mut inner)
    }

    /// Forgets every cached collection walk, so the next cycle walks all
    /// top-level collections afresh (the reference the cache is tested
    /// against).
    #[cfg(test)]
    pub(crate) fn clear_adt_cache(&self) {
        self.lock("clear_adt_cache").adt_cache.clear();
    }

    /// All per-cycle statistics recorded so far (Table 3 rows).
    pub fn cycles(&self) -> Vec<CycleStats> {
        self.lock("cycles").cycles.clone()
    }

    /// Clears recorded cycle statistics (between runs).
    pub fn clear_cycles(&self) {
        self.lock("clear_cycles").cycles.clear();
    }

    /// Bytes currently occupied in the heap (live + not-yet-collected
    /// garbage).
    pub fn heap_bytes(&self) -> u64 {
        self.lock("heap_bytes").heap_bytes
    }

    /// Total bytes ever allocated.
    pub fn total_allocated_bytes(&self) -> u64 {
        self.lock("total_allocated_bytes").total_allocated_bytes
    }

    /// Total objects ever allocated.
    pub fn total_allocated_objects(&self) -> u64 {
        self.lock("total_allocated_objects").total_allocated_objects
    }

    /// Number of GC cycles run.
    pub fn gc_count(&self) -> u64 {
        self.lock("gc_count").gc_count
    }

    /// Largest live-after-GC plus request over the collections an
    /// allocation ran (interval or capacity pressure; an explicit
    /// [`Heap::gc`] has no request and does not count). A capped run of
    /// the same mutator needs at least this capacity.
    pub fn peak_need(&self) -> u64 {
        self.lock("peak_need").peak_need
    }

    /// Starts a Merlin lifetime trace (see the `lifetime` module): from
    /// now on the heap records when each object is allocated and, at each
    /// GC, when each swept object was last reachable, so
    /// [`Heap::lifetime_peak`] can tell from this one run the capacity a
    /// capped run of the same mutator needs. Objects already on the heap
    /// count as allocated before the first allocation. Restarting discards
    /// the trace so far.
    pub fn record_lifetimes(&self) {
        let mut inner = self.lock("record_lifetimes");
        inner.lifetimes = Some(Lifetimes::new(inner.slab.len()));
    }

    /// Ends the lifetime trace and returns `T`: the largest
    /// live-plus-request over every allocation since
    /// [`Heap::record_lifetimes`] (0 if there was none). It collects first
    /// only if an allocation ran since the last collection, so after a
    /// final [`Heap::gc`] reading `T` adds no cycle and leaves the clock
    /// and the attached hooks as they were. A capped run of
    /// the same mutator completes iff its capacity is at least `T`,
    /// provided the mutator never touches an object a GC at an earlier
    /// allocation would have swept, and then `T` does not depend on this
    /// run's GC schedule. A run that collects before every allocation
    /// (`gc_interval_bytes: Some(0)`) reports the same `T` as its
    /// [`Heap::peak_need`].
    ///
    /// # Panics
    ///
    /// Panics if no lifetime trace is being recorded.
    pub fn lifetime_peak(&self) -> u64 {
        self.lifetime_needs().into_iter().max().unwrap_or(0)
    }

    /// Ends the lifetime trace, collecting as [`Heap::lifetime_peak`]
    /// says, and returns live-plus-request at every allocation since
    /// [`Heap::record_lifetimes`], in order: what a heap that collects
    /// before every allocation needs at each one.
    ///
    /// # Panics
    ///
    /// Panics if no lifetime trace is being recorded.
    pub(crate) fn lifetime_needs(&self) -> Vec<u64> {
        let mut inner = self.lock("lifetime_needs");
        let lifetimes = inner
            .lifetimes
            .as_ref()
            .expect("no lifetime trace is recorded");
        if lifetimes.checked_since_collection() {
            gc::collect(&mut inner);
        }
        let lifetimes = inner.lifetimes.take().expect("checked above");
        lifetimes.needs(&inner)
    }

    /// Number of objects currently in the table (live + garbage).
    pub fn object_count(&self) -> usize {
        let inner = self.lock("object_count");
        inner.slab.len() - inner.free.len()
    }

    /// Folds a finished partition heap's recorded history into this heap:
    /// per-cycle statistics and heap snapshots (renumbered so cycle indices
    /// continue this heap's counter) plus allocation totals. Context ids
    /// inside `cycles` and `snapshots` must already be remapped into this
    /// heap's context table by the caller. Absorbing partitions in a fixed
    /// order yields a deterministic combined history regardless of which OS
    /// thread ran which partition.
    pub fn absorb_partition(
        &self,
        mut cycles: Vec<CycleStats>,
        mut snapshots: Vec<HeapSnapshot>,
        allocated_bytes: u64,
        allocated_objects: u64,
    ) {
        let mut inner = self.lock("absorb_partition");
        let base = inner.gc_count;
        let absorbed = cycles.len() as u64;
        for c in &mut cycles {
            c.cycle += base;
        }
        for s in &mut snapshots {
            s.cycle += base;
        }
        inner.cycles.append(&mut cycles);
        if let Some(state) = inner.heapprof.as_mut() {
            state.snapshots.extend(snapshots);
        }
        inner.gc_count = base + absorbed;
        inner.total_allocated_bytes += allocated_bytes;
        inner.total_allocated_objects += allocated_objects;
    }
}

impl RefRange {
    /// Pool index of this range's `field`-th slot.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of bounds for the range.
    fn slot(self, field: usize) -> usize {
        assert!(
            field < self.len as usize,
            "reference slot {field} out of bounds (object has {})",
            self.len
        );
        self.start as usize + field
    }
}

/// One allocation request inside a [`Heap::alloc_batch`] call.
#[derive(Debug, Clone, Copy)]
pub enum BatchAlloc {
    /// A scalar object (see [`Heap::alloc_scalar`]).
    Scalar {
        /// Class to allocate as.
        class: ClassId,
        /// Number of reference fields (initially null).
        ref_fields: u32,
        /// Bytes of primitive payload.
        prim_bytes: u32,
        /// Allocation context to record, if any.
        ctx: Option<ContextId>,
    },
    /// An array object (see [`Heap::alloc_array`]).
    Array {
        /// Class to allocate as.
        class: ClassId,
        /// Element kind.
        elem: ElemKind,
        /// Capacity in elements.
        capacity: u32,
        /// Allocation context to record, if any.
        ctx: Option<ContextId>,
    },
}

/// One end of a link inside a [`Heap::alloc_batch`] call.
#[derive(Debug, Clone, Copy)]
pub enum BatchRef {
    /// The batch's `i`-th fresh object.
    New(usize),
    /// An object already on the heap.
    Obj(ObjId),
}

impl BatchAlloc {
    fn size(&self, model: &MemoryModel) -> u32 {
        match *self {
            BatchAlloc::Scalar {
                ref_fields,
                prim_bytes,
                ..
            } => model.object_size(ref_fields, prim_bytes),
            BatchAlloc::Array { elem, capacity, .. } => {
                let elem_bytes = match elem {
                    ElemKind::Ref => model.ref_bytes,
                    ElemKind::Prim { bytes_per_elem } => bytes_per_elem,
                };
                model.array_size(elem_bytes, capacity)
            }
        }
    }
}

impl HeapInner {
    fn ensure_room(&mut self, size: u64) {
        if let Some(lt) = &mut self.lifetimes {
            lt.request(size);
        }
        if let Some(interval) = self.gc_interval_bytes {
            if self.bytes_since_gc + size > interval {
                self.collect_for(size);
            }
        }
        let Some(cap) = self.capacity else { return };
        if self.heap_bytes + size <= cap {
            return;
        }
        if self.collect_for(size) > cap {
            std::panic::panic_any(OutOfMemory {
                requested: size,
                capacity: cap,
                live_after_gc: self.heap_bytes,
            });
        }
    }

    /// Runs the GC an allocation of `size` bytes asked for and returns
    /// what the allocation needs now: live bytes plus `size`.
    fn collect_for(&mut self, size: u64) -> u64 {
        gc::collect(self);
        self.bytes_since_gc = 0;
        let need = self.heap_bytes + size;
        self.peak_need = self.peak_need.max(need);
        need
    }

    /// Stamps the object ref-pool `slot` points at, which is about to lose
    /// that reference, as reachable now (lifetime trace only).
    #[cold]
    fn stamp_target(&mut self, slot: usize) {
        let old = self.ref_pool[slot].and_then(|old| self.live_slot(old));
        if let (Some(i), Some(lt)) = (old, &mut self.lifetimes) {
            lt.touch(i);
        }
    }

    /// Takes a `len`-slot range from the ref pool: exact-size free-bucket
    /// reuse first (slots re-nulled), fresh pool growth otherwise.
    fn alloc_range(&mut self, len: u32) -> RefRange {
        if len == 0 {
            return RefRange::EMPTY;
        }
        if let Some(start) = self.free_ranges.get_mut(&len).and_then(|b| b.pop()) {
            let range = RefRange { start, len };
            self.ref_pool[range.as_range()].fill(None);
            return range;
        }
        let start = self.ref_pool.len() as u32;
        self.ref_pool
            .resize(self.ref_pool.len() + len as usize, None);
        RefRange { start, len }
    }

    /// Clears slot `i` after a sweep: flags zeroed, its ref range returned
    /// to the free buckets, and its meta vector cleared (capacity kept for
    /// the next occupant). The stale `Object` stays in place; every access
    /// path is gated on `F_OCCUPIED` plus the generation stamp.
    pub(crate) fn release_slot(&mut self, i: usize) {
        debug_assert_eq!(self.root_counts[i], 0, "a rooted object is never swept");
        self.flags[i] = 0;
        let range = self.slab[i].body.ref_range();
        if range.len > 0 {
            self.free_ranges
                .entry(range.len)
                .or_default()
                .push(range.start);
        }
        self.slab[i].meta.clear();
    }

    fn insert(
        &mut self,
        class: ClassId,
        size: u32,
        ctx: Option<ContextId>,
        body: ObjBody,
    ) -> ObjId {
        self.heap_bytes += u64::from(size);
        self.bytes_since_gc += u64::from(size);
        self.total_allocated_bytes += u64::from(size);
        self.total_allocated_objects += 1;
        let generation = self.generation;
        let mut flags = F_OCCUPIED;
        if matches!(body, ObjBody::Array { .. }) {
            flags |= F_ARRAY;
        }
        if self
            .classes
            .info(class)
            .semantic_map
            .is_some_and(|m| m.top_level)
        {
            flags |= F_TOP_COLL;
        }
        let index = if let Some(i) = self.free.pop() {
            let slot = &mut self.slab[i as usize];
            slot.class = class;
            slot.generation = generation;
            slot.size = size;
            slot.ctx = ctx;
            slot.body = body;
            debug_assert!(slot.meta.is_empty(), "released slot keeps cleared meta");
            self.flags[i as usize] = flags;
            i
        } else {
            self.slab.push(Object {
                class,
                generation,
                size,
                ctx,
                body,
                meta: Vec::new(),
            });
            self.flags.push(flags);
            self.root_counts.push(0);
            (self.slab.len() - 1) as u32
        };
        if let Some(lt) = &mut self.lifetimes {
            lt.born(index as usize);
        }
        ObjId { index, generation }
    }

    /// Slot index of `obj` if it is live: occupied, with a matching
    /// generation.
    pub(crate) fn live_slot(&self, obj: ObjId) -> Option<usize> {
        let i = obj.index as usize;
        (self.flags.get(i).is_some_and(|f| f & F_OCCUPIED != 0)
            && self.slab[i].generation == obj.generation)
            .then_some(i)
    }

    /// Live roots in slot order.
    pub(crate) fn root_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.root_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| ObjId {
                index: i as u32,
                generation: self.slab[i].generation,
            })
    }

    pub(crate) fn resolve(&self, obj: ObjId) -> &Object {
        let i = obj.index as usize;
        assert!(
            self.flags[i] & F_OCCUPIED != 0,
            "stale ObjId: object was swept"
        );
        let o = &self.slab[i];
        assert_eq!(
            o.generation, obj.generation,
            "stale ObjId: slot was reused by a newer object"
        );
        o
    }

    pub(crate) fn resolve_mut(&mut self, obj: ObjId) -> &mut Object {
        let i = obj.index as usize;
        assert!(
            self.flags[i] & F_OCCUPIED != 0,
            "stale ObjId: object was swept"
        );
        let o = &mut self.slab[i];
        assert_eq!(
            o.generation, obj.generation,
            "stale ObjId: slot was reused by a newer object"
        );
        o
    }
}

/// Hasher for the `free_ranges` length keys: one multiply by the 64-bit
/// golden ratio, which spreads small lengths over the high bits the
/// table's probe tags read. Lengths are not attacker-controlled, so
/// SipHash buys nothing here.
#[derive(Default)]
struct LenHasher(u64);

impl Hasher for LenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, len: u32) {
        self.0 = u64::from(len).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_heap() -> (Heap, ClassId) {
        let heap = Heap::new();
        let class = heap.register_class("Obj", None);
        (heap, class)
    }

    #[test]
    fn alloc_and_view_scalar() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 2, 4, None);
        let v = heap.view(o);
        assert_eq!(v.class, class);
        assert_eq!(v.refs.len(), 2);
        assert_eq!(v.size, heap.model().object_size(2, 4));
        assert!(v.array_capacity.is_none());
    }

    #[test]
    fn alloc_array_and_slots() {
        let (heap, class) = simple_heap();
        let arr = heap.alloc_array(class, ElemKind::Ref, 4, None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.set_elem(arr, 2, Some(o));
        assert_eq!(heap.get_elem(arr, 2), Some(o));
        assert_eq!(heap.get_elem(arr, 0), None);
        assert_eq!(heap.view(arr).array_capacity, Some(4));
    }

    #[test]
    fn meta_grows_on_demand() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(heap.get_meta(o, 3), 0);
        heap.set_meta(o, 3, &[42]);
        assert_eq!(heap.get_meta(o, 3), 42);
        assert_eq!(heap.get_meta(o, 0), 0);
    }

    #[test]
    fn gc_reclaims_unrooted() {
        let (heap, class) = simple_heap();
        let kept = heap.alloc_scalar(class, 1, 0, None);
        let child = heap.alloc_scalar(class, 0, 0, None);
        let _garbage = heap.alloc_scalar(class, 0, 0, None);
        heap.set_ref(kept, 0, Some(child));
        heap.add_root(kept);
        let stats = heap.gc();
        assert_eq!(stats.live_objects, 2);
        assert_eq!(stats.swept_objects, 1);
        assert!(heap.is_live(kept));
        assert!(heap.is_live(child));
    }

    #[test]
    fn root_refcounting() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        heap.add_root(o);
        heap.remove_root(o);
        heap.gc();
        assert!(heap.is_live(o), "still rooted once");
        heap.remove_root(o);
        heap.gc();
        assert!(!heap.is_live(o));
    }

    #[test]
    fn stale_ids_never_root_a_reused_slot() {
        let (heap, class) = simple_heap();
        let old = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(old);
        heap.remove_root(old);
        heap.gc(); // collects `old`
        let new = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(new.index(), old.index(), "the swept slot is reused");
        assert_ne!(new, old);

        // A stale add_root must not root the new occupant.
        heap.add_root(old);
        assert_eq!(heap.root_count(), 0);
        heap.gc();
        assert!(!heap.is_live(new), "unrooted occupant is collected");

        // A stale remove_root must not unroot a rooted occupant.
        let newer = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(newer.index(), old.index());
        heap.add_root(newer);
        heap.remove_root(old);
        heap.remove_root(new);
        assert_eq!(heap.root_count(), 1);
        heap.gc();
        assert!(heap.is_live(newer), "rooted occupant survives");
        assert_eq!(heap.root_count(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The per-slot root counts agree with a reference multiset of
        /// rooted ids over random alloc / add_root / remove_root / gc
        /// sequences, stale ids included.
        #[test]
        fn root_counts_match_a_multiset_model(
            ops in proptest::collection::vec((0u32..4, 0u32..64), 1..160)
        ) {
            let (heap, class) = simple_heap();
            // Every id ever allocated: (id, root count, live).
            let mut model: Vec<(ObjId, u32, bool)> = Vec::new();
            for (op, k) in ops {
                match op {
                    0 => model.push((heap.alloc_scalar(class, 0, 0, None), 0, true)),
                    _ if model.is_empty() => {}
                    1 => {
                        let n = model.len();
                        let e = &mut model[k as usize % n];
                        heap.add_root(e.0);
                        if e.2 {
                            e.1 += 1;
                        }
                    }
                    2 => {
                        let n = model.len();
                        let e = &mut model[k as usize % n];
                        heap.remove_root(e.0);
                        if e.2 {
                            e.1 = e.1.saturating_sub(1);
                        }
                    }
                    _ => {
                        heap.gc();
                        for e in &mut model {
                            e.2 &= e.1 > 0;
                        }
                    }
                }
                let rooted = model.iter().filter(|e| e.1 > 0).count();
                proptest::prop_assert_eq!(heap.root_count(), rooted);
                for e in &model {
                    proptest::prop_assert_eq!(heap.is_live(e.0), e.2);
                }
            }
        }
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.gc(); // sweeps o
        let o2 = heap.alloc_scalar(class, 0, 0, None);
        // Slot may be reused but ids must differ.
        assert_ne!(o, o2);
        assert!(!heap.is_live(o));
        assert!(heap.is_live(o2));
    }

    #[test]
    fn ref_ranges_are_recycled_by_exact_size() {
        let (heap, class) = simple_heap();
        let a = heap.alloc_scalar(class, 3, 0, None);
        let a_view_start = {
            // Resolve the arena offset through a reference write/read.
            let peer = heap.alloc_scalar(class, 0, 0, None);
            heap.add_root(peer);
            heap.set_ref(a, 1, Some(peer));
            assert_eq!(heap.get_ref(a, 1), Some(peer));
            peer
        };
        heap.gc(); // sweeps `a` (never rooted); its 3-slot range is freed
        let b = heap.alloc_scalar(class, 3, 0, None);
        // The recycled range must come back nulled, not with a's old refs.
        assert_eq!(heap.get_ref(b, 0), None);
        assert_eq!(heap.get_ref(b, 1), None);
        assert_eq!(heap.get_ref(b, 2), None);
        let _keep = a_view_start;
    }

    #[test]
    fn capacity_triggers_gc_then_oom() {
        let heap = Heap::with_capacity(256);
        let class = heap.register_class("Obj", None);
        // Fill with garbage; auto-GC should reclaim and allow more.
        for _ in 0..100 {
            let _ = heap.alloc_scalar(class, 0, 24, None);
        }
        assert!(heap.gc_count() > 0, "capacity pressure must trigger GC");
        // Now pin everything and overflow.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..100 {
                let o = heap.alloc_scalar(class, 0, 24, None);
                heap.add_root(o);
            }
        }));
        let err = result.expect_err("must OOM");
        let oom = err
            .downcast_ref::<OutOfMemory>()
            .expect("payload is OutOfMemory");
        assert_eq!(oom.capacity, 256);
    }

    #[test]
    fn peak_need_tracks_live_plus_request_at_interval_gcs() {
        let heap = Heap::with_config(HeapConfig {
            gc_interval_bytes: Some(1024),
            ..HeapConfig::default()
        });
        let class = heap.register_class("Obj", None);
        let pinned = heap.alloc_scalar(class, 0, 24, None);
        heap.add_root(pinned);
        for _ in 0..100 {
            let _ = heap.alloc_scalar(class, 0, 24, None);
        }
        // Each interval GC leaves the pinned object; the request adds one.
        assert!(heap.gc_count() > 0);
        assert_eq!(heap.peak_need(), 64);
    }

    #[test]
    fn heap_accounting_tracks_alloc_and_sweep() {
        let (heap, class) = simple_heap();
        let size = u64::from(heap.model().object_size(0, 0));
        let a = heap.alloc_scalar(class, 0, 0, None);
        let _b = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(heap.heap_bytes(), 2 * size);
        heap.add_root(a);
        heap.gc();
        assert_eq!(heap.heap_bytes(), size);
        assert_eq!(heap.total_allocated_bytes(), 2 * size);
        assert_eq!(heap.total_allocated_objects(), 2);
    }

    #[test]
    fn gc_interval_drives_cycles_on_unbounded_heap() {
        let heap = Heap::with_config(HeapConfig {
            gc_interval_bytes: Some(1024),
            ..HeapConfig::default()
        });
        let class = heap.register_class("Obj", None);
        for _ in 0..200 {
            let _ = heap.alloc_scalar(class, 0, 24, None); // 32 B each
        }
        // 200 * 32 B = 6400 B allocated, interval 1 KiB -> ~6 cycles.
        assert!(heap.gc_count() >= 5, "gc_count = {}", heap.gc_count());
        assert!(heap.gc_count() <= 8);
    }

    #[test]
    fn context_frames_are_portable() {
        let heap = Heap::new();
        let ctx = heap.intern_context("HashMap", &["F.m:31".to_owned(), "G.n:50".to_owned()], 2);
        let frames = heap.context_frames(ctx);
        let heap2 = Heap::new();
        let ctx2 = heap2.intern_context("HashMap", &frames, 2);
        assert_eq!(heap.format_context(ctx), heap2.format_context(ctx2));
    }

    #[test]
    fn contexts_roundtrip() {
        let heap = Heap::new();
        let ctx = heap.intern_context(
            "HashMap",
            &["F.m:31".to_owned(), "G.n:50".to_owned(), "H.o:9".to_owned()],
            2,
        );
        assert_eq!(heap.format_context(ctx), "HashMap:F.m:31;G.n:50");
        assert_eq!(heap.context_src_type(ctx), "HashMap");
    }

    #[test]
    fn export_import_remaps_contexts_exactly() {
        let src = Heap::new();
        let c0 = src.intern_context("HashMap", &["A.m:1".to_owned(), "B.n:2".to_owned()], 2);
        let c1 = src.intern_context("ArrayList", &["B.n:2".to_owned()], 1);

        // Destination already knows some overlapping frames/contexts in a
        // different id order.
        let dst = Heap::new();
        let pre = dst.intern_context("ArrayList", &["B.n:2".to_owned()], 1);

        let remap = dst.import_contexts(&src.export_contexts());
        assert_eq!(remap.len(), 2);
        assert_eq!(remap[c1.0 as usize], pre, "existing context is reused");
        assert_eq!(
            dst.format_context(remap[c0.0 as usize]),
            src.format_context(c0)
        );
        assert_eq!(
            dst.format_context(remap[c1.0 as usize]),
            src.format_context(c1)
        );
    }

    #[test]
    fn debug_while_heap_is_held_prints_locked_placeholder() {
        let (heap, class) = simple_heap();
        let _o = heap.alloc_scalar(class, 0, 0, None);
        assert!(format!("{heap:?}").contains("objects"), "unlocked form");
        let guard = heap.lock("debug_test");
        // With the heap entered (as a panic hook or tracing line inside an
        // allocation would see it), Debug must not panic a second time.
        assert_eq!(format!("{heap:?}"), "Heap(<locked>)");
        drop(guard);
        assert!(format!("{heap:?}").contains("objects"));
    }

    #[test]
    fn oom_unwind_releases_the_heap_borrow() {
        let heap = Heap::with_capacity(256);
        let class = heap.register_class("Obj", None);
        let big = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            heap.alloc_scalar(class, 0, 1024, None)
        }));
        let err = big.expect_err("over-capacity allocation must OOM");
        assert!(err.downcast_ref::<OutOfMemory>().is_some());
        // The borrow ended during the unwind: the heap is enterable again.
        assert_eq!(heap.gc().live_objects, 0);
        assert!(format!("{heap:?}").contains("objects"), "unlocked form");
        let small = heap.alloc_scalar(class, 0, 24, None);
        assert!(heap.is_live(small));
    }

    #[test]
    fn reentry_panics_naming_partition_and_op() {
        let heap = Heap::with_config(HeapConfig {
            shard_index: Some(7),
            ..HeapConfig::default()
        });
        let guard = heap.lock("outer");
        // Context interning enters the cell like every other operation.
        let probes: [(&str, &dyn Fn()); 2] = [
            ("root_count", &|| {
                heap.root_count();
            }),
            ("intern_context_ids", &|| {
                heap.intern_context_ids("HashMap", &[], 2);
            }),
        ];
        for (op, probe) in probes {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(probe))
                .expect_err("re-entry must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("partition 7") && msg.contains(op), "{msg}");
        }
        // The refused entry must not release the outer operation's borrow.
        assert_eq!(format!("{heap:?}"), "Heap(<locked>)");
        drop(guard);
        assert_eq!(heap.root_count(), 0);
    }
}
