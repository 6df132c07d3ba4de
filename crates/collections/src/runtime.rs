//! Collection runtime: shared heap, clock, cost model, class registrations
//! and the death-statistics sink.
//!
//! Every collection implementation holds a [`Runtime`] handle. Constructing
//! the runtime registers all collection classes (with their semantic ADT
//! maps) on the simulated heap, mirroring how the paper's VM precomputes
//! semantic maps for all collection types at startup (§4.3.2).

use crate::cost::CostModel;
use crate::handle::StatsBuilder;
use crate::ops::{Op, OpCounts};
use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
use chameleon_heap::{ClassId, ContextId, Heap, SimClock};
use chameleon_telemetry::{Counter, Histogram, Telemetry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Histogram bounds for logical collection sizes (`max_size` at death).
const SIZE_BUCKETS: [u64; 10] = [0, 1, 2, 4, 8, 16, 64, 256, 1024, 16384];

/// Histogram bounds for per-operation cost in SimClock units.
const OP_COST_BUCKETS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];

/// Pre-resolved telemetry handles for the collection runtime: one counter
/// per operation kind plus death-count and max-size distributions, all
/// folded in when an instance dies (the same funnel the profiler uses).
struct CollTelemetry {
    t: Telemetry,
    /// `coll.ops.<metric-name>`, indexed by [`Op::index`].
    ops: Vec<Counter>,
    /// `coll.deaths` — instances whose statistics were folded in.
    deaths: Counter,
    /// `coll.max_size` — distribution of per-instance peak sizes.
    max_size: Histogram,
}

impl CollTelemetry {
    fn new(t: &Telemetry) -> Self {
        CollTelemetry {
            ops: Op::ALL
                .iter()
                .map(|op| t.counter(&format!("coll.ops.{}", op.metric_name())))
                .collect(),
            deaths: t.counter("coll.deaths"),
            max_size: t.histogram("coll.max_size", &SIZE_BUCKETS),
            t: t.clone(),
        }
    }
}

/// Ids of every class the collection library allocates.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names mirror the class names they register
pub struct ClassIds {
    pub list_wrapper: ClassId,
    pub set_wrapper: ClassId,
    pub map_wrapper: ClassId,
    pub array_list: ClassId,
    pub lazy_array_list: ClassId,
    pub singleton_list: ClassId,
    pub int_array: ClassId,
    pub linked_list: ClassId,
    pub linked_list_entry: ClassId,
    pub object_array: ClassId,
    pub int_array_data: ClassId,
    pub hash_set: ClassId,
    pub hash_set_entry: ClassId,
    pub linked_hash_set: ClassId,
    pub linked_hash_set_entry: ClassId,
    pub array_set: ClassId,
    pub lazy_set: ClassId,
    pub size_adapting_set: ClassId,
    pub hash_map: ClassId,
    pub hash_map_entry: ClassId,
    pub linked_hash_map: ClassId,
    pub linked_hash_map_entry: ClassId,
    pub array_map: ClassId,
    pub lazy_map: ClassId,
    pub size_adapting_map: ClassId,
    pub iterator: ClassId,
}

impl ClassIds {
    fn register(heap: &Heap) -> Self {
        use AdtDescriptor as D;
        use CollectionKind as K;
        let backing = SemanticMap::backing;
        let arr1 = |k| {
            backing(
                k,
                D::ArrayBacked {
                    array_field: 0,
                    slots_per_elem: 1,
                },
            )
        };
        ClassIds {
            list_wrapper: heap
                .register_class("Chameleon$List", Some(SemanticMap::wrapper(K::List))),
            set_wrapper: heap.register_class("Chameleon$Set", Some(SemanticMap::wrapper(K::Set))),
            map_wrapper: heap.register_class("Chameleon$Map", Some(SemanticMap::wrapper(K::Map))),
            array_list: heap.register_class("ArrayList", Some(arr1(K::List))),
            lazy_array_list: heap.register_class("LazyArrayList", Some(arr1(K::List))),
            singleton_list: heap.register_class("SingletonList", Some(backing(K::List, D::Inline))),
            int_array: heap.register_class("IntArray", Some(arr1(K::List))),
            linked_list: heap.register_class(
                "LinkedList",
                Some(backing(K::List, D::LinkedEntries { head_field: 0 })),
            ),
            linked_list_entry: heap.register_class("LinkedList$Entry", None),
            object_array: heap.register_class("Object[]", None),
            int_array_data: heap.register_class("int[]", None),
            hash_set: heap.register_class(
                "HashSet",
                Some(backing(K::Set, D::ChainedHash { array_field: 0 })),
            ),
            hash_set_entry: heap.register_class("HashSet$Entry", None),
            linked_hash_set: heap.register_class(
                "LinkedHashSet",
                Some(backing(K::Set, D::ChainedHash { array_field: 0 })),
            ),
            linked_hash_set_entry: heap.register_class("LinkedHashSet$Entry", None),
            array_set: heap.register_class("ArraySet", Some(arr1(K::Set))),
            lazy_set: heap.register_class("LazySet", Some(arr1(K::Set))),
            size_adapting_set: heap.register_class(
                "SizeAdaptingSet",
                Some(backing(K::Set, D::Wrapper { impl_field: 0 })),
            ),
            hash_map: heap.register_class(
                "HashMap",
                Some(backing(K::Map, D::ChainedHash { array_field: 0 })),
            ),
            hash_map_entry: heap.register_class("HashMap$Entry", None),
            linked_hash_map: heap.register_class(
                "LinkedHashMap",
                Some(backing(K::Map, D::ChainedHash { array_field: 0 })),
            ),
            linked_hash_map_entry: heap.register_class("LinkedHashMap$Entry", None),
            array_map: heap.register_class(
                "ArrayMap",
                Some(backing(
                    K::Map,
                    D::ArrayBacked {
                        array_field: 0,
                        slots_per_elem: 2,
                    },
                )),
            ),
            lazy_map: heap.register_class(
                "LazyMap",
                Some(backing(
                    K::Map,
                    D::ArrayBacked {
                        array_field: 0,
                        slots_per_elem: 2,
                    },
                )),
            ),
            size_adapting_map: heap.register_class(
                "SizeAdaptingMap",
                Some(backing(K::Map, D::Wrapper { impl_field: 0 })),
            ),
            iterator: heap.register_class("Iterator", None),
        }
    }
}

/// Per-instance usage statistics, delivered to the sink when the collection
/// dies — the analogue of the paper's `ObjectContextInfo` being folded into
/// its `ContextInfo` by the (selectively used) finalizers (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStats {
    /// Operation counters.
    pub ops: OpCounts,
    /// Largest logical size the collection reached.
    pub max_size: u64,
    /// Logical size at death.
    pub final_size: u64,
    /// Initial capacity the collection was created with (0 for lazy ones).
    pub initial_capacity: u64,
    /// The collection type the program requested (e.g. `"HashMap"`).
    pub requested_type: &'static str,
    /// The implementation that actually backed it (e.g. `"ArrayMap"`).
    pub chosen_impl: &'static str,
    /// `true` when the instance was still live at workload end and its
    /// statistics were delivered by [`Runtime::flush_survivors`] rather
    /// than by the handle's death.
    pub survivor: bool,
}

/// Receiver of per-instance statistics on collection death.
pub trait StatsSink: Send + Sync {
    /// Called once per collection instance, when its handle is dropped.
    fn on_death(&self, ctx: Option<ContextId>, stats: &InstanceStats);
}

/// A still-live collection instance tracked for the survivor flush.
struct LiveInstance {
    /// Registration id, increasing in allocation order.
    id: u64,
    ctx: Option<ContextId>,
    stats: Arc<Mutex<StatsBuilder>>,
}

/// What a handle keeps to deregister itself: its registry slot plus the
/// registration id that proves the slot is still its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveKey {
    slot: u32,
    id: u64,
}

/// Free-listed slot registry of live instances. Registering and
/// deregistering index a vector: no hashing, no tree walk.
#[derive(Default)]
struct LiveRegistry {
    slots: Vec<Option<LiveInstance>>,
    free: Vec<u32>,
    next_id: u64,
}

impl LiveRegistry {
    fn register(&mut self, ctx: Option<ContextId>, stats: Arc<Mutex<StatsBuilder>>) -> LiveKey {
        let id = self.next_id;
        self.next_id += 1;
        let inst = Some(LiveInstance { id, ctx, stats });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = inst;
                slot
            }
            None => {
                self.slots.push(inst);
                (self.slots.len() - 1) as u32
            }
        };
        LiveKey { slot, id }
    }

    /// Frees `key`'s slot only while it still holds `key`'s instance: a
    /// survivor flush drains the registry while handles live on, so a
    /// flushed handle dropping later must not free a slot that a newer
    /// instance has since taken.
    fn deregister(&mut self, key: LiveKey) {
        let Some(slot) = self.slots.get_mut(key.slot as usize) else {
            return;
        };
        if slot.as_ref().is_some_and(|inst| inst.id == key.id) {
            *slot = None;
            self.free.push(key.slot);
        }
    }

    /// Empties the registry, returning its instances in allocation order.
    fn drain(&mut self) -> Vec<LiveInstance> {
        self.free.clear();
        let mut live: Vec<LiveInstance> = self.slots.drain(..).flatten().collect();
        live.sort_unstable_by_key(|inst| inst.id);
        live
    }
}

struct RuntimeInner {
    heap: Heap,
    clock: SimClock,
    cost: CostModel,
    classes: ClassIds,
    /// Live-instance registry; the survivor flush walks it in allocation
    /// (registration id) order, whatever order slots were reused in.
    live: Mutex<LiveRegistry>,
    sink: Mutex<Option<Arc<dyn StatsSink>>>,
    telemetry: Mutex<Option<CollTelemetry>>,
    // Fast-path guard: lets `report_death` skip the telemetry lock
    // entirely when no handle was ever attached.
    telemetry_attached: AtomicBool,
    // Per-op cost histogram, outside the mutex: `charge` runs on every
    // collection operation, so its telemetry check must be a single
    // atomic load when detached (OnceLock::get) or disabled.
    op_cost: OnceLock<(Telemetry, Histogram)>,
}

/// Shared collection runtime handle.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::runtime::Runtime;
///
/// let rt = Runtime::new(Heap::new());
/// rt.charge(10);
/// assert_eq!(rt.clock().now(), 10);
/// ```
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("heap", &self.inner.heap)
            .field("cost", &self.inner.cost)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime over `heap` with a fresh clock and the calibrated
    /// cost model, registering all collection classes.
    pub fn new(heap: Heap) -> Self {
        Runtime::with_cost(heap, CostModel::calibrated())
    }

    /// Creates a runtime with an explicit cost model.
    pub fn with_cost(heap: Heap, cost: CostModel) -> Self {
        let clock = SimClock::new();
        heap.attach_clock(clock.clone());
        let classes = ClassIds::register(&heap);
        Runtime {
            inner: Arc::new(RuntimeInner {
                heap,
                clock,
                cost,
                classes,
                live: Mutex::new(LiveRegistry::default()),
                sink: Mutex::new(None),
                telemetry: Mutex::new(None),
                telemetry_attached: AtomicBool::new(false),
                op_cost: OnceLock::new(),
            }),
        }
    }

    /// The underlying simulated heap.
    pub fn heap(&self) -> &Heap {
        &self.inner.heap
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Registered collection class ids.
    pub fn classes(&self) -> &ClassIds {
        &self.inner.classes
    }

    /// Charges `units` to the clock, recording the per-op cost
    /// distribution when telemetry is attached and enabled.
    pub fn charge(&self, units: u64) {
        self.inner.clock.charge(units);
        if let Some((t, h)) = self.inner.op_cost.get() {
            if t.is_enabled() {
                h.record(units);
            }
        }
    }

    /// Installs the death-statistics sink (normally the profiler).
    pub fn set_sink(&self, sink: Arc<dyn StatsSink>) {
        *self.inner.sink.lock() = Some(sink);
    }

    /// Removes the sink.
    pub fn clear_sink(&self) {
        *self.inner.sink.lock() = None;
    }

    /// Attaches a telemetry handle (also attaching it to the underlying
    /// heap). Per-op counters are resolved once, here; death reports then
    /// fold operation counts into them when the handle is enabled. The
    /// per-op cost histogram binds to the *first* handle ever attached
    /// (it lives outside the lock so `charge` stays a single atomic load
    /// when detached).
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.inner.heap.attach_telemetry(telemetry);
        *self.inner.telemetry.lock() = Some(CollTelemetry::new(telemetry));
        let _ = self.inner.op_cost.set((
            telemetry.clone(),
            telemetry.histogram("coll.op_cost_units", &OP_COST_BUCKETS),
        ));
        self.inner.telemetry_attached.store(true, Ordering::Release);
    }

    /// The attached telemetry handle, if any (cloned; cheap).
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.inner.telemetry.lock().as_ref().map(|c| c.t.clone())
    }

    /// Registers a live instance for the survivor flush; returns the key
    /// the handle must pass to [`Runtime::deregister_live`] on death.
    pub(crate) fn register_live(
        &self,
        ctx: Option<ContextId>,
        stats: Arc<Mutex<StatsBuilder>>,
    ) -> LiveKey {
        self.inner.live.lock().register(ctx, stats)
    }

    /// Removes a dying instance from the live registry (a no-op when a
    /// survivor flush already drained it).
    pub(crate) fn deregister_live(&self, key: LiveKey) {
        self.inner.live.lock().deregister(key);
    }

    /// Delivers the statistics of every still-live instance to the sink as
    /// survivors (`InstanceStats::survivor == true`), in allocation order.
    ///
    /// Collections alive at workload end otherwise never reach
    /// [`StatsSink::on_death`], leaving long-lived contexts invisible to
    /// the profile. Flushed instances are marked reported so a later handle
    /// drop does not deliver them a second time (the registry itself is
    /// drained here; handles deregister on death anyway). Returns the
    /// number of instances flushed.
    pub fn flush_survivors(&self) -> usize {
        // Drain the whole registry first so no lock is held while builders
        // are locked — a dying handle takes the same locks in the same
        // order (registry, then builder) and can never deadlock against us.
        let live = self.inner.live.lock().drain();
        let mut flushed = 0;
        for inst in &live {
            let mut b = inst.stats.lock();
            if std::mem::replace(&mut b.reported, true) {
                continue;
            }
            let stats = InstanceStats {
                ops: b.ops,
                max_size: b.max_size,
                final_size: b.current_size,
                initial_capacity: b.initial_capacity,
                requested_type: b.requested_type,
                chosen_impl: b.chosen_impl,
                survivor: true,
            };
            drop(b);
            self.report_death(inst.ctx, &stats);
            flushed += 1;
        }
        flushed
    }

    /// Delivers death statistics to the sink, if any.
    pub fn report_death(&self, ctx: Option<ContextId>, stats: &InstanceStats) {
        if self.inner.telemetry_attached.load(Ordering::Acquire) {
            self.fold_death_telemetry(stats);
        }
        if let Some(sink) = self.inner.sink.lock().as_ref() {
            sink.on_death(ctx, stats);
        }
    }

    fn fold_death_telemetry(&self, stats: &InstanceStats) {
        if let Some(tel) = self
            .inner
            .telemetry
            .lock()
            .as_ref()
            .filter(|tel| tel.t.is_enabled())
        {
            tel.deaths.inc();
            tel.max_size.record(stats.max_size);
            for (op, n) in stats.ops.iter_nonzero() {
                tel.ops[op.index()].add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn classes_registered_once() {
        let heap = Heap::new();
        let rt = Runtime::new(heap.clone());
        assert_eq!(heap.class_name(rt.classes().array_list), "ArrayList");
        assert_eq!(
            heap.class_name(rt.classes().hash_map_entry),
            "HashMap$Entry"
        );
        // A second runtime over the same heap reuses registrations.
        let rt2 = Runtime::new(heap);
        assert_eq!(rt.classes().array_list, rt2.classes().array_list);
    }

    #[test]
    fn sink_receives_death_reports() {
        struct Counting(AtomicUsize);
        impl StatsSink for Counting {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                assert_eq!(stats.ops.get(Op::Add), 2);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let rt = Runtime::new(Heap::new());
        let sink = Arc::new(Counting(AtomicUsize::new(0)));
        rt.set_sink(sink.clone());
        let mut ops = OpCounts::new();
        ops.record_n(Op::Add, 2);
        let stats = InstanceStats {
            ops,
            max_size: 2,
            final_size: 2,
            initial_capacity: 10,
            requested_type: "ArrayList",
            chosen_impl: "ArrayList",
            survivor: false,
        };
        rt.report_death(None, &stats);
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        rt.clear_sink();
        rt.report_death(None, &stats);
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flush_survivors_reports_live_instances_once() {
        use crate::factory::CollectionFactory;
        struct Collect(Mutex<Vec<InstanceStats>>);
        impl StatsSink for Collect {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                self.0.lock().push(stats.clone());
            }
        }
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let rt = f.runtime().clone();
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        rt.set_sink(sink.clone());
        let mut long_lived = f.new_list::<i64>(None);
        long_lived.add(1);
        long_lived.add(2);
        {
            let mut short = f.new_list::<i64>(None);
            short.add(7);
        }
        // One normal death so far; the live list flushes as a survivor.
        assert_eq!(rt.flush_survivors(), 1);
        {
            let reports = sink.0.lock();
            assert_eq!(reports.len(), 2);
            assert!(!reports[0].survivor);
            let surv = &reports[1];
            assert!(surv.survivor);
            assert_eq!(surv.max_size, 2);
            assert_eq!(surv.final_size, 2);
            assert_eq!(surv.requested_type, "ArrayList");
        }
        // Dropping the flushed handle must not report a second time.
        drop(long_lived);
        assert_eq!(sink.0.lock().len(), 2);
        // And a repeated flush finds nothing.
        assert_eq!(rt.flush_survivors(), 0);
    }

    #[test]
    fn registry_slot_reuse_across_a_survivor_flush() {
        use crate::factory::CollectionFactory;
        use crate::handle::ListHandle;
        /// Records each report's `(max_size, survivor)`; every list below
        /// gets a distinct size so it can be told apart.
        struct Collect(Mutex<Vec<(u64, bool)>>);
        impl StatsSink for Collect {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                self.0.lock().push((stats.max_size, stats.survivor));
            }
        }
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let rt = f.runtime().clone();
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        rt.set_sink(sink.clone());
        let list = |n: i64| -> ListHandle<i64> {
            let mut l = f.new_list(None);
            for i in 0..n {
                l.add(i);
            }
            l
        };
        let slot_of = |l: &ListHandle<i64>| l.live_key().slot;
        let take = || std::mem::take(&mut *sink.0.lock());

        let a = list(1);
        let b = list(2);
        assert_eq!(rt.flush_survivors(), 2);
        assert_eq!(take(), [(1, true), (2, true)]);

        // C reuses A's slot; A's late drop must neither free C's slot nor
        // report again.
        let c = list(3);
        assert_eq!(slot_of(&c), a.live_key().slot);
        drop(a);
        let d = list(4);
        assert_ne!(slot_of(&d), slot_of(&c), "C's slot stayed taken");
        assert!(take().is_empty());

        // Interleaved deaths: E dies, G takes its slot, so slot order is
        // no longer allocation order; the flush still delivers by age.
        let e = list(5);
        let g_slot = slot_of(&e);
        let f6 = list(6);
        drop(e);
        let g = list(7);
        assert_eq!(slot_of(&g), g_slot);
        assert_eq!(take(), [(5, false)]);
        assert_eq!(rt.flush_survivors(), 4);
        assert_eq!(take(), [(3, true), (4, true), (6, true), (7, true)]);

        drop((b, c, d, f6, g));
        assert!(take().is_empty(), "flushed handles never report twice");
        assert_eq!(rt.flush_survivors(), 0);
    }
}
