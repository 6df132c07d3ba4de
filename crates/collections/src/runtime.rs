//! Collection runtime: shared heap, clock, cost model, class registrations,
//! the registry of live instances' statistics and the death-statistics
//! sink.
//!
//! Every collection implementation holds a [`Runtime`] handle. Constructing
//! the runtime registers all collection classes (with their semantic ADT
//! maps) on the simulated heap, mirroring how the paper's VM precomputes
//! semantic maps for all collection types at startup (§4.3.2).

use crate::cost::CostModel;
use crate::ops::{Op, OpCounts};
use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
use chameleon_heap::{ClassId, ContextId, Heap, SimClock};
use chameleon_telemetry::{Counter, Histogram, Telemetry};
use std::cell::RefCell;
use std::rc::Rc;

/// Histogram bounds for logical collection sizes (`max_size` at death).
const SIZE_BUCKETS: [u64; 10] = [0, 1, 2, 4, 8, 16, 64, 256, 1024, 16384];

/// Histogram bounds for per-operation cost in SimClock units.
const OP_COST_BUCKETS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];

/// Pre-resolved telemetry handles for the collection runtime: one counter
/// per operation kind plus death-count and max-size distributions, all
/// folded in when an instance dies (the same funnel the profiler uses),
/// and the per-operation cost distribution `charge` feeds.
struct CollTelemetry {
    t: Telemetry,
    /// `coll.ops.<metric-name>`, indexed by [`Op::index`].
    ops: Vec<Counter>,
    /// `coll.deaths` — instances whose statistics were folded in.
    deaths: Counter,
    /// `coll.max_size` — distribution of per-instance peak sizes.
    max_size: Histogram,
    /// `coll.op_cost_units` — per-operation cost, recorded by `charge`.
    op_cost: Histogram,
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
            op_cost: t.histogram("coll.op_cost_units", &OP_COST_BUCKETS),
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
///
/// A sink runs on the thread that owns its runtime. It must not hold a
/// [`Runtime`] or factory clone: the runtime owns its sink, so such a clone
/// would form an `Rc` cycle and leak the whole environment.
pub trait StatsSink {
    /// Called once per collection instance, when its handle is dropped.
    fn on_death(&self, ctx: Option<ContextId>, stats: &InstanceStats);
}

/// Mutable per-instance statistics, kept in the instance's registry slot.
/// `current_size` and `chosen_impl` are kept fresh on every size-changing
/// operation so a survivor flush sees the instance's true final state
/// without touching its backing.
pub(crate) struct StatsBuilder {
    pub ops: OpCounts,
    pub max_size: u64,
    pub current_size: u64,
    pub initial_capacity: u64,
    pub requested_type: &'static str,
    pub chosen_impl: &'static str,
}

impl StatsBuilder {
    pub(crate) fn new(
        requested_type: &'static str,
        initial_capacity: u64,
        chosen_impl: &'static str,
    ) -> Self {
        StatsBuilder {
            ops: OpCounts::new(),
            max_size: 0,
            current_size: 0,
            initial_capacity,
            requested_type,
            chosen_impl,
        }
    }

    pub(crate) fn saw_size(&mut self, size: usize, chosen_impl: &'static str) {
        self.current_size = size as u64;
        self.max_size = self.max_size.max(size as u64);
        self.chosen_impl = chosen_impl;
    }

    fn report(&self, final_size: u64, chosen_impl: &'static str, survivor: bool) -> InstanceStats {
        InstanceStats {
            ops: self.ops,
            max_size: self.max_size,
            final_size,
            initial_capacity: self.initial_capacity,
            requested_type: self.requested_type,
            chosen_impl,
            survivor,
        }
    }
}

/// One live collection instance: its registry slot's contents.
pub(crate) struct LiveInstance {
    /// Registration id, increasing in allocation order.
    id: u64,
    pub ctx: Option<ContextId>,
    pub stats: StatsBuilder,
    /// Set once the statistics were delivered by a survivor flush, so the
    /// handle's death does not deliver them a second time.
    reported: bool,
}

/// What a handle keeps to reach its registry slot, plus the registration
/// id that proves the slot is still its instance's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveKey {
    pub(crate) slot: u32,
    id: u64,
}

/// Free-listed slot registry of live instances. Registering, updating and
/// retiring index a vector: no hashing, no tree walk. A slot belongs to
/// its handle until the handle drops, so the handle's own accesses need no
/// id check; only a [`HandleIter`](crate::HandleIter), which can outlive
/// its handle, checks the id.
#[derive(Default)]
struct LiveRegistry {
    slots: Vec<Option<LiveInstance>>,
    free: Vec<u32>,
    next_id: u64,
}

impl LiveRegistry {
    fn register(&mut self, ctx: Option<ContextId>, stats: StatsBuilder) -> LiveKey {
        let id = self.next_id;
        self.next_id += 1;
        let inst = Some(LiveInstance {
            id,
            ctx,
            stats,
            reported: false,
        });
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

    fn get(&mut self, key: LiveKey) -> &mut LiveInstance {
        self.slots[key.slot as usize]
            .as_mut()
            .expect("a live handle owns its registry slot")
    }

    /// `key`'s instance if its slot still holds it; for a
    /// [`HandleIter`](crate::HandleIter), whose handle may have dropped
    /// and whose slot may have been reused since.
    fn get_if(&mut self, key: LiveKey) -> Option<&mut LiveInstance> {
        match self.slots.get_mut(key.slot as usize) {
            Some(Some(inst)) if inst.id == key.id => Some(inst),
            _ => None,
        }
    }

    /// Marks every unreported instance reported and returns its survivor
    /// statistics in registration (age) order. A registry with no live
    /// instance left, the usual state at workload end, also gives back its
    /// slot storage: an environment kept for its report would otherwise
    /// hold it at its high-water mark.
    fn mark_survivors(&mut self) -> Vec<(u64, Option<ContextId>, InstanceStats)> {
        if self.free.len() == self.slots.len() {
            *self = LiveRegistry {
                next_id: self.next_id,
                ..LiveRegistry::default()
            };
        }
        let mut due = Vec::new();
        for inst in self.slots.iter_mut().flatten() {
            if !std::mem::replace(&mut inst.reported, true) {
                let b = &inst.stats;
                let stats = b.report(b.current_size, b.chosen_impl, true);
                due.push((inst.id, inst.ctx, stats));
            }
        }
        due.sort_unstable_by_key(|(id, ..)| *id);
        due
    }

    fn retire(&mut self, key: LiveKey) -> LiveInstance {
        let inst = self.slots[key.slot as usize]
            .take()
            .expect("a live handle owns its registry slot");
        self.free.push(key.slot);
        inst
    }
}

struct RuntimeInner {
    heap: Heap,
    clock: SimClock,
    cost: CostModel,
    classes: ClassIds,
    live: RefCell<LiveRegistry>,
    sink: RefCell<Option<Rc<dyn StatsSink>>>,
    telemetry: RefCell<Option<CollTelemetry>>,
}

/// Shared collection runtime handle. Single-owner: it lives on the thread
/// that built it, like the factory and handles that share it.
///
/// No `RefCell` borrow of the runtime's state is held across a call into
/// the sink, so a sink may re-enter the runtime.
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
    inner: Rc<RuntimeInner>,
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
            inner: Rc::new(RuntimeInner {
                heap,
                clock,
                cost,
                classes,
                live: RefCell::default(),
                sink: RefCell::new(None),
                telemetry: RefCell::new(None),
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
    /// distribution when telemetry is attached.
    pub fn charge(&self, units: u64) {
        self.inner.clock.charge(units);
        if let Some(tel) = self.inner.telemetry.borrow().as_ref() {
            tel.op_cost.record(units);
        }
    }

    /// Installs the death-statistics sink (normally the profiler).
    pub fn set_sink(&self, sink: Rc<dyn StatsSink>) {
        *self.inner.sink.borrow_mut() = Some(sink);
    }

    /// Removes the sink.
    pub fn clear_sink(&self) {
        *self.inner.sink.borrow_mut() = None;
    }

    /// Attaches a telemetry handle (also attaching it to the underlying
    /// heap), replacing any earlier one. Per-op counters and the per-op
    /// cost histogram are resolved once, here; death reports then fold
    /// operation counts into them.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.inner.heap.attach_telemetry(telemetry);
        *self.inner.telemetry.borrow_mut() = Some(CollTelemetry::new(telemetry));
    }

    /// The attached telemetry handle, if any (cloned; cheap).
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.inner.telemetry.borrow().as_ref().map(|c| c.t.clone())
    }

    /// Registers a live instance; returns the key its handle reaches the
    /// instance's slot with.
    pub(crate) fn register_live(&self, ctx: Option<ContextId>, stats: StatsBuilder) -> LiveKey {
        self.inner.live.borrow_mut().register(ctx, stats)
    }

    /// Runs `f` on a live handle's registry slot.
    pub(crate) fn with_live<R>(&self, key: LiveKey, f: impl FnOnce(&mut LiveInstance) -> R) -> R {
        f(self.inner.live.borrow_mut().get(key))
    }

    /// Records `op` on `key`'s instance if its slot still holds it: an
    /// iterator may outlive its handle, and the slot may have been reused.
    pub(crate) fn record_if_live(&self, key: LiveKey, op: Op) {
        if let Some(inst) = self.inner.live.borrow_mut().get_if(key) {
            inst.stats.ops.record(op);
        }
    }

    /// Frees a dying handle's slot and delivers its statistics, unless a
    /// survivor flush already did.
    pub(crate) fn retire_live(&self, key: LiveKey, final_size: usize, chosen_impl: &'static str) {
        let inst = self.inner.live.borrow_mut().retire(key);
        if !inst.reported {
            let stats = inst.stats.report(final_size as u64, chosen_impl, false);
            self.report_death(inst.ctx, &stats);
        }
    }

    /// Delivers the statistics of every still-live instance to the sink as
    /// survivors (`InstanceStats::survivor == true`), in allocation order.
    ///
    /// Collections alive at workload end otherwise never reach
    /// [`StatsSink::on_death`], leaving long-lived contexts invisible to
    /// the profile. Flushed instances are marked reported in place so a
    /// later handle drop does not deliver them a second time; each slot
    /// stays its handle's until that drop. Returns the number of instances
    /// flushed.
    pub fn flush_survivors(&self) -> usize {
        // Mark and snapshot under one borrow, then report with none held.
        let due = self.inner.live.borrow_mut().mark_survivors();
        for (_, ctx, stats) in &due {
            self.report_death(*ctx, stats);
        }
        due.len()
    }

    /// Delivers death statistics to the sink, if any.
    pub fn report_death(&self, ctx: Option<ContextId>, stats: &InstanceStats) {
        if let Some(tel) = self.inner.telemetry.borrow().as_ref() {
            tel.deaths.inc();
            tel.max_size.record(stats.max_size);
            for (op, n) in stats.ops.iter_nonzero() {
                tel.ops[op.index()].add(n);
            }
        }
        // Cloned out so no borrow is held while the sink runs.
        let sink = self.inner.sink.borrow().clone();
        if let Some(sink) = sink {
            sink.on_death(ctx, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use std::cell::Cell;

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
        struct Counting(Cell<usize>);
        impl StatsSink for Counting {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                assert_eq!(stats.ops.get(Op::Add), 2);
                self.0.set(self.0.get() + 1);
            }
        }
        let rt = Runtime::new(Heap::new());
        let sink = Rc::new(Counting(Cell::new(0)));
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
        assert_eq!(sink.0.get(), 1);
        rt.clear_sink();
        rt.report_death(None, &stats);
        assert_eq!(sink.0.get(), 1);
    }

    #[test]
    fn reattached_telemetry_takes_the_op_cost_histogram_along() {
        let rt = Runtime::new(Heap::new());
        let (first, second) = (Telemetry::new(), Telemetry::new());
        let op_cost = |t: &Telemetry| t.histogram("coll.op_cost_units", &OP_COST_BUCKETS);
        rt.attach_telemetry(&first);
        rt.charge(3);
        rt.attach_telemetry(&second);
        rt.charge(5);
        rt.charge(7);
        assert_eq!((op_cost(&first).count(), op_cost(&first).sum()), (1, 3));
        assert_eq!((op_cost(&second).count(), op_cost(&second).sum()), (2, 12));
    }

    #[test]
    fn flush_survivors_reports_live_instances_once() {
        use crate::factory::CollectionFactory;
        struct Collect(RefCell<Vec<InstanceStats>>);
        impl StatsSink for Collect {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                self.0.borrow_mut().push(stats.clone());
            }
        }
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let rt = f.runtime().clone();
        let sink = Rc::new(Collect(RefCell::new(Vec::new())));
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
            let reports = sink.0.borrow();
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
        assert_eq!(sink.0.borrow().len(), 2);
        // And a repeated flush finds nothing.
        assert_eq!(rt.flush_survivors(), 0);
    }

    #[test]
    fn registry_slot_reuse_across_a_survivor_flush() {
        use crate::factory::CollectionFactory;
        use crate::handle::ListHandle;
        /// Records each report's `(max_size, survivor)`; every list below
        /// gets a distinct size so it can be told apart.
        struct Collect(RefCell<Vec<(u64, bool)>>);
        impl StatsSink for Collect {
            fn on_death(&self, _ctx: Option<ContextId>, stats: &InstanceStats) {
                self.0.borrow_mut().push((stats.max_size, stats.survivor));
            }
        }
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let rt = f.runtime().clone();
        let sink = Rc::new(Collect(RefCell::new(Vec::new())));
        rt.set_sink(sink.clone());
        let list = |n: i64| -> ListHandle<i64> {
            let mut l = f.new_list(None);
            for i in 0..n {
                l.add(i);
            }
            l
        };
        let take = || std::mem::take(&mut *sink.0.borrow_mut());

        let mut a = list(1);
        let b = list(2);
        assert_eq!(rt.flush_survivors(), 2);
        assert_eq!(take(), [(1, true), (2, true)]);

        // Ops on a flushed survivor still count on its handle but never
        // reach the sink, and its drop stays silent; so do C and D, which
        // are live and not yet flushed.
        for i in 0..8 {
            a.add(i);
        }
        assert_eq!(a.max_size_seen(), 9);
        drop(a);
        let c = list(3);
        let d = list(4);
        assert!(take().is_empty());

        // Interleaved deaths: E dies and G takes its slot, so slot order is
        // no longer allocation order; the flush still delivers by age.
        let e = list(5);
        let f6 = list(6);
        let e_slot = e.live_key().slot;
        drop(e);
        let g = list(7);
        assert_eq!(g.live_key().slot, e_slot, "G reuses E's slot");
        assert_eq!(take(), [(5, false)]);
        assert_eq!(rt.flush_survivors(), 4);
        assert_eq!(take(), [(3, true), (4, true), (6, true), (7, true)]);

        drop((b, c, d, f6, g));
        assert!(take().is_empty(), "flushed handles never report twice");
        assert_eq!(rt.flush_survivors(), 0);
    }
}
