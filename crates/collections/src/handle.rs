//! Wrapper handles — the paper's "another level of indirection" (§4.1).
//!
//! Every collection the program allocates is a small wrapper object that
//! delegates to the selected backing implementation. The wrapper records the
//! allocation context, counts every operation (including interaction
//! operations like being the source of an `addAll`), tracks the maximal
//! size, and on death folds its per-instance statistics into the profiler
//! through the runtime's [`StatsSink`](crate::runtime::StatsSink) — the
//! finalizer-free variant of the paper's `ObjectContextInfo` aggregation.

use crate::elem::Elem;
use crate::list::ListImpl;
use crate::map::MapImpl;
use crate::ops::{Op, OpCounts};
use crate::runtime::{InstanceStats, LiveKey, Runtime};
use crate::set::SetImpl;
use chameleon_heap::{ContextId, ObjId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Mutable per-instance statistics shared between a handle, its iterators,
/// and the runtime's live-instance registry (which reads it when flushing
/// survivors at workload end). `current_size` and `chosen_impl` are kept
/// fresh on every size-changing operation so a survivor flush sees the
/// instance's true final state without touching the (non-`Send`) backing.
#[derive(Debug)]
pub(crate) struct StatsBuilder {
    pub ops: OpCounts,
    pub max_size: u64,
    pub current_size: u64,
    pub initial_capacity: u64,
    pub requested_type: &'static str,
    pub chosen_impl: &'static str,
    /// Set the first time stats are delivered (survivor flush or handle
    /// death) so the instance is never reported twice.
    pub reported: bool,
}

impl StatsBuilder {
    fn new(
        requested_type: &'static str,
        initial_capacity: u64,
        chosen_impl: &'static str,
    ) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(StatsBuilder {
            ops: OpCounts::new(),
            max_size: 0,
            current_size: 0,
            initial_capacity,
            requested_type,
            chosen_impl,
            reported: false,
        }))
    }

    fn record(&mut self, op: Op) {
        self.ops.record(op);
    }

    fn saw_size(&mut self, size: usize, chosen_impl: &'static str) {
        self.current_size = size as u64;
        self.max_size = self.max_size.max(size as u64);
        self.chosen_impl = chosen_impl;
    }
}

/// Snapshot-based iterator over a handle's contents; each step records an
/// `iterNext` operation on the owning collection.
#[derive(Debug)]
pub struct HandleIter<T> {
    items: std::vec::IntoIter<T>,
    stats: Arc<Mutex<StatsBuilder>>,
}

impl<T> Iterator for HandleIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let item = self.items.next();
        if item.is_some() {
            self.stats.lock().record(Op::IterNext);
        }
        item
    }
}

macro_rules! handle_common {
    ($Handle:ident) => {
        impl<T: Elem> $Handle<T> {
            /// The allocation context this collection was created at.
            pub fn ctx(&self) -> Option<ContextId> {
                self.ctx
            }

            /// Name of the backing implementation currently in use.
            pub fn impl_name(&self) -> &'static str {
                self.backing.impl_name()
            }

            /// The collection type the program requested.
            pub fn requested_type(&self) -> &'static str {
                self.stats.lock().requested_type
            }

            /// The wrapper's simulated-heap object.
            pub fn wrapper_obj(&self) -> ObjId {
                self.wrapper
            }

            /// Number of elements.
            pub fn size(&self) -> usize {
                self.backing.len()
            }

            /// Whether the collection is empty.
            pub fn is_empty(&self) -> bool {
                self.backing.is_empty()
            }

            /// Current backing capacity.
            pub fn capacity(&self) -> usize {
                self.backing.capacity()
            }

            /// Largest size observed so far.
            pub fn max_size_seen(&self) -> u64 {
                self.stats.lock().max_size
            }

            /// Operation counts recorded so far.
            pub fn op_counts(&self) -> OpCounts {
                self.stats.lock().ops
            }

            fn charge_indirection(&self) {
                self.rt.charge(self.rt.cost().wrapper_indirection);
            }

            fn record(&self, op: Op) {
                self.stats.lock().record(op);
            }

            fn track_size(&self) {
                self.stats
                    .lock()
                    .saw_size(self.backing.len(), self.backing.impl_name());
            }

            /// Creates an iterator over a snapshot of the contents. Creating
            /// an iterator allocates a (short-lived) iterator object on the
            /// simulated heap, as iterators do in the paper's §5.4 study.
            pub fn iter(&self) -> HandleIter<T> {
                self.record(Op::IterNew);
                if self.backing.is_empty() {
                    self.record(Op::IterNewEmpty);
                }
                let heap = self.rt.heap();
                let _it = heap.alloc_scalar(self.rt.classes().iterator, 1, 8, self.ctx);
                self.rt.charge(self.rt.cost().alloc_object);
                self.charge_indirection();
                HandleIter {
                    items: self.backing.snapshot().into_iter(),
                    stats: Arc::clone(&self.stats),
                }
            }

            fn finish(&mut self) {
                if self.finished {
                    return;
                }
                self.finished = true;
                self.rt.deregister_live(self.live_key);
                let mut b = self.stats.lock();
                let already_reported = std::mem::replace(&mut b.reported, true);
                let stats = InstanceStats {
                    ops: b.ops,
                    max_size: b.max_size,
                    final_size: self.backing.len() as u64,
                    initial_capacity: b.initial_capacity,
                    requested_type: b.requested_type,
                    chosen_impl: self.backing.impl_name(),
                    survivor: false,
                };
                drop(b);
                // A survivor flush may have delivered this instance's stats
                // already; the heap cleanup below still has to happen.
                if !already_reported {
                    self.rt.report_death(self.ctx, &stats);
                }
                self.backing.dispose();
                self.rt.heap().remove_root(self.wrapper);
            }
        }

        impl<T: Elem> Drop for $Handle<T> {
            fn drop(&mut self) {
                self.finish();
            }
        }
    };
}

// ---------------------------------------------------------------------------
// ListHandle
// ---------------------------------------------------------------------------

/// Instrumented wrapper around a swappable list implementation.
///
/// Constructed by
/// [`CollectionFactory`](crate::factory::CollectionFactory::new_list).
#[derive(Debug)]
pub struct ListHandle<T: Elem> {
    rt: Runtime,
    wrapper: ObjId,
    backing: Box<dyn ListImpl<T>>,
    ctx: Option<ContextId>,
    stats: Arc<Mutex<StatsBuilder>>,
    live_key: LiveKey,
    finished: bool,
}

handle_common!(ListHandle);

impl<T: Elem> ListHandle<T> {
    pub(crate) fn assemble(
        rt: Runtime,
        wrapper: ObjId,
        backing: Box<dyn ListImpl<T>>,
        ctx: Option<ContextId>,
        requested_type: &'static str,
    ) -> Self {
        let initial_capacity = backing.capacity() as u64;
        let stats = StatsBuilder::new(requested_type, initial_capacity, backing.impl_name());
        let live_key = rt.register_live(ctx, Arc::clone(&stats));
        ListHandle {
            rt,
            wrapper,
            backing,
            ctx,
            stats,
            live_key,
            finished: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn live_key(&self) -> LiveKey {
        self.live_key
    }

    /// Appends `v`.
    pub fn add(&mut self, v: T) {
        self.charge_indirection();
        self.record(Op::Add);
        self.backing.add(v);
        self.track_size();
    }

    /// Inserts `v` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > size()`.
    pub fn add_at(&mut self, i: usize, v: T) {
        self.charge_indirection();
        self.record(Op::AddIndexed);
        self.backing.add_at(i, v);
        self.track_size();
    }

    /// Appends all elements of `src` (recording the interaction on both
    /// sides: `addAll` here, `copied` on `src`).
    pub fn add_all(&mut self, src: &ListHandle<T>) {
        self.charge_indirection();
        self.record(Op::AddAll);
        src.record(Op::CopiedInto);
        for v in src.backing.snapshot() {
            self.backing.add(v);
        }
        self.track_size();
    }

    /// Positional read (cloned out).
    pub fn get(&self, i: usize) -> Option<T> {
        self.charge_indirection();
        self.record(Op::GetIndexed);
        self.backing.get(i).cloned()
    }

    /// Replaces the element at `i`.
    pub fn set(&mut self, i: usize, v: T) -> Option<T> {
        self.charge_indirection();
        self.record(Op::SetIndexed);
        self.backing.set_at(i, v)
    }

    /// Membership test.
    pub fn contains(&self, v: &T) -> bool {
        self.charge_indirection();
        self.record(Op::Contains);
        self.backing.contains(v)
    }

    /// Removes the element at `i`.
    pub fn remove_at(&mut self, i: usize) -> Option<T> {
        self.charge_indirection();
        self.record(Op::RemoveIndexed);
        let removed = self.backing.remove_at(i);
        self.track_size();
        removed
    }

    /// Removes the first occurrence of `v`.
    pub fn remove_value(&mut self, v: &T) -> bool {
        self.charge_indirection();
        self.record(Op::Remove);
        let removed = self.backing.remove_value(v);
        self.track_size();
        removed
    }

    /// Removes and returns the first element.
    pub fn remove_first(&mut self) -> Option<T> {
        self.charge_indirection();
        self.record(Op::RemoveFirst);
        let removed = self.backing.remove_first();
        self.track_size();
        removed
    }

    /// Removes and returns the last element.
    pub fn remove_last(&mut self) -> Option<T> {
        self.charge_indirection();
        self.record(Op::RemoveLast);
        let removed = self.backing.remove_last();
        self.track_size();
        removed
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.charge_indirection();
        self.record(Op::Clear);
        self.backing.clear();
        self.track_size();
    }

    /// Copies the contents out without recording an iteration.
    pub fn snapshot(&self) -> Vec<T> {
        self.backing.snapshot()
    }

    pub(crate) fn mark_copied(&self) {
        self.record(Op::CopiedInto);
    }
}

// ---------------------------------------------------------------------------
// SetHandle
// ---------------------------------------------------------------------------

/// Instrumented wrapper around a swappable set implementation.
#[derive(Debug)]
pub struct SetHandle<T: Elem> {
    rt: Runtime,
    wrapper: ObjId,
    backing: Box<dyn SetImpl<T>>,
    ctx: Option<ContextId>,
    stats: Arc<Mutex<StatsBuilder>>,
    live_key: LiveKey,
    finished: bool,
}

handle_common!(SetHandle);

impl<T: Elem> SetHandle<T> {
    pub(crate) fn assemble(
        rt: Runtime,
        wrapper: ObjId,
        backing: Box<dyn SetImpl<T>>,
        ctx: Option<ContextId>,
        requested_type: &'static str,
    ) -> Self {
        let initial_capacity = backing.capacity() as u64;
        let stats = StatsBuilder::new(requested_type, initial_capacity, backing.impl_name());
        let live_key = rt.register_live(ctx, Arc::clone(&stats));
        SetHandle {
            rt,
            wrapper,
            backing,
            ctx,
            stats,
            live_key,
            finished: false,
        }
    }

    /// Adds `v`; returns whether it was newly inserted.
    pub fn add(&mut self, v: T) -> bool {
        self.charge_indirection();
        self.record(Op::Add);
        let added = self.backing.add(v);
        self.track_size();
        added
    }

    /// Adds all elements of `src`.
    pub fn add_all(&mut self, src: &SetHandle<T>) {
        self.charge_indirection();
        self.record(Op::AddAll);
        src.record(Op::CopiedInto);
        for v in src.backing.snapshot() {
            self.backing.add(v);
        }
        self.track_size();
    }

    /// Removes `v`.
    pub fn remove(&mut self, v: &T) -> bool {
        self.charge_indirection();
        self.record(Op::Remove);
        let removed = self.backing.remove(v);
        self.track_size();
        removed
    }

    /// Membership test.
    pub fn contains(&self, v: &T) -> bool {
        self.charge_indirection();
        self.record(Op::Contains);
        self.backing.contains(v)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.charge_indirection();
        self.record(Op::Clear);
        self.backing.clear();
        self.track_size();
    }

    /// Copies the contents out without recording an iteration.
    pub fn snapshot(&self) -> Vec<T> {
        self.backing.snapshot()
    }

    pub(crate) fn mark_copied(&self) {
        self.record(Op::CopiedInto);
    }
}

// ---------------------------------------------------------------------------
// MapHandle
// ---------------------------------------------------------------------------

/// Instrumented wrapper around a swappable map implementation.
#[derive(Debug)]
pub struct MapHandle<K: Elem, V: Elem> {
    rt: Runtime,
    wrapper: ObjId,
    backing: Box<dyn MapImpl<K, V>>,
    ctx: Option<ContextId>,
    stats: Arc<Mutex<StatsBuilder>>,
    live_key: LiveKey,
    finished: bool,
}

impl<K: Elem, V: Elem> MapHandle<K, V> {
    pub(crate) fn assemble(
        rt: Runtime,
        wrapper: ObjId,
        backing: Box<dyn MapImpl<K, V>>,
        ctx: Option<ContextId>,
        requested_type: &'static str,
    ) -> Self {
        let initial_capacity = backing.capacity() as u64;
        let stats = StatsBuilder::new(requested_type, initial_capacity, backing.impl_name());
        let live_key = rt.register_live(ctx, Arc::clone(&stats));
        MapHandle {
            rt,
            wrapper,
            backing,
            ctx,
            stats,
            live_key,
            finished: false,
        }
    }

    /// The allocation context this collection was created at.
    pub fn ctx(&self) -> Option<ContextId> {
        self.ctx
    }

    /// Name of the backing implementation currently in use.
    pub fn impl_name(&self) -> &'static str {
        self.backing.impl_name()
    }

    /// The collection type the program requested.
    pub fn requested_type(&self) -> &'static str {
        self.stats.lock().requested_type
    }

    /// The wrapper's simulated-heap object.
    pub fn wrapper_obj(&self) -> ObjId {
        self.wrapper
    }

    /// Number of entries.
    pub fn size(&self) -> usize {
        self.backing.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.backing.is_empty()
    }

    /// Current backing capacity.
    pub fn capacity(&self) -> usize {
        self.backing.capacity()
    }

    /// Largest size observed so far.
    pub fn max_size_seen(&self) -> u64 {
        self.stats.lock().max_size
    }

    /// Operation counts recorded so far.
    pub fn op_counts(&self) -> OpCounts {
        self.stats.lock().ops
    }

    fn charge_indirection(&self) {
        self.rt.charge(self.rt.cost().wrapper_indirection);
    }

    fn record(&self, op: Op) {
        self.stats.lock().record(op);
    }

    fn track_size(&self) {
        self.stats
            .lock()
            .saw_size(self.backing.len(), self.backing.impl_name());
    }

    /// Inserts or replaces; returns the previous value for `k`.
    pub fn put(&mut self, k: K, v: V) -> Option<V> {
        self.charge_indirection();
        self.record(Op::Add);
        let old = self.backing.put(k, v);
        if old.is_some() {
            self.record(Op::PutReplace);
        }
        self.track_size();
        old
    }

    /// Inserts all entries of `src`.
    pub fn put_all(&mut self, src: &MapHandle<K, V>) {
        self.charge_indirection();
        self.record(Op::AddAll);
        src.record(Op::CopiedInto);
        for (k, v) in src.backing.snapshot() {
            self.backing.put(k, v);
        }
        self.track_size();
    }

    /// Keyed lookup (cloned out).
    pub fn get(&self, k: &K) -> Option<V> {
        self.charge_indirection();
        self.record(Op::Get);
        self.backing.get(k).cloned()
    }

    /// Removes `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.charge_indirection();
        self.record(Op::Remove);
        let removed = self.backing.remove(k);
        self.track_size();
        removed
    }

    /// Key membership test.
    pub fn contains_key(&self, k: &K) -> bool {
        self.charge_indirection();
        self.record(Op::Contains);
        self.backing.contains_key(k)
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.charge_indirection();
        self.record(Op::Clear);
        self.backing.clear();
        self.track_size();
    }

    /// Iterator over a snapshot of the entries.
    pub fn iter(&self) -> HandleIter<(K, V)> {
        self.record(Op::IterNew);
        if self.backing.is_empty() {
            self.record(Op::IterNewEmpty);
        }
        let heap = self.rt.heap();
        let _it = heap.alloc_scalar(self.rt.classes().iterator, 1, 8, self.ctx);
        self.rt.charge(self.rt.cost().alloc_object);
        self.charge_indirection();
        HandleIter {
            items: self.backing.snapshot().into_iter(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Copies the entries out without recording an iteration.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        self.backing.snapshot()
    }

    pub(crate) fn mark_copied(&self) {
        self.record(Op::CopiedInto);
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.rt.deregister_live(self.live_key);
        let mut b = self.stats.lock();
        let already_reported = std::mem::replace(&mut b.reported, true);
        let stats = InstanceStats {
            ops: b.ops,
            max_size: b.max_size,
            final_size: self.backing.len() as u64,
            initial_capacity: b.initial_capacity,
            requested_type: b.requested_type,
            chosen_impl: self.backing.impl_name(),
            survivor: false,
        };
        drop(b);
        // A survivor flush may have delivered this instance's stats already;
        // the heap cleanup below still has to happen.
        if !already_reported {
            self.rt.report_death(self.ctx, &stats);
        }
        self.backing.dispose();
        self.rt.heap().remove_root(self.wrapper);
    }
}

impl<K: Elem, V: Elem> Drop for MapHandle<K, V> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::CollectionFactory;
    use crate::runtime::{InstanceStats, StatsSink};
    use chameleon_heap::Heap;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn factory() -> CollectionFactory {
        CollectionFactory::new(Runtime::new(Heap::new()))
    }

    #[test]
    fn iteration_records_new_next_and_empty() {
        let f = factory();
        let mut l = f.new_list::<i64>(None);
        // Iterating an empty list records the redundant-iterator signal.
        assert_eq!(l.iter().count(), 0);
        assert_eq!(l.op_counts().get(Op::IterNew), 1);
        assert_eq!(l.op_counts().get(Op::IterNewEmpty), 1);
        l.add(1);
        l.add(2);
        assert_eq!(l.iter().count(), 2);
        assert_eq!(l.op_counts().get(Op::IterNew), 2);
        assert_eq!(l.op_counts().get(Op::IterNewEmpty), 1);
        assert_eq!(l.op_counts().get(Op::IterNext), 2);
    }

    #[test]
    fn iterator_objects_add_allocation_pressure() {
        let f = factory();
        let heap = f.runtime().heap().clone();
        let l = f.new_list::<i64>(None);
        let before = heap.total_allocated_objects();
        for _ in 0..5 {
            let _ = l.iter();
        }
        assert_eq!(heap.total_allocated_objects() - before, 5);
    }

    #[test]
    fn add_all_records_both_sides() {
        let f = factory();
        let mut src = f.new_list::<i64>(None);
        src.add(1);
        src.add(2);
        let mut dst = f.new_list::<i64>(None);
        dst.add_all(&src);
        assert_eq!(dst.snapshot(), vec![1, 2]);
        assert_eq!(dst.op_counts().get(Op::AddAll), 1);
        assert_eq!(src.op_counts().get(Op::CopiedInto), 1);
    }

    #[test]
    fn map_put_all_and_replace_counting() {
        let f = factory();
        let mut a = f.new_map::<i64, i64>(None);
        a.put(1, 10);
        a.put(1, 11);
        assert_eq!(a.op_counts().get(Op::PutReplace), 1);
        let mut b = f.new_map::<i64, i64>(None);
        b.put_all(&a);
        assert_eq!(b.get(&1), Some(11));
        assert_eq!(a.op_counts().get(Op::CopiedInto), 1);
    }

    #[test]
    fn max_size_tracks_high_water_mark() {
        let f = factory();
        let mut s = f.new_set::<i64>(None);
        for i in 0..5 {
            s.add(i);
        }
        s.remove(&0);
        s.remove(&1);
        assert_eq!(s.size(), 3);
        assert_eq!(s.max_size_seen(), 5);
    }

    #[test]
    fn death_report_carries_final_state() {
        struct Capture(Mutex<Option<InstanceStats>>);
        impl StatsSink for Capture {
            fn on_death(&self, _ctx: Option<chameleon_heap::ContextId>, s: &InstanceStats) {
                *self.0.lock() = Some(s.clone());
            }
        }
        let f = factory();
        let sink = Arc::new(Capture(Mutex::new(None)));
        f.runtime().set_sink(sink.clone());
        {
            let mut m = f.new_map::<i64, i64>(Some(8));
            m.put(1, 1);
            m.put(2, 2);
            m.remove(&1);
        }
        let stats = sink.0.lock().take().expect("death reported");
        assert_eq!(stats.max_size, 2);
        assert_eq!(stats.final_size, 1);
        assert_eq!(stats.initial_capacity, 8);
        assert_eq!(stats.requested_type, "HashMap");
        assert_eq!(stats.chosen_impl, "HashMap");
    }

    #[test]
    fn wrapper_dies_with_handle() {
        let f = factory();
        let heap = f.runtime().heap().clone();
        let l = f.new_list::<i64>(None);
        let wrapper = l.wrapper_obj();
        heap.gc();
        assert!(heap.is_live(wrapper));
        drop(l);
        heap.gc();
        assert!(!heap.is_live(wrapper));
    }
}
