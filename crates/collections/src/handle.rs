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
use crate::runtime::{LiveKey, Runtime, StatsBuilder};
use crate::set::SetImpl;
use chameleon_heap::{ContextId, ObjId};

/// Snapshot-based iterator over a handle's contents; each step records an
/// `iterNext` operation on the owning collection while it is still live.
#[derive(Debug)]
pub struct HandleIter<T> {
    items: std::vec::IntoIter<T>,
    rt: Runtime,
    key: LiveKey,
}

impl<T> Iterator for HandleIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let item = self.items.next();
        if item.is_some() {
            self.rt.record_if_live(self.key, Op::IterNext);
        }
        item
    }
}

/// Defines a wrapper handle over `Box<$Backing>` whose contents are
/// `$Item`s, with everything the three handles share: assembly, the
/// recorded-statistics accessors, iteration and death.
macro_rules! handle_common {
    ($(#[$doc:meta])* $Handle:ident<$($P:ident),+>, $Backing:ty, $Item:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $Handle<$($P: Elem),+> {
            rt: Runtime,
            wrapper: ObjId,
            backing: Box<$Backing>,
            live_key: LiveKey,
        }

        impl<$($P: Elem),+> $Handle<$($P),+> {
            pub(crate) fn assemble(
                rt: Runtime,
                wrapper: ObjId,
                backing: Box<$Backing>,
                ctx: Option<ContextId>,
                requested_type: &'static str,
            ) -> Self {
                let stats = StatsBuilder::new(
                    requested_type,
                    backing.capacity() as u64,
                    backing.impl_name(),
                );
                let live_key = rt.register_live(ctx, stats);
                $Handle {
                    rt,
                    wrapper,
                    backing,
                    live_key,
                }
            }

            /// The allocation context this collection was created at.
            pub fn ctx(&self) -> Option<ContextId> {
                self.rt.with_live(self.live_key, |i| i.ctx)
            }

            /// Name of the backing implementation currently in use.
            pub fn impl_name(&self) -> &'static str {
                self.backing.impl_name()
            }

            /// The collection type the program requested.
            pub fn requested_type(&self) -> &'static str {
                self.rt.with_live(self.live_key, |i| i.stats.requested_type)
            }

            /// The wrapper's simulated-heap object.
            pub fn wrapper_obj(&self) -> ObjId {
                self.wrapper
            }

            /// Number of elements (entries, for a map).
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
                self.rt.with_live(self.live_key, |i| i.stats.max_size)
            }

            /// Operation counts recorded so far.
            pub fn op_counts(&self) -> OpCounts {
                self.rt.with_live(self.live_key, |i| i.stats.ops)
            }

            fn charge_indirection(&self) {
                self.rt.charge(self.rt.cost().wrapper_indirection);
            }

            fn record(&self, op: Op) {
                self.rt.with_live(self.live_key, |i| i.stats.ops.record(op));
            }

            fn track_size(&self) {
                let (len, name) = (self.backing.len(), self.backing.impl_name());
                self.rt.with_live(self.live_key, |i| i.stats.saw_size(len, name));
            }

            /// Creates an iterator over a snapshot of the contents. Creating
            /// an iterator allocates a (short-lived) iterator object on the
            /// simulated heap, as iterators do in the paper's §5.4 study.
            pub fn iter(&self) -> HandleIter<$Item> {
                self.record(Op::IterNew);
                if self.backing.is_empty() {
                    self.record(Op::IterNewEmpty);
                }
                let heap = self.rt.heap();
                let _it = heap.alloc_scalar(self.rt.classes().iterator, 1, 8, self.ctx());
                self.rt.charge(self.rt.cost().alloc_object);
                self.charge_indirection();
                HandleIter {
                    items: self.backing.snapshot().into_iter(),
                    rt: self.rt.clone(),
                    key: self.live_key,
                }
            }

            /// Copies the contents out without recording an iteration.
            pub fn snapshot(&self) -> Vec<$Item> {
                self.backing.snapshot()
            }

            pub(crate) fn mark_copied(&self) {
                self.record(Op::CopiedInto);
            }
        }

        impl<$($P: Elem),+> Drop for $Handle<$($P),+> {
            /// Delivers the instance's statistics (unless a survivor flush
            /// already did), then releases its simulated-heap objects.
            fn drop(&mut self) {
                self.rt
                    .retire_live(self.live_key, self.backing.len(), self.backing.impl_name());
                self.backing.dispose();
                self.rt.heap().remove_root(self.wrapper);
            }
        }
    };
}

// ---------------------------------------------------------------------------
// ListHandle
// ---------------------------------------------------------------------------

handle_common!(
    /// Instrumented wrapper around a swappable list implementation.
    ///
    /// Constructed by
    /// [`CollectionFactory`](crate::factory::CollectionFactory::new_list).
    ListHandle<T>,
    dyn ListImpl<T>,
    T
);

impl<T: Elem> ListHandle<T> {
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
}

// ---------------------------------------------------------------------------
// SetHandle
// ---------------------------------------------------------------------------

handle_common!(
    /// Instrumented wrapper around a swappable set implementation.
    SetHandle<T>,
    dyn SetImpl<T>,
    T
);

impl<T: Elem> SetHandle<T> {
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
}

// ---------------------------------------------------------------------------
// MapHandle
// ---------------------------------------------------------------------------

handle_common!(
    /// Instrumented wrapper around a swappable map implementation.
    MapHandle<K, V>,
    dyn MapImpl<K, V>,
    (K, V)
);

impl<K: Elem, V: Elem> MapHandle<K, V> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::CollectionFactory;
    use crate::runtime::{InstanceStats, StatsSink};
    use chameleon_heap::Heap;
    use std::cell::RefCell;
    use std::rc::Rc;

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
    fn an_iterator_outliving_its_handle_records_nothing_on_the_slots_next_owner() {
        let f = factory();
        let mut old = f.new_list::<i64>(None);
        old.add(1);
        old.add(2);
        let mut it = old.iter();
        let slot = old.live_key().slot;
        drop(old);
        let fresh = f.new_list::<i64>(None);
        assert_eq!(fresh.live_key().slot, slot, "the new list reuses the slot");
        assert_eq!(it.next(), Some(1));
        assert_eq!(it.next(), Some(2));
        assert_eq!(fresh.op_counts().get(Op::IterNext), 0);
        assert_eq!(fresh.op_counts().total(), 0);
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
        struct Capture(RefCell<Option<InstanceStats>>);
        impl StatsSink for Capture {
            fn on_death(&self, _ctx: Option<chameleon_heap::ContextId>, s: &InstanceStats) {
                *self.0.borrow_mut() = Some(s.clone());
            }
        }
        let f = factory();
        let sink = Rc::new(Capture(RefCell::new(None)));
        f.runtime().set_sink(sink.clone());
        {
            let mut m = f.new_map::<i64, i64>(Some(8));
            m.put(1, 1);
            m.put(2, 2);
            m.remove(&1);
        }
        let stats = sink.0.borrow_mut().take().expect("death reported");
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
