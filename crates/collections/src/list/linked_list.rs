//! Doubly-linked list with a circular sentinel header entry.
//!
//! Faithful to `java.util.LinkedList`: even an *empty* list owns a 24-byte
//! `LinkedList$Entry` sentinel — the overhead Chameleon found dominating
//! bloat's heap ("around 25% of the heap … consumed by `LinkedList$Entry`
//! objects allocated as the head of an empty linked list", §5.3).

use super::ListImpl;
use crate::elem::Elem;
use crate::runtime::Runtime;
use chameleon_heap::{BatchAlloc, BatchRef, ContextId, ObjId};
use std::collections::VecDeque;

/// Doubly-linked list implementation.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::runtime::Runtime;
/// use chameleon_collections::list::{LinkedListImpl, ListImpl};
///
/// let rt = Runtime::new(Heap::new());
/// let mut l = LinkedListImpl::new(&rt, None);
/// l.add(1i64);
/// l.add_at(0, 0);
/// assert_eq!(l.remove_first(), Some(0));
/// ```
#[derive(Debug)]
pub struct LinkedListImpl<T: Elem> {
    rt: Runtime,
    obj: ObjId,
    /// Sentinel header entry (always allocated).
    header: ObjId,
    data: VecDeque<T>,
    entries: VecDeque<ObjId>,
    disposed: bool,
}

impl<T: Elem> LinkedListImpl<T> {
    /// Creates an empty linked list (allocating the sentinel entry).
    pub fn new(rt: &Runtime, ctx: Option<ContextId>) -> Self {
        let c = rt.classes();
        // Impl + sentinel entry (3 refs = the paper's 24 bytes) allocated
        // in one batch; the sentinel's next/prev point back at itself.
        let (list, sentinel) = (BatchRef::New(0), BatchRef::New(1));
        let [obj, header] = rt.heap().alloc_batch(
            [
                BatchAlloc::Scalar {
                    class: c.linked_list,
                    ref_fields: 1,
                    prim_bytes: 8,
                    ctx,
                },
                BatchAlloc::Scalar {
                    class: c.linked_list_entry,
                    ref_fields: 3,
                    prim_bytes: 0,
                    ctx: None,
                },
            ],
            &[
                (list, 0, Some(sentinel)),
                (sentinel, 0, Some(sentinel)),
                (sentinel, 1, Some(sentinel)),
            ],
            &[0],
        );
        let cost = rt.cost();
        rt.charge(2 * cost.alloc_object);
        LinkedListImpl {
            rt: rt.clone(),
            obj,
            header,
            data: VecDeque::new(),
            entries: VecDeque::new(),
            disposed: false,
        }
    }

    fn charge_walk(&self, i: usize) {
        let hops = i.min(self.data.len().saturating_sub(i)) as u64 + 1;
        self.rt.charge(self.rt.cost().link_hop * hops);
    }

    fn entry_at(&self, i: usize) -> ObjId {
        if i == self.entries.len() {
            self.header
        } else {
            self.entries[i]
        }
    }

    /// Splices a freshly allocated entry for `v` before position `i`.
    fn link_at(&mut self, i: usize, v: T) {
        let next = self.entry_at(i);
        let prev = if i == 0 {
            self.header
        } else {
            self.entries[i - 1]
        };
        // The entry is allocated with its next/prev/value references and
        // spliced between its neighbours in one heap entry.
        let new = BatchRef::New(0);
        let [entry] = self.rt.heap().alloc_batch(
            [BatchAlloc::Scalar {
                class: self.rt.classes().linked_list_entry,
                ref_fields: 3,
                prim_bytes: 0,
                ctx: None,
            }],
            &[
                (new, 0, Some(BatchRef::Obj(next))),
                (new, 1, Some(BatchRef::Obj(prev))),
                (new, 2, v.heap_ref().map(BatchRef::Obj)),
                (BatchRef::Obj(prev), 0, Some(new)),
                (BatchRef::Obj(next), 1, Some(new)),
            ],
            &[],
        );
        self.entries.insert(i, entry);
        self.data.insert(i, v);
        let cost = self.rt.cost();
        self.rt.charge(cost.alloc_object + 4 * cost.link_hop);
        self.rt
            .heap()
            .set_meta(self.obj, 0, &[self.data.len() as i64]);
    }

    fn unlink_at(&mut self, i: usize) -> T {
        let heap = self.rt.heap();
        let entry = self.entries.remove(i).expect("index checked by caller");
        let v = self.data.remove(i).expect("data parallel to entries");
        let prev = if i == 0 {
            self.header
        } else {
            self.entries[i - 1]
        };
        let next = self.entry_at(i);
        heap.set_ref(prev, 0, Some(next));
        heap.set_ref(next, 1, Some(prev));
        // Unlinked entry becomes garbage on the next cycle.
        heap.set_ref(entry, 0, None);
        heap.set_ref(entry, 1, None);
        heap.set_ref(entry, 2, None);
        self.rt.charge(2 * self.rt.cost().link_hop);
        heap.set_meta(self.obj, 0, &[self.data.len() as i64]);
        v
    }
}

impl<T: Elem> ListImpl<T> for LinkedListImpl<T> {
    fn impl_name(&self) -> &'static str {
        "LinkedList"
    }

    fn obj(&self) -> ObjId {
        self.obj
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn capacity(&self) -> usize {
        self.data.len()
    }

    fn add(&mut self, v: T) {
        let i = self.data.len();
        self.link_at(i, v);
    }

    fn add_at(&mut self, i: usize, v: T) {
        assert!(i <= self.data.len(), "index {i} out of bounds for insert");
        self.charge_walk(i);
        self.link_at(i, v);
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.charge_walk(i);
        self.data.get(i)
    }

    fn set_at(&mut self, i: usize, v: T) -> Option<T> {
        if i >= self.data.len() {
            return None;
        }
        self.charge_walk(i);
        let heap = self.rt.heap();
        heap.set_ref(self.entries[i], 2, v.heap_ref());
        Some(std::mem::replace(&mut self.data[i], v))
    }

    fn remove_at(&mut self, i: usize) -> Option<T> {
        if i >= self.data.len() {
            return None;
        }
        self.charge_walk(i);
        Some(self.unlink_at(i))
    }

    fn remove_value(&mut self, v: &T) -> bool {
        let cost = self.rt.cost();
        match self.data.iter().position(|x| x == v) {
            Some(i) => {
                self.rt
                    .charge((cost.link_hop + cost.eq_check) * (i as u64 + 1));
                self.unlink_at(i);
                true
            }
            None => {
                self.rt
                    .charge((cost.link_hop + cost.eq_check) * self.data.len() as u64);
                false
            }
        }
    }

    fn contains(&self, v: &T) -> bool {
        let cost = self.rt.cost();
        let pos = self.data.iter().position(|x| x == v);
        let scanned = pos.map(|p| p + 1).unwrap_or(self.data.len());
        self.rt
            .charge((cost.link_hop + cost.eq_check) * scanned as u64);
        pos.is_some()
    }

    fn clear(&mut self) {
        let heap = self.rt.heap();
        for e in self.entries.drain(..) {
            heap.set_ref(e, 0, None);
            heap.set_ref(e, 1, None);
            heap.set_ref(e, 2, None);
        }
        self.data.clear();
        heap.set_ref(self.header, 0, Some(self.header));
        heap.set_ref(self.header, 1, Some(self.header));
        heap.set_meta(self.obj, 0, &[0]);
    }

    fn snapshot(&self) -> Vec<T> {
        self.rt
            .charge(self.rt.cost().link_hop * self.data.len() as u64);
        self.data.iter().cloned().collect()
    }

    fn dispose(&mut self) {
        if !self.disposed {
            self.disposed = true;
            self.rt.heap().remove_root(self.obj);
        }
    }
}

impl<T: Elem> Drop for LinkedListImpl<T> {
    fn drop(&mut self) {
        self.dispose();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::Heap;

    fn rt() -> Runtime {
        Runtime::new(Heap::new())
    }

    #[test]
    fn semantics_match_vec_model() {
        let rt = rt();
        let mut l = LinkedListImpl::new(&rt, None);
        let mut model: Vec<i64> = Vec::new();
        for i in 0..20 {
            l.add(i);
            model.push(i);
        }
        l.add_at(3, 100);
        model.insert(3, 100);
        assert_eq!(l.remove_at(7), Some(model.remove(7)));
        assert!(l.remove_value(&100));
        model.retain(|x| *x != 100);
        assert_eq!(l.snapshot(), model);
        assert!(l.contains(&5));
        assert!(!l.contains(&999));
    }

    #[test]
    fn empty_list_still_owns_sentinel_bytes() {
        let rt = rt();
        let heap = rt.heap().clone();
        let before = heap.heap_bytes();
        let l: LinkedListImpl<i64> = LinkedListImpl::new(&rt, None);
        let after = heap.heap_bytes();
        let m = heap.model();
        // impl object + 24-byte sentinel entry.
        assert_eq!(
            after - before,
            u64::from(m.object_size(1, 8)) + u64::from(m.object_size(3, 0))
        );
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn entries_are_reclaimed_after_removal() {
        let rt = rt();
        let heap = rt.heap().clone();
        let mut l = LinkedListImpl::new(&rt, None);
        for i in 0..10i64 {
            l.add(i);
        }
        heap.gc();
        let live_with_entries = heap.heap_bytes();
        for _ in 0..10 {
            l.remove_first();
        }
        heap.gc();
        let live_empty = heap.heap_bytes();
        let m = heap.model();
        assert_eq!(
            live_with_entries - live_empty,
            10 * u64::from(m.object_size(3, 0))
        );
    }

    #[test]
    fn positional_access_cost_grows_with_distance() {
        let rt = rt();
        let mut l = LinkedListImpl::new(&rt, None);
        for i in 0..100i64 {
            l.add(i);
        }
        let t0 = rt.clock().now();
        l.get(50);
        let middle = rt.clock().now() - t0;
        let t1 = rt.clock().now();
        l.get(0);
        let front = rt.clock().now() - t1;
        assert!(middle > front);
    }

    #[test]
    fn gc_walk_sees_all_entries() {
        // The semantic map walks the circular chain: live bytes must cover
        // header + n entries.
        let rt = rt();
        let heap = rt.heap().clone();
        let mut l = LinkedListImpl::new(&rt, None);
        for i in 0..5i64 {
            l.add(i);
        }
        // Wrap it manually in a top-level wrapper so GC enumerates it.
        let w = heap.alloc_scalar(rt.classes().list_wrapper, 1, 0, None);
        heap.set_ref(w, 0, Some(l.obj()));
        heap.add_root(w);
        let stats = heap.gc();
        let m = heap.model();
        let expected = u64::from(m.object_size(1, 0)) // wrapper
            + u64::from(m.object_size(1, 8)) // impl obj
            + 6 * u64::from(m.object_size(3, 0)); // sentinel + 5 entries
        assert_eq!(stats.collection.live, expected);
        heap.remove_root(w);
    }

    #[test]
    fn clear_resets_to_sentinel_only() {
        let rt = rt();
        let heap = rt.heap().clone();
        let mut l = LinkedListImpl::new(&rt, None);
        for i in 0..5i64 {
            l.add(i);
        }
        l.clear();
        assert_eq!(l.len(), 0);
        heap.gc();
        assert!(heap.is_live(l.obj()));
        l.add(7);
        assert_eq!(l.get(0), Some(&7));
    }
}
