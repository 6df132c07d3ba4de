//! Shared array-backed storage engine.
//!
//! `RawArray` is the common substrate of `ArrayList`, `LazyArrayList`,
//! `ArraySet`, `LazySet` and (with two slots per element) `ArrayMap`: a Rust
//! vector holding the real values, mirrored by a simulated-heap object plus
//! backing array so the collection-aware GC sees exactly the bytes a JVM
//! would. Growth follows Java's `ArrayList`: `newCapacity = oldCapacity*3/2
//! + 1` (§2.2).

use crate::elem::Elem;
use crate::runtime::Runtime;
use chameleon_heap::{BatchAlloc, BatchRef, ClassId, ContextId, ElemKind, ObjId};

/// Java's ArrayList growth function.
pub(crate) fn grown_capacity(old: u32, needed: u32) -> u32 {
    ((old * 3) / 2 + 1).max(needed)
}

/// Array-backed mirrored storage of `T` values.
#[derive(Debug)]
pub(crate) struct RawArray<T: Elem> {
    rt: Runtime,
    data: Vec<T>,
    /// Simulated impl object (1 ref field -> backing array, 8 prim bytes).
    obj: ObjId,
    /// Backing array object, absent while lazy and untouched.
    arr: Option<ObjId>,
    capacity: u32,
    /// Reference slots each logical element occupies (2 for maps).
    slots_per_elem: u32,
    elem_kind: ElemKind,
    array_class: ClassId,
    disposed: bool,
}

impl<T: Elem> RawArray<T> {
    /// Allocates the impl object (self-rooted) and, unless `lazy`, the
    /// backing array of `capacity` slots.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rt: &Runtime,
        impl_class: ClassId,
        array_class: ClassId,
        elem_kind: ElemKind,
        capacity: u32,
        slots_per_elem: u32,
        lazy: bool,
        ctx: Option<ContextId>,
    ) -> Self {
        let heap = rt.heap();
        let impl_req = BatchAlloc::Scalar {
            class: impl_class,
            ref_fields: 1,
            prim_bytes: 8,
            ctx,
        };
        if lazy {
            let [obj] = heap.alloc_batch([impl_req], &[], &[0]);
            rt.charge(rt.cost().alloc_object);
            return RawArray {
                rt: rt.clone(),
                data: Vec::new(),
                obj,
                arr: None,
                capacity: 0,
                slots_per_elem,
                elem_kind,
                array_class,
                disposed: false,
            };
        }
        // Impl object + backing array in one batch: one heap lock, one
        // capacity check, and the array is linked before the lock drops so
        // no GC can ever observe it unreachable.
        let [obj, arr] = heap.alloc_batch(
            [
                impl_req,
                BatchAlloc::Array {
                    class: array_class,
                    elem: elem_kind,
                    capacity: capacity * slots_per_elem,
                    ctx: None,
                },
            ],
            &[(BatchRef::New(0), 0, Some(BatchRef::New(1)))],
            &[0],
        );
        rt.charge(2 * rt.cost().alloc_object);
        RawArray {
            rt: rt.clone(),
            data: Vec::new(),
            obj,
            arr: Some(arr),
            capacity,
            slots_per_elem,
            elem_kind,
            array_class,
            disposed: false,
        }
    }

    pub(crate) fn obj(&self) -> ObjId {
        self.obj
    }

    pub(crate) fn runtime(&self) -> &Runtime {
        &self.rt
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    pub(crate) fn capacity(&self) -> u32 {
        self.capacity
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.rt
            .charge(self.rt.cost().array_access * self.slots_per_elem as u64);
        self.data.get(i)
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Linear scan; returns the index of `v` and charges per element
    /// actually inspected.
    pub(crate) fn index_of(&self, v: &T) -> Option<usize> {
        let cost = self.rt.cost();
        let pos = self.data.iter().position(|x| x == v);
        let scanned = pos.map(|p| p + 1).unwrap_or(self.data.len());
        self.rt
            .charge(cost.eq_check * scanned as u64 + cost.array_access * scanned as u64);
        pos
    }

    pub(crate) fn push(&mut self, v: T) {
        let i = self.data.len();
        self.insert(i, v);
    }

    /// Inserts at `i`, shifting the tail (charged per shifted slot).
    ///
    /// # Panics
    ///
    /// Panics if `i > len` (Java's `IndexOutOfBoundsException`).
    pub(crate) fn insert(&mut self, i: usize, v: T) {
        assert!(i <= self.data.len(), "index {i} out of bounds for insert");
        self.ensure_capacity(self.data.len() as u32 + 1);
        let shifted = self.data.len() - i;
        self.data.insert(i, v);
        let cost = self.rt.cost();
        self.rt.charge(
            cost.array_access + cost.elem_copy * (shifted as u64) * self.slots_per_elem as u64,
        );
        self.resync_slots_from(i);
        self.sync_size();
    }

    /// Replaces the value at `i`, returning the old one.
    pub(crate) fn set(&mut self, i: usize, v: T) -> Option<T> {
        if i >= self.data.len() {
            return None;
        }
        self.rt.charge(self.rt.cost().array_access);
        let old = std::mem::replace(&mut self.data[i], v);
        self.resync_slot(i);
        Some(old)
    }

    /// Removes the value at `i`, shifting the tail down.
    pub(crate) fn remove(&mut self, i: usize) -> Option<T> {
        if i >= self.data.len() {
            return None;
        }
        let v = self.data.remove(i);
        let shifted = self.data.len() - i;
        let cost = self.rt.cost();
        self.rt
            .charge(cost.elem_copy * (shifted as u64 + 1) * self.slots_per_elem as u64);
        self.resync_slots_from(i);
        // Clear the now-unused trailing slots.
        self.clear_slots(self.data.len(), 1);
        self.sync_size();
        Some(v)
    }

    pub(crate) fn clear(&mut self) {
        let n = self.data.len();
        self.data.clear();
        self.clear_slots(0, n);
        self.rt.charge(self.rt.cost().array_access * n as u64);
        self.sync_size();
    }

    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.rt
            .charge(self.rt.cost().array_access * self.data.len() as u64);
        self.data.clone()
    }

    /// Grows (or lazily allocates) the backing array to hold `needed`
    /// logical elements.
    pub(crate) fn ensure_capacity(&mut self, needed: u32) {
        if self.arr.is_none() {
            // First update of a lazy collection: allocate at default size.
            self.allocate_array(needed.max(10));
            return;
        }
        if needed <= self.capacity {
            return;
        }
        let new_cap = grown_capacity(self.capacity, needed);
        self.reallocate(new_cap);
    }

    fn allocate_array(&mut self, capacity: u32) {
        self.arr = Some(self.alloc_linked_array(capacity));
        self.capacity = capacity;
        self.rt.charge(self.rt.cost().alloc_object);
        self.resync_slots_from(0);
    }

    fn reallocate(&mut self, new_cap: u32) {
        self.arr = Some(self.alloc_linked_array(new_cap));
        self.capacity = new_cap;
        let cost = self.rt.cost();
        self.rt.charge(
            cost.alloc_object
                + cost.elem_copy * self.data.len() as u64 * self.slots_per_elem as u64,
        );
        self.resync_slots_from(0);
    }

    /// Allocates a backing array for `capacity` elements and links it from
    /// the impl object in the same heap entry, so a capacity-pressure GC
    /// can never see it unreachable.
    fn alloc_linked_array(&self, capacity: u32) -> ObjId {
        let [arr] = self.rt.heap().alloc_batch(
            [BatchAlloc::Array {
                class: self.array_class,
                elem: self.elem_kind,
                capacity: capacity * self.slots_per_elem,
                ctx: None,
            }],
            &[(BatchRef::Obj(self.obj), 0, Some(BatchRef::New(0)))],
            &[],
        );
        arr
    }

    /// Rewrites the heap reference slots for elements `from..len`.
    fn resync_slots_from(&self, from: usize) {
        if !matches!(self.elem_kind, ElemKind::Ref) {
            return;
        }
        let Some(arr) = self.arr else { return };
        let heap = self.rt.heap();
        let spe = self.slots_per_elem as usize;
        for (i, v) in self.data.iter().enumerate().skip(from) {
            heap.set_elem(arr, i * spe, v.heap_ref());
            if spe > 1 {
                heap.set_elem(arr, i * spe + 1, v.heap_ref2());
            }
        }
    }

    fn resync_slot(&self, i: usize) {
        if !matches!(self.elem_kind, ElemKind::Ref) {
            return;
        }
        if let Some(arr) = self.arr {
            let spe = self.slots_per_elem as usize;
            let heap = self.rt.heap();
            heap.set_elem(arr, i * spe, self.data[i].heap_ref());
            if spe > 1 {
                heap.set_elem(arr, i * spe + 1, self.data[i].heap_ref2());
            }
        }
    }

    fn clear_slots(&self, from: usize, count: usize) {
        if !matches!(self.elem_kind, ElemKind::Ref) {
            return;
        }
        let Some(arr) = self.arr else { return };
        let heap = self.rt.heap();
        for i in from..from + count {
            for s in 0..self.slots_per_elem as usize {
                let slot = i * self.slots_per_elem as usize + s;
                if slot < (self.capacity * self.slots_per_elem) as usize {
                    heap.set_elem(arr, slot, None);
                }
            }
        }
    }

    fn sync_size(&self) {
        self.rt
            .heap()
            .set_meta(self.obj, 0, &[self.data.len() as i64]);
    }

    /// Unroots the impl object so the GC can reclaim the whole structure.
    pub(crate) fn dispose(&mut self) {
        if !self.disposed {
            self.disposed = true;
            self.rt.heap().remove_root(self.obj);
        }
    }
}

impl<T: Elem> Drop for RawArray<T> {
    fn drop(&mut self) {
        self.dispose();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::Heap;

    fn raw(rt: &Runtime, cap: u32, lazy: bool) -> RawArray<i64> {
        let c = rt.classes();
        RawArray::new(
            rt,
            c.array_list,
            c.object_array,
            ElemKind::Ref,
            cap,
            1,
            lazy,
            None,
        )
    }

    #[test]
    fn growth_function_matches_java() {
        assert_eq!(grown_capacity(10, 11), 16);
        assert_eq!(grown_capacity(16, 17), 25);
        assert_eq!(grown_capacity(100, 101), 151); // the §2.2 example
        assert_eq!(grown_capacity(0, 1), 1);
        // Explicit need dominates the formula.
        assert_eq!(grown_capacity(4, 100), 100);
    }

    #[test]
    fn push_get_remove_roundtrip() {
        let rt = Runtime::new(Heap::new());
        let mut r = raw(&rt, 10, false);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.get(3), Some(&3));
        assert_eq!(r.remove(1), Some(1));
        assert_eq!(r.as_slice(), &[0, 2, 3, 4]);
        assert_eq!(r.index_of(&4), Some(3));
        assert_eq!(r.index_of(&99), None);
    }

    #[test]
    fn grows_when_full_and_meta_tracks_size() {
        let rt = Runtime::new(Heap::new());
        let mut r = raw(&rt, 2, false);
        for i in 0..10 {
            r.push(i);
        }
        assert!(r.capacity() >= 10);
        assert_eq!(rt.heap().get_meta(r.obj(), 0), 10);
    }

    #[test]
    fn lazy_allocates_on_first_update() {
        let rt = Runtime::new(Heap::new());
        let mut r = raw(&rt, 0, true);
        assert_eq!(r.capacity(), 0);
        let bytes_before = rt.heap().heap_bytes();
        r.push(1);
        assert!(r.capacity() >= 1);
        assert!(rt.heap().heap_bytes() > bytes_before);
    }

    #[test]
    fn heap_slots_follow_payload_elements() {
        use crate::elem::HeapVal;
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let pclass = heap.register_class("P", None);
        let p1 = heap.alloc_scalar(pclass, 0, 0, None);
        let p2 = heap.alloc_scalar(pclass, 0, 0, None);
        let c = rt.classes();
        let mut r: RawArray<HeapVal> = RawArray::new(
            &rt,
            c.array_list,
            c.object_array,
            ElemKind::Ref,
            4,
            1,
            false,
            None,
        );
        r.push(HeapVal(p1));
        r.push(HeapVal(p2));
        // Payloads are reachable through the raw array's impl object.
        heap.gc();
        assert!(heap.is_live(p1) && heap.is_live(p2));
        r.remove(0);
        heap.gc();
        assert!(!heap.is_live(p1), "removed payload becomes unreachable");
        assert!(heap.is_live(p2));
    }

    #[test]
    fn dispose_releases_structure() {
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let mut r = raw(&rt, 10, false);
        r.push(1);
        let obj = r.obj();
        drop(r);
        heap.gc();
        assert!(!heap.is_live(obj));
    }

    #[test]
    fn clear_zeroes_slots_and_meta() {
        let rt = Runtime::new(Heap::new());
        let mut r = raw(&rt, 10, false);
        for i in 0..5 {
            r.push(i);
        }
        r.clear();
        assert_eq!(r.len(), 0);
        assert_eq!(rt.heap().get_meta(r.obj(), 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let rt = Runtime::new(Heap::new());
        let mut r = raw(&rt, 4, false);
        r.insert(1, 5);
    }
}
