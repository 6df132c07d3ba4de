//! Immutable-capacity singleton list.
//!
//! The paper's SOOT study replaces `ArrayList`s that provably hold one
//! element with an immutable `SingletonList` (§5.3). The whole collection is
//! one 16-byte object.

use super::ListImpl;
use crate::elem::Elem;
use crate::runtime::Runtime;
use chameleon_heap::{BatchAlloc, ContextId, ObjId};

/// List holding at most one element.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::runtime::Runtime;
/// use chameleon_collections::list::{SingletonListImpl, ListImpl};
///
/// let rt = Runtime::new(Heap::new());
/// let mut l = SingletonListImpl::new(&rt, None);
/// l.add(42i64);
/// assert_eq!(l.get(0), Some(&42));
/// assert_eq!(l.len(), 1);
/// ```
#[derive(Debug)]
pub struct SingletonListImpl<T: Elem> {
    rt: Runtime,
    obj: ObjId,
    value: Option<T>,
    disposed: bool,
}

impl<T: Elem> SingletonListImpl<T> {
    /// Creates an empty singleton list.
    pub fn new(rt: &Runtime, ctx: Option<ContextId>) -> Self {
        let [obj] = rt.heap().alloc_batch(
            [BatchAlloc::Scalar {
                class: rt.classes().singleton_list,
                ref_fields: 1,
                prim_bytes: 0,
                ctx,
            }],
            &[],
            &[0],
        );
        rt.charge(rt.cost().alloc_object);
        SingletonListImpl {
            rt: rt.clone(),
            obj,
            value: None,
            disposed: false,
        }
    }

    fn sync(&self) {
        let heap = self.rt.heap();
        heap.set_ref(self.obj, 0, self.value.as_ref().and_then(|v| v.heap_ref()));
        heap.set_meta(self.obj, 0, &[i64::from(self.value.is_some())]);
    }
}

impl<T: Elem> ListImpl<T> for SingletonListImpl<T> {
    fn impl_name(&self) -> &'static str {
        "SingletonList"
    }

    fn obj(&self) -> ObjId {
        self.obj
    }

    fn len(&self) -> usize {
        usize::from(self.value.is_some())
    }

    fn capacity(&self) -> usize {
        1
    }

    /// # Panics
    ///
    /// Panics if the list already holds an element — a `SingletonList` is
    /// only a valid replacement when the context provably allocates
    /// one-element lists; tripping this assert means a selection rule fired
    /// on unstable data.
    fn add(&mut self, v: T) {
        assert!(
            self.value.is_none(),
            "SingletonList overflow: a second element was added; \
             the selection that chose SingletonList was unsound for this context"
        );
        self.rt.charge(self.rt.cost().array_access);
        self.value = Some(v);
        self.sync();
    }

    fn add_at(&mut self, i: usize, v: T) {
        assert!(i <= self.len(), "index {i} out of bounds for insert");
        self.add(v);
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.rt.charge(self.rt.cost().array_access);
        if i == 0 {
            self.value.as_ref()
        } else {
            None
        }
    }

    fn set_at(&mut self, i: usize, v: T) -> Option<T> {
        if i != 0 || self.value.is_none() {
            return None;
        }
        let old = self.value.replace(v);
        self.sync();
        old
    }

    fn remove_at(&mut self, i: usize) -> Option<T> {
        if i != 0 {
            return None;
        }
        let old = self.value.take();
        self.sync();
        old
    }

    fn remove_value(&mut self, v: &T) -> bool {
        self.rt.charge(self.rt.cost().eq_check);
        if self.value.as_ref() == Some(v) {
            self.value = None;
            self.sync();
            true
        } else {
            false
        }
    }

    fn contains(&self, v: &T) -> bool {
        self.rt.charge(self.rt.cost().eq_check);
        self.value.as_ref() == Some(v)
    }

    fn clear(&mut self) {
        self.value = None;
        self.sync();
    }

    fn snapshot(&self) -> Vec<T> {
        self.value.iter().cloned().collect()
    }

    fn dispose(&mut self) {
        if !self.disposed {
            self.disposed = true;
            self.rt.heap().remove_root(self.obj);
        }
    }
}

impl<T: Elem> Drop for SingletonListImpl<T> {
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
    fn holds_exactly_one() {
        let rt = rt();
        let mut l = SingletonListImpl::new(&rt, None);
        assert!(l.is_empty());
        l.add(5i64);
        assert_eq!(l.len(), 1);
        assert!(l.contains(&5));
        assert_eq!(l.remove_at(0), Some(5));
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "SingletonList overflow")]
    fn second_add_panics() {
        let rt = rt();
        let mut l = SingletonListImpl::new(&rt, None);
        l.add(1i64);
        l.add(2i64);
    }

    #[test]
    fn footprint_is_one_small_object() {
        let rt = rt();
        let heap = rt.heap().clone();
        let before = heap.heap_bytes();
        let _l: SingletonListImpl<i64> = SingletonListImpl::new(&rt, None);
        let m = heap.model();
        assert_eq!(heap.heap_bytes() - before, u64::from(m.object_size(1, 0)));
    }

    #[test]
    fn payload_is_traced() {
        use crate::elem::HeapVal;
        let rt = rt();
        let heap = rt.heap().clone();
        let p = heap.alloc_scalar(heap.register_class("P", None), 0, 0, None);
        let mut l = SingletonListImpl::new(&rt, None);
        l.add(HeapVal(p));
        heap.gc();
        assert!(heap.is_live(p));
        l.clear();
        heap.gc();
        assert!(!heap.is_live(p));
    }
}
