//! `SizeAdaptingSet`: the paper's hybrid that "dynamically switches the
//! underlying implementation from array to HashMap based on size" (§4.2).
//!
//! §2.3 studies exactly this hybrid: the conversion threshold is delicate —
//! 16 gave TVLA a low footprint at 8% slowdown, 13 gave no footprint gain.
//! The threshold is therefore a constructor parameter so the §2.3 sweep can
//! be regenerated.

use super::{ArraySetImpl, HashSetImpl, SetImpl};
use crate::elem::Elem;
use crate::runtime::Runtime;
use chameleon_heap::{BatchAlloc, ContextId, ObjId};

/// Default conversion threshold (the paper's best TVLA value).
pub const DEFAULT_ADAPT_THRESHOLD: usize = 16;

/// Hybrid set: array-backed until `threshold`, hash-backed beyond.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::runtime::Runtime;
/// use chameleon_collections::set::{SetImpl, SizeAdaptingSetImpl};
///
/// let rt = Runtime::new(Heap::new());
/// let mut s = SizeAdaptingSetImpl::new(&rt, 4, None);
/// for i in 0..10i64 { s.add(i); }
/// assert!(s.contains(&9));
/// ```
#[derive(Debug)]
pub struct SizeAdaptingSetImpl<T: Elem> {
    rt: Runtime,
    obj: ObjId,
    inner: Box<dyn SetImpl<T>>,
    threshold: usize,
    converted: bool,
    disposed: bool,
}

impl<T: Elem> SizeAdaptingSetImpl<T> {
    /// Creates a hybrid set converting to hash at `threshold` elements.
    pub fn new(rt: &Runtime, threshold: usize, ctx: Option<ContextId>) -> Self {
        let heap = rt.heap();
        let [obj] = heap.alloc_batch(
            [BatchAlloc::Scalar {
                class: rt.classes().size_adapting_set,
                ref_fields: 1,
                prim_bytes: 8,
                ctx,
            }],
            &[],
            &[0],
        );
        rt.charge(rt.cost().alloc_object);
        let inner = Box::new(ArraySetImpl::new(rt, Some(threshold.max(1) as u32), None));
        heap.set_ref(obj, 0, Some(inner.obj()));
        SizeAdaptingSetImpl {
            rt: rt.clone(),
            obj,
            inner,
            threshold,
            converted: false,
            disposed: false,
        }
    }

    /// Whether the set has switched to the hash representation.
    pub fn is_converted(&self) -> bool {
        self.converted
    }

    /// The conversion threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn maybe_convert(&mut self) {
        if self.converted || self.inner.len() < self.threshold {
            return;
        }
        let elems = self.inner.snapshot();
        let mut hash: Box<dyn SetImpl<T>> = Box::new(HashSetImpl::new(&self.rt, None, None));
        for e in elems {
            hash.add(e);
        }
        self.rt.heap().set_ref(self.obj, 0, Some(hash.obj()));
        self.inner.dispose();
        self.inner = hash;
        self.converted = true;
    }
}

impl<T: Elem> SetImpl<T> for SizeAdaptingSetImpl<T> {
    fn impl_name(&self) -> &'static str {
        "SizeAdaptingSet"
    }

    fn obj(&self) -> ObjId {
        self.obj
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn add(&mut self, v: T) -> bool {
        let added = self.inner.add(v);
        if added {
            self.maybe_convert();
        }
        added
    }

    fn remove(&mut self, v: &T) -> bool {
        self.inner.remove(v)
    }

    fn contains(&self, v: &T) -> bool {
        self.inner.contains(v)
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    fn snapshot(&self) -> Vec<T> {
        self.inner.snapshot()
    }

    fn dispose(&mut self) {
        if !self.disposed {
            self.disposed = true;
            self.inner.dispose();
            self.rt.heap().remove_root(self.obj);
        }
    }
}

impl<T: Elem> Drop for SizeAdaptingSetImpl<T> {
    fn drop(&mut self) {
        self.dispose();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::Heap;

    #[test]
    fn converts_exactly_at_threshold() {
        let rt = Runtime::new(Heap::new());
        let mut s = SizeAdaptingSetImpl::new(&rt, 5, None);
        for i in 0..4i64 {
            s.add(i);
            assert!(!s.is_converted());
        }
        s.add(4);
        assert!(s.is_converted());
        for i in 0..5i64 {
            assert!(s.contains(&i));
        }
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn duplicate_adds_do_not_convert() {
        let rt = Runtime::new(Heap::new());
        let mut s = SizeAdaptingSetImpl::new(&rt, 3, None);
        s.add(1i64);
        s.add(1);
        s.add(1);
        s.add(2);
        assert!(!s.is_converted());
    }

    #[test]
    fn old_array_reclaimed_after_conversion() {
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let mut s = SizeAdaptingSetImpl::new(&rt, 4, None);
        for i in 0..3i64 {
            s.add(i);
        }
        heap.gc();
        let small = heap.heap_bytes();
        for i in 3..20i64 {
            s.add(i);
        }
        heap.gc();
        // The array impl died; only wrapper + hash impl remain.
        let converted = heap.heap_bytes();
        assert!(converted > small, "hash representation is larger");
        drop(s);
        heap.gc();
        assert!(heap.heap_bytes() < small);
    }

    #[test]
    fn gc_attributes_through_double_wrapper() {
        // wrapper -> SizeAdaptingSet (Wrapper descriptor) -> inner impl.
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let ctx = heap.intern_context("HashSet", &["A.m:1".to_owned()], 2);
        let w = heap.alloc_scalar(rt.classes().set_wrapper, 1, 0, Some(ctx));
        heap.add_root(w);
        let mut s = SizeAdaptingSetImpl::new(&rt, 8, None);
        heap.set_ref(w, 0, Some(s.obj()));
        for i in 0..3i64 {
            s.add(i);
        }
        let stats = heap.gc();
        assert_eq!(stats.collection.count, 1);
        assert!(stats.collection.live > 0);
        assert_eq!(stats.per_context.len(), 1);
        heap.remove_root(w);
    }
}
