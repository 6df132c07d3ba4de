//! Workload utilities: rooted application payloads and deterministic
//! pseudo-randomness.

use chameleon_collections::HeapVal;
use chameleon_heap::{BatchAlloc, ClassId, Heap, ObjId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Application (non-collection) data allocated by a workload: objects are
/// rooted for this holder's lifetime, modeling live program structures that
/// are not stored through collections.
#[derive(Debug)]
pub struct AppData {
    heap: Heap,
    ids: Vec<ObjId>,
}

impl AppData {
    /// Creates an empty holder.
    pub fn new(heap: Heap) -> Self {
        AppData {
            heap,
            ids: Vec::new(),
        }
    }

    /// Allocates and roots one application object.
    pub fn alloc(&mut self, class: ClassId, ref_fields: u32, prim_bytes: u32) -> HeapVal {
        let [id] = self.heap.alloc_batch(
            [BatchAlloc::Scalar {
                class,
                ref_fields,
                prim_bytes,
                ctx: None,
            }],
            &[],
            &[0],
        );
        self.ids.push(id);
        HeapVal(id)
    }

    /// Number of rooted objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no object is rooted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Releases the `n` oldest objects (they become garbage unless also
    /// reachable through a collection).
    pub fn release_oldest(&mut self, n: usize) {
        for id in self.ids.drain(..n.min(self.ids.len())) {
            self.heap.remove_root(id);
        }
    }
}

impl Drop for AppData {
    fn drop(&mut self) {
        for id in self.ids.drain(..) {
            self.heap.remove_root(id);
        }
    }
}

/// Deterministic RNG for workloads (fixed seed per workload name).
pub fn rng(name: &str) -> StdRng {
    let mut seed = 0xC0FFEE_u64;
    for b in name.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(u64::from(b));
    }
    StdRng::seed_from_u64(seed)
}

/// Allocates a short-lived unrooted payload object (immediately garbage
/// unless stored into a collection).
pub fn transient(heap: &Heap, class: ClassId, prim_bytes: u32) -> HeapVal {
    HeapVal(heap.alloc_scalar(class, 0, prim_bytes, None))
}

/// Charges `units` of non-collection application compute to the simulated
/// clock (parsing, matching, layout, dataflow — work whose cost is
/// unaffected by collection selection).
pub fn app_work(f: &chameleon_collections::CollectionFactory, units: u64) {
    f.runtime().charge(units);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_data_roots_until_drop() {
        let heap = Heap::new();
        let class = heap.register_class("App", None);
        let v;
        {
            let mut data = AppData::new(heap.clone());
            v = data.alloc(class, 0, 8);
            heap.gc();
            assert!(heap.is_live(v.0));
        }
        heap.gc();
        assert!(!heap.is_live(v.0));
    }

    #[test]
    fn release_oldest_unroots_prefix() {
        let heap = Heap::new();
        let class = heap.register_class("App", None);
        let mut data = AppData::new(heap.clone());
        let a = data.alloc(class, 0, 0);
        let b = data.alloc(class, 0, 0);
        data.release_oldest(1);
        heap.gc();
        assert!(!heap.is_live(a.0));
        assert!(heap.is_live(b.0));
        assert_eq!(data.len(), 1);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        use rand::Rng;
        let mut a = rng("tvla");
        let mut b = rng("tvla");
        let mut c = rng("pmd");
        let (x, y): (u64, u64) = (a.gen(), b.gen());
        assert_eq!(x, y);
        let z: u64 = c.gen();
        assert_ne!(x, z);
    }
}
