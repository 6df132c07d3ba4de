//! Shared chained-hash engine.
//!
//! `HashMap`, `LinkedHashMap`, `HashSet` and `LinkedHashSet` all share this
//! bucket-array-plus-entry-chain structure, mirroring the Java collections
//! the paper profiles: a bucket array (default capacity 16, load factor
//! 0.75) whose slots head chains of entry objects. Each logical entry
//! allocates a real entry object on the simulated heap — the per-element
//! overhead that makes hash structures space-hungry at small sizes (§2.3).

use crate::elem::Elem;
use crate::runtime::Runtime;
use chameleon_heap::{BatchAlloc, BatchRef, ClassId, ContextId, ElemKind, ObjId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Default bucket-array capacity (Java's `HashMap`).
pub const DEFAULT_HASH_CAPACITY: u32 = 16;
/// Numerator/denominator of the load factor 0.75.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// Heap shape of one hash variant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashShape {
    pub impl_class: ClassId,
    pub entry_class: ClassId,
    /// Reference fields per entry: 2 for sets (next, elem), 3 for maps
    /// (next, key, value).
    pub entry_refs: u32,
    /// Primitive bytes per entry: 4 for the cached hash; linked variants
    /// add 8 for the order links.
    pub entry_prim: u32,
    /// Whether iteration preserves insertion order.
    pub linked: bool,
    pub name: &'static str,
}

#[derive(Debug)]
struct EntryData<K, V> {
    key: K,
    value: V,
    obj: ObjId,
    next: Option<usize>,
    bucket: usize,
    seq: u64,
}

/// Chained hash table of `K -> V` (sets use `V = ()`).
#[derive(Debug)]
pub(crate) struct RawChainedHash<K: Elem, V: Elem> {
    rt: Runtime,
    shape: HashShape,
    obj: ObjId,
    buckets_obj: ObjId,
    buckets: Vec<Option<usize>>,
    entries: Vec<Option<EntryData<K, V>>>,
    free: Vec<usize>,
    size: usize,
    used_buckets: usize,
    next_seq: u64,
    disposed: bool,
}

fn hash_of<K: Hash>(k: &K) -> u64 {
    // DefaultHasher::new() uses fixed keys: deterministic across runs.
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

impl<K: Elem, V: Elem> RawChainedHash<K, V> {
    pub(crate) fn new(
        rt: &Runtime,
        shape: HashShape,
        capacity: Option<u32>,
        ctx: Option<ContextId>,
    ) -> Self {
        let cap = capacity.unwrap_or(DEFAULT_HASH_CAPACITY).max(1);
        // Impl + bucket array in one heap entry, pre-linked and rooted.
        let [obj, buckets_obj] = rt.heap().alloc_batch(
            [
                BatchAlloc::Scalar {
                    class: shape.impl_class,
                    ref_fields: 1,
                    prim_bytes: 16,
                    ctx,
                },
                BatchAlloc::Array {
                    class: rt.classes().object_array,
                    elem: ElemKind::Ref,
                    capacity: cap,
                    ctx: None,
                },
            ],
            &[(BatchRef::New(0), 0, Some(BatchRef::New(1)))],
            &[0],
        );
        rt.charge(2 * rt.cost().alloc_object);
        RawChainedHash {
            rt: rt.clone(),
            shape,
            obj,
            buckets_obj,
            buckets: vec![None; cap as usize],
            entries: Vec::new(),
            free: Vec::new(),
            size: 0,
            used_buckets: 0,
            next_seq: 0,
            disposed: false,
        }
    }

    pub(crate) fn obj(&self) -> ObjId {
        self.obj
    }

    pub(crate) fn len(&self) -> usize {
        self.size
    }

    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len()
    }

    pub(crate) fn name(&self) -> &'static str {
        self.shape.name
    }

    fn bucket_of(&self, k: &K) -> usize {
        (hash_of(k) as usize) % self.buckets.len()
    }

    fn sync_meta(&self) {
        self.rt
            .heap()
            .set_meta(self.obj, 0, &[self.size as i64, self.used_buckets as i64]);
    }

    /// Walks the chain at `b`, returning `(prev_idx, idx)` of the entry
    /// matching `k` and charging per probe.
    fn find_in_bucket(&self, b: usize, k: &K) -> Option<(Option<usize>, usize)> {
        let cost = self.rt.cost();
        let mut prev = None;
        let mut cur = self.buckets[b];
        let mut probes = 0u64;
        let found = loop {
            let Some(i) = cur else { break None };
            probes += 1;
            let e = self.entries[i].as_ref().expect("chained index valid");
            if &e.key == k {
                break Some((prev, i));
            }
            prev = Some(i);
            cur = e.next;
        };
        self.rt
            .charge(cost.hash_compute + probes * (cost.eq_check + cost.link_hop));
        found
    }

    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        let b = self.bucket_of(k);
        self.find_in_bucket(b, k)
            .map(|(_, i)| &self.entries[i].as_ref().expect("found index valid").value)
    }

    pub(crate) fn contains(&self, k: &K) -> bool {
        let b = self.bucket_of(k);
        self.find_in_bucket(b, k).is_some()
    }

    /// Inserts or replaces; returns the previous value for `k`.
    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<V> {
        let b = self.bucket_of(&k);
        if let Some((_, i)) = self.find_in_bucket(b, &k) {
            let e = self.entries[i].as_mut().expect("found index valid");
            let old = std::mem::replace(&mut e.value, v);
            // Refresh the value payload slot.
            if self.shape.entry_refs >= 3 {
                self.rt.heap().set_ref(e.obj, 2, e.value.heap_ref());
            }
            return Some(old);
        }
        if (self.size + 1) * LOAD_DEN > self.buckets.len() * LOAD_NUM {
            self.rehash(self.buckets.len() as u32 * 2);
        }
        let b = self.bucket_of(&k);
        let cost = self.rt.cost();
        // Allocate the entry with its chain, key and value references and
        // publish it as the bucket head, all in one heap entry.
        let head = self.buckets[b];
        let head_obj = head.map(|h| self.entries[h].as_ref().expect("head valid").obj);
        let entry = BatchRef::New(0);
        let links = [
            (BatchRef::Obj(self.buckets_obj), b, Some(entry)),
            (entry, 0, head_obj.map(BatchRef::Obj)),
            (entry, 1, k.heap_ref().map(BatchRef::Obj)),
            (entry, 2, v.heap_ref().map(BatchRef::Obj)),
        ];
        // Set entries have no value field (`entry_refs == 2`).
        let links = &links[..1 + self.shape.entry_refs as usize];
        let [entry_obj] = self.rt.heap().alloc_batch(
            [BatchAlloc::Scalar {
                class: self.shape.entry_class,
                ref_fields: self.shape.entry_refs,
                prim_bytes: self.shape.entry_prim,
                ctx: None,
            }],
            links,
            &[],
        );
        self.rt.charge(cost.alloc_object + cost.link_hop);

        if head.is_none() {
            self.used_buckets += 1;
        }
        let data = EntryData {
            key: k,
            value: v,
            obj: entry_obj,
            next: head,
            bucket: b,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let idx = if let Some(i) = self.free.pop() {
            self.entries[i] = Some(data);
            i
        } else {
            self.entries.push(Some(data));
            self.entries.len() - 1
        };
        self.buckets[b] = Some(idx);
        self.size += 1;
        self.sync_meta();
        None
    }

    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        let b = self.bucket_of(k);
        let (prev, i) = self.find_in_bucket(b, k)?;
        let e = self.entries[i].take().expect("found index valid");
        let heap = self.rt.heap();
        match prev {
            Some(p) => {
                let pe = self.entries[p].as_mut().expect("prev index valid");
                pe.next = e.next;
                heap.set_ref(
                    pe.obj,
                    0,
                    e.next
                        .map(|n| self.entries[n].as_ref().expect("next valid").obj),
                );
            }
            None => {
                self.buckets[b] = e.next;
                heap.set_elem(
                    self.buckets_obj,
                    b,
                    e.next
                        .map(|n| self.entries[n].as_ref().expect("next valid").obj),
                );
                if e.next.is_none() {
                    self.used_buckets -= 1;
                }
            }
        }
        heap.set_ref(e.obj, 0, None);
        heap.set_ref(e.obj, 1, None);
        if self.shape.entry_refs >= 3 {
            heap.set_ref(e.obj, 2, None);
        }
        self.free.push(i);
        self.size -= 1;
        self.rt.charge(self.rt.cost().link_hop);
        self.sync_meta();
        Some(e.value)
    }

    pub(crate) fn clear(&mut self) {
        let heap = self.rt.heap();
        for (b, head) in self.buckets.iter_mut().enumerate() {
            if head.take().is_some() {
                heap.set_elem(self.buckets_obj, b, None);
            }
        }
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(e) = e.take() {
                heap.set_ref(e.obj, 0, None);
                self.free.push(i);
            }
        }
        self.size = 0;
        self.used_buckets = 0;
        self.sync_meta();
    }

    /// Contents in iteration order: insertion order for linked variants,
    /// bucket order otherwise.
    pub(crate) fn snapshot(&self) -> Vec<(K, V)> {
        self.rt.charge(self.rt.cost().link_hop * self.size as u64);
        let mut alive: Vec<&EntryData<K, V>> = self.entries.iter().flatten().collect();
        if self.shape.linked {
            alive.sort_by_key(|e| e.seq);
        } else {
            alive.sort_by_key(|e| (e.bucket, std::cmp::Reverse(e.seq)));
        }
        alive
            .iter()
            .map(|e| (e.key.clone(), e.value.clone()))
            .collect()
    }

    fn rehash(&mut self, new_cap: u32) {
        let heap = self.rt.heap();
        let cost = self.rt.cost();
        let [new_buckets_obj] = heap.alloc_batch(
            [BatchAlloc::Array {
                class: self.rt.classes().object_array,
                elem: ElemKind::Ref,
                capacity: new_cap,
                ctx: None,
            }],
            &[(BatchRef::Obj(self.obj), 0, Some(BatchRef::New(0)))],
            &[],
        );
        self.buckets_obj = new_buckets_obj;
        self.buckets = vec![None; new_cap as usize];
        self.used_buckets = 0;
        // Relink every entry (no allocation below: safe against GC).
        let mut indices: Vec<usize> = (0..self.entries.len())
            .filter(|i| self.entries[*i].is_some())
            .collect();
        // Preserve relative chain stability for determinism.
        indices.sort_by_key(|i| self.entries[*i].as_ref().expect("filtered some").seq);
        for i in indices {
            let (key_hash, obj) = {
                let e = self.entries[i].as_ref().expect("filtered some");
                (hash_of(&e.key), e.obj)
            };
            let b = (key_hash as usize) % self.buckets.len();
            let head = self.buckets[b];
            if head.is_none() {
                self.used_buckets += 1;
            }
            let head_obj = head.map(|h| self.entries[h].as_ref().expect("head valid").obj);
            heap.set_ref(obj, 0, head_obj);
            heap.set_elem(self.buckets_obj, b, Some(obj));
            let e = self.entries[i].as_mut().expect("filtered some");
            e.next = head;
            e.bucket = b;
            self.buckets[b] = Some(i);
        }
        self.rt
            .charge(cost.alloc_object + (cost.hash_compute + cost.elem_copy) * self.size as u64);
        self.sync_meta();
    }

    pub(crate) fn dispose(&mut self) {
        if !self.disposed {
            self.disposed = true;
            self.rt.heap().remove_root(self.obj);
        }
    }
}

impl<K: Elem, V: Elem> Drop for RawChainedHash<K, V> {
    fn drop(&mut self) {
        self.dispose();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::Heap;

    fn map_shape(rt: &Runtime) -> HashShape {
        let c = rt.classes();
        HashShape {
            impl_class: c.hash_map,
            entry_class: c.hash_map_entry,
            entry_refs: 3,
            entry_prim: 4,
            linked: false,
            name: "HashMap",
        }
    }

    fn linked_shape(rt: &Runtime) -> HashShape {
        let c = rt.classes();
        HashShape {
            impl_class: c.linked_hash_map,
            entry_class: c.linked_hash_map_entry,
            entry_refs: 3,
            entry_prim: 12,
            linked: true,
            name: "LinkedHashMap",
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let rt = Runtime::new(Heap::new());
        let mut h: RawChainedHash<i64, i64> = RawChainedHash::new(&rt, map_shape(&rt), None, None);
        for i in 0..100 {
            assert_eq!(h.insert(i, i * 10), None);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.get(&50), Some(&500));
        assert_eq!(h.insert(50, 999), Some(500));
        assert_eq!(h.len(), 100);
        assert_eq!(h.remove(&50), Some(999));
        assert_eq!(h.remove(&50), None);
        assert!(!h.contains(&50));
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn matches_std_hashmap_under_random_ops() {
        use std::collections::HashMap as StdMap;
        let rt = Runtime::new(Heap::new());
        let mut h: RawChainedHash<i64, i64> =
            RawChainedHash::new(&rt, map_shape(&rt), Some(2), None);
        let mut m: StdMap<i64, i64> = StdMap::new();
        // Deterministic pseudo-random op sequence.
        let mut x = 0x243F6A88u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) as i64 % 64;
            match x % 3 {
                0 => assert_eq!(h.insert(k, k * 2), m.insert(k, k * 2)),
                1 => assert_eq!(h.remove(&k), m.remove(&k)),
                _ => assert_eq!(h.get(&k), m.get(&k)),
            }
        }
        assert_eq!(h.len(), m.len());
        let snap: StdMap<i64, i64> = h.snapshot().into_iter().collect();
        assert_eq!(snap, m);
    }

    #[test]
    fn resizes_at_load_factor() {
        let rt = Runtime::new(Heap::new());
        let mut h: RawChainedHash<i64, ()> = RawChainedHash::new(
            &rt,
            HashShape {
                entry_refs: 2,
                entry_prim: 4,
                name: "HashSet",
                ..map_shape(&rt)
            },
            Some(16),
            None,
        );
        for i in 0..12 {
            h.insert(i, ());
        }
        assert_eq!(h.capacity(), 16, "12/16 = load factor boundary");
        h.insert(12, ());
        assert_eq!(h.capacity(), 32, "13th entry exceeds 0.75 load");
        for i in 0..13 {
            assert!(h.contains(&i), "rehash preserved {i}");
        }
    }

    #[test]
    fn linked_variant_preserves_insertion_order() {
        let rt = Runtime::new(Heap::new());
        let mut h: RawChainedHash<i64, i64> =
            RawChainedHash::new(&rt, linked_shape(&rt), None, None);
        let keys = [5i64, 3, 99, 7, 1];
        for (i, k) in keys.iter().enumerate() {
            h.insert(*k, i as i64);
        }
        h.remove(&99);
        let order: Vec<i64> = h.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![5, 3, 7, 1]);
    }

    #[test]
    fn entry_objects_mirrored_on_heap() {
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let before = heap.heap_bytes();
        let mut h: RawChainedHash<i64, i64> =
            RawChainedHash::new(&rt, map_shape(&rt), Some(16), None);
        let fixed = heap.heap_bytes() - before;
        let m = heap.model();
        assert_eq!(
            fixed,
            u64::from(m.object_size(1, 16)) + u64::from(m.ref_array_size(16))
        );
        h.insert(1, 1);
        h.insert(2, 2);
        // Two 24-byte entries.
        assert_eq!(heap.heap_bytes() - before - fixed, 2 * 24);
    }

    #[test]
    fn payloads_traced_through_entries() {
        use crate::elem::HeapVal;
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let pc = heap.register_class("P", None);
        let kp = heap.alloc_scalar(pc, 0, 0, None);
        let vp = heap.alloc_scalar(pc, 0, 0, None);
        let mut h: RawChainedHash<HeapVal, HeapVal> =
            RawChainedHash::new(&rt, map_shape(&rt), None, None);
        h.insert(HeapVal(kp), HeapVal(vp));
        heap.gc();
        assert!(heap.is_live(kp) && heap.is_live(vp));
        h.remove(&HeapVal(kp));
        heap.gc();
        assert!(!heap.is_live(kp) && !heap.is_live(vp));
    }

    #[test]
    fn clear_empties_and_allows_reuse() {
        let rt = Runtime::new(Heap::new());
        let mut h: RawChainedHash<i64, i64> = RawChainedHash::new(&rt, map_shape(&rt), None, None);
        for i in 0..20 {
            h.insert(i, i);
        }
        h.clear();
        assert_eq!(h.len(), 0);
        assert!(!h.contains(&3));
        h.insert(3, 33);
        assert_eq!(h.get(&3), Some(&33));
    }

    #[test]
    fn dispose_releases_all_entries() {
        let rt = Runtime::new(Heap::new());
        let heap = rt.heap().clone();
        let baseline = {
            heap.gc();
            heap.heap_bytes()
        };
        let mut h: RawChainedHash<i64, i64> = RawChainedHash::new(&rt, map_shape(&rt), None, None);
        for i in 0..50 {
            h.insert(i, i);
        }
        drop(h);
        heap.gc();
        assert_eq!(heap.heap_bytes(), baseline);
    }
}
