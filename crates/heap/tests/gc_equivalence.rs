//! Property test: the sharded fused GC pass must be observationally
//! equivalent to a sequential cycle. For randomized object graphs covering
//! all four `AdtDescriptor` shapes, a cycle run with 2 or 4 worker threads
//! must produce `CycleStats` — including `collection`, `per_context` and
//! `type_distribution` — byte-for-byte identical to a single-threaded run.

use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
use chameleon_heap::stats::CycleStats;
use chameleon_heap::{ElemKind, GcConfig, Heap, HeapConfig};
use proptest::prelude::*;

/// `(shape, size, capacity, rooted, context)` of one synthetic collection.
type Spec = (u32, u32, u32, bool, u32);

/// Deterministically builds the same heap from `specs` and runs one cycle.
fn build_and_collect(specs: &[Spec], garbage: u32, threads: usize) -> CycleStats {
    let heap = Heap::with_config(HeapConfig {
        gc: GcConfig {
            threads,
            ..GcConfig::default()
        },
        ..HeapConfig::default()
    });
    let list_wrap = heap.register_class(
        "ListWrapper",
        Some(SemanticMap::wrapper(CollectionKind::List)),
    );
    let map_wrap = heap.register_class(
        "MapWrapper",
        Some(SemanticMap::wrapper(CollectionKind::Map)),
    );
    let array_impl = heap.register_class(
        "ArrayListImpl",
        Some(SemanticMap::backing(
            CollectionKind::List,
            AdtDescriptor::ArrayBacked {
                array_field: 0,
                slots_per_elem: 1,
            },
        )),
    );
    let hash_impl = heap.register_class(
        "HashMapImpl",
        Some(SemanticMap::backing(
            CollectionKind::Map,
            AdtDescriptor::ChainedHash { array_field: 0 },
        )),
    );
    let linked_impl = heap.register_class(
        "LinkedListImpl",
        Some(SemanticMap::backing(
            CollectionKind::List,
            AdtDescriptor::LinkedEntries { head_field: 0 },
        )),
    );
    let inline_coll = heap.register_class(
        "InlineList",
        Some(SemanticMap {
            kind: CollectionKind::List,
            descriptor: AdtDescriptor::Inline,
            top_level: true,
        }),
    );
    let arr_class = heap.register_class("Object[]", None);
    let entry_class = heap.register_class("Entry", None);
    let plain = heap.register_class("Plain", None);

    for &(shape, size, cap, rooted, ctxi) in specs {
        let ctx = Some(heap.intern_context(
            "Coll",
            &[format!("Site.m:{ctxi}"), "Outer.run:1".to_owned()],
            2,
        ));
        let root = match shape % 4 {
            0 => {
                // ArrayBacked: wrapper -> impl -> backing array.
                let w = heap.alloc_scalar(list_wrap, 1, 0, ctx);
                let im = heap.alloc_scalar(array_impl, 1, 8, None);
                let arr = heap.alloc_array(arr_class, ElemKind::Ref, cap.max(size), None);
                heap.set_ref(w, 0, Some(im));
                heap.set_ref(im, 0, Some(arr));
                heap.set_meta(im, 0, &[i64::from(size)]);
                heap.set_meta(w, 0, &[i64::from(size)]);
                w
            }
            1 => {
                // ChainedHash: wrapper -> impl -> bucket array of chains.
                let w = heap.alloc_scalar(map_wrap, 1, 0, ctx);
                let im = heap.alloc_scalar(hash_impl, 1, 16, None);
                let buckets = cap.clamp(1, 64);
                let arr = heap.alloc_array(arr_class, ElemKind::Ref, buckets, None);
                heap.set_ref(w, 0, Some(im));
                heap.set_ref(im, 0, Some(arr));
                for i in 0..size {
                    // Prepend each entry to its round-robin bucket chain.
                    let e = heap.alloc_scalar(entry_class, 3, 4, None);
                    let b = (i % buckets) as usize;
                    heap.set_ref(e, 0, None);
                    if let Some(head) = heap.get_elem(arr, b) {
                        heap.set_ref(e, 0, Some(head));
                    }
                    heap.set_elem(arr, b, Some(e));
                }
                heap.set_meta(im, 0, &[i64::from(size), i64::from(size.min(buckets))]);
                heap.set_meta(w, 0, &[i64::from(size)]);
                w
            }
            2 => {
                // LinkedEntries: wrapper -> impl -> circular sentinel chain.
                let w = heap.alloc_scalar(list_wrap, 1, 0, ctx);
                let im = heap.alloc_scalar(linked_impl, 1, 4, None);
                let header = heap.alloc_scalar(entry_class, 3, 0, None);
                heap.set_ref(w, 0, Some(im));
                heap.set_ref(im, 0, Some(header));
                let mut prev = header;
                for _ in 0..size.min(32) {
                    let e = heap.alloc_scalar(entry_class, 3, 0, None);
                    heap.set_ref(prev, 0, Some(e));
                    prev = e;
                }
                heap.set_ref(prev, 0, Some(header));
                heap.set_meta(im, 0, &[i64::from(size.min(32))]);
                heap.set_meta(w, 0, &[i64::from(size.min(32))]);
                w
            }
            _ => {
                // Inline: the single object is the whole collection.
                let w = heap.alloc_scalar(inline_coll, 2, 8, ctx);
                heap.set_meta(w, 0, &[i64::from(size.min(2))]);
                w
            }
        };
        if rooted {
            heap.add_root(root);
        }
    }
    // Plain garbage of assorted shapes, interleaved through the slab.
    for i in 0..garbage {
        let _ = heap.alloc_scalar(plain, i % 3, (i % 5) * 8, None);
    }
    heap.gc()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn parallel_gc_equals_sequential(
        specs in prop::collection::vec(
            (0u32..4, 0u32..40, 0u32..60, prop::bool::ANY, 0u32..3),
            0..16,
        )
    ) {
        let seq = build_and_collect(&specs, 41, 1);
        for threads in [2usize, 4] {
            let par = build_and_collect(&specs, 41, threads);
            prop_assert_eq!(&seq, &par);
        }
    }
}

#[test]
fn large_heap_equivalence() {
    // A single deterministic case big enough to exercise every worker
    // chunk: ~2k collections plus garbage.
    let specs: Vec<Spec> = (0..2000)
        .map(|i| (i % 4, i % 37, (i * 7) % 53, i % 3 != 0, i % 3))
        .collect();
    let seq = build_and_collect(&specs, 5000, 1);
    let par = build_and_collect(&specs, 5000, 4);
    assert_eq!(seq, par);
    assert!(seq.live_objects > 1000);
    assert!(seq.swept_objects >= 5000);
}
