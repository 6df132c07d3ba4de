//! GC-cycle benchmarks for the fused single-pass collector.
//!
//! Builds a ~100k-object heap (a mix of array-backed, chained-hash and
//! linked collections plus plain garbage) and measures one full
//! mark + fused-scan + sweep cycle, plus the warm context-capture path.

use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
use chameleon_heap::{ElemKind, Heap, ObjId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Builds a heap with roughly `collections * 12` objects, most of them
/// live, and returns it with its rooted wrappers.
pub fn populate(collections: usize) -> (Heap, Vec<ObjId>) {
    let heap = Heap::new();
    let wrap_list = heap.register_class(
        "ListWrapper",
        Some(SemanticMap::wrapper(CollectionKind::List)),
    );
    let wrap_map = heap.register_class(
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
    let arr_class = heap.register_class("Object[]", None);
    let entry_class = heap.register_class("Entry", None);
    let plain = heap.register_class("Plain", None);

    let mut roots = Vec::with_capacity(collections);
    for i in 0..collections {
        let ctx = Some(heap.intern_context(
            "Coll",
            &[format!("Site.m:{}", i % 64), "Outer.run:1".to_owned()],
            2,
        ));
        let w = if i % 2 == 0 {
            let w = heap.alloc_scalar(wrap_list, 1, 0, ctx);
            let im = heap.alloc_scalar(array_impl, 1, 8, None);
            let arr = heap.alloc_array(arr_class, ElemKind::Ref, 10, None);
            heap.set_ref(w, 0, Some(im));
            heap.set_ref(im, 0, Some(arr));
            heap.set_meta(im, 0, &[(i % 10) as i64]);
            heap.set_meta(w, 0, &[(i % 10) as i64]);
            w
        } else {
            let w = heap.alloc_scalar(wrap_map, 1, 0, ctx);
            let im = heap.alloc_scalar(hash_impl, 1, 16, None);
            let arr = heap.alloc_array(arr_class, ElemKind::Ref, 16, None);
            heap.set_ref(w, 0, Some(im));
            heap.set_ref(im, 0, Some(arr));
            for e in 0..(i % 6) {
                let entry = heap.alloc_scalar(entry_class, 3, 4, None);
                if let Some(head) = heap.get_elem(arr, e % 16) {
                    heap.set_ref(entry, 0, Some(head));
                }
                heap.set_elem(arr, e % 16, Some(entry));
            }
            heap.set_meta(im, 0, &[(i % 6) as i64, (i % 6).min(16) as i64]);
            heap.set_meta(w, 0, &[(i % 6) as i64]);
            w
        };
        heap.add_root(w);
        roots.push(w);
        // Plain live payload hanging off nothing (rooted directly) plus
        // floating garbage, so the sweep has real work every cycle.
        for g in 0..6 {
            let o = heap.alloc_scalar(plain, (g % 3) as u32, 8, None);
            if g == 0 {
                heap.add_root(o);
                roots.push(o);
            }
        }
    }
    (heap, roots)
}

fn bench_full_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_cycle");
    group.sample_size(10);
    // ~10k collections -> ~100k objects in the slab.
    const COLLECTIONS: usize = 10_000;
    let (heap, _roots) = populate(COLLECTIONS);
    assert!(
        heap.object_count() >= 100_000,
        "heap too small for the benchmark"
    );
    group.bench_function("cycle", |b| {
        b.iter(|| black_box(heap.gc().live_objects));
    });
    group.finish();
}

fn bench_context_capture(c: &mut Criterion) {
    use chameleon_collections::factory::CollectionFactory;
    use chameleon_collections::Runtime;
    let mut group = c.benchmark_group("context_capture");
    let f = CollectionFactory::new(Runtime::new(Heap::new()));
    let _outer = f.enter("Outer.run:1");
    let _inner = f.enter("Hot.site:7");
    // Warm the intern tables, then measure the steady-state capture path.
    let _ = f.capture_context("HashMap");
    group.bench_function("warm_capture", |b| {
        b.iter(|| black_box(f.capture_context("HashMap")));
    });
    group.finish();
}

criterion_group!(benches, bench_full_cycle, bench_context_capture);
criterion_main!(benches);
