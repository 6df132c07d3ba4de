//! Criterion micro-benchmarks: validate on real hardware the operation-
//! cost *orderings* the deterministic cost model assumes (§2.2 — "in the
//! realm of small sizes, constants matter"):
//!
//! * `ArrayMap` beats `HashMap` on small maps and loses on large ones;
//! * `LinkedList.get(i)` degrades with position, `ArrayList.get(i)` not;
//! * `ArraySet.contains` beats hash sets when tiny;
//! * context capture dominates allocation cost (the §5.4 bottleneck).
//!
//! The `construct` group times the allocation path itself at findbugs'
//! per-class shape: wrapper + backing construction, entry inserts and the
//! handle's death, with no GC pressure beyond the default interval.

use chameleon_collections::factory::{CaptureConfig, CaptureMethod, CollectionFactory};
use chameleon_collections::list::{ArrayListImpl, LinkedListImpl, ListImpl};
use chameleon_collections::map::{ArrayMapImpl, HashMapImpl, MapImpl};
use chameleon_collections::set::{ArraySetImpl, HashSetImpl, SetImpl};
use chameleon_collections::{HeapVal, Runtime};
use chameleon_heap::{Heap, HeapConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn rt() -> Runtime {
    Runtime::new(Heap::new())
}

fn bench_map_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_get");
    for size in [4i64, 16, 64] {
        let runtime = rt();
        let mut array_map: ArrayMapImpl<i64, i64> =
            ArrayMapImpl::new(&runtime, Some(size as u32), None);
        let mut hash_map: HashMapImpl<i64, i64> = HashMapImpl::new(&runtime, None, None);
        for k in 0..size {
            array_map.put(k, k);
            hash_map.put(k, k);
        }
        group.bench_with_input(BenchmarkId::new("ArrayMap", size), &size, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 7) % n;
                black_box(array_map.get(&k))
            })
        });
        group.bench_with_input(BenchmarkId::new("HashMap", size), &size, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 7) % n;
                black_box(hash_map.get(&k))
            })
        });
    }
    group.finish();
}

fn bench_map_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_build_and_drop");
    group.sample_size(30);
    for size in [4i64, 16] {
        group.bench_with_input(BenchmarkId::new("ArrayMap", size), &size, |b, &n| {
            let runtime = rt();
            b.iter(|| {
                let mut m: ArrayMapImpl<i64, i64> = ArrayMapImpl::new(&runtime, None, None);
                for k in 0..n {
                    m.put(k, k);
                }
                black_box(m.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("HashMap", size), &size, |b, &n| {
            let runtime = rt();
            b.iter(|| {
                let mut m: HashMapImpl<i64, i64> = HashMapImpl::new(&runtime, None, None);
                for k in 0..n {
                    m.put(k, k);
                }
                black_box(m.len())
            })
        });
    }
    group.finish();
}

fn bench_list_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_get_random");
    let runtime = rt();
    let n = 500i64;
    let mut array_list: ArrayListImpl<i64> = ArrayListImpl::new(&runtime, Some(n as u32), None);
    let mut linked_list: LinkedListImpl<i64> = LinkedListImpl::new(&runtime, None);
    for k in 0..n {
        array_list.add(k);
        linked_list.add(k);
    }
    group.bench_function("ArrayList", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) % n as usize;
            black_box(array_list.get(i))
        })
    });
    group.bench_function("LinkedList", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) % n as usize;
            black_box(linked_list.get(i))
        })
    });
    group.finish();
}

fn bench_set_contains(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_contains");
    for size in [4i64, 64] {
        let runtime = rt();
        let mut array_set: ArraySetImpl<i64> = ArraySetImpl::new(&runtime, Some(size as u32), None);
        let mut hash_set: HashSetImpl<i64> = HashSetImpl::new(&runtime, None, None);
        for k in 0..size {
            array_set.add(k);
            hash_set.add(k);
        }
        group.bench_with_input(BenchmarkId::new("ArraySet", size), &size, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 3) % n;
                black_box(array_set.contains(&k))
            })
        });
        group.bench_with_input(BenchmarkId::new("HashSet", size), &size, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 3) % n;
                black_box(hash_set.contains(&k))
            })
        });
    }
    group.finish();
}

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("context_capture");
    group.sample_size(30);
    for (name, method) in [
        ("none", CaptureMethod::None),
        ("jvmti", CaptureMethod::Jvmti),
        ("throwable", CaptureMethod::Throwable),
    ] {
        group.bench_function(name, |b| {
            let factory = CollectionFactory::with_capture(
                rt(),
                CaptureConfig {
                    method,
                    ..CaptureConfig::default()
                },
            );
            let _f1 = factory.enter("Bench.outer:1");
            let _f2 = factory.enter("Bench.inner:2");
            b.iter(|| black_box(factory.new_list::<i64>(None)))
        });
    }
    group.finish();
}

/// Collections built per `construct` iteration; they stay alive together
/// and die together, as one findbugs class summary's maps and sets do.
const CONSTRUCT_BATCH: usize = 64;

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct");
    group.sample_size(30);
    let factory = || {
        let heap = Heap::with_config(HeapConfig {
            gc_interval_bytes: Some(256 * 1024),
            ..HeapConfig::default()
        });
        CollectionFactory::new(Runtime::new(heap))
    };
    group.bench_function("new_map", |b| {
        let f = factory();
        let _g = f.enter("Bench.construct:1");
        b.iter(|| {
            let maps: Vec<_> = (0..CONSTRUCT_BATCH)
                .map(|_| f.new_map::<i64, i64>(None))
                .collect();
            black_box(maps.len())
        })
    });
    group.bench_function("new_set_5_adds", |b| {
        let f = factory();
        let _g = f.enter("Bench.construct:2");
        b.iter(|| {
            let sets: Vec<_> = (0..CONSTRUCT_BATCH)
                .map(|i| {
                    let mut s = f.new_set::<i64>(None);
                    for k in 0..5 {
                        s.add((i * 3 + k) as i64 % 97);
                    }
                    s
                })
                .collect();
            black_box(sets.len())
        })
    });
    group.bench_function("new_map_4_heapval_puts", |b| {
        let f = factory();
        let heap = f.runtime().heap();
        let class = heap.register_class("Bench.Payload", None);
        let payload: Vec<HeapVal> = (0..4)
            .map(|_| {
                let o = heap.alloc_scalar(class, 0, 8, None);
                heap.add_root(o);
                HeapVal(o)
            })
            .collect();
        let _g = f.enter("Bench.construct:3");
        b.iter(|| {
            let maps: Vec<_> = (0..CONSTRUCT_BATCH)
                .map(|_| {
                    let mut m = f.new_map::<i64, HeapVal>(None);
                    for (k, v) in payload.iter().enumerate() {
                        m.put(k as i64, *v);
                    }
                    m
                })
                .collect();
            black_box(maps.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_map_get,
    bench_map_build,
    bench_list_get,
    bench_set_contains,
    bench_capture,
    bench_construct
);
criterion_main!(benches);
