//! Property-based tests: every swappable implementation must be
//! observationally equivalent to the std-collection model under arbitrary
//! operation sequences (the paper's interchangeability requirement, §1),
//! and the heap accounting invariants must hold under arbitrary workloads.

use chameleon_collections::factory::{ListChoice, MapChoice, Selection, SetChoice};
use chameleon_collections::{CollectionFactory, Runtime};
use chameleon_heap::Heap;
use proptest::prelude::*;
use std::collections::{HashMap as StdMap, HashSet as StdSet};

#[derive(Debug, Clone)]
enum MapOp {
    Put(i64, i64),
    Get(i64),
    Remove(i64),
    ContainsKey(i64),
    Clear,
    Iterate,
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..24i64, any::<i64>()).prop_map(|(k, v)| MapOp::Put(k, v)),
            (0..24i64).prop_map(MapOp::Get),
            (0..24i64).prop_map(MapOp::Remove),
            (0..24i64).prop_map(MapOp::ContainsKey),
            Just(MapOp::Clear),
            Just(MapOp::Iterate),
        ],
        0..120,
    )
}

fn factory_with_map_choice(choice: MapChoice) -> CollectionFactory {
    let f = CollectionFactory::new(Runtime::new(Heap::new()));
    // Pre-intern the context and install the override.
    let ctx = {
        let _g = f.enter("prop.Site:1");
        f.new_map::<i64, i64>(None).ctx().expect("captured")
    };
    f.policy().borrow_mut().set_map(
        ctx,
        Selection {
            choice,
            capacity: None,
        },
    );
    f
}

fn check_map_equivalence(choice: MapChoice, ops: Vec<MapOp>) {
    let f = factory_with_map_choice(choice);
    let _g = f.enter("prop.Site:1");
    let mut subject = f.new_map::<i64, i64>(None);
    let mut model: StdMap<i64, i64> = StdMap::new();
    for op in ops {
        match op {
            MapOp::Put(k, v) => assert_eq!(subject.put(k, v), model.insert(k, v)),
            MapOp::Get(k) => assert_eq!(subject.get(&k), model.get(&k).copied()),
            MapOp::Remove(k) => assert_eq!(subject.remove(&k), model.remove(&k)),
            MapOp::ContainsKey(k) => {
                assert_eq!(subject.contains_key(&k), model.contains_key(&k))
            }
            MapOp::Clear => {
                subject.clear();
                model.clear();
            }
            MapOp::Iterate => {
                let got: StdMap<i64, i64> = subject.iter().collect();
                assert_eq!(got, model);
            }
        }
        assert_eq!(subject.size(), model.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_map_matches_model(ops in map_ops()) {
        check_map_equivalence(MapChoice::HashMap, ops);
    }

    #[test]
    fn linked_hash_map_matches_model(ops in map_ops()) {
        check_map_equivalence(MapChoice::LinkedHashMap, ops);
    }

    #[test]
    fn array_map_matches_model(ops in map_ops()) {
        check_map_equivalence(MapChoice::ArrayMap, ops);
    }

    #[test]
    fn lazy_map_matches_model(ops in map_ops()) {
        check_map_equivalence(MapChoice::LazyMap, ops);
    }

    #[test]
    fn size_adapting_map_matches_model_across_conversion(ops in map_ops()) {
        // Threshold 4 guarantees the conversion happens mid-sequence.
        check_map_equivalence(MapChoice::SizeAdapting(4), ops);
    }
}

#[derive(Debug, Clone)]
enum SetOp {
    Add(i64),
    Remove(i64),
    Contains(i64),
    Clear,
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..20i64).prop_map(SetOp::Add),
            (0..20i64).prop_map(SetOp::Remove),
            (0..20i64).prop_map(SetOp::Contains),
            Just(SetOp::Clear),
        ],
        0..100,
    )
}

fn check_set_equivalence(choice: SetChoice, ops: Vec<SetOp>) {
    let f = CollectionFactory::new(Runtime::new(Heap::new()));
    let ctx = {
        let _g = f.enter("prop.SetSite:1");
        f.new_set::<i64>(None).ctx().expect("captured")
    };
    f.policy().borrow_mut().set_set(
        ctx,
        Selection {
            choice,
            capacity: None,
        },
    );
    let _g = f.enter("prop.SetSite:1");
    let mut subject = f.new_set::<i64>(None);
    let mut model: StdSet<i64> = StdSet::new();
    for op in ops {
        match op {
            SetOp::Add(v) => assert_eq!(subject.add(v), model.insert(v)),
            SetOp::Remove(v) => assert_eq!(subject.remove(&v), model.remove(&v)),
            SetOp::Contains(v) => assert_eq!(subject.contains(&v), model.contains(&v)),
            SetOp::Clear => {
                subject.clear();
                model.clear();
            }
        }
        assert_eq!(subject.size(), model.len());
    }
    let got: StdSet<i64> = subject.snapshot().into_iter().collect();
    assert_eq!(got, model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_set_matches_model(ops in set_ops()) {
        check_set_equivalence(SetChoice::HashSet, ops);
    }

    #[test]
    fn linked_hash_set_matches_model(ops in set_ops()) {
        check_set_equivalence(SetChoice::LinkedHashSet, ops);
    }

    #[test]
    fn array_set_matches_model(ops in set_ops()) {
        check_set_equivalence(SetChoice::ArraySet, ops);
    }

    #[test]
    fn lazy_set_matches_model(ops in set_ops()) {
        check_set_equivalence(SetChoice::LazySet, ops);
    }

    #[test]
    fn size_adapting_set_matches_model(ops in set_ops()) {
        check_set_equivalence(SetChoice::SizeAdapting(4), ops);
    }
}

#[derive(Debug, Clone)]
enum ListOp {
    Add(i64),
    AddAt(usize, i64),
    Get(usize),
    Set(usize, i64),
    RemoveAt(usize),
    RemoveValue(i64),
    RemoveFirst,
    RemoveLast,
    Contains(i64),
    Clear,
}

fn list_ops() -> impl Strategy<Value = Vec<ListOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..50i64).prop_map(ListOp::Add),
            (0..40usize, 0..50i64).prop_map(|(i, v)| ListOp::AddAt(i, v)),
            (0..40usize).prop_map(ListOp::Get),
            (0..40usize, 0..50i64).prop_map(|(i, v)| ListOp::Set(i, v)),
            (0..40usize).prop_map(ListOp::RemoveAt),
            (0..50i64).prop_map(ListOp::RemoveValue),
            Just(ListOp::RemoveFirst),
            Just(ListOp::RemoveLast),
            (0..50i64).prop_map(ListOp::Contains),
            Just(ListOp::Clear),
        ],
        0..120,
    )
}

fn check_list_equivalence(choice: ListChoice, ops: Vec<ListOp>) {
    let f = CollectionFactory::new(Runtime::new(Heap::new()));
    let ctx = {
        let _g = f.enter("prop.ListSite:1");
        f.new_list::<i64>(None).ctx().expect("captured")
    };
    f.policy().borrow_mut().set_list(
        ctx,
        Selection {
            choice,
            capacity: None,
        },
    );
    let _g = f.enter("prop.ListSite:1");
    let mut subject = f.new_list::<i64>(None);
    let mut model: Vec<i64> = Vec::new();
    for op in ops {
        match op {
            ListOp::Add(v) => {
                subject.add(v);
                model.push(v);
            }
            ListOp::AddAt(i, v) => {
                if i <= model.len() {
                    subject.add_at(i, v);
                    model.insert(i, v);
                }
            }
            ListOp::Get(i) => assert_eq!(subject.get(i), model.get(i).copied()),
            ListOp::Set(i, v) => {
                let expected = if i < model.len() {
                    Some(std::mem::replace(&mut model[i], v))
                } else {
                    None
                };
                assert_eq!(subject.set(i, v), expected);
            }
            ListOp::RemoveAt(i) => {
                let expected = if i < model.len() {
                    Some(model.remove(i))
                } else {
                    None
                };
                assert_eq!(subject.remove_at(i), expected);
            }
            ListOp::RemoveValue(v) => {
                let expected = model.iter().position(|x| *x == v);
                if let Some(i) = expected {
                    model.remove(i);
                }
                assert_eq!(subject.remove_value(&v), expected.is_some());
            }
            ListOp::RemoveFirst => {
                let expected = if model.is_empty() {
                    None
                } else {
                    Some(model.remove(0))
                };
                assert_eq!(subject.remove_first(), expected);
            }
            ListOp::RemoveLast => {
                assert_eq!(subject.remove_last(), model.pop());
            }
            ListOp::Contains(v) => assert_eq!(subject.contains(&v), model.contains(&v)),
            ListOp::Clear => {
                subject.clear();
                model.clear();
            }
        }
        assert_eq!(subject.size(), model.len());
    }
    assert_eq!(subject.snapshot(), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn array_list_matches_model(ops in list_ops()) {
        check_list_equivalence(ListChoice::ArrayList, ops);
    }

    #[test]
    fn linked_list_matches_model(ops in list_ops()) {
        check_list_equivalence(ListChoice::LinkedList, ops);
    }

    #[test]
    fn lazy_array_list_matches_model(ops in list_ops()) {
        check_list_equivalence(ListChoice::LazyArrayList, ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heap accounting invariants under arbitrary small workloads:
    /// used <= live, count consistency, and full reclamation after death.
    #[test]
    fn heap_invariants_under_arbitrary_usage(
        sizes in prop::collection::vec(0..20usize, 1..12),
    ) {
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let heap = f.runtime().heap().clone();
        heap.gc();
        let baseline = heap.heap_bytes();

        let _g = f.enter("inv.Site:1");
        let mut handles = Vec::new();
        for (i, n) in sizes.iter().enumerate() {
            let mut m = f.new_map::<i64, i64>(None);
            for k in 0..*n {
                m.put(k as i64, i as i64);
            }
            handles.push(m);
        }
        let cycle = heap.gc();
        prop_assert!(cycle.collection.used <= cycle.collection.live);
        prop_assert!(cycle.collection.live <= cycle.live_bytes);
        prop_assert_eq!(cycle.collection.count as usize, sizes.len());
        // Per-context totals sum to the whole (single context here).
        let per_ctx_live: u64 = cycle.per_context.iter().map(|(_, t)| t.live).sum();
        prop_assert_eq!(per_ctx_live, cycle.collection.live);

        drop(handles);
        heap.gc();
        prop_assert_eq!(heap.heap_bytes(), baseline);
    }

    /// A second GC without intervening mutation reclaims nothing further
    /// and reports identical live data.
    #[test]
    fn gc_is_idempotent(sizes in prop::collection::vec(0..12usize, 1..8)) {
        let f = CollectionFactory::new(Runtime::new(Heap::new()));
        let heap = f.runtime().heap().clone();
        let _g = f.enter("idem.Site:1");
        let mut handles = Vec::new();
        for n in &sizes {
            let mut s = f.new_set::<i64>(None);
            for k in 0..*n {
                s.add(k as i64);
            }
            handles.push(s);
        }
        let first = heap.gc();
        let second = heap.gc();
        prop_assert_eq!(first.live_bytes, second.live_bytes);
        prop_assert_eq!(first.collection.live, second.collection.live);
        prop_assert_eq!(second.swept_bytes, 0);
    }
}
