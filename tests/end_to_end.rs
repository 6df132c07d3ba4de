//! Integration tests spanning the whole pipeline: heap ← collections ←
//! profiler ← rules ← core ← workloads.

use chameleon_collections::CollectionFactory;
use chameleon_core::{
    min_heap_size, run_experiment, run_online, Chameleon, Env, EnvConfig, OnlineConfig, Workload,
};
use chameleon_rules::RuleEngine;
use chameleon_workloads::{Bloat, Findbugs, Fop, Pmd, Soot, Synthetic, Tvla};
use std::sync::Arc;

fn small_env() -> EnvConfig {
    EnvConfig {
        gc_interval_bytes: Some(32 * 1024),
        ..EnvConfig::default()
    }
}

#[test]
fn full_methodology_improves_synthetic_small_maps() {
    let w = Synthetic::small_maps(4);
    let chameleon = Chameleon::new().with_profile_config(small_env());
    let result = chameleon.optimize(&w);
    assert!(!result.applied.is_empty());
    assert!(
        result.min_heap_after < result.min_heap_before,
        "{} -> {}",
        result.min_heap_before,
        result.min_heap_after
    );
}

#[test]
fn every_paper_workload_profiles_and_suggests() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(Tvla {
            states: 60,
            rounds: 2,
        }),
        Box::new(Bloat {
            wave_nodes: 30,
            waves: 2,
            spike_nodes: 200,
            manual_lazy: false,
        }),
        Box::new(Fop { nodes: 60 }),
        Box::new(Findbugs {
            classes: 40,
            methods_per_class: 4,
        }),
        Box::new(Pmd {
            ast_nodes: 600,
            symbol_set_size: 200,
        }),
        Box::new(Soot {
            methods: 40,
            stmts_per_method: 8,
        }),
    ];
    let chameleon = Chameleon::new().with_profile_config(small_env());
    for w in workloads {
        let report = chameleon.profile(w.as_ref());
        assert!(
            !report.contexts.is_empty(),
            "{}: no contexts profiled",
            w.name()
        );
        let suggestions = chameleon.engine().evaluate(&report);
        assert!(
            !suggestions.is_empty(),
            "{}: no suggestions produced",
            w.name()
        );
    }
}

#[test]
fn pmd_space_result_reproduces_zero_improvement() {
    // The paper's negative result must reproduce: PMD's minimal heap is
    // dominated by large stable collections the rules correctly leave
    // alone.
    let w = Pmd {
        ast_nodes: 800,
        symbol_set_size: 400,
    };
    let chameleon = Chameleon::new().with_profile_config(small_env());
    let result = chameleon.optimize(&w);
    let saving = result.space_improvement().pct();
    assert!(
        saving.abs() < 5.0,
        "pmd min-heap should be (nearly) unchanged, got {saving:.1}%"
    );
    // ... while allocation volume drops.
    assert!(
        result.time_after.total_allocated_bytes < result.time_before.total_allocated_bytes,
        "fixes must reduce allocation volume"
    );
}

#[test]
fn suggestions_survive_environment_boundaries() {
    // Profile in one environment, apply in a completely fresh one.
    let w = Synthetic::small_maps(3);
    let chameleon = Chameleon::new().with_profile_config(small_env());
    let result = chameleon.optimize(&w);
    assert!(!result.applied.is_empty());

    let fresh = Env::new(&small_env());
    fresh.apply_policy(&result.applied);
    fresh.run(&w);
    let report = fresh.report();
    // In the fresh run the overridden contexts must have been served by
    // the replacement implementation.
    let arraymap_seen = report
        .contexts
        .iter()
        .any(|c| c.trace.impl_counts.contains_key("ArrayMap"));
    assert!(arraymap_seen, "{report:#?}");
}

#[test]
fn online_mode_converges_to_offline_quality() {
    let w = Tvla {
        states: 80,
        rounds: 4,
    };
    let online = run_online(
        &w,
        Arc::new(RuleEngine::builtin()),
        &OnlineConfig {
            env: small_env(),
            eval_every_deaths: 64,
            shutoff_below_potential: None,
            ..OnlineConfig::default()
        },
    )
    .expect("online run");
    assert!(online.replacements > 0, "online mode must install policies");
    let baseline = min_heap_size(&w, &[], 64 * 1024);
    let online_min = min_heap_size(&w, &online.converged_policy, 64 * 1024);
    assert!(
        (online_min as f64) < baseline as f64 * 0.75,
        "converged online policy must save space: {baseline} -> {online_min}"
    );
}

#[test]
fn profiler_and_gc_agree_on_collection_counts() {
    // The number of live top-level collections the GC sees must equal the
    // number of live handles.
    let env = Env::new(&EnvConfig::default());
    let f = &env.factory;
    let _g = f.enter("agree.Site:1");
    let mut handles = Vec::new();
    for i in 0..25i64 {
        let mut m = f.new_map::<i64, i64>(None);
        m.put(i, i);
        handles.push(m);
    }
    let lists: Vec<_> = (0..10).map(|_| f.new_list::<i64>(None)).collect();
    let cycle = env.heap.gc();
    assert_eq!(cycle.collection.count as usize, handles.len() + lists.len());
    drop(handles);
    drop(lists);
    let cycle = env.heap.gc();
    assert_eq!(cycle.collection.count, 0);
}

#[test]
fn custom_rules_drive_the_full_pipeline() {
    let mut engine = RuleEngine::new();
    engine
        .add_rules(
            r#"HashMap : instances > 0 && maxSize < 100 -> LinkedHashMap "Space: demo rule""#,
        )
        .expect("valid rule");
    let w = ("custom", |f: &CollectionFactory| {
        let _g = f.enter("c.Site:1");
        let mut keep = Vec::new();
        for i in 0..30i64 {
            let mut m = f.new_map::<i64, i64>(None);
            m.put(i, i);
            keep.push(m);
        }
    });
    let chameleon = Chameleon::new()
        .with_engine(engine)
        .with_profile_config(small_env());
    let report = chameleon.profile(&w);
    let suggestions = chameleon.engine().evaluate(&report);
    assert_eq!(suggestions.len(), 1);
    assert!(suggestions[0].rule_text.contains("LinkedHashMap"));
    assert!(suggestions[0].auto_applicable());
}

#[test]
fn capture_depth_reaches_through_factories() {
    // TVLA's maps all flow through HashMapFactory; depth-2 contexts must
    // separate the seven call sites.
    let chameleon = Chameleon::new().with_profile_config(small_env());
    let report = chameleon.profile(&Tvla {
        states: 40,
        rounds: 2,
    });
    let map_ctxs = report
        .contexts
        .iter()
        .filter(|c| c.src_type == "HashMap")
        .count();
    assert_eq!(map_ctxs, chameleon_workloads::tvla::TVLA_MAP_CONTEXTS);
}

#[test]
fn redundant_iterator_rule_fires_on_empty_iteration_churn() {
    // The Table 2 iterator rule: a context whose collections are always
    // empty yet iterated constantly gets the "remove redundant iterator"
    // advice (before the generic lazification rules see it).
    let w = ("iter-churn", |f: &CollectionFactory| {
        let _g = f.enter("iter.Visitor.children:66");
        for _ in 0..50 {
            let l = f.new_list::<i64>(None);
            for _ in 0..30 {
                assert_eq!(l.iter().count(), 0);
            }
        }
    });
    let chameleon = Chameleon::new().with_profile_config(small_env());
    let report = chameleon.profile(&w);
    let suggestions = chameleon.engine().evaluate(&report);
    let s = suggestions
        .iter()
        .find(|s| s.label.contains("iter.Visitor.children:66"))
        .expect("iterator context flagged");
    assert!(
        s.rule_text.contains("RemoveIterator"),
        "expected the iterator rule, got: {}",
        s.rule_text
    );
}

#[test]
fn jvm64_layout_runs_end_to_end() {
    let cfg = EnvConfig {
        model: chameleon_repro::heap::MemoryModel::jvm64(),
        gc_interval_bytes: Some(48 * 1024),
        ..EnvConfig::default()
    };
    let chameleon = Chameleon::new().with_profile_config(cfg);
    let result = chameleon.optimize(&Synthetic::small_maps(3));
    assert!(result.min_heap_after < result.min_heap_before);
    // 64-bit layouts make entry overhead larger, so savings are at least
    // as big as in the 32-bit run.
    let chameleon32 = Chameleon::new().with_profile_config(small_env());
    let result32 = chameleon32.optimize(&Synthetic::small_maps(3));
    assert!(
        result.space_improvement().pct() >= result32.space_improvement().pct() - 3.0,
        "64-bit: {:.1}%, 32-bit: {:.1}%",
        result.space_improvement().pct(),
        result32.space_improvement().pct()
    );
}

#[test]
fn fig6_min_heap_bytes_are_pinned() {
    // `(min_heap_before, min_heap_after)` of the §5.2 methodology under
    // the builtin rules and the default environment; fop and findbugs are
    // the Fig. 6 rows. The min-heap search is byte-exact, so any change to
    // allocation sizes, GC timing or root handling moves these numbers.
    let engine = RuleEngine::builtin();
    for (name, expected) in [
        ("synthetic", (56_320, 22_528)),
        ("fop", (1_788_194, 1_672_934)),
        ("findbugs", (1_835_024, 1_521_443)),
    ] {
        let w = chameleon_workloads::by_name(name).expect("registered workload");
        let r = run_experiment(w.as_ref(), &engine, &EnvConfig::default(), None);
        assert_eq!((r.min_heap_before, r.min_heap_after), expected, "{name}");
    }
}
