//! The §5.2 methodology, automated end to end:
//!
//! 1. run the workload under the semantic profiler;
//! 2. evaluate the selection rules over the profile;
//! 3. apply the (auto-applicable) suggestions as a portable policy;
//! 4. measure the minimal heap size before and after;
//! 5. measure running time before and after, both at the *original*
//!    minimal heap size (as Fig. 7 does).
//!
//! [`run_experiment`] does this in three workload runs. The profile run
//! and the measured policy run each record a lifetime trace, which gives
//! the minimal heap of the default collections and of the policy
//! respectively (see [`crate::minheap`] for why both runs qualify), so
//! step 4 needs no run of its own.

use crate::env::{portable_updates, Env, EnvConfig, PortableUpdate};
use crate::metrics::{Improvement, RunMetrics};
use crate::minheap::lifetime_run;
use crate::parallel::{ParallelConfig, ParallelError};
use crate::workload::Workload;
use chameleon_profiler::ProfileReport;
use chameleon_rules::{RuleEngine, Suggestion};

/// Outcome of a full before/after experiment on one workload.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Workload name.
    pub name: &'static str,
    /// The profiling report.
    pub report: ProfileReport,
    /// All suggestions the rule engine produced.
    pub suggestions: Vec<Suggestion>,
    /// The policy actually applied (auto-applicable suggestions only,
    /// possibly truncated to the top-k).
    pub applied: Vec<PortableUpdate>,
    /// Minimal heap size with default collections.
    pub min_heap_before: u64,
    /// Minimal heap size with Chameleon's policy.
    pub min_heap_after: u64,
    /// Measured run with default collections at `min_heap_before`.
    pub time_before: RunMetrics,
    /// Measured run with the policy at `min_heap_before`.
    pub time_after: RunMetrics,
}

impl ExperimentResult {
    /// Minimal-heap improvement (Fig. 6's metric).
    pub fn space_improvement(&self) -> Improvement {
        Improvement::new(self.min_heap_before as f64, self.min_heap_after as f64)
    }

    /// Running-time improvement at the original minimal heap (Fig. 7's
    /// metric).
    pub fn time_improvement(&self) -> Improvement {
        Improvement::new(
            self.time_before.sim_time as f64,
            self.time_after.sim_time as f64,
        )
    }

    /// GC-count improvement (reported for PMD in §5.3).
    pub fn gc_improvement(&self) -> Improvement {
        Improvement::new(
            self.time_before.gc_count as f64,
            self.time_after.gc_count as f64,
        )
    }
}

/// Runs the full methodology on `workload`.
///
/// `top_k` limits how many of the highest-potential suggestions are applied
/// (the paper modifies "the top allocation contexts"); `None` applies all.
///
/// # Panics
///
/// Panics if `profile_config.policy` is not empty: the profile run is
/// also the default-collections run whose minimal heap is
/// `min_heap_before`. Panics, as an uncaught `OutOfMemory`, if the policy
/// needs more than the measured runs' capacity.
pub fn run_experiment(
    workload: &dyn Workload,
    engine: &RuleEngine,
    profile_config: &EnvConfig,
    top_k: Option<usize>,
) -> ExperimentResult {
    assert!(
        profile_config.policy.is_empty(),
        "run_experiment: profile_config.policy must be empty; the profile run \
         measures the default collections' minimal heap"
    );
    // Steps 1 and 4 (before): the profiling run, which also gives the
    // default collections' minimal heap on the grid of its peak live bytes.
    let env = Env::new(profile_config);
    let (min_heap_before, report) = lifetime_run(&env, workload, |env| {
        let report = env.report();
        (report.peak_live(), report)
    });
    let hint = report.peak_live();

    // Step 2: rule evaluation (audited when telemetry is attached).
    let suggestions = engine.evaluate_traced(&report, profile_config.telemetry.as_ref());

    // Step 3: portable policy from the top-k applicable suggestions.
    let applicable: Vec<Suggestion> = suggestions
        .iter()
        .filter(|s| s.auto_applicable())
        .take(top_k.unwrap_or(usize::MAX))
        .cloned()
        .collect();
    let applied = portable_updates(&applicable, &env.heap);

    // Steps 5 and 4 (after): measured runs at the original minimal heap
    // size. The paper finds the minimum at -Xmx granularity, which leaves
    // slack; our search is byte-exact, so running at exactly
    // `min_heap_before` would thrash the collector in a way no real JVM
    // configuration does. A fixed 12.5% slack models the coarse-granularity
    // minimum for both versions. The policy run completes, so its `T` is
    // within that capacity, and its trace gives `min_heap_after` on the
    // same grid; its metrics are read before the trace ends.
    let measured = EnvConfig {
        model: profile_config.model,
        ..EnvConfig::measured(min_heap_before + min_heap_before / 8)
    };
    let before_env = Env::new(&measured);
    before_env.run(workload);
    let time_before = before_env.metrics();

    let after_env = Env::new(&measured);
    after_env.apply_policy(&applied);
    let (min_heap_after, time_after) =
        lifetime_run(&after_env, workload, |env| (hint, env.metrics()));

    ExperimentResult {
        name: workload.name(),
        report,
        suggestions,
        applied,
        min_heap_before,
        min_heap_after,
        time_before,
        time_after,
    }
}

/// Outcome of a quick profile → suggest → apply → re-run cycle on one
/// workload (no minimal-heap search). This is the per-cell experiment the
/// evaluation matrix runs: both runs use the *same* `config`, so the cost
/// ratio compares the policy against the baseline under identical heap
/// limits, capture settings and thread counts.
#[derive(Debug)]
pub struct QuickExperiment {
    /// Workload name.
    pub name: &'static str,
    /// The profiling report from the baseline run.
    pub report: ProfileReport,
    /// All suggestions the rule engine produced.
    pub suggestions: Vec<Suggestion>,
    /// The policy applied to the re-run (all auto-applicable suggestions).
    pub applied: Vec<PortableUpdate>,
    /// Metrics of the baseline run.
    pub before: RunMetrics,
    /// Metrics of the policy re-run.
    pub after: RunMetrics,
    /// Per-cycle GC pause costs (simulated units) of the baseline run.
    pub pause_units_before: Vec<u64>,
    /// Per-cycle GC pause costs (simulated units) of the policy re-run.
    pub pause_units_after: Vec<u64>,
}

impl QuickExperiment {
    /// Simulated-time cost ratio of the policy run over the baseline
    /// (1.0 = no change, < 1.0 = the policy is cheaper).
    pub fn cost_ratio(&self) -> f64 {
        if self.before.sim_time == 0 {
            return 1.0;
        }
        self.after.sim_time as f64 / self.before.sim_time as f64
    }
}

/// Runs the quick experiment: one profiled baseline run, rule evaluation,
/// and one re-run with every auto-applicable suggestion installed as a
/// portable policy — both under `config`, both through
/// [`Env::run_parallel`] when `parallel` is given (the policy reaches the
/// hermetic partition environments via [`EnvConfig::policy`]).
///
/// # Errors
///
/// Propagates [`ParallelError`] when `parallel` is given and the workload
/// cannot run under that partitioning (e.g. it has no partition plan).
pub fn run_quick_experiment(
    workload: &dyn Workload,
    engine: &RuleEngine,
    config: &EnvConfig,
    parallel: Option<ParallelConfig>,
) -> Result<QuickExperiment, ParallelError> {
    let run = |cfg: &EnvConfig| -> Result<Env, ParallelError> {
        let env = Env::new(cfg);
        match parallel {
            Some(pc) => {
                env.run_parallel(workload, pc)?;
            }
            None => env.run(workload),
        }
        Ok(env)
    };

    let env = run(config)?;
    let report = env.report();
    let suggestions = engine.evaluate_traced(&report, config.telemetry.as_ref());
    let applicable: Vec<Suggestion> = suggestions
        .iter()
        .filter(|s| s.auto_applicable())
        .cloned()
        .collect();
    let applied = portable_updates(&applicable, &env.heap);
    let before = env.metrics();
    let pause_units_before = env
        .heap
        .cycles()
        .iter()
        .map(|c| c.pause_cost_units)
        .collect();

    let after_config = EnvConfig {
        policy: applied.clone(),
        ..config.clone()
    };
    let after_env = run(&after_config)?;
    let after = after_env.metrics();
    let pause_units_after = after_env
        .heap
        .cycles()
        .iter()
        .map(|c| c.pause_cost_units)
        .collect();

    Ok(QuickExperiment {
        name: workload.name(),
        report,
        suggestions,
        applied,
        before,
        after,
        pause_units_before,
        pause_units_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use chameleon_collections::CollectionFactory;

    /// A TVLA-flavored miniature: many small long-lived HashMaps.
    fn small_maps() -> impl Workload {
        ("mini-tvla", |f: &CollectionFactory| {
            let _g = f.enter("mini.StateFactory:31");
            let mut states = Vec::new();
            for s in 0..60 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..5 {
                    m.put(i, s * 10 + i);
                }
                let _ = m.get(&2);
                states.push(m);
            }
            // Read phase.
            for m in &states {
                let _ = m.get(&1);
            }
        })
    }

    #[test]
    fn experiment_improves_space_and_time() {
        let engine = RuleEngine::builtin();
        let result = run_experiment(&small_maps(), &engine, &EnvConfig::default(), None);
        assert!(
            !result.applied.is_empty(),
            "expected applicable suggestions: {:?}",
            result.suggestions
        );
        let space = result.space_improvement();
        assert!(
            space.pct() > 20.0,
            "sparse HashMaps -> ArrayMap should save >20% min-heap, got {:.1}% \
             ({} -> {})",
            space.pct(),
            result.min_heap_before,
            result.min_heap_after
        );
        let time = result.time_improvement();
        assert!(
            time.pct() > -20.0,
            "small maps should not get dramatically slower: {:.1}%",
            time.pct()
        );
    }

    /// Two sites of small maps, the first with twice the instances.
    fn two_sites() -> impl Workload {
        ("two-sites", |f: &CollectionFactory| {
            let mut keep = Vec::new();
            {
                let _g = f.enter("siteA:1");
                for _ in 0..20 {
                    let mut m = f.new_map::<i64, i64>(None);
                    m.put(1, 1);
                    keep.push(m);
                }
            }
            {
                let _g = f.enter("siteB:2");
                for _ in 0..10 {
                    let mut m = f.new_map::<i64, i64>(None);
                    m.put(1, 1);
                    keep.push(m);
                }
            }
        })
    }

    #[test]
    fn top_k_limits_applied_contexts() {
        let engine = RuleEngine::builtin();
        let result = run_experiment(&two_sites(), &engine, &EnvConfig::default(), Some(1));
        assert_eq!(result.applied.len(), 1);
        // The applied one must be the higher-potential site (siteA).
        assert!(result.applied[0].frames[0].contains("siteA"));
    }

    #[test]
    fn minimal_heaps_equal_the_separate_searches() {
        use crate::minheap::min_heap_size;
        let engine = RuleEngine::builtin();
        let template = EnvConfig::default();
        for (w, top_k) in [
            (&small_maps() as &dyn Workload, None),
            (&two_sites(), Some(1)),
        ] {
            let result = run_experiment(w, &engine, &template, top_k);
            assert!(!result.applied.is_empty(), "{}: no policy", result.name);
            let hint = result.report.peak_live();
            assert_eq!(
                result.min_heap_before,
                min_heap_size(w, &[], hint, &template),
                "{}: without the policy",
                result.name
            );
            assert_eq!(
                result.min_heap_after,
                min_heap_size(w, &result.applied, hint, &template),
                "{}: with the policy",
                result.name
            );
        }
    }

    #[test]
    fn experiment_runs_the_workload_three_times() {
        struct Counting<W>(W, std::cell::Cell<usize>);
        impl<W: Workload> Workload for Counting<W> {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn run(&self, f: &CollectionFactory) {
                self.1.set(self.1.get() + 1);
                self.0.run(f);
            }
        }
        let w = Counting(small_maps(), std::cell::Cell::new(0));
        run_experiment(&w, &RuleEngine::builtin(), &EnvConfig::default(), None);
        assert_eq!(w.1.get(), 3, "profile, measured default, measured policy");
    }

    #[test]
    #[should_panic(expected = "profile_config.policy must be empty")]
    fn experiment_refuses_a_profile_policy() {
        let engine = RuleEngine::builtin();
        let applied = run_experiment(&small_maps(), &engine, &EnvConfig::default(), None).applied;
        let config = EnvConfig {
            policy: applied,
            ..EnvConfig::default()
        };
        run_experiment(&small_maps(), &engine, &config, None);
    }

    #[test]
    fn recording_lifetimes_leaves_the_profile_run_unchanged() {
        use chameleon_heap::HeapProfConfig;
        use chameleon_telemetry::{json, Telemetry};
        let run = |record: bool| {
            let t = Telemetry::new();
            let env = Env::new(&EnvConfig {
                telemetry: Some(t.clone()),
                heapprof: Some(HeapProfConfig { every: 1 }),
                gc_interval_bytes: Some(4 * 1024),
                ..EnvConfig::default()
            });
            if record {
                lifetime_run(&env, &small_maps(), |_| (0, ()));
            } else {
                env.run(&small_maps());
            }
            let events: Vec<String> = t
                .events_snapshot()
                .lines()
                .map(|line| {
                    let Ok(json::Value::Obj(mut fields)) = json::parse(line) else {
                        panic!("not a JSON object: {line}");
                    };
                    fields.retain(|k, _| !k.ends_with("_ns"));
                    json::render(&json::Value::Obj(fields))
                })
                .collect();
            let cycles = env.heap.cycles();
            let snapshots = env.heap.heap_snapshots().len();
            (cycles, env.metrics(), snapshots, events)
        };
        let (plain, recorded) = (run(false), run(true));
        assert!(plain.0.len() > 2, "the run must collect mid-run too");
        assert!(plain.2 > 0 && !plain.3.is_empty(), "the hooks must record");
        assert_eq!(plain.0, recorded.0, "cycles");
        assert_eq!(plain.1, recorded.1, "metrics");
        assert_eq!(plain.2, recorded.2, "snapshots");
        assert_eq!(plain.3, recorded.3, "event lines");
    }

    #[test]
    fn quick_experiment_applies_policy_and_improves() {
        let engine = RuleEngine::builtin();
        let quick = run_quick_experiment(&small_maps(), &engine, &EnvConfig::default(), None)
            .expect("sequential quick experiment");
        assert!(
            !quick.applied.is_empty(),
            "expected applicable suggestions: {:?}",
            quick.suggestions
        );
        assert!(
            quick.after.total_allocated_bytes < quick.before.total_allocated_bytes,
            "sparse HashMaps -> ArrayMap should shrink allocation: {} -> {}",
            quick.before.total_allocated_bytes,
            quick.after.total_allocated_bytes
        );
        assert!(quick.cost_ratio() > 0.0);
    }

    #[test]
    fn quick_experiment_parallel_matches_sequential_profile() {
        use chameleon_workloads_shim::partitionable;
        let w = partitionable();
        let engine = RuleEngine::builtin();
        let seq =
            run_quick_experiment(&w, &engine, &EnvConfig::default(), None).expect("sequential run");
        let par = run_quick_experiment(
            &w,
            &engine,
            &EnvConfig::default(),
            Some(ParallelConfig {
                partitions: 2,
                threads: 2,
            }),
        )
        .expect("parallel run");
        // Rule evaluation sees the same merged profile either way.
        let render = |s: &[Suggestion]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(render(&seq.suggestions), render(&par.suggestions));
    }

    #[test]
    fn config_policy_reaches_partition_environments() {
        use chameleon_workloads_shim::partitionable;
        let w = partitionable();
        let engine = RuleEngine::builtin();
        let pc = ParallelConfig {
            partitions: 2,
            threads: 2,
        };
        let quick = run_quick_experiment(&w, &engine, &EnvConfig::default(), Some(pc))
            .expect("parallel quick experiment");
        assert!(!quick.applied.is_empty(), "need a policy to propagate");
        // A re-run whose *config* carries the policy must allocate less
        // inside the partitions — if the hermetic child environments
        // dropped the policy, allocation would match the baseline exactly.
        assert!(
            quick.after.total_allocated_bytes < quick.before.total_allocated_bytes,
            "policy had no effect inside partitions: {} -> {}",
            quick.before.total_allocated_bytes,
            quick.after.total_allocated_bytes
        );
    }

    /// Minimal partitionable workload for the parallel quick-experiment
    /// tests (the real partitionable workloads live in
    /// `chameleon-workloads`, which depends on this crate).
    mod chameleon_workloads_shim {
        use crate::workload::{PartitionTask, Workload};
        use chameleon_collections::CollectionFactory;

        struct PartitionedMaps;

        fn fill(f: &CollectionFactory, site: &str, count: usize) {
            let _g = f.enter(site);
            let mut keep = Vec::new();
            for s in 0..count {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..4 {
                    m.put(i, s as i64 * 10 + i);
                }
                let _ = m.get(&2);
                keep.push(m);
            }
        }

        impl Workload for PartitionedMaps {
            fn name(&self) -> &'static str {
                "partitioned-maps"
            }
            fn run(&self, f: &CollectionFactory) {
                fill(f, "part.Site:0", 40);
                fill(f, "part.Site:1", 40);
            }
            fn partitions(&self, parts: usize) -> Option<Vec<PartitionTask>> {
                let parts = parts.min(2);
                Some(
                    (0..parts)
                        .map(|p| {
                            PartitionTask::new(format!("part{p}"), move |f: &CollectionFactory| {
                                fill(f, &format!("part.Site:{p}"), 40);
                                if parts == 1 {
                                    fill(f, "part.Site:1", 40);
                                }
                            })
                        })
                        .collect(),
                )
            }
        }

        pub fn partitionable() -> impl Workload {
            PartitionedMaps
        }
    }
}
