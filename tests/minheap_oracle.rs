//! Release-mode oracle gate for the minimal-heap search: the one-run
//! lifetime search (`min_heap_size`) must return exactly what the bisection
//! (`min_heap_size_with`) returns on every search the paper's figures
//! make — the 12 of `run_experiment` (6 workloads, each without a policy
//! and with the builtin rules' policy) and Fig. 6's bloat manual-lazy
//! search. `run_experiment` reads its two minimal heaps from the lifetime
//! traces of its profile run and its measured policy run; both must equal
//! the bisection too.
//!
//! The bisection runs each workload ~26 times, so the gate is ignored by
//! default; run it with
//! `cargo test --release --test minheap_oracle -- --ignored --nocapture`
//! (the output lists both searches' wall-clock time per search, and each
//! workload's `run_experiment` time).

use chameleon_core::{
    min_heap_size, min_heap_size_with, run_experiment, EnvConfig, PortableUpdate, Workload,
};
use chameleon_rules::RuleEngine;
use chameleon_workloads::{paper_benchmarks, Bloat};
use std::time::Instant;

/// Runs both searches, prints their times and asserts they agree.
fn check(label: &str, w: &dyn Workload, policy: &[PortableUpdate], hint: u64) -> u64 {
    let template = EnvConfig::default();
    let t = Instant::now();
    let oracle = min_heap_size_with(w, policy, hint, &template);
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let one_run = min_heap_size(w, policy, hint, &template);
    let one_run_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "{label:<24} {oracle:>10} B  bisection {oracle_ms:>8.1} ms  one-run {one_run_ms:>8.1} ms"
    );
    assert_eq!(
        one_run, oracle,
        "{label}: one-run search disagrees with the bisection"
    );
    oracle
}

#[test]
#[ignore = "runs every paper workload ~60 times; run in release with --ignored"]
fn one_run_search_matches_bisection_on_every_paper_search() {
    let engine = RuleEngine::builtin();
    for w in paper_benchmarks() {
        let t = Instant::now();
        let result = run_experiment(w.as_ref(), &engine, &EnvConfig::default(), None);
        let experiment_ms = t.elapsed().as_secs_f64() * 1e3;
        let name = w.name();
        println!("{name:<24} run_experiment {experiment_ms:>8.1} ms");
        // `run_experiment`'s searches: its profile's hint, without and
        // with its policy.
        let hint = result.report.peak_live().max(64 * 1024);
        let before = check(name, w.as_ref(), &[], hint);
        assert_eq!(
            result.min_heap_before, before,
            "{name}: run_experiment's profile run disagrees with the bisection"
        );
        let after = check(
            &format!("{name} + policy"),
            w.as_ref(),
            &result.applied,
            hint,
        );
        assert_eq!(
            result.min_heap_after, after,
            "{name}: run_experiment's policy run disagrees with the bisection"
        );
        if name == "bloat" {
            // Fig. 6 seeds the manual-lazy search with the original minimum.
            let manual = Bloat {
                manual_lazy: true,
                ..Bloat::default()
            };
            check("bloat manual-lazy", &manual, &result.applied, before);
        }
    }
}
