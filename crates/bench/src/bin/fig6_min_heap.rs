//! Fig. 6 — Improvement of minimal heap size required to run each
//! benchmark, as a percentage of the original minimal heap size.
//!
//! For bloat the paper's 56% includes a *manual* fix (lazy allocation of
//! the list fields themselves); the automatic (policy-only) number is shown
//! alongside, as the paper reports "more than 20% ... by making the lists
//! into LazyArrayLists".

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_bench::{paper_numbers, pct, run_paper_experiment};
use chameleon_core::{min_heap_size, EnvConfig};
use chameleon_workloads::{paper_benchmarks, Bloat};

fn main() {
    let out = Out::new("fig6_min_heap");
    outln!(
        out,
        "Fig. 6 — minimal-heap improvement (% of original min heap)"
    );
    out.hr(78);
    outln!(
        out,
        "{:<10} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "benchmark",
        "before(B)",
        "after(B)",
        "measured",
        "paper",
        "suggestions"
    );
    out.hr(78);
    for w in paper_benchmarks() {
        let result = run_paper_experiment(w.as_ref());
        let mut improvement = result.space_improvement().pct();
        let mut after = result.min_heap_after;
        // bloat: fold in the paper's manual lazy-allocation fix (§5.3 says
        // the 56% came from manually making the allocation itself lazy; the
        // LazyArrayList policy alone gives "more than 20%").
        if result.name == "bloat" {
            outln!(
                out,
                "{:<10} {:>12} {:>12} {:>10} {:>10} {:>12}",
                " policy",
                result.min_heap_before,
                result.min_heap_after,
                pct(result.space_improvement().pct()),
                ">20%",
                result.suggestions.len(),
            );
            let manual = Bloat {
                manual_lazy: true,
                ..Bloat::default()
            };
            let manual_after = min_heap_size(
                &manual,
                &result.applied,
                result.min_heap_before,
                &EnvConfig::default(),
            );
            if manual_after < after {
                after = manual_after;
                improvement =
                    100.0 * (result.min_heap_before - after) as f64 / result.min_heap_before as f64;
            }
        }
        let paper = paper_numbers(result.name).expect("known benchmark");
        outln!(
            out,
            "{:<10} {:>12} {:>12} {:>10} {:>10} {:>12}",
            result.name,
            result.min_heap_before,
            after,
            pct(improvement),
            pct(paper.min_heap_pct),
            result.suggestions.len(),
        );
    }
    out.hr(78);
}
