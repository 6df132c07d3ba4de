//! Fig. 7 — Improvement of running time after applying the fixes suggested
//! by Chameleon, as a percentage of the original running time. Following
//! §5.2, both versions run with the benchmark's *original* minimal heap
//! size, so GC pressure differences count (that is the entire PMD effect:
//! 16% fewer GCs → 8.33% faster).

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_bench::{paper_numbers, pct, run_paper_experiment};
use chameleon_workloads::paper_benchmarks;

fn main() {
    let out = Out::new("fig7_running_time");
    outln!(
        out,
        "Fig. 7 — running-time improvement at the original minimal heap size"
    );
    out.hr(86);
    outln!(
        out,
        "{:<10} {:>14} {:>14} {:>9} {:>9} {:>9} {:>9}",
        "benchmark",
        "before(units)",
        "after(units)",
        "measured",
        "paper",
        "GCs",
        "GCs'"
    );
    out.hr(86);
    for w in paper_benchmarks() {
        let r = run_paper_experiment(w.as_ref());
        let paper = paper_numbers(r.name).expect("known benchmark");
        outln!(
            out,
            "{:<10} {:>14} {:>14} {:>9} {:>9} {:>9} {:>9}",
            r.name,
            r.time_before.sim_time,
            r.time_after.sim_time,
            pct(r.time_improvement().pct()),
            paper.time_pct.map(pct).unwrap_or_else(|| "n/a".to_owned()),
            r.time_before.gc_count,
            r.time_after.gc_count,
        );
    }
    out.hr(86);
    outln!(
        out,
        "(units are deterministic simulated cost units; see DESIGN.md §1)"
    );
}
