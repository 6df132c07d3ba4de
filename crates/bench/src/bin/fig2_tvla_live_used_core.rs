//! Fig. 2 — Percentage of live data consumed by collections in TVLA, per
//! GC cycle: total collection bytes (**live**), the part used to store
//! application entries (**used**), and the ideal lower bound (**core**).
//! The paper's figure shows collections at up to ~70% of live data with
//! used at up to ~40%.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::{Env, EnvConfig};
use chameleon_workloads::Tvla;

fn main() {
    let out = Out::new("fig2_tvla_live_used_core");
    let env = Env::new(&EnvConfig::default());
    env.run(&Tvla::default());
    let report = env.report();

    outln!(
        out,
        "Fig. 2 — TVLA: collection share of live data per GC cycle"
    );
    out.hr(64);
    outln!(
        out,
        "{:>6} {:>12} {:>8} {:>8} {:>8}",
        "cycle",
        "live(B)",
        "live%",
        "used%",
        "core%"
    );
    out.hr(64);
    for p in &report.series {
        outln!(
            out,
            "{:>6} {:>12} {:>7.1}% {:>7.1}% {:>7.1}%",
            p.cycle,
            p.heap_live,
            p.live_pct,
            p.used_pct,
            p.core_pct
        );
    }
    out.hr(64);
    let max_live = report.series.iter().map(|p| p.live_pct).fold(0.0, f64::max);
    let max_used = report.series.iter().map(|p| p.used_pct).fold(0.0, f64::max);
    outln!(
        out,
        "peaks: live {max_live:.1}% (paper: up to ~70%), used {max_used:.1}% (paper: up to ~40%)"
    );
}
