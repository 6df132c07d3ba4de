//! Table 3 — the statistics the collection-aware collector gathers on
//! every GC cycle: live data, collection live/used/core, collection object
//! number, and the per-type live-size breakdown; printed for the TVLA run.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::{Env, EnvConfig};
use chameleon_workloads::Tvla;

fn main() {
    let out = Out::new("table3_gc_stats");
    let env = Env::new(&EnvConfig::default());
    env.run(&Tvla::default());
    let cycles = env.heap.cycles();

    outln!(out, "Table 3 — per-GC-cycle semantic statistics (TVLA)");
    out.hr(86);
    outln!(
        out,
        "{:>5} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8}",
        "cycle",
        "live(B)",
        "collLive",
        "collUsed",
        "collCore",
        "collObj",
        "types"
    );
    out.hr(86);
    for c in &cycles {
        outln!(
            out,
            "{:>5} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8}",
            c.cycle,
            c.live_bytes,
            c.collection.live,
            c.collection.used,
            c.collection.core,
            c.collection.count,
            c.type_distribution.len(),
        );
    }
    out.hr(86);

    // Type distribution of the peak cycle.
    let peak = cycles
        .iter()
        .max_by_key(|c| c.live_bytes)
        .expect("cycles recorded");
    outln!(
        out,
        "\nType distribution at the peak cycle ({}):",
        peak.cycle
    );
    let mut rows = peak.type_distribution.clone();
    rows.sort_by_key(|(_, bytes, _)| std::cmp::Reverse(*bytes));
    for (class, bytes, count) in rows.iter().take(10) {
        outln!(
            out,
            "  {:<24} {:>10} B {:>8} objects ({:>5.1}% of live)",
            env.heap.class_name(*class),
            bytes,
            count,
            100.0 * *bytes as f64 / peak.live_bytes as f64
        );
    }
}
