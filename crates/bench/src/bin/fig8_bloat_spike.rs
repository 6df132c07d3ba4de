//! Fig. 8 — Percentage of live data occupied by collections in the
//! original version of bloat, per GC cycle. The paper's figure shows a
//! spike (at GC#656 on their trace) where "around 25% of the heap ... was
//! consumed by LinkedList$Entry objects allocated as the head of an empty
//! linked list".

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::{Env, EnvConfig};
use chameleon_workloads::Bloat;

fn main() {
    let out = Out::new("fig8_bloat_spike");
    let env = Env::new(&EnvConfig {
        gc_interval_bytes: Some(64 * 1024),
        ..EnvConfig::default()
    });
    env.run(&Bloat::default());
    let report = env.report();

    outln!(
        out,
        "Fig. 8 — bloat: collection share of live data per GC cycle"
    );
    out.hr(70);
    outln!(
        out,
        "{:>6} {:>12} {:>8}  chart",
        "cycle",
        "live(B)",
        "coll%"
    );
    out.hr(70);
    for p in &report.series {
        let bars = (p.live_pct / 2.0).round() as usize;
        outln!(
            out,
            "{:>6} {:>12} {:>7.1}%  {}",
            p.cycle,
            p.heap_live,
            p.live_pct,
            "#".repeat(bars)
        );
    }
    out.hr(70);

    // Quantify the paper's "25% of the heap = empty-list entries" claim at
    // the spike cycle.
    let spike = report
        .series
        .iter()
        .max_by(|a, b| a.heap_live.cmp(&b.heap_live))
        .expect("cycles recorded");
    let cycles = env.heap.cycles();
    let spike_cycle = cycles
        .iter()
        .find(|c| c.cycle == spike.cycle)
        .expect("spike cycle recorded");
    let entry_class = env.heap.register_class("LinkedList$Entry", None);
    let entry_bytes = spike_cycle
        .type_distribution
        .iter()
        .find(|(c, _, _)| *c == entry_class)
        .map(|(_, b, _)| *b)
        .unwrap_or(0);
    outln!(
        out,
        "at the spike (cycle {}): LinkedList$Entry = {} B = {:.1}% of live data \
         (paper: ~25%)",
        spike.cycle,
        entry_bytes,
        100.0 * entry_bytes as f64 / spike_cycle.live_bytes as f64
    );
}
