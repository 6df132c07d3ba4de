//! Table 1 — the heap and trace statistics Chameleon gathers per
//! allocation context, printed for the TVLA run: overall live data
//! (total/max), collection live/used/core (total/max), collection object
//! counts, operation totals, average/deviation of operation counts and of
//! the maximal size.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::{Env, EnvConfig};
use chameleon_workloads::Tvla;

fn main() {
    let out = Out::new("table1_stats");
    let env = Env::new(&EnvConfig::default());
    env.run(&Tvla::default());
    let report = env.report();

    outln!(out, "Table 1 — statistics gathered per execution (TVLA)");
    out.hr(72);
    outln!(out, "{:<42} {:>12} {:>12}", "metric", "Total", "Max");
    out.hr(72);
    let t = &report.totals;
    outln!(
        out,
        "{:<42} {:>12} {:>12}",
        "Overall live data (B)",
        t.total_live,
        t.max_live
    );
    outln!(
        out,
        "{:<42} {:>12} {:>12}",
        "Collection live data (B)",
        t.total.live,
        t.max.live
    );
    outln!(
        out,
        "{:<42} {:>12} {:>12}",
        "Collection used data (B)",
        t.total.used,
        t.max.used
    );
    outln!(
        out,
        "{:<42} {:>12} {:>12}",
        "Collection core data (B)",
        t.total.core,
        t.max.core
    );
    outln!(
        out,
        "{:<42} {:>12} {:>12}",
        "Collection object number",
        t.total.count,
        t.max.count
    );
    out.hr(72);

    outln!(out, "\nPer-context aggregation (top 4 by potential):");
    out.hr(96);
    outln!(
        out,
        "{:<44} {:>6} {:>9} {:>9} {:>9} {:>8}",
        "context",
        "insts",
        "#allOps",
        "avgMaxSz",
        "stdMaxSz",
        "pot(B)"
    );
    out.hr(96);
    for c in report.top(4) {
        outln!(
            out,
            "{:<44} {:>6} {:>9} {:>9.2} {:>9.2} {:>8}",
            truncate(&c.label, 44),
            c.trace.instances,
            c.trace.all_ops_total(),
            c.trace.max_size_avg(),
            c.trace.max_size_std(),
            c.potential_bytes,
        );
    }
    out.hr(96);

    outln!(
        out,
        "\nOperation-count averages and deviations for the top context:"
    );
    let top = &report.contexts[0];
    for (op, _) in top.trace.op_distribution() {
        outln!(
            out,
            "  #{:<22} avg {:>8.2}  std {:>8.2}",
            op,
            top.trace.op_avg(op),
            top.trace.op_std(op)
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
