//! Table 2 — the built-in Chameleon selection rules, and which of them
//! fire on each of the six benchmarks.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::Chameleon;
use chameleon_rules::RuleEngine;
use chameleon_workloads::paper_benchmarks;
use std::collections::BTreeMap;

fn main() {
    let out = Out::new("table2_rules");
    let engine = RuleEngine::builtin();
    outln!(out, "Table 2 — built-in selection rules (priority order)");
    out.hr(100);
    for (i, rule) in engine.rules().iter().enumerate() {
        outln!(out, "{:>2}. [{}] {}", i + 1, rule.category(), rule);
    }
    out.hr(100);

    outln!(out, "\nRule firings per benchmark:");
    let chameleon = Chameleon::new();
    for w in paper_benchmarks() {
        let report = chameleon.profile(w.as_ref());
        let suggestions = chameleon.engine().evaluate(&report);
        let mut by_action: BTreeMap<String, usize> = BTreeMap::new();
        for s in &suggestions {
            *by_action.entry(s.action.to_string()).or_insert(0) += 1;
        }
        outln!(
            out,
            "\n  {} — {} suggestion(s):",
            w.name(),
            suggestions.len()
        );
        for (action, n) in by_action {
            outln!(out, "    {n:>3} × -> {action}");
        }
    }
}
