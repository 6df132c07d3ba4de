//! Ablation — object-layout sensitivity: 32-bit vs 64-bit JVM model.
//!
//! The paper's byte arithmetic (§2.3's 24-byte hash entry) assumes a
//! 32-bit JVM. On a 64-bit layout (16-byte headers, 8-byte references)
//! every per-entry overhead doubles, so Chameleon's replacements should
//! save *more*, not less — the bloat problem worsens with pointer width.
//! This sweep re-runs the minimal-heap experiment for TVLA and FindBugs
//! under both layouts.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_bench::pct;
use chameleon_core::{run_experiment, EnvConfig, Workload};
use chameleon_heap::MemoryModel;
use chameleon_rules::RuleEngine;
use chameleon_workloads::{Findbugs, Tvla};

fn main() {
    let out = Out::new("ablation_layout64");
    let engine = RuleEngine::builtin();
    outln!(
        out,
        "Ablation — layout sensitivity (paper model: 32-bit JVM)"
    );
    out.hr(84);
    outln!(
        out,
        "{:<10} {:<8} {:>12} {:>12} {:>12}",
        "benchmark",
        "layout",
        "before(B)",
        "after(B)",
        "improvement"
    );
    out.hr(84);
    let workloads: Vec<Box<dyn Workload>> =
        vec![Box::new(Tvla::default()), Box::new(Findbugs::default())];
    for w in &workloads {
        for (name, model) in [
            ("jvm32", MemoryModel::jvm32()),
            ("jvm64", MemoryModel::jvm64()),
        ] {
            let cfg = EnvConfig {
                model,
                ..EnvConfig::default()
            };
            let result = run_experiment(w.as_ref(), &engine, &cfg, None);
            outln!(
                out,
                "{:<10} {:<8} {:>12} {:>12} {:>12}",
                result.name,
                name,
                result.min_heap_before,
                result.min_heap_after,
                pct(result.space_improvement().pct()),
            );
        }
    }
    out.hr(84);
    outln!(
        out,
        "(note: the minimal-heap searches re-run under the profiling layout, so the"
    );
    outln!(
        out,
        " 64-bit rows measure an end-to-end 64-bit pipeline, not a unit conversion)"
    );
}
