//! Ablation — the Definition 3.1 stability gate.
//!
//! "If the tool replaces the type allocated at a given context from a
//! HashMap to an ArrayMap on the premise that objects allocated at that
//! context have small maximal sizes, even a single collection with large
//! size may considerably degrade program performance" (§3.3.2). This
//! ablation runs a bimodal workload (90% tiny maps, 10% enormous ones) with
//! the gate on and off and measures the time consequence of the ungated
//! replacement.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_collections::factory::Selection;
use chameleon_collections::{CollectionFactory, MapChoice};
use chameleon_core::{Env, EnvConfig, PortableChoice, PortableUpdate, Workload};
use chameleon_profiler::StabilityConfig;
use chameleon_rules::RuleEngine;

fn bimodal() -> impl Workload {
    ("bimodal", |f: &CollectionFactory| {
        let _g = f.enter("bimodal.Site:1");
        let mut keep = Vec::new();
        for i in 0..300usize {
            let mut m = f.new_map::<i64, i64>(None);
            let n = if i % 10 == 0 { 600 } else { 2 };
            for k in 0..n {
                m.put(k as i64, k as i64);
            }
            // Read phase proportional to content.
            for k in 0..n {
                let _ = m.get(&(k as i64));
            }
            keep.push(m);
        }
    })
}

fn main() {
    let out = Out::new("ablation_stability");
    let w = bimodal();
    outln!(
        out,
        "Ablation — stability gate on a bimodal context (90% size-2, 10% size-600)"
    );
    out.hr(70);

    // Profile once.
    let env = Env::new(&EnvConfig::default());
    env.run(&w);
    let report = env.report();
    let ctx = &report.contexts[0];
    outln!(
        out,
        "context {}: avg maxSize {:.1}, std {:.1} -> stable? {}",
        ctx.label,
        ctx.trace.max_size_avg(),
        ctx.trace.max_size_std(),
        StabilityConfig::default().size_stable(&ctx.trace)
    );

    // Gated engine (default): what does it suggest?
    let gated = RuleEngine::builtin();
    let gated_suggestions = gated.evaluate(&report);
    outln!(
        out,
        "\nwith stability gate ({} suggestion(s)):",
        gated_suggestions.len()
    );
    for s in &gated_suggestions {
        outln!(out, "  {s}");
    }

    // Ungated engine: effectively disable the gate.
    let mut ungated = RuleEngine::builtin();
    ungated.set_stability(StabilityConfig {
        size_abs_threshold: f64::INFINITY,
        size_rel_threshold: 0.0,
        op_rel_threshold: None,
    });
    let ungated_suggestions = ungated.evaluate(&report);
    outln!(
        out,
        "\nwithout stability gate ({} suggestion(s)):",
        ungated_suggestions.len()
    );
    for s in &ungated_suggestions {
        outln!(out, "  {s}");
    }

    // Consequence: force the ungated ArrayMap choice and measure time.
    let baseline_env = Env::new(&EnvConfig::measured(16 * 1024 * 1024));
    baseline_env.run(&w);
    let baseline = baseline_env.metrics().sim_time;

    let forced = vec![PortableUpdate {
        src_type: "HashMap".to_owned(),
        frames: vec!["bimodal.Site:1".to_owned()],
        kind: PortableChoice::Map(Selection {
            choice: MapChoice::ArrayMap,
            capacity: None,
        }),
    }];
    let forced_env = Env::new(&EnvConfig::measured(16 * 1024 * 1024));
    forced_env.apply_policy(&forced);
    forced_env.run(&w);
    let degraded = forced_env.metrics().sim_time;

    // The gated choice (SizeAdaptingMap) instead:
    let adaptive = vec![PortableUpdate {
        src_type: "HashMap".to_owned(),
        frames: vec!["bimodal.Site:1".to_owned()],
        kind: PortableChoice::Map(Selection {
            choice: MapChoice::SizeAdapting(16),
            capacity: None,
        }),
    }];
    let adaptive_env = Env::new(&EnvConfig::measured(16 * 1024 * 1024));
    adaptive_env.apply_policy(&adaptive);
    adaptive_env.run(&w);
    let adapted = adaptive_env.metrics().sim_time;

    out.hr(70);
    outln!(out, "time, HashMap baseline:        {baseline:>12} units");
    outln!(
        out,
        "time, ungated ArrayMap:        {degraded:>12} units ({:+.1}%)",
        100.0 * (degraded as f64 - baseline as f64) / baseline as f64
    );
    outln!(
        out,
        "time, gated SizeAdaptingMap:   {adapted:>12} units ({:+.1}%)",
        100.0 * (adapted as f64 - baseline as f64) / baseline as f64
    );
}
