//! Ablation — allocation-context sampling (§4.2).
//!
//! "To further mitigate the cost of obtaining the allocation context,
//! CHAMELEON can employ sampling of the allocation contexts." This ablation
//! sweeps the sampling period on the allocation-heavy bloat workload and
//! reports the overhead/coverage trade: capture cost shrinks linearly while
//! the top contexts remain discoverable well past 1-in-10 sampling.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_collections::factory::{CaptureConfig, CaptureMethod};
use chameleon_core::{Chameleon, Env, EnvConfig};
use chameleon_workloads::Bloat;

fn main() {
    let out = Out::new("ablation_sampling");
    let w = Bloat::default();

    // Uninstrumented baseline time.
    let base_env = Env::new(&EnvConfig {
        capture: CaptureConfig {
            method: CaptureMethod::None,
            ..CaptureConfig::default()
        },
        profiling: false,
        ..EnvConfig::default()
    });
    base_env.run(&w);
    let baseline = base_env.metrics().sim_time;

    outln!(
        out,
        "Ablation — context-capture sampling (bloat, Throwable capture)"
    );
    out.hr(86);
    outln!(
        out,
        "{:<12} {:>10} {:>12} {:>10} {:>14} {:>14}",
        "sample 1/N",
        "captures",
        "overhead",
        "contexts",
        "suggestions",
        "top-site found"
    );
    out.hr(86);
    for period in [1u32, 2, 10, 50, 200] {
        let cfg = EnvConfig {
            capture: CaptureConfig {
                method: CaptureMethod::Throwable,
                sample_every: period,
                ..CaptureConfig::default()
            },
            ..EnvConfig::default()
        };
        let chameleon = Chameleon::new().with_profile_config(cfg.clone());
        let env = Env::new(&cfg);
        env.run(&w);
        let report = env.report();
        let time = env.metrics().sim_time;
        let suggestions = chameleon.engine().evaluate(&report);
        let found_top = suggestions
            .iter()
            .any(|s| s.label.contains("bloat.cfg.Block"));
        outln!(
            out,
            "{:<12} {:>10} {:>11.1}% {:>10} {:>14} {:>14}",
            format!("1/{period}"),
            env.metrics().capture_count,
            100.0 * (time as f64 - baseline as f64) / baseline as f64,
            report.contexts.len(),
            suggestions.len(),
            found_top,
        );
    }
    out.hr(86);
    outln!(
        out,
        "paper: sampling trades profiling overhead for attribution coverage"
    );
}
