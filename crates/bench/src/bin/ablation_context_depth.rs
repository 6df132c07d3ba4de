//! Ablation — partial allocation-context depth (§3.2.1).
//!
//! The paper uses call stacks of depth 2 or 3 because "the full allocation
//! context is rarely needed, and maintaining it is often too expensive",
//! yet depth 1 (allocation site only) cannot see through collection
//! factories. TVLA allocates all its HashMaps through `HashMapFactory`, so
//! at depth 1 all seven logical contexts collapse into one — and its merged
//! statistics blur the per-site size profile.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_collections::factory::CaptureConfig;
use chameleon_core::{Chameleon, EnvConfig};
use chameleon_workloads::Tvla;

fn main() {
    let out = Out::new("ablation_context_depth");
    outln!(
        out,
        "Ablation — context depth vs suggestion quality (TVLA, factory-heavy)"
    );
    out.hr(78);
    outln!(
        out,
        "{:<7} {:>14} {:>14} {:>16} {:>14}",
        "depth",
        "map contexts",
        "suggestions",
        "auto-applicable",
        "captures"
    );
    out.hr(78);
    for depth in [1usize, 2, 3, 4] {
        let cfg = EnvConfig {
            capture: CaptureConfig {
                depth,
                ..CaptureConfig::default()
            },
            ..EnvConfig::default()
        };
        let chameleon = Chameleon::new().with_profile_config(cfg);
        let report = chameleon.profile(&Tvla::default());
        let map_contexts = report
            .contexts
            .iter()
            .filter(|c| c.src_type == "HashMap")
            .count();
        let suggestions = chameleon.engine().evaluate(&report);
        let applicable = suggestions.iter().filter(|s| s.auto_applicable()).count();
        outln!(
            out,
            "{:<7} {:>14} {:>14} {:>16} {:>14}",
            depth,
            map_contexts,
            suggestions.len(),
            applicable,
            report.contexts.len(),
        );
    }
    out.hr(78);
    outln!(
        out,
        "paper: depth 1 cannot disambiguate factory allocations; 2-3 suffices"
    );
}
