//! Fig. 3 — Combined results for the top allocation contexts in TVLA:
//! per-context space-saving potential and operation distribution. The
//! paper's top contexts are dominated by `get` operations, with one context
//! also showing a small portion of `add` and `remove`; it also prints the
//! paper's succinct suggestion messages for the top contexts.

#![forbid(unsafe_code)]

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_core::{Chameleon, EnvConfig};
use chameleon_workloads::Tvla;

fn main() {
    let out = Out::new("fig3_top_contexts");
    let chameleon = Chameleon::new().with_profile_config(EnvConfig::default());
    let report = chameleon.profile(&Tvla::default());

    outln!(
        out,
        "Fig. 3 — TVLA: top allocation contexts (potential + operation mix)"
    );
    out.hr(100);
    out.write(&report.format_top_contexts(4));
    out.hr(100);

    outln!(out, "\nSuggestions (paper §2.1 message style):");
    let suggestions = chameleon.engine().evaluate(&report);
    for (i, s) in suggestions.iter().take(6).enumerate() {
        outln!(out, "{}: {}", i + 1, s);
    }
}
