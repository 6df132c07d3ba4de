//! # chameleon-workloads
//!
//! Workload simulacra reproducing the collection-usage signatures of the
//! paper's benchmarks (§5.3): [`Tvla`] (small stable HashMaps from seven
//! contexts), [`Bloat`] (a spike of empty LinkedLists), [`Fop`] (modest
//! collection share, one dead context), [`Findbugs`] (small maps/sets,
//! mostly-empty maps), [`Pmd`] (massive short-lived oversized ArrayLists
//! over stable long-lived sets) and [`Soot`] (low-utilization IR lists,
//! singletons, `useBoxes` temporaries) — plus a parameterized
//! [`Synthetic`] generator for ablations.
//!
//! Every workload is deterministic and allocates all collections through
//! the [`CollectionFactory`](chameleon_collections::CollectionFactory), so
//! the full Chameleon pipeline (profile → rules → apply → re-run) can be
//! driven end to end.

#![forbid(unsafe_code)]

pub mod bloat;
pub mod findbugs;
pub mod fop;
pub mod phaseshift;
pub mod pmd;
pub mod soot;
pub mod synthetic;
pub mod tvla;
pub mod util;

pub use bloat::Bloat;
pub use findbugs::Findbugs;
pub use fop::Fop;
pub use phaseshift::PhaseShift;
pub use pmd::Pmd;
pub use soot::Soot;
pub use synthetic::{SizeDist, Synthetic, SyntheticSite};
pub use tvla::Tvla;

use chameleon_core::Workload;

/// The six paper benchmarks at their default scales, in the order the
/// paper's figures list them.
pub fn paper_benchmarks() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Bloat::default()),
        Box::new(Fop::default()),
        Box::new(Findbugs::default()),
        Box::new(Pmd::default()),
        Box::new(Soot::default()),
        Box::new(Tvla::default()),
    ]
}

/// Every name [`by_name`] accepts, in presentation order. The CLI and the
/// evaluation matrix both enumerate workloads through this registry so a
/// new workload added here is immediately addressable everywhere.
pub const NAMES: [&str; 8] = [
    "synthetic",
    "bloat",
    "fop",
    "findbugs",
    "pmd",
    "soot",
    "tvla",
    "phase-shift",
];

/// Builds a workload by registry name (`"synthetic"` is the small-maps
/// ablation generator at its CLI-default scale). Returns `None` for
/// unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "synthetic" => Some(Box::new(Synthetic::small_maps(5))),
        "bloat" => Some(Box::new(Bloat::default())),
        "fop" => Some(Box::new(Fop::default())),
        "findbugs" => Some(Box::new(Findbugs::default())),
        "pmd" => Some(Box::new(Pmd::default())),
        "soot" => Some(Box::new(Soot::default())),
        "tvla" => Some(Box::new(Tvla::default())),
        "phase-shift" => Some(Box::new(PhaseShift::default())),
        _ => None,
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        for name in NAMES {
            let w = by_name(name).expect("registered name must build");
            assert_eq!(w.name(), name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn partitionable_workloads_declare_plans() {
        // The eval matrix validates threads > 1 against this: exactly the
        // workloads with partition plans accept parallel cells.
        let partitionable: Vec<&str> = NAMES
            .iter()
            .copied()
            .filter(|n| by_name(n).unwrap().partitions(2).is_some())
            .collect();
        assert_eq!(partitionable, ["synthetic", "tvla"]);
    }
}
