//! # chameleon-bench
//!
//! Harnesses regenerating every table and figure of the Chameleon paper.
//! Each `src/bin/*` binary prints one table/figure; `benches/` holds the
//! Criterion micro-benchmarks validating the cost-model orderings on real
//! hardware. See EXPERIMENTS.md at the workspace root for the index.

#![forbid(unsafe_code)]

pub mod eval;
pub mod out;

use chameleon_core::{ExperimentResult, Workload};
use chameleon_rules::RuleEngine;

/// Paper-reported numbers for the six benchmarks, for side-by-side output.
#[derive(Debug, Clone, Copy)]
pub struct PaperNumbers {
    /// Benchmark name.
    pub name: &'static str,
    /// Fig. 6: minimal-heap improvement, % of the original.
    pub min_heap_pct: f64,
    /// Fig. 7: running-time improvement, % of the original (`None` where
    /// the paper's text gives no number, only the figure).
    pub time_pct: Option<f64>,
}

/// Fig. 6/Fig. 7 values as reported in §5.3 (time numbers stated in the
/// text: TVLA 49->19 min ~ 61%, SOOT 11%, PMD 8.33%).
pub const PAPER: [PaperNumbers; 6] = [
    PaperNumbers {
        name: "bloat",
        min_heap_pct: 56.0,
        time_pct: None,
    },
    PaperNumbers {
        name: "fop",
        min_heap_pct: 7.69,
        time_pct: None,
    },
    PaperNumbers {
        name: "findbugs",
        min_heap_pct: 13.79,
        time_pct: None,
    },
    PaperNumbers {
        name: "pmd",
        min_heap_pct: 0.0,
        time_pct: Some(8.33),
    },
    PaperNumbers {
        name: "soot",
        min_heap_pct: 6.0,
        time_pct: Some(11.0),
    },
    PaperNumbers {
        name: "tvla",
        min_heap_pct: 50.0,
        time_pct: Some(61.0),
    },
];

/// Looks up the paper's numbers for a benchmark.
pub fn paper_numbers(name: &str) -> Option<PaperNumbers> {
    PAPER.iter().copied().find(|p| p.name == name)
}

/// Runs the full §5.2 experiment for one workload with the builtin rules.
pub fn run_paper_experiment(workload: &dyn Workload) -> ExperimentResult {
    let engine = RuleEngine::builtin();
    chameleon_core::run_experiment(
        workload,
        &engine,
        &chameleon_core::EnvConfig::default(),
        None,
    )
}

/// Formats a percentage column.
pub fn pct(x: f64) -> String {
    format!("{x:6.2}%")
}

/// Prints a horizontal rule sized to `width`.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}
