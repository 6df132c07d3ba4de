//! # Experiment-matrix evaluation fleet
//!
//! One rig that observes the whole system across configurations: five
//! axes (workloads × rulesets × heap presets × threads × telemetry)
//! expand into cells, each cell runs the quick profile → suggest → apply
//! → re-run experiment, and one sequential pass writes every cell's row
//! into a machine-validated `summary.json`. `--gate` diffs the summary
//! against a checked-in golden; `--report` folds it into markdown.
//!
//! Cells carry simulated results only. What the tool costs in wall-clock
//! time is measured by the end-to-end benchmark under `benchmark/`.
//!
//! The `eval_matrix` binary is the only front end; it hands [`run_with`]
//! a flat string-keyed option map.

pub mod gate;
pub mod report;
pub mod run;
pub mod spec;

pub use gate::{gate, write_golden, DEFAULT_TOLERANCE_PCT};
pub use report::report;
pub use run::{run_matrix, ROW_KEYS};
pub use spec::{heap_preset, resolve_ruleset, Cell, EvalSpec, HEAP_PRESETS, SCHEMA};

use crate::out::out_dir;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Value-carrying option keys [`run_with`] understands.
pub const VALUE_KEYS: [&str; 8] = [
    "workloads",
    "rulesets",
    "heaps",
    "threads",
    "telemetry-axis",
    "out",
    "golden",
    "write-golden",
];

/// The value keys that set a matrix axis.
const AXIS_KEYS: [&str; 5] = [
    "workloads",
    "rulesets",
    "heaps",
    "threads",
    "telemetry-axis",
];

/// Boolean option keys (present = true).
pub const FLAG_KEYS: [&str; 2] = ["gate", "report"];

/// Default golden the gate compares against when `--golden` is not given.
pub const DEFAULT_GOLDEN: &str = "crates/bench/goldens/default.json";

/// Runs one eval invocation from a flat option map (value options hold
/// their value; flags hold `"true"`). Returns the text to print on
/// success; errors map to a nonzero exit.
pub fn run_with(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let dir: PathBuf = match opts.get("out") {
        Some(d) => PathBuf::from(d),
        None => out_dir().join("eval"),
    };

    // `--report`, `--gate` and `--write-golden` read an existing results
    // directory; the matrix axes only shape a run.
    let mode = ["report", "gate", "write-golden"]
        .into_iter()
        .find(|k| opts.contains_key(*k));
    if let Some(mode) = mode {
        if let Some(axis) = AXIS_KEYS.into_iter().find(|k| opts.contains_key(*k)) {
            return Err(format!("option --{axis} does not apply to --{mode}"));
        }
        return match mode {
            "report" => report(&dir),
            "gate" => {
                let golden = opts
                    .get("golden")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| workspace_path(DEFAULT_GOLDEN));
                gate(&dir, &golden)
            }
            _ => {
                let path = &opts["write-golden"];
                let n = write_golden(&dir, &PathBuf::from(path))?;
                Ok(format!("wrote golden with {n} cell(s) to {path}"))
            }
        };
    }

    let mut spec = EvalSpec::default();
    let list = |key: &str| -> Option<Vec<String>> {
        opts.get(key).map(|v| {
            v.split(',')
                .map(|x| x.trim().to_string())
                .filter(|x| !x.is_empty())
                .collect()
        })
    };
    if let Some(v) = list("workloads") {
        spec.workloads = v;
    }
    if let Some(v) = list("rulesets") {
        spec.rulesets = v;
    }
    if let Some(v) = list("heaps") {
        spec.heaps = v;
    }
    if let Some(v) = list("threads") {
        spec.threads = spec::parse_usize_list("threads", &v)?;
    }
    if let Some(v) = list("telemetry-axis") {
        spec.telemetry = spec::parse_bool_list("telemetry-axis", &v)?;
    }
    let cells = run_matrix(&spec, &dir)?;
    Ok(format!(
        "eval matrix complete: {cells} cell(s) -> {}",
        dir.display()
    ))
}

/// Resolves a workspace-relative path whether the process runs from the
/// workspace root (`cargo run`) or the crate directory (`cargo test`).
pub fn workspace_path(rel: &str) -> PathBuf {
    let direct = PathBuf::from(rel);
    if direct.exists() {
        return direct;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}
