//! # Experiment-matrix evaluation fleet
//!
//! One rig that observes the whole system across configurations: a
//! declarative matrix spec (workloads × rulesets × heap presets × threads
//! × telemetry) expands into cells, each cell runs the quick profile →
//! suggest → apply → re-run experiment, and a results directory
//! accumulates a `manifest.json`, one JSONL row per completed cell, and a
//! machine-validated `summary.json`. Killed runs resume from the rows on
//! disk (config-hash checked); `--gate` diffs against checked-in goldens;
//! `--report` folds a results directory into markdown.
//!
//! Cells carry simulated results only. What the tool costs in wall-clock
//! time is measured by the end-to-end benchmark under `benchmark/`.
//!
//! Both entry points — the `eval_matrix` binary and `chameleon eval` —
//! funnel into [`run_with`] with a flat string-keyed option map.

pub mod gate;
pub mod report;
pub mod run;
pub mod spec;

pub use gate::{gate, write_golden, DEFAULT_TOLERANCE_PCT};
pub use report::report;
pub use run::{run_matrix, RunOptions, RunOutcome, ROW_KEYS};
pub use spec::{heap_preset, resolve_ruleset, Cell, EvalSpec, HEAP_PRESETS, SCHEMA};

use crate::out::out_dir;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Value-carrying option keys [`run_with`] understands, shared by both
/// front ends so the CLI and the binary cannot drift apart.
pub const VALUE_KEYS: [&str; 11] = [
    "spec",
    "workloads",
    "rulesets",
    "heaps",
    "threads",
    "telemetry-axis",
    "out",
    "jobs",
    "max-cells",
    "golden",
    "write-golden",
];

/// Boolean option keys (present = true).
pub const FLAG_KEYS: [&str; 3] = ["gate", "report", "fresh"];

/// Default golden the gate compares against when `--golden` is not given.
pub const DEFAULT_GOLDEN: &str = "crates/bench/goldens/default.json";

/// Runs one eval invocation from a flat option map (value options hold
/// their value; flags hold `"true"`). Returns the text to print on
/// success; errors map to a nonzero exit in both front ends.
pub fn run_with(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let mut spec = match opts.get("spec") {
        Some(path) => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            EvalSpec::parse(&src).map_err(|e| format!("{path}: {e}"))?
        }
        None => EvalSpec::default(),
    };
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
        spec.threads = spec::parse_usize_list(&v, 0)?;
    }
    if let Some(v) = list("telemetry-axis") {
        spec.telemetry = spec::parse_bool_list(&v, 0)?;
    }

    let dir: PathBuf = match opts.get("out") {
        Some(d) => PathBuf::from(d),
        None => out_dir().join("eval"),
    };
    let golden: PathBuf = opts
        .get("golden")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_path(DEFAULT_GOLDEN));

    if opts.contains_key("report") {
        return report(&dir);
    }
    if opts.contains_key("gate") {
        return gate(&dir, &golden);
    }
    if let Some(path) = opts.get("write-golden") {
        let n = write_golden(&dir, &PathBuf::from(path))?;
        return Ok(format!("wrote golden with {n} cell(s) to {path}"));
    }

    let parse_num = |key: &str| -> Result<Option<usize>, String> {
        opts.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} `{v}` is not a number"))
            })
            .transpose()
    };
    let jobs =
        parse_num("jobs")?.unwrap_or_else(|| crate::out::available_parallelism().clamp(1, 4));
    let run_opts = RunOptions {
        spec,
        dir: dir.clone(),
        jobs,
        max_cells: parse_num("max-cells")?,
        fresh: opts.contains_key("fresh"),
    };
    let outcome = run_matrix(&run_opts)?;
    Ok(format!(
        "eval matrix complete: {} cell(s) ({} computed, {} resumed) -> {}",
        outcome.total,
        outcome.computed,
        outcome.skipped,
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
