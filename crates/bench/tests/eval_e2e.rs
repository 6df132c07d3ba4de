//! End-to-end exercises of the eval fleet: run, kill-and-resume,
//! config-hash invalidation, and golden gating — all against temp
//! directories so the repo's real `results/` and goldens stay untouched.

use chameleon_bench::eval::{gate, run_matrix, write_golden, EvalSpec, RunOptions};
use chameleon_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};

fn tiny_spec() -> EvalSpec {
    EvalSpec {
        workloads: vec!["synthetic".to_owned()],
        rulesets: vec!["builtin".to_owned()],
        heaps: vec!["default".to_owned(), "small-gc".to_owned()],
        threads: vec![1, 2],
        telemetry: vec![false],
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chameleon_eval_e2e_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(spec: EvalSpec, dir: &Path) -> RunOptions {
    RunOptions {
        spec,
        dir: dir.to_path_buf(),
        jobs: 2,
        max_cells: None,
        fresh: false,
    }
}

#[test]
fn run_resume_and_gate_roundtrip() {
    let dir = temp_dir("roundtrip");
    let outcome = run_matrix(&opts(tiny_spec(), &dir)).expect("first run");
    assert_eq!(
        (outcome.computed, outcome.skipped, outcome.total),
        (4, 0, 4)
    );
    for f in ["manifest.json", "cells.jsonl", "summary.json"] {
        assert!(dir.join(f).exists(), "{f} must exist");
    }

    // A second run resumes every cell from the rows on disk.
    let outcome = run_matrix(&opts(tiny_spec(), &dir)).expect("resume run");
    assert_eq!(
        (outcome.computed, outcome.skipped, outcome.total),
        (0, 4, 4)
    );

    // `--fresh` recomputes everything.
    let mut fresh = opts(tiny_spec(), &dir);
    fresh.fresh = true;
    let outcome = run_matrix(&fresh).expect("fresh run");
    assert_eq!((outcome.computed, outcome.skipped), (4, 0));

    // A golden distilled from the run gates cleanly against it...
    let golden = dir.join("golden.json");
    let n = write_golden(&dir, &golden).expect("golden");
    assert_eq!(n, 4);
    let msg = gate(&dir, &golden).expect("gate passes");
    assert!(msg.contains("4 cell(s) match"), "{msg}");

    // ...and fails loudly once a pinned number is perturbed.
    let src = std::fs::read_to_string(&golden).expect("read golden");
    let mut doc = json::parse(&src).expect("golden parses");
    if let Value::Obj(o) = &mut doc {
        if let Some(Value::Arr(cells)) = o.get_mut("cells") {
            if let Some(Value::Obj(cell)) = cells.first_mut() {
                let ratio = cell
                    .get("cost_ratio")
                    .and_then(Value::as_f64)
                    .expect("golden pins cost_ratio");
                cell.insert("cost_ratio".to_owned(), Value::Num(ratio * 1.5));
            }
        }
    }
    std::fs::write(&golden, json::render(&doc)).expect("write tampered golden");
    let err = gate(&dir, &golden).expect_err("tampered golden must fail");
    assert!(err.contains("cost_ratio drifted"), "{err}");
    assert!(err.contains("gate FAILED"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_cells_kill_then_resume_completes_without_recomputation() {
    let dir = temp_dir("kill_resume");
    let mut killed = opts(tiny_spec(), &dir);
    killed.jobs = 1;
    killed.max_cells = Some(1);
    let err = run_matrix(&killed).expect_err("truncated run exits nonzero");
    assert!(err.contains("--max-cells"), "{err}");
    let rows = std::fs::read_to_string(dir.join("cells.jsonl")).expect("rows");
    assert_eq!(rows.lines().count(), 1, "exactly one completed cell");

    // The follow-up run picks up the surviving row and only computes the
    // remaining three cells.
    let outcome = run_matrix(&opts(tiny_spec(), &dir)).expect("resume");
    assert_eq!(
        (outcome.computed, outcome.skipped, outcome.total),
        (3, 1, 4)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn manifest_ids(dir: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let doc = json::parse(&src).expect("manifest parses");
    let cells = doc.get("cells").and_then(Value::as_arr).expect("cells");
    cells
        .iter()
        .map(|c| c.get("id").and_then(Value::as_str).expect("id").to_owned())
        .collect()
}

#[test]
fn config_change_invalidates_stale_rows() {
    // Editing a ruleset file in place keeps every cell id but changes the
    // source text the config hash covers, so nothing on disk is eligible
    // for resume.
    let dir = temp_dir("invalidate");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rules = dir.join("policy.rules");
    let write_rules = |bound: u32| {
        let src = format!("HashMap : maxSize < {bound} -> ArrayMap \"Space: small\";");
        std::fs::write(&rules, src).expect("write ruleset");
    };
    write_rules(8);
    let mut spec = tiny_spec();
    spec.rulesets = vec![rules.display().to_string()];
    run_matrix(&opts(spec.clone(), &dir)).expect("seed run");
    let ids = manifest_ids(&dir);

    write_rules(16);
    let outcome = run_matrix(&opts(spec, &dir)).expect("recompute");
    assert_eq!((outcome.computed, outcome.skipped), (4, 0));
    assert_eq!(manifest_ids(&dir), ids, "cell ids survive the edit");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checked_in_ci_golden_matches_a_fresh_run() {
    // The golden under crates/bench/goldens/ pins the same matrix
    // `tiny_spec` describes; plain `cargo test` catches drift before CI
    // does. The simulation is deterministic, so debug and release runs
    // must both match the (release-generated) golden exactly.
    let dir = temp_dir("ci_golden");
    run_matrix(&opts(tiny_spec(), &dir)).expect("run");
    let golden = chameleon_bench::eval::workspace_path("crates/bench/goldens/ci-mini.json");
    let msg = gate(&dir, &golden).expect("checked-in golden matches");
    assert!(msg.contains("4 cell(s) match"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summary_cross_checks_telemetry_invariance() {
    // Telemetry on/off cells must agree on simulated results; the summary
    // records the cross-check it performed.
    let dir = temp_dir("invariance");
    let mut spec = tiny_spec();
    spec.heaps = vec!["default".to_owned()];
    spec.threads = vec![1];
    spec.telemetry = vec![false, true];
    run_matrix(&opts(spec, &dir)).expect("run");
    let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary");
    let doc = json::parse(&summary).expect("parses");
    let inv = doc.get("telemetry_invariant").expect("invariant section");
    assert_eq!(inv.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(inv.get("checked_pairs").and_then(Value::as_u64), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}
