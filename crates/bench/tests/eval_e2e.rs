//! End-to-end exercises of the eval fleet: run, report, golden gating,
//! and config-hash changes — all against temp directories so the repo's
//! real `results/` and goldens stay untouched.

use chameleon_bench::eval::{gate, report, run_matrix, run_with, write_golden, EvalSpec};
use chameleon_telemetry::json::{self, Value};
use std::collections::BTreeMap;
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

/// File names in `dir`, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("results dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn run_and_gate_roundtrip() {
    let root = temp_dir("roundtrip");
    let dir = root.join("results");
    assert_eq!(run_matrix(&tiny_spec(), &dir).expect("run"), 4);
    assert_eq!(
        files(&dir),
        ["summary.json"],
        "a run writes one results file"
    );

    let md = report(&dir).expect("report");
    assert!(md.contains("4 cell(s)"), "{md}");
    assert_eq!(files(&dir), ["report.md", "summary.json"]);

    let err = gate(&dir, &root.join("no-such-golden.json")).expect_err("missing golden");
    assert!(err.contains("cannot read golden"), "{err}");

    // A golden distilled from the run gates cleanly against it...
    let golden = root.join("golden.json");
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

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn result_modes_refuse_axis_options() {
    // `--gate`, `--report` and `--write-golden` read a finished run, so a
    // matrix axis given with them would be silently ignored.
    let root = temp_dir("modes");
    let dir = root.join("results");
    run_matrix(&tiny_spec(), &dir).expect("run");
    let golden = root.join("golden.json");
    write_golden(&dir, &golden).expect("golden");
    let (out, golden) = (dir.display().to_string(), golden.display().to_string());
    for (mode, value) in [
        ("gate", "true"),
        ("report", "true"),
        ("write-golden", golden.as_str()),
    ] {
        let mut opts: BTreeMap<String, String> = [("out", &out), ("golden", &golden)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.clone()))
            .collect();
        opts.insert(mode.to_owned(), value.to_owned());
        run_with(&opts).unwrap_or_else(|e| panic!("--{mode}: {e}"));
        opts.insert("workloads".to_owned(), "nosuch".to_owned());
        let err = run_with(&opts).expect_err(mode);
        assert_eq!(
            err,
            format!("option --workloads does not apply to --{mode}")
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn summary_ids(dir: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(dir.join("summary.json")).expect("summary");
    let doc = json::parse(&src).expect("summary parses");
    let cells = doc.get("cells").and_then(Value::as_arr).expect("cells");
    cells
        .iter()
        .map(|c| c.get("id").and_then(Value::as_str).expect("id").to_owned())
        .collect()
}

#[test]
fn config_change_fails_the_gate_until_the_golden_is_regenerated() {
    // Editing a ruleset file in place keeps every cell id but changes the
    // source text the config hash covers, so the gate refuses to compare
    // the new rows with the old golden.
    let root = temp_dir("config_change");
    let dir = root.join("results");
    std::fs::create_dir_all(&root).expect("temp dir");
    let rules = root.join("policy.rules");
    let write_rules = |bound: u32| {
        let src = format!("HashMap : maxSize < {bound} -> ArrayMap \"Space: small\";");
        std::fs::write(&rules, src).expect("write ruleset");
    };
    write_rules(8);
    let mut spec = tiny_spec();
    spec.rulesets = vec![rules.display().to_string()];
    run_matrix(&spec, &dir).expect("seed run");
    let ids = summary_ids(&dir);
    let golden = root.join("golden.json");
    write_golden(&dir, &golden).expect("golden");

    write_rules(16);
    run_matrix(&spec, &dir).expect("rerun");
    assert_eq!(summary_ids(&dir), ids, "cell ids survive the edit");
    let err = gate(&dir, &golden).expect_err("changed config must fail the gate");
    assert_eq!(err.matches("config hash changed").count(), 4, "{err}");
    assert!(err.contains("regenerate the golden"), "{err}");

    write_golden(&dir, &golden).expect("regenerated golden");
    gate(&dir, &golden).expect("regenerated golden gates cleanly");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checked_in_ci_golden_matches_a_fresh_run() {
    // The golden under crates/bench/goldens/ pins the same matrix
    // `tiny_spec` describes; plain `cargo test` catches drift before CI
    // does. The simulation is deterministic, so debug and release runs
    // must both match the (release-generated) golden exactly.
    let dir = temp_dir("ci_golden");
    run_matrix(&tiny_spec(), &dir).expect("run");
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
    run_matrix(&spec, &dir).expect("run");
    let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary");
    let doc = json::parse(&summary).expect("parses");
    let inv = doc.get("telemetry_invariant").expect("invariant section");
    assert_eq!(inv.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(inv.get("checked_pairs").and_then(Value::as_u64), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}
