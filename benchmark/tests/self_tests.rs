//! The benchmark checks itself: the smoke mode end to end, and the
//! reference fingerprints against numbers the repository already pins.

use chameleon_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn expected(workload: &str) -> Value {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("expected/{workload}.json")))
}

fn u(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

fn strings(v: &Value) -> Vec<String> {
    let mut s: Vec<String> = v
        .as_arr()
        .expect("array")
        .iter()
        .map(|x| x.as_str().expect("string").to_owned())
        .collect();
    s.sort();
    s
}

#[test]
fn smoke_mode_checks_every_workload_quickly() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let start = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_chameleon-benchmark"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took < Duration::from_secs(30), "smoke took {took:?}");
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(
        last.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        last.get("attempted").and_then(Value::as_u64),
        Some(8),
        "2 per workload"
    );
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    let file = read_json(&out);
    for w in [
        "profile-pmd",
        "profile-tvla-par",
        "optimize-findbugs",
        "serve-mixed",
    ] {
        let r = file.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        assert_eq!(
            r.get("invariants").and_then(Value::as_str),
            Some("ok"),
            "{w}"
        );
    }
}

/// FindBugs' Fig. 6 and Fig. 7 rows as EXPERIMENTS.md reports them.
fn experiments_findbugs() -> (String, String, String) {
    let text = std::fs::read_to_string(repo().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let rows: Vec<Vec<String>> = text
        .lines()
        .filter(|l| l.starts_with("| findbugs |"))
        .map(|l| l.split('|').map(|c| c.trim().replace('*', "")).collect())
        .collect();
    // Fig. 6: | findbugs | paper | measured | notes |; Fig. 7: | findbugs | paper | measured | GC |
    (rows[0][3].clone(), rows[1][3].clone(), rows[1][4].clone())
}

#[test]
fn optimize_reference_matches_experiments_md() {
    let e = expected("optimize-findbugs");
    let (before, after) = (u(&e, &["min_heap_before"]), u(&e, &["min_heap_after"]));
    let space = 100.0 * (before - after) as f64 / before as f64;
    let (t0, t1) = (
        u(&e, &["time_before", "sim_time"]),
        u(&e, &["time_after", "sim_time"]),
    );
    let time = 100.0 * (t0 as f64 - t1 as f64) / t0 as f64;
    let gcs = format!(
        "{} → {}",
        u(&e, &["time_before", "gc_count"]),
        u(&e, &["time_after", "gc_count"])
    );
    let (fig6, fig7, fig7_gc) = experiments_findbugs();
    assert_eq!(format!("{space:.1}%"), fig6);
    assert_eq!(format!("{time:.1}%"), fig7);
    assert_eq!(gcs, fig7_gc);
}

#[test]
fn tvla_par_reference_matches_the_eval_golden() {
    // The eval matrix's t2 cell profiles tvla on two partitions, exactly
    // the first half of this workload's request.
    let golden = read_json(&repo().join("crates/bench/goldens/default.json"));
    let cell = golden
        .get("cells")
        .and_then(Value::as_arr)
        .expect("cells")
        .iter()
        .find(|c| c.get("id").and_then(Value::as_str) == Some("tvla+builtin+default+t2+teloff"))
        .expect("tvla t2 cell");
    let e = expected("profile-tvla-par");
    assert_eq!(
        u(&e, &["run_metrics", "sim_time"]),
        u(cell, &["sim_time_before"])
    );
    assert_eq!(u(&e, &["run_metrics", "gc_count"]), u(cell, &["gc_before"]));
    assert_eq!(
        strings(e.get("suggestions").expect("suggestions")),
        strings(cell.get("suggestions").expect("suggestions"))
    );
}
