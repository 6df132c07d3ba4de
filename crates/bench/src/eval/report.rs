//! Analysis pass: fold a results directory into a human-readable markdown
//! table (`report.md`, also returned for stdout).

use chameleon_telemetry::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;

/// Builds the report from `summary.json`, writes `report.md` into the
/// results directory, and returns the markdown for printing.
pub fn report(dir: &Path) -> Result<String, String> {
    let path = dir.join("summary.json");
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {} (run the matrix first): {e}", path.display()))?;
    let summary =
        json::parse(&src).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let cells = summary
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("summary missing cells")?;

    let f = |c: &Value, k: &str| c.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let s = |c: &Value, k: &str| c.get(k).and_then(Value::as_str).unwrap_or("?").to_string();

    let mut md = String::new();
    let _ = writeln!(md, "# Evaluation matrix — {} cell(s)", cells.len());
    let _ = writeln!(md);
    if let Some(host) = summary.get("host") {
        let cores = host
            .get("available_parallelism")
            .and_then(Value::as_u64)
            .unwrap_or(1);
        let _ = writeln!(
            md,
            "Host: {} core(s), {}-{}",
            cores,
            host.get("os").and_then(Value::as_str).unwrap_or("?"),
            host.get("arch").and_then(Value::as_str).unwrap_or("?"),
        );
    }
    if let Some(inv) = summary.get("telemetry_invariant") {
        let _ = writeln!(
            md,
            "Telemetry invariance: {} ({} pair(s) checked)",
            if inv.get("ok").and_then(Value::as_bool) == Some(true) {
                "OK"
            } else {
                "VIOLATED"
            },
            inv.get("checked_pairs")
                .and_then(Value::as_u64)
                .unwrap_or(0)
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| cell | sugg | applied | cost ratio | sim before | gc | pause p50/p95 |"
    );
    let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|");
    let mut cost_ratios: Vec<f64> = Vec::new();
    for c in cells {
        let sugg = c
            .get("suggestions")
            .and_then(Value::as_arr)
            .map_or(0, |a| a.len());
        let ratio = f(c, "cost_ratio");
        cost_ratios.push(ratio);
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.4} | {} | {}→{} | {:.0}/{:.0} |",
            s(c, "id"),
            sugg,
            f(c, "applied") as u64,
            ratio,
            f(c, "sim_time_before") as u64,
            f(c, "gc_before") as u64,
            f(c, "gc_after") as u64,
            f(c, "pause_p50"),
            f(c, "pause_p95"),
        );
    }
    if !cost_ratios.is_empty() {
        let mean = cost_ratios.iter().sum::<f64>() / cost_ratios.len() as f64;
        let best = cost_ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "Mean cost ratio {mean:.4} · best {best:.4} (ratio < 1 means the policy run \
             is cheaper than the baseline)"
        );
    }

    let report_path = dir.join("report.md");
    std::fs::write(&report_path, &md)
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

    Ok(md)
}
