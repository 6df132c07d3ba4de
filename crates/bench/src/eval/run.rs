//! Matrix execution: one sequential pass over the cells and the
//! machine-validated summary.
//!
//! Each cell runs a [`chameleon_core::run_quick_experiment`]: one profiled
//! baseline run and one policy re-run under the same configuration. Cells
//! run in declaration order, the first failing cell ends the run, and
//! `summary.json` is written once, after every cell has its row.

use super::spec::{heap_preset, resolve_ruleset, Cell, EvalSpec, SCHEMA};
use crate::out::host_meta;
use chameleon_core::{run_quick_experiment, EnvConfig, ParallelConfig};
use chameleon_rules::RuleEngine;
use chameleon_telemetry::json::{self, Value};
use chameleon_telemetry::metrics::Histogram;
use chameleon_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::Path;

/// Keys every `summary.json` cell must carry; the summary is reread and
/// checked against this list after each run.
pub const ROW_KEYS: [&str; 18] = [
    "id",
    "hash",
    "workload",
    "ruleset",
    "heap",
    "threads",
    "telemetry",
    "suggestions",
    "applied",
    "cost_ratio",
    "sim_time_before",
    "sim_time_after",
    "gc_before",
    "gc_after",
    "alloc_before",
    "alloc_after",
    "pause_p50",
    "pause_p95",
];

/// Pause-histogram bucket bounds: powers of two up to 1 Mi simulated
/// units, giving `Histogram::quantile` interpolation room at every scale
/// the GC produces.
fn pause_bounds() -> Vec<u64> {
    (0..=20).map(|i| 1u64 << i).collect()
}

/// Runs every cell of `spec` and writes the machine-validated
/// `summary.json` into `dir`. Returns the number of cells.
pub fn run_matrix(spec: &EvalSpec, dir: &Path) -> Result<usize, String> {
    spec.validate()?;
    let mut ruleset_src: BTreeMap<&str, Option<String>> = BTreeMap::new();
    for r in &spec.rulesets {
        ruleset_src.insert(r, resolve_ruleset(r)?);
    }
    let mut rows = spec
        .cells()
        .iter()
        .map(|cell| {
            run_cell(cell, ruleset_src[cell.ruleset.as_str()].as_deref())
                .map_err(|e| format!("cell {}: {e}", cell.id()))
        })
        .collect::<Result<Vec<Value>, String>>()?;
    rows.sort_by_key(|r| {
        r.get("id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    });
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    write_summary(dir, &rows)?;
    Ok(rows.len())
}

/// Runs one cell and renders its row.
fn run_cell(cell: &Cell, ruleset_src: Option<&str>) -> Result<Value, String> {
    let engine = match ruleset_src {
        None => RuleEngine::builtin(),
        Some(src) => {
            let mut e = RuleEngine::new();
            e.add_rules(src).map_err(|e| e.render())?;
            e
        }
    };
    let (gc_interval_bytes, heap_capacity) =
        heap_preset(&cell.heap).ok_or_else(|| format!("unknown heap preset {}", cell.heap))?;
    let workload = chameleon_workloads::by_name(&cell.workload)
        .ok_or_else(|| format!("unknown workload {}", cell.workload))?;
    let parallel = (cell.threads > 1).then_some(ParallelConfig {
        partitions: cell.threads,
        threads: cell.threads,
    });

    let config = EnvConfig {
        gc_interval_bytes,
        heap_capacity,
        telemetry: cell.telemetry.then(Telemetry::new),
        ..EnvConfig::default()
    };
    let quick = run_quick_experiment(workload.as_ref(), &engine, &config, parallel)
        .map_err(|e| e.to_string())?;

    let mut suggestions: Vec<String> = quick.suggestions.iter().map(|s| s.to_string()).collect();
    suggestions.sort();
    let bounds = pause_bounds();
    let pauses = Histogram::new(&bounds);
    for &p in &quick.pause_units_before {
        pauses.record(p);
    }

    let mut row = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        row.insert(k.to_string(), v);
    };
    put("id", Value::Str(cell.id()));
    put(
        "hash",
        Value::Str(cell.config_hash(ruleset_src.unwrap_or("builtin"))),
    );
    put("workload", Value::Str(cell.workload.clone()));
    put("ruleset", Value::Str(cell.ruleset.clone()));
    put("heap", Value::Str(cell.heap.clone()));
    put("threads", Value::Num(cell.threads as f64));
    put("telemetry", Value::Bool(cell.telemetry));
    put(
        "suggestions",
        Value::Arr(suggestions.into_iter().map(Value::Str).collect()),
    );
    put("applied", Value::Num(quick.applied.len() as f64));
    put("cost_ratio", Value::Num(quick.cost_ratio()));
    put("sim_time_before", Value::Num(quick.before.sim_time as f64));
    put("sim_time_after", Value::Num(quick.after.sim_time as f64));
    put("gc_before", Value::Num(quick.before.gc_count as f64));
    put("gc_after", Value::Num(quick.after.gc_count as f64));
    put(
        "alloc_before",
        Value::Num(quick.before.total_allocated_bytes as f64),
    );
    put(
        "alloc_after",
        Value::Num(quick.after.total_allocated_bytes as f64),
    );
    put("pause_p50", Value::Num(pauses.quantile(0.5)));
    put("pause_p95", Value::Num(pauses.quantile(0.95)));
    Ok(Value::Obj(row))
}

/// Builds and writes `summary.json` from the full row set, cross-checking
/// the telemetry invariance (cells differing only in telemetry must have
/// identical simulated results), then parses the written file back to
/// prove it is machine-readable.
fn write_summary(dir: &Path, rows: &[Value]) -> Result<(), String> {
    let mut pairs: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for row in rows {
        let id = row.get("id").and_then(Value::as_str).unwrap_or_default();
        let pair_key = id.rsplit_once("+tel").map(|(p, _)| p).unwrap_or(id);
        pairs.entry(pair_key.to_string()).or_default().push(row);
    }
    let mut violations: Vec<Value> = Vec::new();
    let mut checked_pairs = 0u64;
    for (key, members) in &pairs {
        if members.len() < 2 {
            continue;
        }
        checked_pairs += 1;
        let fingerprint = |r: &Value| {
            (
                r.get("sim_time_before").and_then(Value::as_f64),
                r.get("cost_ratio").and_then(Value::as_f64),
                r.get("suggestions").map(json::render),
            )
        };
        let first = fingerprint(members[0]);
        if members.iter().any(|m| fingerprint(m) != first) {
            violations.push(Value::Str(key.clone()));
        }
    }

    let mut s = BTreeMap::new();
    s.insert("schema".to_string(), Value::Str(SCHEMA.to_string()));
    s.insert("host".to_string(), host_meta());
    s.insert("total_cells".to_string(), Value::Num(rows.len() as f64));
    let mut inv = BTreeMap::new();
    inv.insert(
        "checked_pairs".to_string(),
        Value::Num(checked_pairs as f64),
    );
    inv.insert("ok".to_string(), Value::Bool(violations.is_empty()));
    inv.insert("violations".to_string(), Value::Arr(violations.clone()));
    s.insert("telemetry_invariant".to_string(), Value::Obj(inv));
    s.insert("cells".to_string(), Value::Arr(rows.to_vec()));
    let path = dir.join("summary.json");
    let rendered = json::render(&Value::Obj(s));
    std::fs::write(&path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Machine validation: the summary must round-trip and every cell must
    // carry every schema key.
    let reread = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot reread {}: {e}", path.display()))?;
    let doc = json::parse(&reread).map_err(|e| format!("summary does not parse: {e}"))?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("summary missing cells")?;
    for cell in cells {
        for key in ROW_KEYS {
            if cell.get(key).is_none() {
                return Err(format!("summary cell missing `{key}`"));
            }
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "telemetry invariance violated for {} pair(s): attaching telemetry must not \
             change simulated results (see summary.json)",
            violations.len()
        ));
    }
    Ok(())
}
