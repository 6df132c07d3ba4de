//! `BENCHMARK.json`: the workloads, the metrics with their units, and the
//! bound by which each end-to-end metric may worsen. The benchmark reads
//! its metric list from there, so the file and the output cannot drift.

use chameleon_telemetry::json::{self, Value};

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Default measuring time of one run, seconds.
    pub run_seconds: f64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Metrics a user sees, printed by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Ledger metrics, printed by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json: missing array {key:?}"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("BENCHMARK.json: {key} entry without {f:?}"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing array \"workloads\"")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: workload without a name")?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing \"run_seconds\"")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the repository root.
    pub fn load() -> Result<Spec, String> {
        let path = crate::scenario::bench_dir()
            .join("..")
            .join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::METRICS;
    use crate::scenario::NAMES;

    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads, NAMES);
        let layer: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let code: Vec<(&str, &str)> = METRICS.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(layer, code, "per_layer lists the ledger's metrics in order");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time has the widest bound"
        );
    }
}
