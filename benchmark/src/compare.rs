//! `compare BASE… -- CHANGE…`: the verdict a performance change needs,
//! per (workload, end-to-end metric), from alternating runs of two
//! commits.
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   base's quartile spread;
//! * **unresolved** — the base's own spread is wider than the metric's
//!   bound, and not every change run beats every base run;
//! * **regressed** — the change's median is worse than the base's by more
//!   than the bound;
//! * **no worse** — otherwise.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use chameleon_telemetry::json::{self, Value};
use std::path::PathBuf;

/// Pairs needed before a verdict.
pub const MIN_RUNS: usize = 10;

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median and quartiles.
    pub base: (f64, f64, f64),
    /// Change median and quartiles.
    pub change: (f64, f64, f64),
    /// Share of pairs the change won.
    pub wins: f64,
    /// The verdict.
    pub verdict: &'static str,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let med = median(values).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    (med, q1, q3)
}

/// Compares one metric's base and change values (run `i` of each side
/// forms pair `i`).
pub fn verdict(metric: &MetricSpec, base: &[f64], change: &[f64]) -> (f64, &'static str) {
    let better = |a: f64, b: f64| if metric.lower_is_better { a < b } else { a > b };
    let (b, bq1, bq3) = summary(base);
    let (c, _, _) = summary(change);
    let pairs = base.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count() as f64 / pairs as f64;
    let worse = if metric.lower_is_better { c - b } else { b - c } / b;
    let bound = metric.bound.unwrap_or(0.0);
    let all_better = change.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let verdict = if wins >= 0.9 && better(c, b) && (c - b).abs() > bq3 - bq1 {
        "improved"
    } else if (bq3 - bq1) / b > bound && !all_better {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "no worse"
    };
    (wins, verdict)
}

fn load(path: &PathBuf) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(docs: &[Value], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    docs.iter()
        .map(|d| {
            d.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("a results file lacks {workload}/{metric}"))
        })
        .collect()
}

/// Compares result files of two commits on every end-to-end metric of
/// every workload the first base file holds.
pub fn compare(spec: &Spec, base: &[PathBuf], change: &[PathBuf]) -> Result<Vec<Row>, String> {
    if base.len() < MIN_RUNS || change.len() < MIN_RUNS {
        return Err(format!(
            "need at least {MIN_RUNS} result files per side, alternating base and change (got {} and {})",
            base.len(),
            change.len()
        ));
    }
    let base: Vec<Value> = base.iter().map(load).collect::<Result<_, _>>()?;
    let change: Vec<Value> = change.iter().map(load).collect::<Result<_, _>>()?;
    let workloads: Vec<String> = base[0]
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("results file without \"workloads\"")?
        .keys()
        .cloned()
        .collect();
    let mut rows = Vec::new();
    for workload in &workloads {
        for metric in &spec.end_to_end {
            let b = values(&base, workload, &metric.name)?;
            let c = values(&change, workload, &metric.name)?;
            let (wins, verdict) = verdict(metric, &b, &c);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                base: summary(&b),
                change: summary(&c),
                wins,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> MetricSpec {
        MetricSpec {
            name: "latency_ms_p50".to_owned(),
            unit: "ms".to_owned(),
            lower_is_better: true,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&latency(), &base, &faster), (1.0, "improved"));
        assert_eq!(verdict(&latency(), &base, &slower).1, "regressed");
        assert_eq!(verdict(&latency(), &base, &same).1, "no worse");
        // A base spread wider than the bound leaves a small shift unresolved.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
            .collect();
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&latency(), &noisy, &shifted).1, "unresolved");
        // Higher-is-better metrics invert the comparison.
        let tput = MetricSpec {
            lower_is_better: false,
            ..latency()
        };
        assert_eq!(verdict(&tput, &base, &slower), (1.0, "improved"));
    }
}
