//! One workload in one process: set-up, warm-up, a closed loop of timed
//! requests with one client, and the metrics computed from them.

use crate::counting::BodyLog;
use crate::host;
use crate::ledger::{self, Mode, Probe, Row, Sample, MAX_UNATTRIBUTED_PCT, TRACE_CAPACITY};
use crate::scenario::{self, Scenario};
use crate::stats::{median, percentile};
use chameleon_telemetry::json::Value;
use chameleon_telemetry::{chrome, SpanRecord, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plain requests below which the p90 has fewer than ten samples beyond
/// it: an untraced run measures past `--seconds` until it has them.
pub const MIN_REQUESTS: u64 = 100;

/// Minimum warm-up time, on top of the scenario's warm-up sessions.
const WARMUP_SECONDS: f64 = 1.0;

/// Timed requests under `--smoke`.
const SMOKE_REQUESTS: u64 = 2;

/// Calibration kernel timings before and after the workload.
const CALIBRATION_READINGS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced run: cycle traced, plain and ablation sessions.
    pub trace: bool,
    /// Two requests, no warm-up beyond a serve reference session.
    pub smoke: bool,
    /// Where to write the last traced request's Chrome trace.
    pub chrome: Option<PathBuf>,
}

struct Runner {
    sc: Box<dyn Scenario>,
    log: Arc<BodyLog>,
    samples: Vec<Sample>,
    rows: Vec<Row>,
    spans: Vec<SpanRecord>,
    setup_ms: Vec<f64>,
    warmup_requests: u64,
    attempted: u64,
    failed: u64,
    warmup_failed: u64,
    errors: Vec<String>,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

impl Runner {
    fn fail(&mut self, timed: bool, error: String) {
        if timed {
            self.failed += 1;
        } else {
            self.warmup_failed += 1;
        }
        if self.errors.len() < 5 {
            eprintln!("error: {error}");
            self.errors.push(error);
        }
    }

    /// Runs one session in `mode`, or its first requests until `stop`.
    /// Only `timed` sessions feed the metrics.
    fn session(
        &mut self,
        mode: Mode,
        timed: bool,
        stop: &dyn Fn(&Runner) -> bool,
    ) -> Result<(), String> {
        let tracer = (mode == Mode::Traced).then(|| {
            let t = Tracer::with_capacity(TRACE_CAPACITY);
            // Allocate lane 0's ring now, not inside the first timed call.
            t.lane(0);
            t
        });
        self.log.set_tracer(tracer.clone());
        let start = Instant::now();
        let setup = catch_unwind(AssertUnwindSafe(|| self.sc.setup(mode, tracer.clone())));
        let setup_ms = start.elapsed().as_secs_f64() * 1e3;
        let error = match setup {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(p) => Some(format!("set-up panicked: {}", panic_text(&*p))),
        };
        if let Some(e) = error {
            // A session that cannot start fails the request it owed.
            self.attempted += u64::from(timed);
            self.fail(timed, e);
            return Ok(());
        }
        if timed && mode == Mode::Plain {
            self.setup_ms.push(setup_ms);
        }
        while !self.sc.done() && !stop(self) {
            let mut probe = Probe::new(tracer.clone(), Arc::clone(&self.log), mode == Mode::Traced);
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| self.sc.request(&mut probe)));
            let ns = start.elapsed().as_nanos() as u64;
            let runs = self.log.drain();
            let ablation = matches!(mode, Mode::Ablation(_));
            if !ablation {
                if timed {
                    self.attempted += 1;
                } else {
                    self.warmup_requests += 1;
                }
            }
            let out = match out {
                Ok(out) => out,
                Err(p) => {
                    self.sc.abort();
                    self.attempted += u64::from(timed && ablation);
                    self.fail(timed, format!("request panicked: {}", panic_text(&*p)));
                    return Ok(());
                }
            };
            if timed {
                self.samples.push(Sample {
                    mode,
                    kind: out.kind(),
                    ms: ns as f64 / 1e6,
                });
            }
            if ablation {
                continue;
            }
            if let Err(e) = self.sc.check(out, probe.row()) {
                self.fail(timed, e);
            }
            if mode == Mode::Traced {
                let (row, spans) = probe.finish(ns, &runs)?;
                if timed {
                    self.rows.push(row);
                    self.spans = spans;
                }
            }
        }
        Ok(())
    }
}

/// Runs `o.workload` and returns its result object.
pub fn run(o: &Options) -> Result<Value, String> {
    let cores = host::available_parallelism();
    let before: Vec<f64> = (0..CALIBRATION_READINGS)
        .map(|_| host::calibration_ms())
        .collect();
    let log = Arc::new(BodyLog::default());
    let sc = scenario::build(&o.workload, o.seed, o.smoke, Arc::clone(&log))?;
    let threads = sc.threads();
    if threads > cores {
        return Err(format!(
            "{} would run {threads} mutator threads on {cores} cores; refusing to measure oversubscription",
            o.workload
        ));
    }
    let mut r = Runner {
        sc,
        log,
        samples: Vec::new(),
        rows: Vec::new(),
        spans: Vec::new(),
        setup_ms: Vec::new(),
        warmup_requests: 0,
        attempted: 0,
        failed: 0,
        warmup_failed: 0,
        errors: Vec::new(),
    };
    let invariants = r.sc.invariants();
    if let Err(e) = &invariants {
        eprintln!("error: {e}");
    }

    let warm = Instant::now();
    let (mut sessions, warmup_sessions) = (0, r.sc.warmup_sessions(o.smoke));
    let never = |_: &Runner| false;
    while sessions < warmup_sessions || (!o.smoke && warm.elapsed().as_secs_f64() < WARMUP_SECONDS)
    {
        r.session(Mode::Plain, false, &never)?;
        sessions += 1;
    }

    let modes: Vec<Mode> = if o.trace {
        [Mode::Traced, Mode::Plain]
            .into_iter()
            .chain(r.sc.ablations().iter().map(|&a| Mode::Ablation(a)))
            .collect()
    } else {
        vec![Mode::Plain]
    };
    let start = Instant::now();
    let limit = Duration::from_secs_f64(o.seconds);
    let stop = |r: &Runner| {
        if o.smoke {
            return r.attempted >= SMOKE_REQUESTS;
        }
        // Untraced, every attempted request is a plain one.
        let elapsed = start.elapsed();
        elapsed >= 3 * limit || (elapsed >= limit && (o.trace || r.attempted >= MIN_REQUESTS))
    };
    let mut k = 0;
    while !stop(&r) {
        r.session(modes[k % modes.len()], true, &stop)?;
        k += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    let after: Vec<f64> = (0..CALIBRATION_READINGS)
        .map(|_| host::calibration_ms())
        .collect();

    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    let plain: Vec<f64> = r
        .samples
        .iter()
        .filter(|s| s.mode == Mode::Plain)
        .map(|s| s.ms)
        .collect();
    if let Some(v) = median(&plain) {
        metrics.insert("latency_ms_p50", (v, "ms"));
    }
    if let Some(v) = percentile(&plain, 0.9) {
        metrics.insert("latency_ms_p90", (v, "ms"));
    }
    if let Some(v) = percentile(&plain, 0.99) {
        metrics.insert("latency_ms_p99", (v, "ms"));
    }
    if !plain.is_empty() {
        let busy_s: f64 = plain.iter().sum::<f64>() / 1e3;
        metrics.insert("throughput_rps", (plain.len() as f64 / busy_s, "1/s"));
    }
    if let Some(v) = median(&r.setup_ms) {
        metrics.insert("setup_s", (v / 1e3, "s"));
    }
    if let Some(v) = host::peak_rss_mib() {
        metrics.insert("peak_rss_mb", (v, "MiB"));
    }
    metrics.insert(
        "failed_frac",
        (r.failed as f64 / r.attempted.max(1) as f64, "ratio"),
    );
    let readings: Vec<f64> = before.iter().chain(&after).copied().collect();
    if let Some(v) = median(&readings) {
        metrics.insert("host.calibration_ms", (v, "ms"));
    }

    let mut result = BTreeMap::new();
    if o.trace {
        let entries = ledger::aggregate(&r.rows, &r.samples, &readings);
        for e in &entries {
            metrics.insert(e.metric.name, (e.value, e.metric.unit));
        }
        let unattributed = metrics["harness.unattributed_pct"].0;
        if unattributed > MAX_UNATTRIBUTED_PCT {
            return Err(format!(
                "{}: {unattributed:.2}% of request time is outside every timed call (limit {MAX_UNATTRIBUTED_PCT}%)",
                o.workload
            ));
        }
        result.insert("ledger".to_owned(), ledger::to_json(&entries));
        if let Some(path) = &o.chrome {
            std::fs::write(path, chrome::render(&r.spans))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    let correct = r.failed == 0 && r.warmup_failed == 0 && invariants.is_ok();
    let num = |n: f64| Value::Num(n);
    let text = |s: &str| Value::Str(s.to_owned());
    let fields = [
        ("workload", text(&o.workload)),
        ("seed", num(o.seed as f64)),
        ("trace", Value::Bool(o.trace)),
        ("smoke", Value::Bool(o.smoke)),
        ("seconds", num(o.seconds)),
        ("measured_s", num(measured_s)),
        ("available_parallelism", num(cores as f64)),
        ("threads", num(threads as f64)),
        ("warmup_requests", num(r.warmup_requests as f64)),
        ("requests", num(plain.len() as f64)),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        ("warmup_failed", num(r.warmup_failed as f64)),
        ("correct", Value::Bool(correct)),
        (
            "invariants",
            text(invariants.as_ref().err().map_or("ok", String::as_str)),
        ),
        (
            "errors",
            Value::Arr(r.errors.iter().map(|e| text(e)).collect()),
        ),
        (
            "calibration_ms",
            Value::Obj(BTreeMap::from([
                (
                    "before".to_owned(),
                    Value::Arr(before.into_iter().map(num).collect()),
                ),
                (
                    "after".to_owned(),
                    Value::Arr(after.into_iter().map(num).collect()),
                ),
            ])),
        ),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(k, (v, unit))| {
                        let m = BTreeMap::from([
                            ("value".to_owned(), num(v)),
                            ("unit".to_owned(), text(unit)),
                        ]);
                        (k.to_owned(), Value::Obj(m))
                    })
                    .collect(),
            ),
        ),
    ];
    result.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Ok(Value::Obj(result))
}
