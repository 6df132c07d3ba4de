//! The per-layer cost ledger of a traced run.
//!
//! Three sources feed it, none of which edits the program:
//! * **outside** — the benchmark times each call it makes into a layer's
//!   public functions ([`Probe::time`]);
//! * **span** — the spans the program already records into the
//!   `EnvConfig::tracer` the benchmark attaches (GC phases, partitions,
//!   merges, context-stripe waits);
//! * **wrapper** — the counting workload wrapper's body calls
//!   ([`crate::counting`]).
//!
//! Per-operation layers that have no span (context capture, the profiler's
//! death sink, online rule evaluation) come from **ablation** sessions:
//! the same call under a configuration with that layer switched off.
//! Whatever request time no outside-timed call covers is the explicit
//! `harness.unattributed_pct` row.

use crate::counting::{BodyLog, BodyRun};
use crate::stats::{median, percentile};
use chameleon_telemetry::json::Value;
use chameleon_telemetry::{SpanRecord, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-lane span ring capacity of a traced request. The largest request
/// (profile-pmd) records about 500 spans, so a full ring means spans were
/// lost, and the run fails rather than report a partial ledger.
pub const TRACE_CAPACITY: usize = 2048;

/// Largest share of request time the ledger may leave unattributed.
pub const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// One traced request's layer values, keyed by metric name.
pub type Row = BTreeMap<&'static str, f64>;

/// How a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracer attached, calls timed; checked.
    Traced,
    /// As a user runs it; checked. End-to-end metrics come from these.
    Plain,
    /// A layer switched off; timed, not checked.
    Ablation(&'static str),
}

/// Ablation: context capture off, profiler off.
pub const NO_CAPTURE: &str = "capture-none";
/// Ablation: JVMTI capture on, profiler off.
pub const NO_PROFILER: &str = "profiler-off";
/// Ablation: JVMTI capture on, profiler on (the default configuration,
/// timed the same way as the other two).
pub const PROFILED: &str = "profiler-on";
/// Ablation: serve tenants never re-evaluate rules.
pub const NO_EVAL: &str = "eval-off";

/// Times the calls a request makes into each layer. Off (plain and
/// ablation sessions), it only runs the closures.
pub struct Probe {
    tracer: Option<Tracer>,
    log: Arc<BodyLog>,
    on: bool,
    row: Row,
    timed_ns: u64,
}

impl Probe {
    /// A probe for one request; `on` times calls into `row`.
    pub fn new(tracer: Option<Tracer>, log: Arc<BodyLog>, on: bool) -> Self {
        Probe {
            tracer,
            log,
            on,
            row: Row::new(),
            timed_ns: 0,
        }
    }

    /// The tracer to attach to environments built by this request.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// Runs `f`, adding its wall time to `metric` (milliseconds). Body
    /// calls made inside are tagged with `metric`.
    pub fn time<R>(&mut self, metric: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.log.set_tag(metric);
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        *self.row.entry(metric).or_default() += ns as f64 / 1e6;
        self.timed_ns += ns;
        r
    }

    /// The row being filled, for counts taken from a request's output.
    pub fn row(&mut self) -> Option<&mut Row> {
        self.on.then_some(&mut self.row)
    }

    /// Completes the row of a request that took `request_ns`, adding span
    /// and body-call metrics. Fails when a trace ring may have wrapped.
    pub fn finish(
        mut self,
        request_ns: u64,
        runs: &[BodyRun],
    ) -> Result<(Row, Vec<SpanRecord>), String> {
        let records = self
            .tracer
            .as_ref()
            .map(Tracer::records)
            .unwrap_or_default();
        // A wrapped ring returns capacity − 1 records on its own, so a
        // smaller total proves no ring wrapped.
        if records.len() >= TRACE_CAPACITY - 1 {
            return Err(format!(
                "{} spans in one request: a trace ring may have wrapped (capacity {TRACE_CAPACITY})",
                records.len()
            ));
        }
        let row = &mut self.row;
        span_metrics(&records, row);
        body_metrics(&records, runs, row);
        row.insert("harness.request_ms", request_ns as f64 / 1e6);
        row.insert(
            "harness.unattributed_pct",
            100.0 * (request_ns as f64 - self.timed_ns as f64) / request_ns.max(1) as f64,
        );
        Ok((self.row, records))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sum_dur(records: &[SpanRecord], name: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.name == name)
        .map(SpanRecord::dur_ns)
        .sum()
}

/// GC, context-table and parallel-runtime metrics from the program's own
/// spans. Nothing is added when the request recorded no spans (serve
/// tenants run without a tracer).
fn span_metrics(records: &[SpanRecord], row: &mut Row) {
    if records.is_empty() {
        return;
    }
    let cycles = records.iter().filter(|r| r.name == "gc").count() as f64;
    let gc_ms = ms(sum_dur(records, "gc"));
    row.insert("heap.gc.cycles", cycles);
    row.insert("heap.gc.ms", gc_ms);
    row.insert("heap.gc.mark_ms", ms(sum_dur(records, "gc_mark")));
    row.insert("heap.gc.scan_ms", ms(sum_dur(records, "gc_scan")));
    row.insert("heap.gc.sweep_ms", ms(sum_dur(records, "gc_sweep")));
    if cycles > 0.0 {
        row.insert("heap.gc.us_per_cycle", gc_ms * 1e3 / cycles);
    }
    row.insert(
        "heap.context.stripe_wait_ms",
        ms(sum_dur(records, "ctx_stripe_wait")),
    );

    if !records.iter().any(|r| r.name == "run_parallel") {
        return;
    }
    let partitions: Vec<u64> = records
        .iter()
        .filter(|r| r.name == "partition")
        .map(SpanRecord::dur_ns)
        .collect();
    let busy: u64 = partitions.iter().sum();
    let workers: Vec<&SpanRecord> = records.iter().filter(|r| r.name == "worker").collect();
    let begin = workers.iter().map(|r| r.begin_ns).min().unwrap_or(0);
    let end = workers.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let capacity = workers.len() as u64 * end.saturating_sub(begin);
    row.insert("parallel.run_ms", ms(sum_dur(records, "run_parallel")));
    row.insert("parallel.partition_ms", ms(busy));
    row.insert(
        "parallel.partition_max_ms",
        ms(partitions.iter().copied().max().unwrap_or(0)),
    );
    row.insert("parallel.merge_ms", ms(sum_dur(records, "merge_partition")));
    row.insert(
        "parallel.steals",
        records.iter().filter(|r| r.name == "steal").count() as f64,
    );
    row.insert("parallel.idle_ms", ms(capacity.saturating_sub(busy)));
}

/// Mutator and minimal-heap metrics from the wrapper's body calls. A
/// body's self time excludes the GC spans recorded on its lane while it
/// ran (allocation-triggered collections).
fn body_metrics(records: &[SpanRecord], runs: &[BodyRun], row: &mut Row) {
    if runs.is_empty() {
        return;
    }
    let partition_lane: BTreeMap<u64, u32> = records
        .iter()
        .filter(|r| r.name == "partition")
        .filter_map(|r| {
            let (_, index) = r.key_values().iter().find(|(k, _)| *k == "partition")?;
            Some((*index, r.lane))
        })
        .collect();
    let self_ns = |run: &BodyRun| {
        let lane = run
            .partition
            .and_then(|i| partition_lane.get(&(i as u64)).copied())
            .unwrap_or(0);
        let gc: u64 = records
            .iter()
            .filter(|r| {
                r.name == "gc"
                    && r.lane == lane
                    && r.begin_ns >= run.begin_ns
                    && r.end_ns <= run.end_ns
            })
            .map(SpanRecord::dur_ns)
            .sum();
        (run.end_ns - run.begin_ns).saturating_sub(gc)
    };
    let total: u64 = runs.iter().map(self_ns).sum();
    row.insert("mutator.ms", ms(total));
    row.insert("mutator.runs", runs.len() as f64);
    // Only runs whose environment the benchmark can see have a known
    // allocation count; minimal-heap trials build theirs internally.
    let visible: u64 = runs
        .iter()
        .filter(|r| matches!(r.tag, "env.run_ms" | "experiment.measured_run_ms"))
        .map(self_ns)
        .sum();
    if let Some(objects) = row.get("heap.alloc.objects").copied().filter(|&o| o > 0.0) {
        if visible > 0 {
            row.insert("mutator.ns_per_object", visible as f64 / objects);
        }
    }
    if let Some(step) = row.get("serve.step_ms").copied() {
        row.insert("serve.dispatch_ms", step - ms(total));
    }
    let trials: Vec<&BodyRun> = runs
        .iter()
        .filter(|r| r.tag == "minheap.search_ms")
        .collect();
    if !trials.is_empty() {
        let ooms = trials.iter().filter(|r| r.unwound).count() as f64;
        let durations: Vec<f64> = trials.iter().map(|r| ms(r.end_ns - r.begin_ns)).collect();
        row.insert("minheap.trials", trials.len() as f64);
        row.insert("minheap.oom_trials", ooms);
        row.insert("minheap.oom_ratio", ooms / trials.len() as f64);
        row.insert("minheap.trial_ms_p50", median(&durations).unwrap_or(0.0));
    }
}

/// One ledger metric: where it is measured and what it should move.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The program layer (module) it describes.
    pub layer: &'static str,
    /// `outside`, `span`, `wrapper`, `count`, `reply`, `ablation`,
    /// `derived` or `host`.
    pub source: &'static str,
    /// The end-to-end metric a change in it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    source: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        layer,
        source,
        moves,
    }
}

const P50: &str = "latency_ms_p50";
const P50_RSS: &str = "latency_ms_p50, peak_rss_mb";
const NONE: &str = "-";

const ENV: &str = "core::env";
const MUTATOR: &str = "workloads -> collections + heap";
const GC: &str = "heap::gc";
const ALLOC: &str = "heap + heap::context";
const FACTORY: &str = "collections::factory";
const PROFILER: &str = "profiler";
const RULES: &str = "rules";
const PARALLEL: &str = "core::parallel";
const MINHEAP: &str = "core::minheap + experiment";
const SERVE: &str = "core::serve + online";
const HARNESS: &str = "harness";

/// Every per-layer metric, in ledger order.
pub const METRICS: &[Metric] = &[
    m("env.new_ms", "ms", ENV, "outside", P50),
    m("env.run_ms", "ms", ENV, "outside", P50),
    m("env.portable_updates_ms", "ms", ENV, "outside", P50),
    m("env.drop_ms", "ms", ENV, "outside", P50),
    m("mutator.ms", "ms", MUTATOR, "wrapper", P50),
    m("mutator.runs", "count", MUTATOR, "wrapper", P50),
    m("mutator.ns_per_object", "ns", MUTATOR, "wrapper", P50),
    m("heap.gc.cycles", "count", GC, "span", P50),
    m("heap.gc.ms", "ms", GC, "span", P50),
    m("heap.gc.mark_ms", "ms", GC, "span", P50),
    m("heap.gc.scan_ms", "ms", GC, "span", P50),
    m("heap.gc.sweep_ms", "ms", GC, "span", P50),
    m("heap.gc.us_per_cycle", "us", GC, "span", P50),
    m("heap.alloc.objects", "count", ALLOC, "count", P50_RSS),
    m("heap.alloc.bytes", "bytes", ALLOC, "count", P50_RSS),
    m("heap.context.contexts", "count", ALLOC, "count", P50_RSS),
    m("heap.context.misses", "count", ALLOC, "count", P50_RSS),
    m("heap.context.stripe_wait_ms", "ms", ALLOC, "span", P50_RSS),
    m("collections.captures", "count", FACTORY, "count", P50),
    m("collections.capture_ms", "ms", FACTORY, "ablation", P50),
    m("profiler.sink_ms", "ms", PROFILER, "ablation", P50),
    m("profiler.report_ms", "ms", PROFILER, "outside", P50),
    m("profiler.contexts", "count", PROFILER, "count", P50),
    m("rules.evaluate_ms", "ms", RULES, "outside", P50),
    m("rules.suggestions", "count", RULES, "count", P50),
    m("rules.applicable", "count", RULES, "count", P50),
    m("rules.applicable_ratio", "ratio", RULES, "derived", P50),
    m("parallel.run_ms", "ms", PARALLEL, "span", P50),
    m("parallel.partition_ms", "ms", PARALLEL, "span", P50),
    m("parallel.partition_max_ms", "ms", PARALLEL, "span", P50),
    m("parallel.merge_ms", "ms", PARALLEL, "span", P50),
    m("parallel.steals", "count", PARALLEL, "span", P50),
    m("parallel.idle_ms", "ms", PARALLEL, "derived", P50),
    m("minheap.search_ms", "ms", MINHEAP, "outside", P50),
    m("minheap.trials", "count", MINHEAP, "wrapper", P50),
    m("minheap.oom_trials", "count", MINHEAP, "wrapper", P50),
    m("minheap.oom_ratio", "ratio", MINHEAP, "wrapper", P50),
    m("minheap.trial_ms_p50", "ms", MINHEAP, "wrapper", P50),
    m("experiment.measured_run_ms", "ms", MINHEAP, "outside", P50),
    m("serve.step_ms_p50", "ms", SERVE, "outside", P50),
    m("serve.step_ms_p90", "ms", SERVE, "outside", P50),
    m("serve.report_ms_p50", "ms", SERVE, "outside", P50),
    m("serve.fleet_ms_p50", "ms", SERVE, "outside", P50),
    m("serve.open_ms_p50", "ms", SERVE, "outside", P50),
    m("serve.close_ms_p50", "ms", SERVE, "outside", P50),
    m("serve.dispatch_ms", "ms", SERVE, "derived", P50),
    m("online.deaths", "count", SERVE, "reply", P50),
    m("online.evaluations", "count", SERVE, "reply", P50),
    m("online.replacements", "count", SERVE, "reply", P50),
    m("online.reverts", "count", SERVE, "reply", P50),
    m("online.drift_events", "count", SERVE, "reply", P50),
    m("online.eval_ms", "ms", SERVE, "ablation", P50),
    m("harness.request_ms", "ms", HARNESS, "derived", NONE),
    m("harness.unattributed_pct", "%", HARNESS, "derived", NONE),
    m("harness.trace_overhead_pct", "%", HARNESS, "derived", NONE),
    m("host.calibration_ms", "ms", HARNESS, "host", NONE),
];

/// The timed requests of a run, for ablation deltas and trace overhead.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The session's mode.
    pub mode: Mode,
    /// What the request was (a serve command kind, or `request`).
    pub kind: &'static str,
    /// Wall time, ms.
    pub ms: f64,
}

fn median_of(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Option<f64> {
    let v: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect();
    median(&v)
}

fn ablation_delta(samples: &[Sample], with: &'static str, without: &'static str) -> Option<f64> {
    let of = |name: &'static str| median_of(samples, |s| s.mode == Mode::Ablation(name));
    Some(of(with)? - of(without)?)
}

/// One aggregated ledger row.
pub struct Entry {
    /// The metric.
    pub metric: &'static Metric,
    /// Its value; 0 where the layer does no work on this workload.
    pub value: f64,
    /// Whether this workload exercises the layer.
    pub applies: bool,
}

/// Aggregates traced rows, timed samples and calibration readings into one
/// entry per ledger metric. Per-request values become medians over the
/// traced requests.
pub fn aggregate(rows: &[Row], samples: &[Sample], calibration: &[f64]) -> Vec<Entry> {
    let column =
        |key: &str| -> Vec<f64> { rows.iter().filter_map(|r| r.get(key).copied()).collect() };
    METRICS
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "serve.step_ms_p50" => median(&column("serve.step_ms")),
                "serve.step_ms_p90" => {
                    let steps = column("serve.step_ms");
                    percentile(&steps, 0.9).or_else(|| steps.iter().copied().reduce(f64::max))
                }
                "serve.report_ms_p50" => median(&column("serve.report_ms")),
                "serve.fleet_ms_p50" => median(&column("serve.fleet_ms")),
                "serve.open_ms_p50" => median(&column("serve.open_ms")),
                "serve.close_ms_p50" => median(&column("serve.close_ms")),
                "collections.capture_ms" => ablation_delta(samples, NO_PROFILER, NO_CAPTURE),
                "profiler.sink_ms" => ablation_delta(samples, PROFILED, NO_PROFILER),
                "online.eval_ms" => {
                    let step =
                        |mode: Mode| median_of(samples, |s| s.mode == mode && s.kind == "step");
                    step(Mode::Plain)
                        .zip(step(Mode::Ablation(NO_EVAL)))
                        .map(|(a, b)| a - b)
                }
                "harness.trace_overhead_pct" => {
                    let traced = median_of(samples, |s| s.mode == Mode::Traced);
                    let plain = median_of(samples, |s| s.mode == Mode::Plain);
                    traced.zip(plain).map(|(t, p)| 100.0 * (t / p - 1.0))
                }
                "host.calibration_ms" => median(calibration),
                name => median(&column(name)),
            };
            Entry {
                metric,
                value: value.unwrap_or(0.0),
                applies: value.is_some(),
            }
        })
        .collect()
}

/// The ledger as JSON rows, ablation rows labelled by their source.
pub fn to_json(entries: &[Entry]) -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    Value::Arr(
        entries
            .iter()
            .map(|e| {
                Value::Obj(BTreeMap::from([
                    ("metric".to_owned(), text(e.metric.name)),
                    ("value".to_owned(), Value::Num(e.value)),
                    ("unit".to_owned(), text(e.metric.unit)),
                    ("layer".to_owned(), text(e.metric.layer)),
                    ("source".to_owned(), text(e.metric.source)),
                    ("moves".to_owned(), text(e.metric.moves)),
                    ("applies".to_owned(), Value::Bool(e.applies)),
                ]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_telemetry::SpanKind;

    fn span(
        name: &'static str,
        lane: u32,
        begin_ns: u64,
        end_ns: u64,
        partition: Option<u64>,
    ) -> SpanRecord {
        let mut args = [("", 0); 4];
        if let Some(p) = partition {
            args[0] = ("partition", p);
        }
        SpanRecord {
            id: 1,
            parent: 0,
            lane,
            kind: SpanKind::Complete,
            begin_ns,
            end_ns,
            name,
            args,
            nargs: u8::from(partition.is_some()),
        }
    }

    fn run(tag: &'static str, partition: Option<usize>, begin_ns: u64, end_ns: u64) -> BodyRun {
        BodyRun {
            tag,
            partition,
            begin_ns,
            end_ns,
            unwound: false,
        }
    }

    #[test]
    fn body_self_time_excludes_gc_on_its_own_lane_only() {
        // Partition 0 runs on lane 1, partition 1 on lane 2. Each lane
        // collects once inside its body; lane 1 also collects after its
        // body ended, while partition 1's body was still running.
        let records = [
            span("partition", 1, 0, 1_000_000, Some(0)),
            span("partition", 2, 0, 2_000_000, Some(1)),
            span("gc", 1, 100_000, 300_000, None),
            span("gc", 1, 900_000, 1_000_000, None),
            span("gc", 2, 500_000, 600_000, None),
        ];
        let runs = [
            run("env.run_ms", Some(0), 0, 800_000),
            run("env.run_ms", Some(1), 0, 1_900_000),
        ];
        let mut row = Row::from([("heap.alloc.objects", 1000.0)]);
        body_metrics(&records, &runs, &mut row);
        // (800k − 200k) + (1.9M − 100k) = 2.4M ns.
        assert_eq!(row["mutator.ms"], 2.4);
        assert_eq!(row["mutator.runs"], 2.0);
        assert_eq!(row["mutator.ns_per_object"], 2400.0);
    }

    #[test]
    fn parallel_idle_is_worker_capacity_minus_partition_time() {
        let records = [
            span("run_parallel", 0, 0, 1_200_000, None),
            span("worker", 1, 0, 1_000_000, None),
            span("worker", 2, 0, 600_000, None),
            span("partition", 1, 0, 1_000_000, Some(0)),
            span("partition", 2, 0, 500_000, Some(1)),
            span("merge_partition", 0, 1_000_000, 1_100_000, None),
        ];
        let mut row = Row::new();
        span_metrics(&records, &mut row);
        assert_eq!(row["parallel.partition_ms"], 1.5);
        assert_eq!(row["parallel.partition_max_ms"], 1.0);
        assert_eq!(row["parallel.idle_ms"], 0.5);
        assert_eq!(row["parallel.merge_ms"], 0.1);
        assert_eq!(row["heap.gc.cycles"], 0.0);
        assert!(!row.contains_key("heap.gc.us_per_cycle"));
    }

    #[test]
    fn layers_without_work_are_flagged() {
        let rows = [
            Row::from([("env.run_ms", 2.0)]),
            Row::from([("env.run_ms", 4.0)]),
        ];
        let entries = aggregate(&rows, &[], &[10.0]);
        let get = |n: &str| entries.iter().find(|e| e.metric.name == n).unwrap();
        assert_eq!(get("env.run_ms").value, 3.0);
        assert!(get("env.run_ms").applies);
        assert!(!get("parallel.steals").applies);
        assert_eq!(get("parallel.steals").value, 0.0);
        assert_eq!(get("host.calibration_ms").value, 10.0);
    }
}
