//! # chameleon-telemetry
//!
//! Dependency-free observability layer for the Chameleon reproduction:
//!
//! * [`metrics`] — an atomic metrics registry (counters, gauges,
//!   fixed-bucket histograms) that instrumented components pre-resolve into
//!   cheap cloneable handles, so the hot path pays one relaxed atomic add;
//! * [`Telemetry`] — the shared handle bundling the registry and a
//!   structured JSONL event sink; a sub-run records into its own fresh
//!   handle that the parent later [`Telemetry::adopt`]s, the same
//!   fork/adopt pair [`Tracer`] has;
//! * [`json`] — a hand-rolled JSON writer (escaping) and a minimal parser
//!   used to validate emitted event logs and to reconstruct decision audits
//!   in tests, keeping the workspace free of external dependencies.
//!
//! The contract instrumented crates follow (documented in DESIGN.md §8):
//! a component holds an `Option<Telemetry>`, and an attached handle is a
//! recording one. With none attached, the instrumented hot paths
//! (allocation, context capture, GC) perform **zero extra allocations**;
//! everything beyond the `Option` check happens only when a handle is
//! attached.
//!
//! # Examples
//!
//! ```
//! use chameleon_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let gcs = t.counter("gc.cycles");
//! gcs.inc();
//! t.event("gc_cycle", 1234).num("cycle", 1).str("heap", "main");
//! assert_eq!(t.event_count(), 1);
//! let log = t.events_snapshot();
//! assert!(log.contains("\"ev\":\"gc_cycle\""));
//! chameleon_telemetry::json::validate_jsonl(&log, &["ev", "t"]).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod series;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricKind, MetricSnapshot};
pub use series::{DriftConfig, DriftFinding, SeriesSample, SeriesStore};
pub use trace::{SpanKind, SpanRecord, TraceLane, TraceScope, Tracer};

use metrics::Registry;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default histogram bucket bounds for byte-sized quantities (powers of
/// four from 64 B to 16 MiB).
pub const BYTE_BUCKETS: [u64; 10] = [
    64,
    256,
    1024,
    4096,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
];

/// Default histogram bucket bounds for simulated cost units.
pub const UNIT_BUCKETS: [u64; 10] = [
    1_000,
    10_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
];

struct Inner {
    registry: Registry,
    events: Mutex<EventSink>,
    event_count: AtomicU64,
}

#[derive(Default)]
struct EventSink {
    buf: String,
}

/// Shared telemetry handle: metrics registry + JSONL event sink.
///
/// Cloning is a reference-count bump; all clones observe the same state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("events", &self.event_count())
            .finish()
    }
}

impl Telemetry {
    /// Creates a recording telemetry handle.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                events: Mutex::new(EventSink::default()),
                event_count: AtomicU64::new(0),
            }),
        }
    }

    /// Folds a sub-run's finished handle into this one. Counters
    /// add; histograms add bucket counts, count and sum (one name means one
    /// set of bounds); gauges take the max. The child's events are appended
    /// in order, re-based onto this run the way merged `CycleStats` are:
    /// `t` moves up by `t_base` (the simulated time at which the child's
    /// clock started), and the `cycle` of `gc_cycle` / `heap_snapshot`
    /// events by `cycle_base` (the GC cycles that ran before it). Wall-clock
    /// `*_ns` fields pass through unchanged. Adopt children in a fixed order
    /// for a deterministic log.
    pub fn adopt(&self, child: &Telemetry, t_base: u64, cycle_base: u64) {
        self.inner.registry.absorb(&child.inner.registry);
        let log = child.events_snapshot();
        let mut sink = self.inner.events.lock().unwrap_or_else(|e| e.into_inner());
        for line in log.lines() {
            let cycles = line.starts_with("{\"ev\":\"gc_cycle\",")
                || line.starts_with("{\"ev\":\"heap_snapshot\",");
            // `t` is always the second field, so it precedes `cycle`.
            let mut rest = shift_field(&mut sink.buf, line, ",\"t\":", t_base);
            if cycles {
                rest = shift_field(&mut sink.buf, rest, ",\"cycle\":", cycle_base);
            }
            sink.buf.push_str(rest);
            sink.buf.push('\n');
        }
        self.inner
            .event_count
            .fetch_add(child.event_count(), Ordering::Relaxed);
    }

    // ----- metrics --------------------------------------------------------------

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Resolves (registering on first use) the histogram `name` with
    /// `bounds` (ascending upper bucket bounds; an overflow bucket is added).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.inner.registry.histogram(name, bounds)
    }

    /// Snapshots every registered metric, sorted by name.
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        self.inner.registry.snapshot()
    }

    // ----- events ---------------------------------------------------------------

    /// Starts a structured event of `kind` at simulated time `t` (cost
    /// units; 0 when no clock governs the emitting component). The line
    /// is complete when the returned builder drops.
    pub fn event(&self, kind: &str, t: u64) -> Event<'_> {
        let guard = self.inner.events.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.event_count.fetch_add(1, Ordering::Relaxed);
        Event::begin(guard, kind, t)
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.inner.event_count.load(Ordering::Relaxed)
    }

    /// Clones the JSONL event log recorded so far.
    pub fn events_snapshot(&self) -> String {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .clone()
    }

    /// Takes the JSONL event log, leaving the sink empty (the event counter
    /// keeps running).
    pub fn drain_events(&self) -> String {
        std::mem::take(
            &mut self
                .inner
                .events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .buf,
        )
    }

    /// Renders every registered metric as one `{"ev":"metric",...}` JSONL
    /// line, for appending to an event log at dump time.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        for m in self.metrics_snapshot() {
            m.write_jsonl(&mut out);
        }
        out
    }

    /// The full dump an exporter writes to disk: all events followed by the
    /// metric snapshot lines.
    pub fn dump_jsonl(&self) -> String {
        let mut out = self.events_snapshot();
        out.push_str(&self.metrics_jsonl());
        out
    }
}

/// Builder for one JSONL event line; the opening `{"ev":...,"t":...}` is
/// written on creation, fields append, and the closing brace + newline land
/// on drop. Holds the sink lock for its (short) lifetime.
pub struct Event<'a> {
    guard: MutexGuard<'a, EventSink>,
}

impl<'a> Event<'a> {
    fn begin(mut guard: MutexGuard<'a, EventSink>, kind: &str, t: u64) -> Self {
        guard.buf.push_str("{\"ev\":");
        json::write_str(&mut guard.buf, kind);
        guard.buf.push_str(",\"t\":");
        push_u64(&mut guard.buf, t);
        Event { guard }
    }

    fn key(&mut self, key: &str) {
        self.guard.buf.push(',');
        json::write_str(&mut self.guard.buf, key);
        self.guard.buf.push(':');
    }

    /// Appends an unsigned integer field.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        push_u64(&mut self.guard.buf, value);
        self
    }

    /// Appends a signed integer field.
    pub fn inum(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let buf = &mut self.guard.buf;
        if value < 0 {
            buf.push('-');
            push_u64(buf, value.unsigned_abs());
        } else {
            push_u64(buf, value as u64);
        }
        self
    }

    /// Appends a float field (JSON-safe: non-finite values become `null`).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = fmt::Write::write_fmt(&mut self.guard.buf, format_args!("{value}"));
        } else {
            self.guard.buf.push_str("null");
        }
        self
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        json::write_str(&mut self.guard.buf, value);
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.guard
            .buf
            .push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends an array of unsigned integers.
    pub fn nums(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.key(key);
        self.guard.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.guard.buf.push(',');
            }
            push_u64(&mut self.guard.buf, *v);
        }
        self.guard.buf.push(']');
        self
    }
}

impl Drop for Event<'_> {
    fn drop(&mut self) {
        self.guard.buf.push_str("}\n");
    }
}

fn push_u64(buf: &mut String, v: u64) {
    let _ = fmt::Write::write_fmt(buf, format_args!("{v}"));
}

/// Copies `line` into `out` up to and including the first field marker
/// `key` (e.g. `,"t":`) and the unsigned integer after it raised by `by`;
/// returns the rest of the line. Keys and string values are escaped JSON,
/// so the raw marker only occurs at a field boundary. A line without the
/// marker or without a number after it is returned whole, untouched.
fn shift_field<'a>(out: &mut String, line: &'a str, key: &str, by: u64) -> &'a str {
    let Some(at) = line.find(key) else {
        return line;
    };
    let start = at + key.len();
    let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    let Ok(value) = line[start..start + digits].parse::<u64>() else {
        return line;
    };
    out.push_str(&line[..start]);
    push_u64(out, value.saturating_add(by));
    &line[start + digits..]
}

/// Wall-clock span timer for bracketing phases (GC mark/scan/sweep, workload
/// phases). Purely a convenience over [`Instant`]; the caller decides which
/// event the elapsed time lands in.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Starts the timer.
    pub fn start() -> Self {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_fields_are_escaped_json() {
        let t = Telemetry::new();
        t.event("decision", 7)
            .str("label", "HashMap:\"A\".m:1\\x")
            .inum("delta", -3)
            .float("pct", 12.5)
            .bool("fired", true)
            .nums("shards", &[1, 2, 3]);
        let log = t.drain_events();
        let v = json::parse(log.trim()).expect("parses");
        assert_eq!(
            v.get("label").unwrap().as_str().unwrap(),
            "HashMap:\"A\".m:1\\x"
        );
        assert_eq!(v.get("delta").unwrap().as_f64().unwrap(), -3.0);
        assert!(v.get("fired").unwrap().as_bool().unwrap());
        assert!(t.events_snapshot().is_empty(), "drained");
        assert_eq!(t.event_count(), 1);
    }

    #[test]
    fn dump_appends_metric_lines() {
        let t = Telemetry::new();
        t.counter("a.count").add(3);
        drop(t.event("x", 0));
        let dump = t.dump_jsonl();
        json::validate_jsonl(&dump, &["ev"]).expect("all lines valid");
        assert!(dump.contains("\"name\":\"a.count\""));
    }

    #[test]
    fn adopt_sums_metrics_and_rebases_events() {
        let parent = Telemetry::new();
        parent.counter("c").add(2);
        parent.gauge("g").set(9);
        parent.histogram("h", &[10, 100]).record(5);
        let child = Telemetry::new();
        child.counter("c").add(3);
        child.gauge("g").set(4);
        for v in [50, 500] {
            child.histogram("h", &[10, 100]).record(v);
        }
        let ev = |kind, t, cycle| {
            child.event(kind, t).num("cycle", cycle).num("a_ns", 7);
        };
        ev("gc_cycle", 20, 0);
        ev("heap_snapshot", 20, 1);
        ev("phase", 30, 5);

        parent.adopt(&child, 1000, 4);
        let m = parent.metrics_snapshot(); // sorted: c, g, h
        assert_eq!(
            (m[0].value, m[1].value),
            (5, 9),
            "counters add; gauges take the max"
        );
        assert_eq!(
            (m[2].value, m[2].sum, &m[2].buckets[..]),
            (3, 555, &[1, 1, 1][..])
        );
        assert_eq!(parent.event_count(), 3);
        assert_eq!(
            parent.events_snapshot(),
            "{\"ev\":\"gc_cycle\",\"t\":1020,\"cycle\":4,\"a_ns\":7}\n\
             {\"ev\":\"heap_snapshot\",\"t\":1020,\"cycle\":5,\"a_ns\":7}\n\
             {\"ev\":\"phase\",\"t\":1030,\"cycle\":5,\"a_ns\":7}\n",
            "t always re-bases, cycle only on gc_cycle/heap_snapshot, *_ns never"
        );
    }

    #[test]
    fn span_timer_monotone() {
        let sp = SpanTimer::start();
        let a = sp.elapsed_ns();
        let b = sp.elapsed_ns();
        assert!(b >= a);
    }
}
