//! Atomic metrics: counters, gauges and fixed-bucket histograms.
//!
//! Instrumented components resolve their metrics once (at telemetry attach
//! time) into cloneable handles; recording is then a relaxed atomic
//! operation with no lock and no allocation — cheap enough to sit behind a
//! single `Option` check on hot paths.

use crate::json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// Fresh unregistered counter (tests, ad-hoc use).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// Fresh unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (high-watermark use).
    #[inline]
    pub fn max_with(&self, v: u64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

struct HistInner {
    /// Ascending upper bounds; values `> bounds.last()` land in the
    /// overflow bucket `counts[bounds.len()]`.
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.inner.bounds)
            .field("count", &self.count())
            .finish()
    }
}

impl Histogram {
    /// Fresh unregistered histogram over ascending `bounds`.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "ascending bounds");
        Histogram {
            inner: Arc::new(HistInner {
                bounds: bounds.into(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let i = self
            .inner
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[i].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum() as f64 / n as f64,
        }
    }

    /// Snapshot of per-bucket counts (the final entry is the overflow
    /// bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed)) // relaxed: monotonic counters
            .collect()
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation inside the bucket where the cumulative count crosses
    /// `q * count`. Exact whenever the true quantile sits on a bucket
    /// bound; observations in the overflow bucket are clamped to the last
    /// finite bound. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        bucket_quantile(self.bounds(), &self.bucket_counts(), q)
    }
}

/// Bucket-linear quantile estimation over `(bounds, buckets)` as stored by
/// [`Histogram`] and [`MetricSnapshot`]: `buckets` has one entry per bound
/// plus a trailing overflow bucket.
pub fn bucket_quantile(bounds: &[u64], buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0.0;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if cum + c >= target {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            if i >= bounds.len() {
                // Overflow bucket: unbounded above, clamp to its lower edge.
                return lo;
            }
            let frac = ((target - cum) / c).clamp(0.0, 1.0);
            return lo + frac * (bounds[i] as f64 - lo);
        }
        cum += c;
    }
    // Only reachable when trailing buckets are empty and rounding left
    // `target` microscopically above the cumulative total.
    bounds.last().map_or(0.0, |b| *b as f64)
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

/// Point-in-time view of one registered metric.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Registered name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Counter/gauge value; histogram observation count.
    pub value: u64,
    /// Histogram sum (0 for counters/gauges).
    pub sum: u64,
    /// Histogram bucket bounds (empty for counters/gauges).
    pub bounds: Vec<u64>,
    /// Histogram bucket counts incl. overflow (empty for counters/gauges).
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    /// Histogram quantile estimate (see [`Histogram::quantile`]); 0 for
    /// counters and gauges.
    pub fn quantile(&self, q: f64) -> f64 {
        bucket_quantile(&self.bounds, &self.buckets, q)
    }

    /// Appends this snapshot as one `{"ev":"metric",...}` JSONL line.
    pub fn write_jsonl(&self, out: &mut String) {
        use fmt::Write as _;
        out.push_str("{\"ev\":\"metric\",\"t\":0,\"name\":");
        json::write_str(out, &self.name);
        let kind = match self.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let _ = write!(out, ",\"kind\":\"{kind}\",\"value\":{}", self.value);
        if self.kind == MetricKind::Histogram {
            let _ = write!(out, ",\"sum\":{}", self.sum);
            let join = |xs: &[u64]| {
                xs.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = write!(
                out,
                ",\"bounds\":[{}],\"buckets\":[{}]",
                join(&self.bounds),
                join(&self.buckets)
            );
        }
        out.push_str("}\n");
    }
}

/// Name-keyed metric registry (interior-locked; resolution is rare, the
/// returned handles are lock-free).
pub(crate) struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn resolve(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_owned()).or_insert_with(make).clone()
    }

    pub(crate) fn counter(&self, name: &str) -> Counter {
        match self.resolve(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        match self.resolve(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    pub(crate) fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match self.resolve(name, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    /// Folds every metric of `other` into this registry: counters add,
    /// gauges take the max, histograms add bucket counts, count and sum.
    ///
    /// # Panics
    ///
    /// Panics if a histogram's bounds differ between the two registries:
    /// one metric name means one set of bounds.
    pub(crate) fn absorb(&self, other: &Registry) {
        for m in other.snapshot() {
            match m.kind {
                MetricKind::Counter => self.counter(&m.name).add(m.value),
                MetricKind::Gauge => self.gauge(&m.name).max_with(m.value),
                MetricKind::Histogram => {
                    let h = self.histogram(&m.name, &m.bounds).inner;
                    assert_eq!(
                        h.bounds[..],
                        m.bounds,
                        "histogram `{}` adopted with different bounds",
                        m.name
                    );
                    for (c, n) in h.counts.iter().zip(&m.buckets) {
                        c.fetch_add(*n, Ordering::Relaxed);
                    }
                    h.sum.fetch_add(m.sum, Ordering::Relaxed);
                    h.count.fetch_add(m.value, Ordering::Relaxed);
                }
            }
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Counter,
                    value: c.get(),
                    sum: 0,
                    bounds: Vec::new(),
                    buckets: Vec::new(),
                },
                Metric::Gauge(g) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.get(),
                    sum: 0,
                    bounds: Vec::new(),
                    buckets: Vec::new(),
                },
                Metric::Histogram(h) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Histogram,
                    value: h.count(),
                    sum: h.sum(),
                    bounds: h.bounds().to_vec(),
                    buckets: h.bucket_counts(),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 6, "clones share state");

        let g = Gauge::new();
        g.set(9);
        g.max_with(4);
        assert_eq!(g.get(), 9);
        g.max_with(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(10);
        h.record(50);
        h.record(1000);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
        assert!((h.mean() - 266.25).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_exact_at_bucket_boundaries() {
        let h = Histogram::new(&[10, 100, 1000]);
        // All mass exactly on the first bound.
        for _ in 0..4 {
            h.record(10);
        }
        assert_eq!(h.quantile(1.0), 10.0);
        assert_eq!(h.quantile(0.0), 0.0, "q=0 is the bucket's lower edge");
        // Mass split across two buckets: the median lands exactly on the
        // boundary between them.
        let h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(50);
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new(&[10, 110]);
        for _ in 0..10 {
            h.record(60); // all in (10, 110]
        }
        // Linear within the bucket: q=0.5 -> halfway between 10 and 110.
        assert_eq!(h.quantile(0.5), 60.0);
        assert_eq!(h.quantile(0.25), 35.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.record(5000); // overflow bucket
        assert_eq!(h.quantile(0.5), 100.0, "overflow clamps to last bound");
        assert_eq!(h.quantile(2.0), 100.0, "q clamps to [0,1]");
        let snap_q = MetricSnapshot {
            name: "h".into(),
            kind: MetricKind::Histogram,
            value: h.count(),
            sum: h.sum(),
            bounds: h.bounds().to_vec(),
            buckets: h.bucket_counts(),
        }
        .quantile(0.5);
        assert_eq!(snap_q, h.quantile(0.5), "snapshot agrees with handle");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(&[10, 100]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty histogram, q={q}");
        }
        // A histogram with no finite bounds only has the overflow bucket,
        // whose lower edge is 0.
        let h = Histogram::new(&[]);
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(7);
        assert_eq!(h.quantile(0.5), 0.0, "overflow clamps to its lower edge");
    }

    #[test]
    fn quantile_of_single_bucket_histogram_interpolates() {
        let h = Histogram::new(&[8]);
        h.record(1);
        // One observation in [0, 8]: interpolation is linear in q.
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 4.0);
        assert_eq!(h.quantile(1.0), 8.0);
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(2.0), 8.0);
        assert_eq!(h.quantile(-1.0), 0.0);
        // Observations past the last bound clamp to that bound.
        h.record(1_000);
        assert_eq!(h.quantile(1.0), 8.0);
    }

    #[test]
    fn registry_resolves_idempotently() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "x");
        assert_eq!(snap[0].value, 1);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn absorbing_a_histogram_with_other_bounds_panics() {
        let (a, b) = (Registry::new(), Registry::new());
        a.histogram("h", &[1, 2]);
        b.histogram("h", &[1, 3]).record(1);
        a.absorb(&b);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_jsonl_parses() {
        let r = Registry::new();
        r.histogram("h", &[1, 2]).record(3);
        r.counter("c").inc();
        let mut out = String::new();
        for m in r.snapshot() {
            m.write_jsonl(&mut out);
        }
        crate::json::validate_jsonl(&out, &["ev", "name", "kind", "value"]).expect("valid");
    }
}
