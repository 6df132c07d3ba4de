//! Offline shim for `criterion`.
//!
//! Implements the subset of the criterion API the workspace's benches use
//! (`Criterion::benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter`, the `criterion_group!`/`criterion_main!`
//! macros) with a plain wall-clock harness: calibrate an iteration count to
//! a small time budget, take several samples, and report the median
//! nanoseconds per iteration to stdout with its quartile spread, under a
//! group header naming the host's core count. No plots, no statistics
//! files — just honest numbers so benches still run offline.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label for one benchmark within a group: `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        let function = function.into();
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Timing context handed to the bench closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the calibrated number of iterations, timing the whole
    /// batch. The return value is black-boxed to keep the work alive.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub group: String,
    pub label: String,
    pub median_ns_per_iter: f64,
    /// Quartile spread of the samples, `(Q3 - Q1) / median`.
    pub spread: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
}

/// Top-level driver. Collects measurements and prints them as it goes.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    measurements: Vec<Measurement>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 12,
            measurement_time: Duration::from_millis(250),
            measurements: Vec::new(),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("group {name} (available_parallelism {cores})");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: None,
            measurement_time: None,
        }
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    /// All measurements recorded so far (used by JSON-emitting harnesses).
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = Some(n);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(id.label.clone(), &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.label.clone(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    pub fn finish(self) {}

    fn run(&mut self, label: String, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        let budget = self
            .measurement_time
            .unwrap_or(self.criterion.measurement_time);

        // Calibrate: grow the iteration count until one batch costs at
        // least 1/20 of the per-sample budget (floor 1 iteration).
        let per_sample = budget / samples.max(1) as u32;
        let mut iters: u64 = 1;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= per_sample / 20 || iters >= 1 << 24 {
                break;
            }
            iters = iters.saturating_mul(2);
        }

        let mut per_iter_ns: Vec<f64> = (0..samples)
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                b.elapsed.as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len();
        let median = per_iter_ns[n / 2];
        let spread = (per_iter_ns[3 * n / 4] - per_iter_ns[n / 4]) / median;

        println!(
            "  {name}/{label:<32} {median:>12.1} ns/iter (spread {pct:.1}%, {samples} samples x {iters} iters)",
            name = self.name,
            pct = spread * 100.0,
        );
        self.criterion.measurements.push(Measurement {
            group: self.name.clone(),
            label,
            median_ns_per_iter: median,
            spread,
            samples,
            iters_per_sample: iters,
        });
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3).measurement_time(Duration::from_millis(20));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
        assert_eq!(c.measurements().len(), 1);
        assert!(c.measurements()[0].median_ns_per_iter > 0.0);
        assert!(c.measurements()[0].spread >= 0.0);
    }
}
