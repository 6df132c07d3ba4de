//! A counting [`Workload`] wrapper: times every call the library makes
//! into a workload body — `run`, and each task of `partitions()` and
//! `phases()` — from outside the program.
//!
//! Minimal-heap trials end by unwinding a simulated `OutOfMemory` panic
//! through the body; the timing guard records on drop, so those trials are
//! counted too, and flagged as unwound.

use chameleon_collections::CollectionFactory;
use chameleon_core::{PartitionTask, Workload};
use chameleon_telemetry::Tracer;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One call into a workload body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyRun {
    /// The benchmark-timed call the body ran under (a ledger metric name).
    pub tag: &'static str,
    /// Partition index, for a task of a partition plan.
    pub partition: Option<usize>,
    /// Start, ns on the log's clock.
    pub begin_ns: u64,
    /// End, ns on the log's clock.
    pub end_ns: u64,
    /// Whether the body ended by unwinding (an out-of-memory trial).
    pub unwound: bool,
}

struct LogState {
    tracer: Option<Tracer>,
    tag: &'static str,
    runs: Vec<BodyRun>,
}

/// Shared record of body calls. Timestamps come from the attached
/// tracer's clock, so they line up with the program's own spans; without
/// a tracer, from the log's creation instant.
pub struct BodyLog {
    origin: Instant,
    state: Mutex<LogState>,
}

impl Default for BodyLog {
    fn default() -> Self {
        BodyLog {
            origin: Instant::now(),
            state: Mutex::new(LogState {
                tracer: None,
                tag: "",
                runs: Vec::new(),
            }),
        }
    }
}

impl BodyLog {
    fn state(&self) -> MutexGuard<'_, LogState> {
        // A body that panicked with the lock held left a complete
        // `LogState` behind: every update is a single push or store.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        match &self.state().tracer {
            Some(t) => t.now_ns(),
            None => self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Uses `tracer`'s clock from now on (`None`: the log's own clock).
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        self.state().tracer = tracer;
    }

    /// Tags the body calls that follow with `tag`.
    pub fn set_tag(&self, tag: &'static str) {
        self.state().tag = tag;
    }

    /// Removes and returns every call recorded so far.
    pub fn drain(&self) -> Vec<BodyRun> {
        std::mem::take(&mut self.state().runs)
    }

    fn enter(self: &Arc<Self>, partition: Option<usize>) -> RunGuard {
        RunGuard {
            log: Arc::clone(self),
            partition,
            begin_ns: self.now_ns(),
        }
    }
}

struct RunGuard {
    log: Arc<BodyLog>,
    partition: Option<usize>,
    begin_ns: u64,
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        let end_ns = self.log.now_ns();
        let mut state = self.log.state();
        let tag = state.tag;
        state.runs.push(BodyRun {
            tag,
            partition: self.partition,
            begin_ns: self.begin_ns,
            end_ns,
            unwound: std::thread::panicking(),
        });
    }
}

/// A workload whose body calls are recorded in a [`BodyLog`].
pub struct Counted {
    inner: Box<dyn Workload>,
    log: Arc<BodyLog>,
}

impl Counted {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Workload>, log: Arc<BodyLog>) -> Self {
        Counted { inner, log }
    }

    fn wrap(&self, tasks: Vec<PartitionTask>, indexed: bool) -> Vec<PartitionTask> {
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                let log = Arc::clone(&self.log);
                let name = task.name().to_owned();
                let partition = indexed.then_some(i);
                PartitionTask::new(name, move |f: &CollectionFactory| {
                    let _guard = log.enter(partition);
                    task.run(f);
                })
            })
            .collect()
    }
}

impl Workload for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, factory: &CollectionFactory) {
        let _guard = self.log.enter(None);
        self.inner.run(factory);
    }

    fn partitions(&self, parts: usize) -> Option<Vec<PartitionTask>> {
        Some(self.wrap(self.inner.partitions(parts)?, true))
    }

    fn phases(&self) -> Option<Vec<PartitionTask>> {
        Some(self.wrap(self.inner.phases()?, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::minheap::MIN_HEAP_STEP;
    use chameleon_core::{completes_under_with, min_heap_size_with, EnvConfig};

    /// Keeps `n` four-entry maps alive at once, so its minimal heap grows
    /// with `n`.
    fn pinned_maps(n: usize) -> Box<dyn Workload> {
        Box::new(("pinned", move |f: &CollectionFactory| {
            let _g = f.enter("Pinned.site:1");
            let mut keep = Vec::new();
            for i in 0..n {
                let mut m = f.new_map::<i64, i64>(None);
                for k in 0..4 {
                    m.put(k, i as i64);
                }
                keep.push(m);
            }
        }))
    }

    /// The search `min_heap_size_with` documents — double the hint until a
    /// run completes, then bisect to the step — replayed call by call.
    fn expected_trials(w: &dyn Workload, hint: u64, cfg: &EnvConfig) -> (usize, usize, u64) {
        let (mut trials, mut ooms) = (0, 0);
        let mut completes = |cap: u64| {
            trials += 1;
            let ok = completes_under_with(w, &[], cap, cfg);
            ooms += usize::from(!ok);
            ok
        };
        let mut hi = hint.max(64 * 1024);
        while !completes(hi) {
            hi *= 2;
        }
        let mut lo = 0;
        while hi - lo > MIN_HEAP_STEP {
            let mid = lo + (hi - lo) / 2;
            if completes(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (trials, ooms, hi)
    }

    #[test]
    fn trial_count_equals_doubling_plus_bisection() {
        let cfg = EnvConfig::default();
        // A hint below the minimum forces doubling rounds before bisection.
        let hint = 16 * 1024;
        let (trials, ooms, min) = expected_trials(&*pinned_maps(3000), hint, &cfg);

        let log = Arc::new(BodyLog::default());
        let counted = Counted::new(pinned_maps(3000), Arc::clone(&log));
        log.set_tag("minheap.search_ms");
        assert_eq!(min_heap_size_with(&counted, &[], hint, &cfg), min);
        let runs = log.drain();
        assert_eq!(runs.len(), trials, "one body call per trial");
        assert_eq!(runs.iter().filter(|r| r.unwound).count(), ooms);
        assert!(
            ooms > 1 && ooms < trials,
            "{ooms} of {trials} trials ran out"
        );
        assert!(runs.iter().all(|r| r.tag == "minheap.search_ms"));
        assert!(runs.iter().all(|r| r.end_ns >= r.begin_ns));
    }
}
