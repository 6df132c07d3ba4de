//! Execution environments and portable policies.
//!
//! An [`Env`] bundles a fresh simulated heap, collection runtime, factory
//! and (optionally) profiler. Chameleon's methodology (§5.2) runs the same
//! workload in several environments — profiling run, optimized re-run,
//! minimal-heap trials — so policies must survive environment boundaries:
//! a [`PortableUpdate`] keys the override by the *context's frames* rather
//! than by a heap-local `ContextId`, and is re-interned into each new
//! environment.

use crate::metrics::RunMetrics;
use crate::workload::Workload;
use chameleon_collections::factory::{CaptureConfig, CaptureMethod, CollectionFactory, Selection};
use chameleon_collections::{ListChoice, MapChoice, Runtime, SetChoice};
use chameleon_heap::{Heap, HeapConfig, HeapProfConfig};
use chameleon_profiler::{ProfileReport, Profiler};
use chameleon_rules::{PolicyUpdate, Suggestion};
use chameleon_telemetry::{Telemetry, TraceLane, Tracer};
use std::rc::Rc;

/// Environment construction parameters.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Heap capacity in bytes (None = unbounded).
    pub heap_capacity: Option<u64>,
    /// Allocation-driven GC interval for unbounded profiling runs.
    pub gc_interval_bytes: Option<u64>,
    /// Context-capture configuration.
    pub capture: CaptureConfig,
    /// Whether to install a profiler (collect trace statistics).
    pub profiling: bool,
    /// Object layout model (the paper's 32-bit JVM by default).
    pub model: chameleon_heap::MemoryModel,
    /// Telemetry sink to attach to the heap and runtime (None = no
    /// observability; the hot paths pay one `Option` check). An attached
    /// handle always records.
    pub telemetry: Option<Telemetry>,
    /// Continuous heap profiling: capture a [`chameleon_heap::HeapSnapshot`]
    /// every `every` GC cycles (None = off; simulation results are
    /// bit-identical either way).
    pub heapprof: Option<HeapProfConfig>,
    /// Execution tracer for causal spans (None = no tracing; the hot paths
    /// pay one `Option` check). An attached tracer always records. Tracing
    /// never charges the simulated clock, so results are bit-identical
    /// with tracing absent, attached, or exporting.
    pub tracer: Option<Tracer>,
    /// Partition index forwarded to [`chameleon_heap::HeapConfig::shard_index`]
    /// so the heap's re-entry panic names its partition. The
    /// parallel runner sets it per partition, serve per tenant.
    pub shard_index: Option<usize>,
    /// Portable policy installed at construction ([`Env::apply_policy`]).
    /// Carrying the policy in the config — rather than applying it to a
    /// built environment — makes it reach the hermetic partition
    /// environments of [`Env::run_parallel`], which clone the parent
    /// config: a policy-carrying parallel re-run exercises the replacement
    /// collections inside every partition, not just the merge phase.
    pub policy: Vec<PortableUpdate>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            heap_capacity: None,
            gc_interval_bytes: Some(256 * 1024),
            capture: CaptureConfig::default(),
            profiling: true,
            model: chameleon_heap::MemoryModel::jvm32(),
            telemetry: None,
            heapprof: None,
            tracer: None,
            shard_index: None,
            policy: Vec::new(),
        }
    }
}

impl EnvConfig {
    /// Configuration for a measured re-run: no profiling, zero-cost
    /// *static* context resolution (the applied fixes behave like
    /// source-level rewrites), fixed heap capacity (the paper measures at
    /// the original minimal heap size).
    pub fn measured(heap_capacity: u64) -> Self {
        EnvConfig {
            heap_capacity: Some(heap_capacity),
            gc_interval_bytes: None,
            capture: CaptureConfig {
                method: CaptureMethod::Static,
                ..CaptureConfig::default()
            },
            profiling: false,
            ..EnvConfig::default()
        }
    }
}

/// One replacement decision keyed portably by context frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableUpdate {
    /// Requested source type of the context.
    pub src_type: String,
    /// Context frames, innermost first.
    pub frames: Vec<String>,
    /// The concrete selection.
    pub kind: PortableChoice,
}

/// Kind-specific selection payload of a [`PortableUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortableChoice {
    /// List override.
    List(Selection<ListChoice>),
    /// Set override.
    Set(Selection<SetChoice>),
    /// Map override.
    Map(Selection<MapChoice>),
}

/// Converts applicable suggestions into portable updates, using `heap` to
/// resolve context frames. Advisory suggestions are skipped.
pub fn portable_updates(suggestions: &[Suggestion], heap: &Heap) -> Vec<PortableUpdate> {
    suggestions
        .iter()
        .filter_map(|s| {
            let update = s.policy_update()?;
            let ctx = s.ctx.expect("policy_update implies captured ctx");
            let frames = heap.context_frames(ctx);
            let kind = match update {
                PolicyUpdate::List(_, sel) => PortableChoice::List(sel),
                PolicyUpdate::Set(_, sel) => PortableChoice::Set(sel),
                PolicyUpdate::Map(_, sel) => PortableChoice::Map(sel),
            };
            Some(PortableUpdate {
                src_type: s.src_type.clone(),
                frames,
                kind,
            })
        })
        .collect()
}

/// A fresh execution environment.
pub struct Env {
    /// The simulated heap.
    pub heap: Heap,
    /// The collection runtime.
    pub rt: Runtime,
    /// The factory workloads allocate through.
    pub factory: CollectionFactory,
    /// The profiler, when profiling is enabled.
    pub profiler: Option<Rc<Profiler>>,
    /// This environment's trace lane (lane 0 for the parent environment;
    /// partition environments get the owning worker's lane).
    pub(crate) trace: Option<TraceLane>,
    capture_depth: usize,
    /// The construction parameters, kept so the parallel runner can build
    /// identically configured hermetic partition environments.
    pub(crate) config: EnvConfig,
}

impl Env {
    /// Builds an environment from `config`.
    pub fn new(config: &EnvConfig) -> Self {
        let heap = Heap::with_config(HeapConfig {
            capacity: config.heap_capacity,
            gc_interval_bytes: config.gc_interval_bytes,
            model: config.model,
            shard_index: config.shard_index,
            ..HeapConfig::default()
        });
        heap.set_heap_profiling(config.heapprof);
        let rt = Runtime::new(heap.clone());
        if let Some(t) = &config.telemetry {
            rt.attach_telemetry(t);
        }
        let profiler = config.profiling.then(|| Profiler::install(&rt));
        let factory = CollectionFactory::with_capture(rt.clone(), config.capture.clone());
        let trace = config.tracer.as_ref().map(|tr| {
            let lane = tr.lane(tr.default_lane());
            heap.attach_tracer(&lane);
            lane
        });
        let env = Env {
            heap,
            rt,
            factory,
            profiler,
            trace,
            capture_depth: config.capture.depth,
            config: config.clone(),
        };
        if !config.policy.is_empty() {
            env.apply_policy(&config.policy);
        }
        env
    }

    /// Re-interns and installs portable policy updates into this
    /// environment's factory.
    pub fn apply_policy(&self, updates: &[PortableUpdate]) {
        let policy = self.factory.policy();
        let mut policy = policy.borrow_mut();
        for u in updates {
            let ctx = self
                .heap
                .intern_context(&u.src_type, &u.frames, self.capture_depth);
            match u.kind {
                PortableChoice::List(sel) => policy.set_list(ctx, sel),
                PortableChoice::Set(sel) => policy.set_set(ctx, sel),
                PortableChoice::Map(sel) => policy.set_map(ctx, sel),
            }
        }
    }

    /// Runs `workload` to completion and performs a final GC so end-of-run
    /// live data is recorded, bracketed by [`Env::run_bracketed`].
    pub fn run(&self, workload: &dyn Workload) {
        let _span = self.trace.as_ref().map(|l| l.scope("workload"));
        self.run_bracketed(workload.name(), || {
            workload.run(&self.factory);
            self.heap.gc();
            // Collections still live at workload end never reach the death
            // sink on their own; deliver their statistics as survivors so
            // long-lived contexts are visible to the profile and the online
            // engine's converged policy.
            self.rt.flush_survivors();
        });
    }

    /// Runs `body` as the workload `name`. When telemetry is attached, the
    /// run is bracketed by `workload_begin` / `workload_end`
    /// events on the shared `SimClock`; the end event carries the run's
    /// headline metrics. [`Env::run`] and [`Env::run_parallel`] share it,
    /// so both execution modes log the same bracket.
    pub(crate) fn run_bracketed(&self, name: &str, body: impl FnOnce()) {
        let telemetry = self.rt.telemetry();
        if let Some(t) = &telemetry {
            t.event("workload_begin", self.rt.clock().now())
                .str("name", name);
        }
        body();
        if let Some(t) = &telemetry {
            let m = self.metrics();
            t.event("workload_end", m.sim_time)
                .str("name", name)
                .num("sim_time", m.sim_time)
                .num("peak_live_bytes", m.peak_live_bytes)
                .num("gc_count", m.gc_count)
                .num("allocated_bytes", m.total_allocated_bytes)
                .num("allocated_objects", m.total_allocated_objects)
                .num("capture_count", m.capture_count);
        }
    }

    /// Extracts the run's metrics.
    pub fn metrics(&self) -> RunMetrics {
        let cycles = self.heap.cycles();
        let peak_live = cycles.iter().map(|c| c.live_bytes).max().unwrap_or(0);
        RunMetrics {
            sim_time: self.rt.clock().now(),
            peak_live_bytes: peak_live,
            gc_count: self.heap.gc_count(),
            total_allocated_bytes: self.heap.total_allocated_bytes(),
            total_allocated_objects: self.heap.total_allocated_objects(),
            capture_count: self.factory.capture_count(),
        }
    }

    /// Builds the profile report (profiling environments only).
    ///
    /// # Panics
    ///
    /// Panics if the environment was created with `profiling: false`.
    pub fn report(&self) -> ProfileReport {
        let profiler = self
            .profiler
            .as_ref()
            .expect("report() requires a profiling environment");
        ProfileReport::build(profiler, &self.heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> impl Workload {
        ("tiny", |f: &CollectionFactory| {
            let _g = f.enter("T.site:1");
            for _ in 0..10 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..3 {
                    m.put(i, i);
                }
            }
        })
    }

    #[test]
    fn profiling_env_produces_report() {
        let env = Env::new(&EnvConfig::default());
        env.run(&tiny_workload());
        let report = env.report();
        assert_eq!(report.contexts.len(), 1);
        assert_eq!(report.contexts[0].src_type, "HashMap");
        let m = env.metrics();
        assert!(m.sim_time > 0);
        assert!(m.gc_count >= 1);
    }

    #[test]
    fn measured_env_has_no_capture_overhead() {
        let cfg = EnvConfig::measured(64 * 1024 * 1024);
        let env = Env::new(&cfg);
        env.run(&tiny_workload());
        assert_eq!(env.metrics().capture_count, 0);
        assert!(env.profiler.is_none());
    }

    #[test]
    fn long_lived_list_receives_suggestion_via_survivor_flush() {
        use chameleon_rules::RuleEngine;
        use std::cell::RefCell;

        // Holds its list past the end of `run`, like a cache a server
        // keeps for its whole lifetime.
        struct HoldsList(RefCell<Vec<chameleon_collections::ListHandle<i64>>>);
        impl Workload for HoldsList {
            fn name(&self) -> &'static str {
                "holds-list"
            }
            fn run(&self, f: &CollectionFactory) {
                let _g = f.enter("Hold.site:9");
                let mut l = f.new_list::<i64>(None);
                for i in 0..64 {
                    l.add(i);
                }
                self.0.borrow_mut().push(l);
            }
        }

        let w = HoldsList(RefCell::new(Vec::new()));
        let env = Env::new(&EnvConfig::default());
        env.run(&w);
        let report = env.report();
        let ctx = report
            .by_label(&format!("{}:{}", "ArrayList", "Hold.site:9"))
            .expect("long-lived context present in the profile");
        assert_eq!(ctx.trace.instances, 1);
        assert_eq!(ctx.trace.survivors, 1, "flushed as a survivor");
        // The context grew far beyond its initial capacity, so the built-in
        // capacity-tuning rule must fire — previously the instance never
        // reached the profiler and produced no suggestion at all.
        let suggestions = RuleEngine::builtin().evaluate(&report);
        assert!(
            suggestions.iter().any(|s| s.ctx == ctx.ctx),
            "expected a suggestion for the survivor context: {suggestions:?}"
        );
    }

    #[test]
    fn portable_policy_survives_environments() {
        // Profile in env 1.
        let env1 = Env::new(&EnvConfig::default());
        env1.run(&tiny_workload());
        let report = env1.report();
        let ctx = report.contexts[0].ctx.expect("captured");
        let frames = env1.heap.context_frames(ctx);
        let update = PortableUpdate {
            src_type: "HashMap".to_owned(),
            frames,
            kind: PortableChoice::Map(Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(4),
            }),
        };
        // Apply in env 2 and verify the override takes effect.
        let env2 = Env::new(&EnvConfig::default());
        env2.apply_policy(&[update]);
        let _g = env2.factory.enter("T.site:1");
        let m = env2.factory.new_map::<i64, i64>(None);
        assert_eq!(m.impl_name(), "ArrayMap");
    }
}
