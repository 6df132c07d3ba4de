//! # chameleon-core
//!
//! The Chameleon orchestrator (PLDI 2009): wires the simulated heap, the
//! instrumented collection library, the semantic profiler and the rule
//! engine into the paper's two operating modes:
//!
//! * **Offline methodology (§5.2)** — [`experiment::run_experiment`]:
//!   profile, evaluate rules, apply the suggestions as a portable policy,
//!   then measure minimal heap size (Fig. 6) and running time at the
//!   original minimal heap (Fig. 7) before and after.
//! * **Fully-automatic online mode (§3.3.2, §5.4)** —
//!   [`online::run_online`]: replacement decisions are made and installed
//!   while the program runs, paying the context-capture cost on every
//!   allocation.
//!
//! The [`Chameleon`] facade bundles the common case.
//!
//! # Examples
//!
//! ```
//! use chameleon_collections::CollectionFactory;
//! use chameleon_core::Chameleon;
//!
//! let workload = ("quick", |f: &CollectionFactory| {
//!     let _frame = f.enter("Quick.main:1");
//!     let mut keep = Vec::new();
//!     for _ in 0..30 {
//!         let mut m = f.new_map::<i64, i64>(None);
//!         m.put(1, 1);
//!         keep.push(m);
//!     }
//! });
//! let chameleon = Chameleon::new();
//! let result = chameleon.optimize(&workload);
//! assert!(result.min_heap_after <= result.min_heap_before);
//! ```

#![forbid(unsafe_code)]

pub mod env;
pub mod experiment;
pub mod metrics;
pub mod minheap;
pub mod online;
pub mod parallel;
pub mod serve;
pub mod workload;

pub use env::{portable_updates, Env, EnvConfig, PortableChoice, PortableUpdate};
pub use experiment::{run_experiment, run_quick_experiment, ExperimentResult, QuickExperiment};
pub use metrics::{Improvement, RunMetrics};
pub use minheap::{
    completes_under, completes_under_with, min_heap_size, min_heap_size_with, silence_oom_panics,
};
pub use online::{run_online, OnlineConfig, OnlineError, OnlineResult};
pub use parallel::{default_threads, ParallelConfig, ParallelError};
#[cfg(unix)]
pub use serve::serve_socket;
pub use serve::{serve_stream, Reply, ServeConfig, Server, WorkloadResolver};
pub use workload::{PartitionTask, Workload};

use chameleon_profiler::ProfileReport;
use chameleon_rules::RuleEngine;
use std::sync::Arc;

/// High-level facade over the full Chameleon pipeline.
pub struct Chameleon {
    engine: Arc<RuleEngine>,
    profile_config: EnvConfig,
    top_k: Option<usize>,
}

impl Default for Chameleon {
    fn default() -> Self {
        Chameleon::new()
    }
}

impl Chameleon {
    /// Chameleon with the built-in Table 2 rules and default configuration.
    pub fn new() -> Self {
        Chameleon {
            engine: Arc::new(RuleEngine::builtin()),
            profile_config: EnvConfig::default(),
            top_k: None,
        }
    }

    /// Replaces the rule engine (custom rules / tuned parameters).
    pub fn with_engine(mut self, engine: RuleEngine) -> Self {
        self.engine = Arc::new(engine);
        self
    }

    /// Replaces the profiling-environment configuration.
    pub fn with_profile_config(mut self, config: EnvConfig) -> Self {
        self.profile_config = config;
        self
    }

    /// Applies only the `k` highest-potential suggestions (the paper's
    /// "top allocation contexts").
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Profiles `workload` once and returns the environment itself, so
    /// callers can reach both the report *and* the heap (snapshots,
    /// context labels) — `chameleon profile --emit` writes its artifacts
    /// this way.
    pub fn profile_env(&self, workload: &dyn Workload) -> Env {
        let env = Env::new(&self.profile_config);
        env.run(workload);
        env
    }

    /// Like [`Chameleon::profile_env`], but runs the workload on the
    /// parallel mutator runtime (`config.partitions` partitions on
    /// `config.threads` threads). With one partition this is exactly
    /// [`Chameleon::profile_env`].
    ///
    /// # Errors
    ///
    /// Fails when the workload is not partitionable or the configuration
    /// is invalid (see [`ParallelError`]).
    pub fn profile_env_parallel(
        &self,
        workload: &dyn Workload,
        config: ParallelConfig,
    ) -> Result<Env, ParallelError> {
        let env = Env::new(&self.profile_config);
        env.run_parallel(workload, config)?;
        Ok(env)
    }

    /// The rule engine in use.
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// Profiles `workload` once and returns the report.
    pub fn profile(&self, workload: &dyn Workload) -> ProfileReport {
        let env = Env::new(&self.profile_config);
        env.run(workload);
        env.report()
    }

    /// Runs the full §5.2 methodology.
    pub fn optimize(&self, workload: &dyn Workload) -> ExperimentResult {
        run_experiment(workload, &self.engine, &self.profile_config, self.top_k)
    }

    /// Runs fully-automatic online mode.
    ///
    /// # Errors
    ///
    /// Fails when `config.env` disables profiling (see
    /// [`OnlineError::NotProfiling`]).
    pub fn optimize_online(
        &self,
        workload: &dyn Workload,
        config: &OnlineConfig,
    ) -> Result<OnlineResult, OnlineError> {
        run_online(workload, Arc::clone(&self.engine), config)
    }
}
