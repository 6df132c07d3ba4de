//! Parameterized synthetic workload generator, for ablations and
//! micro-studies (context-depth sweeps, stability-gate studies, capture
//! overhead scaling).

use chameleon_collections::CollectionFactory;
use chameleon_core::{PartitionTask, Workload};
use rand::Rng;

/// Distribution of collection sizes at one synthetic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDist {
    /// Every instance reaches exactly this size.
    Fixed(usize),
    /// Uniform in `[lo, hi]`.
    Uniform(usize, usize),
    /// `small` with probability 9/10, `large` otherwise (the stability
    /// ablation's bimodal shape).
    Bimodal(usize, usize),
}

impl SizeDist {
    fn sample(&self, rng: &mut impl Rng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            SizeDist::Bimodal(small, large) => {
                if rng.gen_ratio(9, 10) {
                    small
                } else {
                    large
                }
            }
        }
    }
}

/// One synthetic allocation site.
#[derive(Debug, Clone)]
pub struct SyntheticSite {
    /// Frame name (defines the allocation context).
    pub frame: String,
    /// Map instances allocated at this site.
    pub instances: usize,
    /// Size distribution of each instance.
    pub sizes: SizeDist,
    /// Keyed lookups per instance after filling.
    pub gets_per_instance: usize,
    /// Whether instances stay live to the end of the run.
    pub long_lived: bool,
    /// Whether allocation is routed through a shared factory helper frame
    /// (requires context depth >= 2 to disambiguate).
    pub via_factory: bool,
}

impl Default for SyntheticSite {
    fn default() -> Self {
        SyntheticSite {
            frame: "synthetic.Site:1".to_owned(),
            instances: 50,
            sizes: SizeDist::Fixed(4),
            gets_per_instance: 8,
            long_lived: true,
            via_factory: false,
        }
    }
}

/// A workload assembled from synthetic sites, all allocating `HashMap`s.
#[derive(Debug, Clone, Default)]
pub struct Synthetic {
    /// The sites to exercise.
    pub sites: Vec<SyntheticSite>,
}

impl Synthetic {
    /// A map-heavy workload with `n` identical small-map sites.
    pub fn small_maps(n: usize) -> Self {
        Synthetic {
            sites: (0..n)
                .map(|i| SyntheticSite {
                    frame: format!("synthetic.Site:{i}"),
                    ..SyntheticSite::default()
                })
                .collect(),
        }
    }

    /// Exercises a slice of sites. Each site draws from its own RNG
    /// (seeded by its frame name), so any contiguous grouping of sites —
    /// the whole workload, or one partition of it — performs identical
    /// per-site operations.
    fn run_sites(sites: &[SyntheticSite], f: &CollectionFactory) {
        let mut keep = Vec::new();
        for site in sites {
            let mut rng = crate::util::rng(&site.frame);
            let _site_frame = f.enter(&site.frame);
            for _ in 0..site.instances {
                let mut m = {
                    let _factory_frame = site
                        .via_factory
                        .then(|| f.enter("synthetic.MapFactory.make:9"));
                    f.new_map::<i64, i64>(None)
                };
                let n = site.sizes.sample(&mut rng);
                for k in 0..n {
                    m.put(k as i64, k as i64);
                }
                for g in 0..site.gets_per_instance {
                    let _ = m.get(&((g % n.max(1)) as i64));
                }
                if site.long_lived {
                    keep.push(m);
                }
            }
        }
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn run(&self, f: &CollectionFactory) {
        Synthetic::run_sites(&self.sites, f);
    }

    /// Contiguous site chunks: every site owns its RNG stream, so each
    /// partition performs exactly the operations `run` would perform for
    /// its sites. (Long-lived instances live to the end of their
    /// *partition* rather than the whole run, so partitioned GC history
    /// deterministically differs from the sequential one.)
    fn partitions(&self, parts: usize) -> Option<Vec<PartitionTask>> {
        if self.sites.is_empty() || parts == 0 {
            return None;
        }
        let parts = parts.min(self.sites.len());
        let per = self.sites.len().div_ceil(parts);
        Some(
            self.sites
                .chunks(per)
                .enumerate()
                .map(|(i, chunk)| {
                    let sites = chunk.to_vec();
                    PartitionTask::new(format!("synthetic[{i}]"), move |f| {
                        Synthetic::run_sites(&sites, f)
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::{Chameleon, EnvConfig};

    fn env() -> EnvConfig {
        EnvConfig {
            gc_interval_bytes: Some(32 * 1024),
            ..EnvConfig::default()
        }
    }

    #[test]
    fn sites_become_contexts() {
        let w = Synthetic::small_maps(5);
        let chameleon = Chameleon::new().with_profile_config(env());
        let report = chameleon.profile(&w);
        assert_eq!(report.contexts.len(), 5);
    }

    #[test]
    fn partition_plan_covers_run_operations() {
        use chameleon_core::Env;
        // Running every partition back to back on one factory performs the
        // same per-site operations as `run`, thanks to per-site RNG
        // streams. (Long-lived instances die at partition boundaries, so
        // GC history may differ; semantic accounting must not.)
        let w = Synthetic::small_maps(6);
        let seq = Env::new(&env());
        seq.run(&w);

        let split = Env::new(&env());
        let tasks = w.partitions(3).expect("partitionable");
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            t.run(&split.factory);
        }
        split.heap.gc();
        split.rt.flush_survivors();
        let (sm, pm) = (seq.metrics(), split.metrics());
        assert_eq!(sm.total_allocated_bytes, pm.total_allocated_bytes);
        assert_eq!(sm.total_allocated_objects, pm.total_allocated_objects);
        assert_eq!(sm.capture_count, pm.capture_count);
        let (seq_report, split_report) = (seq.report(), split.report());
        assert_eq!(seq_report.contexts.len(), split_report.contexts.len());
        for c in &seq_report.contexts {
            let other = split_report.by_label(&c.label).expect("context present");
            assert_eq!(c.trace.instances, other.trace.instances, "{}", c.label);
            assert_eq!(
                c.trace.all_ops_total(),
                other.trace.all_ops_total(),
                "{}",
                c.label
            );
        }
    }

    #[test]
    fn parallel_profile_is_thread_count_invariant() {
        use chameleon_core::{Env, ParallelConfig};
        let w = Synthetic::small_maps(8);
        let fingerprint = |threads: usize| {
            let e = Env::new(&env());
            e.run_parallel(
                &w,
                ParallelConfig {
                    partitions: 4,
                    threads,
                },
            )
            .expect("parallel run");
            (e.metrics(), e.report().to_json())
        };
        let one = fingerprint(1);
        assert_eq!(one, fingerprint(2));
        assert_eq!(one, fingerprint(4));
    }

    #[test]
    fn partition_panic_keeps_its_payload_at_every_thread_count() {
        use chameleon_core::{silence_oom_panics, Env, ParallelConfig};
        use chameleon_heap::OutOfMemory;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        silence_oom_panics();
        let w = Synthetic::small_maps(8);
        for threads in [1usize, 2] {
            let e = Env::new(&EnvConfig {
                heap_capacity: Some(4 * 1024),
                ..env()
            });
            let payload = catch_unwind(AssertUnwindSafe(|| {
                e.run_parallel(
                    &w,
                    ParallelConfig {
                        partitions: 2,
                        threads,
                    },
                )
            }))
            .expect_err("a 4 KiB heap cannot hold a partition");
            assert!(
                payload.is::<OutOfMemory>(),
                "threads={threads}: payload is {:?}",
                payload.downcast_ref::<&str>()
            );
        }
    }

    #[test]
    fn bimodal_sites_are_unstable() {
        use chameleon_profiler::StabilityConfig;
        let w = Synthetic {
            sites: vec![
                SyntheticSite {
                    frame: "stable.Site:1".to_owned(),
                    sizes: SizeDist::Fixed(4),
                    ..SyntheticSite::default()
                },
                SyntheticSite {
                    frame: "bimodal.Site:2".to_owned(),
                    sizes: SizeDist::Bimodal(2, 400),
                    ..SyntheticSite::default()
                },
            ],
        };
        let chameleon = Chameleon::new().with_profile_config(env());
        let report = chameleon.profile(&w);
        let gate = StabilityConfig::default();
        let stable = report
            .contexts
            .iter()
            .find(|c| c.label.contains("stable.Site:1"))
            .expect("profiled");
        let bimodal = report
            .contexts
            .iter()
            .find(|c| c.label.contains("bimodal.Site:2"))
            .expect("profiled");
        assert!(gate.size_stable(&stable.trace));
        assert!(!gate.size_stable(&bimodal.trace));
    }

    #[test]
    fn factory_frame_needs_depth_two() {
        // With depth 1, all factory-mediated sites collapse into one
        // context (the factory frame); with depth 2 they separate.
        use chameleon_collections::factory::CaptureConfig;
        let mk = |depth: usize| {
            let w = Synthetic {
                sites: (0..3)
                    .map(|i| SyntheticSite {
                        frame: format!("caller.Site:{i}"),
                        via_factory: true,
                        ..SyntheticSite::default()
                    })
                    .collect(),
            };
            let cfg = EnvConfig {
                capture: CaptureConfig {
                    depth,
                    ..CaptureConfig::default()
                },
                ..env()
            };
            let chameleon = Chameleon::new().with_profile_config(cfg);
            chameleon.profile(&w).contexts.len()
        };
        assert_eq!(mk(1), 1, "depth 1 collapses factory allocations");
        assert_eq!(mk(2), 3, "depth 2 sees through the factory");
    }
}
