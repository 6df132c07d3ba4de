//! Parallel mutator runtime with deterministic partition merge.
//!
//! [`Env::run_parallel`] executes a partitioned workload on the calling
//! thread (worker 0) plus scoped helper threads. Each partition runs
//! against its own *hermetic* environment — a fresh single-mutator heap,
//! runtime, factory and profiler built from the parent's [`EnvConfig`] —
//! so mutator threads share no simulation state, never touch the parent
//! heap, and take zero locks on the allocation path. Workers claim
//! partition indices from one shared counter, so a worker that finishes
//! takes the next unclaimed partition and non-divisible plans keep every
//! thread busy. When every partition has finished, the results are
//! folded into the parent environment **in partition-index order**:
//! context tables are merged by `Arc`-shared export/import with id remap,
//! GC cycles and heap snapshots renumbered, per-context traces merged,
//! simulated time accumulated, and each partition's child telemetry and
//! child tracer adopted, re-based onto the parent's clock and cycle
//! count. Because the merge order is fixed and each partition is a
//! deterministic function of its task alone, `RunMetrics`, the profile
//! report, rule suggestions and the event log (wall-clock `*_ns` fields
//! aside) are a function of `(workload, partition plan)` only — the OS
//! thread interleaving cannot leak into any result.
//!
//! With one partition the workload runs inline on the parent environment,
//! making `run_parallel` bit-identical to [`Env::run`] by construction.
//! Note that a *multi*-partition plan is its own point in the
//! simulation's configuration space: each partition heap triggers
//! allocation-driven GC from its own `bytes_since_gc` counter, so the
//! merged cycle history differs from the unpartitioned sequential run
//! (deterministically so).

use crate::env::{Env, EnvConfig};
use crate::workload::{PartitionTask, Workload};
use chameleon_heap::{ContextExport, ContextId, CycleStats, HeapSnapshot};
use chameleon_profiler::ContextTrace;
use chameleon_telemetry::{SpanRecord, SpanTimer, Telemetry, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutator threads to use when the caller does not pick a count: the
/// host's available parallelism (1 when the runtime cannot tell).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parallel-run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of partitions to split the workload into. The partition
    /// count — not the thread count — is what shapes the results.
    pub partitions: usize,
    /// Number of mutator threads executing partitions. Purely a
    /// scheduling choice: any thread count yields bit-identical results
    /// for the same partition plan.
    pub threads: usize,
}

impl ParallelConfig {
    /// `n` partitions on `n` threads — the CLI's `--threads n` shape.
    pub fn with_threads(n: usize) -> Self {
        ParallelConfig {
            partitions: n,
            threads: n,
        }
    }
}

/// Why a parallel run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// `partitions` was zero; at least one partition is required.
    ZeroPartitions,
    /// `threads` was zero; at least one mutator thread is required.
    ZeroThreads,
    /// The workload's [`Workload::partitions`] returned no plan.
    NotPartitionable {
        /// Name of the workload that could not be partitioned.
        workload: String,
    },
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::ZeroPartitions => {
                write!(f, "partition count must be at least 1 (got 0)")
            }
            ParallelError::ZeroThreads => {
                write!(f, "mutator thread count must be at least 1 (got 0)")
            }
            ParallelError::NotPartitionable { workload } => {
                write!(f, "workload `{workload}` does not support partitioning")
            }
        }
    }
}

impl std::error::Error for ParallelError {}

/// Everything a finished partition hands back for the ordered merge.
/// Plain data only, so it crosses the thread boundary freely.
struct PartitionOutcome {
    name: String,
    sim_time: u64,
    cycles: Vec<CycleStats>,
    snapshots: Vec<HeapSnapshot>,
    /// The partition heap's context table in id order: index `i` is the
    /// partition-local `ContextId(i)`. `Arc`-shared with the (dropped)
    /// partition heap, so extraction copies no strings.
    contexts: ContextExport,
    traces: Vec<(Option<ContextId>, ContextTrace)>,
    captures: u64,
    survivors: usize,
    allocated_bytes: u64,
    allocated_objects: u64,
    wall_ns: u64,
    /// The partition's child telemetry (present iff the parent has one);
    /// the parent adopts it at merge time, in partition-index order.
    telemetry: Option<Telemetry>,
    /// Span records drained from the partition's child tracer (empty when
    /// tracing is off). Ids live in the child's id space until the parent
    /// adopts them at merge time, in partition-index order.
    trace: Vec<SpanRecord>,
    /// Parent-space id of the worker-side `partition` span the adopted
    /// records are reparented under (0 = none).
    trace_parent: u64,
    /// Worker lane the partition executed on.
    lane: u32,
}

/// Runs one partition to completion in a fresh hermetic environment and
/// extracts its portable outcome. The partition records into a fresh
/// telemetry handle the parent adopts when the parent has one. `trace` is
/// `(parent tracer, worker lane)` when a tracer is attached: the partition
/// gets a `partition` span on the
/// worker's lane, and runs against a *child* tracer whose
/// records the parent adopts during the deterministic merge — so worker
/// rings stay single-writer and the trace is causal across the fork/join.
fn run_partition(
    config: &EnvConfig,
    task: &PartitionTask,
    index: usize,
    trace: Option<(&Tracer, u32)>,
) -> PartitionOutcome {
    let timer = SpanTimer::start();
    let (span, child_tracer) = match trace {
        Some((tr, lane_id)) => {
            let span = tr
                .lane(lane_id)
                .scope("partition")
                .arg("partition", index as u64);
            (Some(span), Some(tr.child(lane_id)))
        }
        None => (None, None),
    };
    let telemetry = config.telemetry.as_ref().map(|_| Telemetry::new());
    let env = Env::new(&EnvConfig {
        // Name the partition in the heap's single-mutator machinery so a
        // re-entry panic reports which partition's heap was re-entered.
        shard_index: Some(index),
        telemetry: telemetry.clone(),
        tracer: child_tracer.clone(),
        ..config.clone()
    });
    task.run(&env.factory);
    env.heap.gc();
    let survivors = env.rt.flush_survivors();
    let traces = env
        .profiler
        .as_ref()
        .map(|p| p.traces())
        .unwrap_or_default();
    let trace_parent = span.as_ref().map_or(0, |s| s.id());
    let lane = trace.map_or(0, |(_, lane_id)| lane_id);
    let trace = child_tracer
        .as_ref()
        .map(|c| c.records())
        .unwrap_or_default();
    PartitionOutcome {
        name: task.name().to_owned(),
        sim_time: env.rt.clock().now(),
        cycles: env.heap.cycles(),
        snapshots: env.heap.heap_snapshots(),
        contexts: env.heap.export_contexts(),
        traces,
        captures: env.factory.capture_count(),
        survivors,
        allocated_bytes: env.heap.total_allocated_bytes(),
        allocated_objects: env.heap.total_allocated_objects(),
        wall_ns: timer.elapsed_ns(),
        telemetry,
        trace,
        trace_parent,
        lane,
    }
}

impl Env {
    /// Runs `workload` split into `config.partitions` independent
    /// partitions on `config.threads` mutator threads, then merges every
    /// partition's results into this environment in partition-index
    /// order.
    ///
    /// Determinism contract: for a fixed workload and partition count,
    /// the merged [`RunMetrics`](crate::RunMetrics), profile report and
    /// downstream rule suggestions are bit-identical for **any** thread
    /// count. With `partitions == 1` the workload runs inline via
    /// [`Env::run`], so the single-partition results match the sequential
    /// path exactly.
    ///
    /// # Panics
    ///
    /// A partition that panics (say, with `OutOfMemory` under a tight
    /// heap capacity) unwinds out of this call with its own payload, at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Fails when `partitions` or `threads` is zero, or when the workload
    /// returns no partition plan (`partitions > 1` only).
    pub fn run_parallel(
        &self,
        workload: &dyn Workload,
        config: ParallelConfig,
    ) -> Result<(), ParallelError> {
        if config.partitions == 0 {
            return Err(ParallelError::ZeroPartitions);
        }
        if config.threads == 0 {
            return Err(ParallelError::ZeroThreads);
        }
        if config.partitions == 1 {
            self.run(workload);
            return Ok(());
        }
        let tasks = workload
            .partitions(config.partitions)
            .filter(|t| !t.is_empty())
            .ok_or_else(|| ParallelError::NotPartitionable {
                workload: workload.name().to_owned(),
            })?;

        self.run_bracketed(workload.name(), || {
            self.run_partitions(workload.name(), &tasks, config.threads)
        });
        Ok(())
    }

    /// Runs `tasks` on up to `threads` mutator threads and merges their
    /// outcomes in partition-index order.
    fn run_partitions(&self, name: &str, tasks: &[PartitionTask], threads: usize) {
        // Each partition records into a child telemetry and a child tracer
        // the parent adopts at merge time (worker lane w runs on trace lane
        // w+1; lane 0 is the parent).
        let tracer = self.config.tracer.clone();
        let workers = threads.min(tasks.len());
        let run_span = self.trace.as_ref().map(|l| {
            l.scope("run_parallel")
                .arg("partitions", tasks.len() as u64)
                .arg("threads", workers as u64)
        });
        // Every worker claims the next unclaimed partition index from one
        // shared counter until the plan is exhausted. Which worker runs
        // which partition is scheduling noise; the index-ordered placement
        // below erases it.
        let next = AtomicUsize::new(0);
        let config = &self.config;
        let work = |w: usize| {
            let lane_id = (w + 1) as u32;
            let _worker_span = tracer
                .as_ref()
                .map(|tr| tr.lane(lane_id).scope("worker").arg("worker", w as u64));
            let mut done = Vec::new();
            loop {
                // relaxed: the counter publishes no data (tasks are shared
                // read-only) and every outcome reaches the caller through
                // a thread join, which orders it.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let trace = tracer.as_ref().map(|tr| (tr, lane_id));
                done.push((i, run_partition(config, task, i, trace)));
            }
            done
        };
        // The calling thread is worker 0. Helpers are joined explicitly so
        // a helper's panic reaches the caller with its own payload (an
        // unjoined scoped thread's payload is replaced by a generic one).
        let claimed = std::thread::scope(|s| {
            let work = &work;
            let helpers: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
            let mut claimed = work(0);
            for h in helpers {
                claimed.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            claimed
        });
        let mut slots: Vec<Option<PartitionOutcome>> = tasks.iter().map(|_| None).collect();
        for (i, outcome) in claimed {
            assert!(
                slots[i].replace(outcome).is_none(),
                "partition {i} ran twice"
            );
        }
        let outcomes = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("partition {i} never ran")));

        // ----- deterministic merge, partition-index order --------------------
        let telemetry = self.rt.telemetry();
        let mut survivors = 0usize;
        for (index, outcome) in outcomes.enumerate() {
            let merge_span = self
                .trace
                .as_ref()
                .map(|l| l.scope("merge_partition").arg("partition", index as u64));
            let base_units = self.rt.clock().now();
            let base_cycles = self.heap.gc_count();
            self.rt.clock().charge(outcome.sim_time);

            // Merge the partition's context table by export/import: frame
            // names remap once, records re-intern with shared strings, and
            // index i of the remap is the partition-local ContextId(i).
            let remap: Vec<ContextId> = self.heap.import_contexts(&outcome.contexts);

            let mut cycles = outcome.cycles;
            let cycle_count = cycles.len() as u64;
            for c in &mut cycles {
                c.at_units += base_units;
                for (ctx, _) in &mut c.per_context {
                    *ctx = remap[ctx.0 as usize];
                }
                c.per_context.sort_by_key(|(ctx, _)| ctx.0);
            }
            let mut snapshots = outcome.snapshots;
            for s in &mut snapshots {
                s.at_units += base_units;
                for cs in &mut s.contexts {
                    if let Some(c) = cs.ctx {
                        cs.ctx = Some(remap[c.0 as usize]);
                    }
                }
                // Restore the documented invariant: context-id order, the
                // no-context bucket last.
                s.contexts.sort_by_key(|cs| match cs.ctx {
                    Some(c) => (0u8, c.0),
                    None => (1u8, 0),
                });
            }
            self.heap.absorb_partition(
                cycles,
                snapshots,
                outcome.allocated_bytes,
                outcome.allocated_objects,
            );

            if let Some(profiler) = &self.profiler {
                // Trace-map iteration order is irrelevant: traces merge
                // into disjoint per-context entries, and cross-partition
                // accumulation happens in this loop's fixed order.
                for (ctx, trace) in &outcome.traces {
                    let ctx = ctx.map(|c| remap[c.0 as usize]);
                    profiler.merge_trace(ctx, trace);
                }
            }
            self.factory.absorb_captures(outcome.captures);
            survivors += outcome.survivors;

            // Adopt the partition's child-tracer records: ids remap into
            // the parent's id space, roots reparent under the worker-side
            // `partition` span, and the records land on the worker's lane.
            // Merge order is partition-index order, so the adopted id
            // assignment is deterministic for any thread count.
            if let Some(tr) = &tracer {
                tr.adopt(&outcome.trace, outcome.trace_parent, outcome.lane);
            }
            // The child's events re-base exactly like its cycles above.
            if let (Some(t), Some(child)) = (&self.config.telemetry, &outcome.telemetry) {
                t.adopt(child, base_units, base_cycles);
            }

            if let Some(t) = &telemetry {
                // Every count below is the partition's *own* total (the
                // event previously reported the parent's running GC total
                // as `cycles`), so parent-side aggregates must equal the
                // sum of these events over all partitions.
                let ops: u64 = outcome
                    .traces
                    .iter()
                    .map(|(_, trace)| trace.all_ops_total())
                    .sum();
                t.event("mutator_partition", self.rt.clock().now())
                    .str("name", &outcome.name)
                    .num("index", index as u64)
                    .num("sim_time", outcome.sim_time)
                    .num("cycles", cycle_count)
                    .num("ops", ops)
                    .num("allocated_bytes", outcome.allocated_bytes)
                    .num("allocated_objects", outcome.allocated_objects)
                    .num("captures", outcome.captures)
                    .num("survivors", outcome.survivors as u64)
                    .num("wall_ns", outcome.wall_ns);
            }
            drop(merge_span);
        }
        drop(run_span);

        if let Some(t) = &telemetry {
            t.event("parallel_run_end", self.rt.clock().now())
                .str("name", name)
                .num("partitions", tasks.len() as u64)
                .num("threads", workers as u64)
                .num("survivors", survivors as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::CollectionFactory;
    use std::ops::Range;

    /// Splits `sites` into at most `parts` contiguous ranges, one
    /// partition task each.
    fn site_ranges(
        sites: usize,
        parts: usize,
        label: &str,
        run: fn(&CollectionFactory, Range<usize>),
    ) -> Vec<PartitionTask> {
        let parts = parts.min(sites).max(1);
        let per = sites.div_ceil(parts);
        (0..parts)
            .map(|p| {
                let range = p * per..((p + 1) * per).min(sites);
                PartitionTask::new(format!("{label}[{p}]"), move |f| run(f, range.clone()))
            })
            .collect()
    }

    /// A partitionable workload: `sites` allocation sites, each allocating
    /// a deterministic burst of maps and lists.
    struct Burst {
        sites: usize,
    }

    impl Burst {
        fn run_site(f: &CollectionFactory, site: usize) {
            let _g = f.enter(&format!("Burst.site:{site}"));
            let mut keep = Vec::new();
            for round in 0..20 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..(site as i64 % 5) {
                    m.put(i, i);
                }
                if round % 3 == 0 {
                    keep.push(m);
                }
                let mut l = f.new_list::<i64>(None);
                for i in 0..(round as i64) {
                    l.add(i);
                }
            }
        }
    }

    impl Workload for Burst {
        fn name(&self) -> &'static str {
            "burst"
        }
        fn run(&self, f: &CollectionFactory) {
            for site in 0..self.sites {
                Burst::run_site(f, site);
            }
        }
        fn partitions(&self, parts: usize) -> Option<Vec<PartitionTask>> {
            Some(site_ranges(self.sites, parts, "burst", |f, sites| {
                sites.for_each(|site| Burst::run_site(f, site))
            }))
        }
    }

    /// The shape of the workloads crate's `Synthetic` at benchmark scale,
    /// which core cannot name (that crate depends on this one): each site
    /// allocates six-entry maps, and every other site keeps its maps live
    /// until its partition ends, so survivors cross GC cycles.
    struct LongLived {
        sites: usize,
    }

    impl LongLived {
        const INSTANCES_PER_SITE: usize = 1500;

        fn run_sites(f: &CollectionFactory, sites: Range<usize>) {
            let mut keep = Vec::new();
            for site in sites {
                let _g = f.enter(&format!("LongLived.site:{site}"));
                for _ in 0..Self::INSTANCES_PER_SITE {
                    let mut m = f.new_map::<i64, i64>(None);
                    for k in 0..6 {
                        m.put(k, k);
                    }
                    for k in 0..8 {
                        let _ = m.get(&(k % 6));
                    }
                    if site % 2 == 0 {
                        keep.push(m);
                    }
                }
            }
        }
    }

    impl Workload for LongLived {
        fn name(&self) -> &'static str {
            "long_lived"
        }
        fn run(&self, f: &CollectionFactory) {
            LongLived::run_sites(f, 0..self.sites);
        }
        fn partitions(&self, parts: usize) -> Option<Vec<PartitionTask>> {
            Some(site_ranges(
                self.sites,
                parts,
                "long_lived",
                LongLived::run_sites,
            ))
        }
    }

    fn fingerprint(env: &Env) -> (crate::RunMetrics, String) {
        (env.metrics(), env.report().to_json())
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Same partition plan, different thread counts: every byte of the
        // metrics and of the ranked profile report must match, both for
        // short-lived bursts and for long-lived maps that survive the GC
        // cycles the default 256 KiB interval runs inside each partition.
        let inputs: [&dyn Workload; 2] = [&Burst { sites: 8 }, &LongLived { sites: 8 }];
        for workload in inputs {
            let name = workload.name();
            let mut prints = Vec::new();
            for threads in [1usize, 2, 4] {
                let env = Env::new(&EnvConfig::default());
                env.run_parallel(
                    workload,
                    ParallelConfig {
                        partitions: 4,
                        threads,
                    },
                )
                .expect("parallel run");
                if name == "long_lived" {
                    let cycles = env.heap.cycles();
                    assert!(cycles.len() > 4, "{name}: partitions collect mid-run");
                    assert!(
                        cycles.iter().any(|c| c.live_objects > 0),
                        "{name}: survivors cross a GC cycle"
                    );
                }
                prints.push(fingerprint(&env));
            }
            assert_eq!(prints[0], prints[1], "{name}: 1 thread vs 2 threads");
            assert_eq!(prints[1], prints[2], "{name}: 2 threads vs 4 threads");
        }
    }

    #[test]
    fn non_divisible_plans_are_bit_identical() {
        // 7 partitions never divide evenly over 3 or 5 threads, so with
        // partitions > threads a worker that finishes must claim the next
        // index from the shared counter, and the merge asserts each index
        // ran exactly once. All merged results must still match the
        // single-threaded execution of the same plan byte for byte.
        let mut prints = Vec::new();
        for threads in [1usize, 3, 5] {
            let env = Env::new(&EnvConfig::default());
            env.run_parallel(
                &Burst { sites: 14 },
                ParallelConfig {
                    partitions: 7,
                    threads,
                },
            )
            .expect("parallel run");
            prints.push(fingerprint(&env));
        }
        assert_eq!(prints[0], prints[1], "1 thread vs 3 threads");
        assert_eq!(prints[1], prints[2], "3 threads vs 5 threads");
    }

    #[test]
    fn single_partition_matches_sequential_run() {
        let seq = Env::new(&EnvConfig::default());
        seq.run(&Burst { sites: 6 });

        let par = Env::new(&EnvConfig::default());
        par.run_parallel(&Burst { sites: 6 }, ParallelConfig::with_threads(1))
            .expect("parallel run");
        assert_eq!(fingerprint(&seq), fingerprint(&par));
    }

    #[test]
    fn merge_preserves_instance_and_death_totals() {
        let seq = Env::new(&EnvConfig::default());
        seq.run(&Burst { sites: 8 });
        let seq_report = seq.report();

        let par = Env::new(&EnvConfig::default());
        par.run_parallel(&Burst { sites: 8 }, ParallelConfig::with_threads(4))
            .expect("parallel run");
        let par_report = par.report();

        // GC boundaries differ between the partitioned and sequential
        // histories, but semantic instance accounting must agree exactly.
        assert_eq!(seq_report.contexts.len(), par_report.contexts.len());
        for c in &seq_report.contexts {
            let p = par_report
                .by_label(&c.label)
                .unwrap_or_else(|| panic!("context {} missing from parallel report", c.label));
            assert_eq!(c.trace.instances, p.trace.instances, "{}", c.label);
            assert_eq!(
                c.trace.all_ops_total(),
                p.trace.all_ops_total(),
                "{}",
                c.label
            );
        }
        let seq_m = seq.metrics();
        let par_m = par.metrics();
        assert_eq!(seq_m.total_allocated_bytes, par_m.total_allocated_bytes);
        assert_eq!(seq_m.total_allocated_objects, par_m.total_allocated_objects);
    }

    #[test]
    fn zero_counts_and_unpartitionable_workloads_are_errors() {
        let env = Env::new(&EnvConfig::default());
        let w = Burst { sites: 4 };
        assert_eq!(
            env.run_parallel(
                &w,
                ParallelConfig {
                    partitions: 0,
                    threads: 2
                }
            )
            .unwrap_err(),
            ParallelError::ZeroPartitions
        );
        assert_eq!(
            env.run_parallel(
                &w,
                ParallelConfig {
                    partitions: 2,
                    threads: 0
                }
            )
            .unwrap_err(),
            ParallelError::ZeroThreads
        );
        // Tuple workloads have no partition plan.
        let plain = ("plain", |_f: &CollectionFactory| {});
        let err = env
            .run_parallel(&plain, ParallelConfig::with_threads(2))
            .unwrap_err();
        assert_eq!(
            err,
            ParallelError::NotPartitionable {
                workload: "plain".to_owned()
            }
        );
        assert!(err.to_string().contains("plain"), "{err}");
    }

    #[test]
    fn tracing_is_invisible_to_results_and_adopts_partition_spans() {
        // Two partitions on two workers, and the same plan on the calling
        // thread alone.
        for (threads, workers) in [(2usize, 2usize), (1, 1)] {
            let plan = ParallelConfig {
                partitions: 2,
                threads,
            };
            let plain = Env::new(&EnvConfig::default());
            plain
                .run_parallel(&Burst { sites: 8 }, plan)
                .expect("parallel run");

            let tracer = Tracer::new();
            let traced = Env::new(&EnvConfig {
                tracer: Some(tracer.clone()),
                ..EnvConfig::default()
            });
            traced
                .run_parallel(&Burst { sites: 8 }, plan)
                .expect("parallel run");
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&traced),
                "{plan:?}: tracing must not perturb simulated results"
            );

            let recs = tracer.records();
            let names: Vec<&str> = recs.iter().map(|r| r.name).collect();
            assert!(names.contains(&"run_parallel"), "{names:?}");
            assert!(names.contains(&"merge_partition"), "{names:?}");
            // One worker span per worker, on lane w+1 with its `worker` arg.
            let mut worker_spans: Vec<(u32, Vec<(&str, u64)>)> = recs
                .iter()
                .filter(|r| r.name == "worker")
                .map(|r| (r.lane, r.key_values().to_vec()))
                .collect();
            worker_spans.sort();
            let expected: Vec<(u32, Vec<(&str, u64)>)> = (0..workers)
                .map(|w| ((w + 1) as u32, vec![("worker", w as u64)]))
                .collect();
            assert_eq!(worker_spans, expected, "{plan:?}");
            // One partition span per partition; the partition's adopted GC
            // spans hang off it causally.
            let partitions: Vec<_> = recs.iter().filter(|r| r.name == "partition").collect();
            assert_eq!(partitions.len(), 2, "{plan:?}: {names:?}");
            for p in &partitions {
                assert!(
                    recs.iter().any(|r| r.parent == p.id && r.name == "gc"),
                    "{plan:?}: adopted child gc span under partition {}",
                    p.id
                );
            }
            // Adoption must keep ids globally unique.
            let mut ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), recs.len(), "{plan:?}: duplicate span ids");
        }
    }
}
