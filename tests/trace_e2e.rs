//! End-to-end tests for the execution tracing layer: causal spans across
//! the parallel runtime, Chrome timeline export shape, the
//! bit-identical-under-tracing determinism contract, the per-partition
//! telemetry accounting and the plan `parallel_run_end` reports, and the
//! attached-tracer overhead bound.

use chameleon_core::{Env, EnvConfig, ParallelConfig};
use chameleon_telemetry::{chrome, json, Telemetry, Tracer};
use chameleon_workloads::{SizeDist, Synthetic, SyntheticSite};
use std::time::Instant;

fn small_env() -> EnvConfig {
    EnvConfig {
        gc_interval_bytes: Some(32 * 1024),
        ..EnvConfig::default()
    }
}

#[test]
fn sequential_run_records_workload_and_gc_spans() {
    let tracer = Tracer::new();
    let env = Env::new(&EnvConfig {
        tracer: Some(tracer.clone()),
        ..small_env()
    });
    env.run(&Synthetic::small_maps(5));
    let recs = tracer.records();
    for name in ["workload", "gc", "gc_mark", "gc_scan", "gc_sweep"] {
        assert!(
            recs.iter().any(|r| r.name == name),
            "span `{name}` missing from {:?}",
            recs.iter().map(|r| r.name).collect::<Vec<_>>()
        );
    }
    // The environment's spans live on lane 0, and GC nests causally under
    // the workload span.
    let workload = recs.iter().find(|r| r.name == "workload").unwrap();
    assert_eq!(workload.lane, 0);
    let gc = recs.iter().find(|r| r.name == "gc").unwrap();
    assert_eq!(gc.parent, workload.id, "gc runs inside the workload span");
    // Phase spans nest under their gc cycle.
    let mark = recs.iter().find(|r| r.name == "gc_mark").unwrap();
    assert!(
        recs.iter().any(|r| r.name == "gc" && r.id == mark.parent),
        "gc_mark must parent to a gc span"
    );
}

#[test]
fn parallel_timeline_has_worker_lanes_partitions_and_gc_phases() {
    let tracer = Tracer::new();
    let env = Env::new(&EnvConfig {
        tracer: Some(tracer.clone()),
        ..small_env()
    });
    env.run_parallel(&Synthetic::small_maps(8), ParallelConfig::with_threads(4))
        .expect("parallel run");
    let recs = tracer.records();

    // Four distinct worker lanes, each carrying a worker span.
    let worker_lanes: std::collections::BTreeSet<u32> = recs
        .iter()
        .filter(|r| r.name == "worker")
        .map(|r| r.lane)
        .collect();
    assert!(
        worker_lanes.len() >= 4,
        "expected >= 4 worker lanes, got {worker_lanes:?}"
    );
    assert!(worker_lanes.iter().all(|l| (1..=4).contains(l)));

    // One partition span per partition, each wrapping adopted GC work.
    let partitions: Vec<_> = recs.iter().filter(|r| r.name == "partition").collect();
    assert_eq!(partitions.len(), 4);
    for p in &partitions {
        assert!(
            recs.iter().any(|r| r.name == "gc" && r.parent == p.id),
            "partition {} has no adopted gc span",
            p.id
        );
    }

    // Orchestration and phase spans are all present.
    for name in [
        "run_parallel",
        "merge_partition",
        "gc_mark",
        "gc_scan",
        "gc_sweep",
    ] {
        assert!(recs.iter().any(|r| r.name == name), "span `{name}` missing");
    }

    // The rendered timeline is Perfetto-shaped: every complete event has
    // ts/dur/pid/tid and per-lane spans are well-parenthesized.
    let body = chrome::render(&recs);
    let v = json::parse(&body).expect("timeline parses");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let mut stacks: std::collections::HashMap<u64, Vec<f64>> = std::collections::HashMap::new();
    for e in events {
        match e.get("ph").unwrap().as_str().unwrap() {
            "X" => {
                let tid = e.get("tid").unwrap().as_u64().unwrap();
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                assert!(e.get("pid").unwrap().as_u64().is_some());
                let stack = stacks.entry(tid).or_default();
                while let Some(&end) = stack.last() {
                    if ts >= end {
                        stack.pop();
                    } else {
                        // Nested spans must close before their parent.
                        assert!(
                            ts + dur <= end + 1e-9,
                            "lane {tid}: span [{ts}, {}) escapes its parent (ends {end})",
                            ts + dur
                        );
                        break;
                    }
                }
                stack.push(ts + dur);
            }
            "i" | "M" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
}

#[test]
fn results_bit_identical_with_tracing_absent_armed_exporting() {
    let run_seq = |tracer: Option<Tracer>| {
        let env = Env::new(&EnvConfig {
            tracer,
            ..small_env()
        });
        env.run(&Synthetic::small_maps(6));
        (env.metrics(), env.report().to_json(), env.heap.cycles())
    };
    let run_par = |tracer: Option<Tracer>| {
        let env = Env::new(&EnvConfig {
            tracer,
            ..small_env()
        });
        env.run_parallel(
            &Synthetic::small_maps(6),
            ParallelConfig {
                partitions: 3,
                threads: 2,
            },
        )
        .expect("parallel run");
        (env.metrics(), env.report().to_json(), env.heap.cycles())
    };

    for run in [&run_seq as &dyn Fn(Option<Tracer>) -> _, &run_par] {
        let absent = run(None);
        let attached = run(Some(Tracer::new()));
        assert_eq!(absent, attached, "attached tracer must not perturb results");

        let exporting = Tracer::new();
        let with_export = run(Some(exporting.clone()));
        // Exporting happens after the run; it must also change nothing.
        let body = chrome::render(&exporting.records());
        json::parse(&body).expect("export parses");
        assert_eq!(absent, with_export, "exporting must not perturb results");
    }
}

#[test]
fn partition_event_counts_sum_to_parent_totals() {
    // `small_maps(8)` has 8 sites, so a 16-way request runs 8 partitions
    // on 8 workers; `parallel_run_end` must report that plan.
    for requested in [4u64, 16] {
        let t = Telemetry::new();
        let env = Env::new(&EnvConfig {
            telemetry: Some(t.clone()),
            ..small_env()
        });
        env.run_parallel(
            &Synthetic::small_maps(8),
            ParallelConfig::with_threads(requested as usize),
        )
        .expect("parallel run");
        let m = env.metrics();

        let mut partitions = 0u64;
        let mut run_end = None;
        let (mut cycles, mut ops, mut bytes, mut objects, mut captures) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for line in t.drain_events().lines() {
            let v = json::parse(line).expect("event parses");
            let field = |k: &str| {
                v.get(k)
                    .and_then(|x| x.as_u64())
                    .unwrap_or_else(|| panic!("{k} missing: {line}"))
            };
            match v.get("ev").and_then(|e| e.as_str()) {
                Some("mutator_partition") => {
                    partitions += 1;
                    cycles += field("cycles");
                    ops += field("ops");
                    bytes += field("allocated_bytes");
                    objects += field("allocated_objects");
                    captures += field("captures");
                }
                Some("parallel_run_end") => {
                    run_end = Some((field("partitions"), field("threads")));
                }
                _ => {}
            }
        }
        assert_eq!(partitions, requested.min(8), "one event per partition");
        assert_eq!(
            run_end,
            Some((partitions, requested.min(partitions))),
            "requested {requested}: parallel_run_end reports the plan that ran"
        );
        // The parent performs no GC of its own in the parallel path, so its
        // totals are exactly the sums over partitions.
        assert_eq!(cycles, m.gc_count, "per-partition GC cycle counts");
        assert_eq!(bytes, m.total_allocated_bytes);
        assert_eq!(objects, m.total_allocated_objects);
        assert_eq!(captures, m.capture_count);
        let parent_ops: u64 = env
            .profiler
            .as_ref()
            .expect("profiling env")
            .traces()
            .iter()
            .map(|(_, trace)| trace.all_ops_total())
            .sum();
        assert_eq!(ops, parent_ops, "per-partition op counts");
    }
}

#[test]
fn armed_tracing_overhead_under_five_percent() {
    // Long-lived collections so every cycle scans real live data and the
    // per-cycle work dwarfs fixed per-run costs.
    let w = Synthetic {
        sites: (0..4)
            .map(|i| SyntheticSite {
                frame: format!("synthetic.Site:{i}"),
                instances: 300,
                sizes: SizeDist::Fixed(8),
                gets_per_instance: 0,
                long_lived: true,
                via_factory: false,
            })
            .collect(),
    };
    let build = |tracer: Option<Tracer>| {
        let cfg = EnvConfig {
            tracer,
            ..small_env()
        };
        let env = Env::new(&cfg);
        env.run(&w);
        env
    };
    let off = build(None);
    let on = build(Some(Tracer::new()));
    let cycle = |env: &Env| {
        let t0 = Instant::now();
        env.heap.gc();
        t0.elapsed().as_secs_f64()
    };
    // Warm-up once per side.
    cycle(&off);
    cycle(&on);

    let mut best_pct = f64::INFINITY;
    for _attempt in 0..5 {
        let mut min_off = f64::INFINITY;
        let mut min_on = f64::INFINITY;
        for _ in 0..7 {
            min_off = min_off.min(cycle(&off));
            min_on = min_on.min(cycle(&on));
        }
        let pct = 100.0 * (min_on - min_off) / min_off;
        best_pct = best_pct.min(pct);
        if best_pct < 5.0 {
            break;
        }
    }
    assert!(
        best_pct < 5.0,
        "tracing GC-cycle overhead must stay under 5%, measured {best_pct:.2}%"
    );
}
