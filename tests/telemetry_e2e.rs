//! End-to-end tests for the telemetry layer: JSONL decision-audit
//! reconstruction, determinism of simulated results under observation,
//! observation that survives the parallel split identically at every
//! thread count, the zero-allocation warm capture path with telemetry
//! attached, and the attached-path overhead bound.

use chameleon_collections::CollectionFactory;
use chameleon_core::{Chameleon, Env, EnvConfig, ParallelConfig};
use chameleon_heap::HeapProfConfig;
use chameleon_profiler::HeapProfile;
use chameleon_telemetry::{json, SpanRecord, Telemetry, Tracer};
use chameleon_workloads::{SizeDist, Synthetic, SyntheticSite};
use std::collections::HashMap;
use std::time::Instant;

fn small_env() -> EnvConfig {
    EnvConfig {
        gc_interval_bytes: Some(32 * 1024),
        ..EnvConfig::default()
    }
}

/// The headline acceptance test: a synthetic run with telemetry attached emits
/// JSONL from which the rule engine's per-context suggestions can be
/// reconstructed exactly as `chameleon profile` reports them.
#[test]
fn jsonl_reconstructs_profile_suggestions() {
    let w = Synthetic::small_maps(4);

    // Reference: a plain (untraced) profile run, as `chameleon profile`
    // performs it.
    let plain = Chameleon::new().with_profile_config(small_env());
    let plain_report = plain.profile(&w);
    let expected: Vec<String> = plain
        .engine()
        .evaluate(&plain_report)
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(!expected.is_empty(), "synthetic must produce suggestions");

    // Traced run.
    let t = Telemetry::new();
    let traced = Chameleon::new().with_profile_config(EnvConfig {
        telemetry: Some(t.clone()),
        ..small_env()
    });
    let report = traced.profile(&w);
    let suggestions = traced.engine().evaluate_traced(&report, Some(&t));
    assert_eq!(suggestions.len(), expected.len());

    let log = t.dump_jsonl();
    let lines = json::validate_jsonl(&log, &["ev", "t"]).expect("log is valid JSONL");
    assert!(lines > 0);

    // Reconstruct the suggestion list from rule_decision events alone.
    let mut reconstructed = Vec::new();
    let mut saw_gc_cycle = false;
    let mut saw_workload_span = false;
    for line in log.lines() {
        let v = json::parse(line).expect("line parses");
        match v.get("ev").and_then(|e| e.as_str()) {
            Some("rule_decision") if v.get("fired").unwrap().as_bool() == Some(true) => {
                reconstructed.push(v.get("suggestion").unwrap().as_str().unwrap().to_owned());
            }
            Some("gc_cycle") => {
                saw_gc_cycle = true;
                for key in ["cycle", "live_bytes", "pause_units", "mark_ns"] {
                    assert!(v.get(key).is_some(), "gc_cycle missing {key}: {line}");
                }
            }
            Some("workload_begin") | Some("workload_end") => {
                saw_workload_span = true;
                assert_eq!(v.get("name").unwrap().as_str(), Some("synthetic"));
            }
            _ => {}
        }
    }
    assert!(saw_gc_cycle, "expected gc_cycle events:\n{log}");
    assert!(saw_workload_span, "expected workload span events:\n{log}");
    assert_eq!(
        reconstructed, expected,
        "audit log must reconstruct `chameleon profile` suggestions exactly"
    );
}

/// Satellite: defective rule batches surface as one `lint_finding` JSONL
/// event per analyzer diagnostic, carrying severity, code, message, and
/// the 1-based source position of the defect in the submitted batch.
#[test]
fn lint_findings_appear_in_jsonl() {
    use chameleon_collections::Runtime;
    use chameleon_heap::Heap;
    use chameleon_profiler::{ProfileReport, Profiler};
    use chameleon_rules::RuleEngine;

    // A tiny real profile so `evaluate_traced` has contexts to walk.
    let heap = Heap::new();
    let rt = Runtime::new(heap.clone());
    let profiler = Profiler::install(&rt);
    let f = CollectionFactory::new(rt);
    {
        let _g = f.enter("lint.Site:1");
        let mut m = f.new_map::<i64, i64>(None);
        m.put(1, 1);
        heap.gc();
    }
    heap.gc();
    let report = ProfileReport::build(&profiler, &heap);

    // Two seeded defects: an unsatisfiable condition (Error) and a
    // kind-mismatched target (Error). The default Warn mode keeps the
    // batch and records the findings.
    let mut engine = RuleEngine::new();
    engine
        .add_rules(
            "HashMap : maxSize > 32 && maxSize < 16 -> ArrayMap \"Space: never\";\n\
             LinkedList : #get(int) > 4 -> HashMap",
        )
        .expect("warn mode keeps defective batches");

    let t = Telemetry::new();
    engine.evaluate_traced(&report, Some(&t));
    let log = t.dump_jsonl();
    json::validate_jsonl(&log, &["ev", "t"]).expect("log is valid JSONL");

    let mut codes = Vec::new();
    for line in log.lines() {
        let v = json::parse(line).expect("line parses");
        if v.get("ev").and_then(|e| e.as_str()) != Some("lint_finding") {
            continue;
        }
        for key in ["severity", "code", "message"] {
            assert!(
                v.get(key).and_then(|x| x.as_str()).is_some(),
                "lint_finding missing string {key}: {line}"
            );
        }
        let line_no = v.get("line").unwrap().as_u64().unwrap();
        let col_no = v.get("column").unwrap().as_u64().unwrap();
        assert!(line_no >= 1 && col_no >= 1, "positions are 1-based: {line}");
        assert_eq!(v.get("severity").unwrap().as_str(), Some("error"));
        codes.push(v.get("code").unwrap().as_str().unwrap().to_owned());
    }
    codes.sort();
    assert_eq!(
        codes,
        ["kind-mismatch", "unsatisfiable-condition"],
        "expected exactly the two seeded defects:\n{log}"
    );
}

/// Telemetry observes the simulation; it must never perturb it. The same
/// workload produces bit-identical simulated metrics with telemetry
/// attached or absent.
#[test]
fn telemetry_never_perturbs_simulated_results() {
    let w = Synthetic::small_maps(4);
    let run = |telemetry: Option<Telemetry>| {
        let cfg = EnvConfig {
            telemetry,
            ..small_env()
        };
        let env = Env::new(&cfg);
        env.run(&w);
        env.metrics()
    };
    let absent = run(None);
    let attached = run(Some(Telemetry::new()));
    assert_eq!(absent, attached);
    assert!(absent.sim_time > 0);
}

/// Telemetry, tracer and heap profiling all reach the partition children
/// of a parallel run and are adopted in partition order, so the event log
/// (minus wall-clock `*_ns` fields and the worker count
/// `parallel_run_end` reports), the snapshots and the span tree are
/// identical at 1, 2 and 4 threads, and the log's cycles are the heap's.
#[test]
fn parallel_observability_is_identical_across_thread_counts() {
    let run = |threads| {
        let (t, tracer) = (Telemetry::new(), Tracer::new());
        let env = Env::new(&EnvConfig {
            telemetry: Some(t.clone()),
            tracer: Some(tracer.clone()),
            heapprof: Some(HeapProfConfig { every: 1 }),
            gc_interval_bytes: Some(8 * 1024),
            ..EnvConfig::default()
        });
        let plan = ParallelConfig {
            partitions: 4,
            threads,
        };
        env.run_parallel(&Synthetic::small_maps(8), plan).unwrap();

        let (mut log, mut logged) = (Vec::new(), Vec::new());
        for line in t.dump_jsonl().lines() {
            let Ok(json::Value::Obj(mut fields)) = json::parse(line) else {
                panic!("not a JSON object: {line}");
            };
            if fields["ev"].as_str() == Some("gc_cycle") {
                let num = |k: &str| fields[k].as_u64().expect(k);
                logged.push((num("cycle"), num("t")));
            }
            fields.retain(|k, _| !k.ends_with("_ns") && k != "threads");
            log.push(json::render(&json::Value::Obj(fields)));
        }
        let merged: Vec<_> = env
            .heap
            .cycles()
            .iter()
            .map(|c| (c.cycle, c.at_units))
            .collect();
        assert!(merged.len() > 4, "partitions collect mid-run too");
        assert_eq!(
            logged, merged,
            "threads={threads}: gc_cycle re-bases like cycles"
        );
        let all = log.concat();
        for ev in [
            "workload_begin",
            "mutator_partition",
            "parallel_run_end",
            "workload_end",
        ] {
            assert!(all.contains(&format!("\"ev\":\"{ev}\"")), "{ev} missing");
        }

        // Each span as (name, on the parent lane, ancestor names); which
        // worker ran a partition (`worker` spans) is scheduling and left
        // out.
        let records: Vec<SpanRecord> = tracer.records();
        let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
        let mut spans: Vec<_> = records
            .iter()
            .filter(|r| r.name != "worker")
            .map(|r| {
                let mut ancestors = Vec::new();
                let mut parent = r.parent;
                while let Some(p) = by_id.get(&parent) {
                    ancestors.push(p.name);
                    parent = p.parent;
                }
                (r.name, r.lane == 0, ancestors)
            })
            .collect();
        spans.sort();
        let snapshots = HeapProfile::from_heap(&env.heap, 256).snapshots_jsonl(&env.heap);
        (log, snapshots, spans)
    };
    let one = run(1);
    assert!(!one.1.is_empty(), "snapshots captured");
    for threads in [2, 4] {
        let other = run(threads);
        assert_eq!(one.0, other.0, "event log, threads 1 vs {threads}");
        assert_eq!(one.1, other.1, "snapshot JSONL, threads 1 vs {threads}");
        assert_eq!(one.2, other.2, "span tree, threads 1 vs {threads}");
    }
}

/// Attached telemetry keeps the warm capture route allocation-free
/// (extends the heap's intern-miss assertions across the attach boundary):
/// each warm capture only bumps the `heap.context.hits` counter.
#[test]
fn attached_telemetry_keeps_warm_capture_allocation_free() {
    let t = Telemetry::new();
    let cfg = EnvConfig {
        telemetry: Some(t.clone()),
        ..small_env()
    };
    let env = Env::new(&cfg);
    let f: &CollectionFactory = &env.factory;
    let _outer = f.enter("Outer.run:1");
    let _inner = f.enter("Hot.site:7");
    let _ = f.capture_context("HashMap"); // warm the intern tables
    let before = env.heap.context_intern_misses();
    let hits = t.counter("heap.context.hits").get();
    for _ in 0..10_000 {
        let _ = f.capture_context("HashMap");
    }
    let after = env.heap.context_intern_misses();
    assert_eq!(before, after, "warm capture must not intern anything");
    assert_eq!(
        t.counter("heap.context.hits").get() - hits,
        10_000,
        "every warm capture is a counted hit"
    );
    assert_eq!(t.event_count(), 0, "captures emit no events");
}

/// Satellite: the event stream's cycle numbering is coherent — `gc_cycle`
/// events carry a strictly increasing cycle index, and `heap_snapshot`
/// events interleave with them in cycle order (each snapshot follows the
/// `gc_cycle` event of the same cycle, on the profiling cadence).
#[test]
fn gc_cycles_and_snapshots_interleave_in_cycle_order() {
    use chameleon_heap::HeapProfConfig;
    let t = Telemetry::new();
    let cfg = EnvConfig {
        telemetry: Some(t.clone()),
        heapprof: Some(HeapProfConfig { every: 2 }),
        ..small_env()
    };
    let env = Env::new(&cfg);
    env.run(&Synthetic::small_maps(4));

    let log = t.dump_jsonl();
    let mut gc_cycles = Vec::new();
    let mut snapshot_cycles = Vec::new();
    let mut last_gc_cycle = None;
    for line in log.lines() {
        let v = json::parse(line).expect("line parses");
        match v.get("ev").and_then(|e| e.as_str()) {
            Some("gc_cycle") => {
                let c = v.get("cycle").unwrap().as_u64().unwrap();
                gc_cycles.push(c);
                last_gc_cycle = Some(c);
            }
            Some("heap_snapshot") => {
                let c = v.get("cycle").unwrap().as_u64().unwrap();
                assert_eq!(
                    last_gc_cycle,
                    Some(c),
                    "snapshot must directly follow its own cycle's gc_cycle event"
                );
                snapshot_cycles.push(c);
            }
            _ => {}
        }
    }
    assert!(
        gc_cycles.len() >= 2,
        "need several GC cycles, got {gc_cycles:?}"
    );
    assert!(
        gc_cycles.windows(2).all(|w| w[0] < w[1]),
        "gc_cycle index must be strictly increasing: {gc_cycles:?}"
    );
    let expected: Vec<u64> = gc_cycles
        .iter()
        .copied()
        .filter(|c| (c - 1) % 2 == 0)
        .collect();
    assert_eq!(
        snapshot_cycles, expected,
        "snapshots follow the every=2 cadence within the cycle stream"
    );
    // The snapshot counter agrees with the event stream.
    let snaps = t
        .metrics_snapshot()
        .into_iter()
        .find(|m| m.name == "heap.prof.snapshots")
        .expect("snapshot counter registered");
    assert_eq!(snaps.value, snapshot_cycles.len() as u64);
}

/// Satellite: the telemetry layer costs < 5% wall-clock per GC cycle on
/// the same heap. Cycles are interleaved (off, on, off, on, ...) and
/// compared on per-side minima so scheduler noise cancels; retried
/// because CI wall-clock is noisy.
#[test]
fn telemetry_overhead_under_five_percent() {
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
    let build = |telemetry: Option<Telemetry>| {
        let cfg = EnvConfig {
            telemetry,
            ..small_env()
        };
        let env = Env::new(&cfg);
        env.run(&w);
        env
    };
    let off = build(None);
    let on = build(Some(Telemetry::new()));
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
        "telemetry GC-cycle overhead must stay under 5%, measured {best_pct:.2}%"
    );
}
