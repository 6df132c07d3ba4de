//! End-to-end tests for the flight recorder: the panic hook dumps the
//! tail of every lane's ring when a worker thread dies, and the GC
//! anomaly trigger dumps when a pause blows past the running median.

use chameleon_collections::CollectionFactory;
use chameleon_core::{Env, EnvConfig, ParallelConfig, PartitionTask, Workload};
use chameleon_heap::heap::ANOMALY_FACTOR;
use chameleon_heap::{ClassId, CycleStats, ElemKind, Heap};
use chameleon_telemetry::{json, Tracer};
use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-test temp dir, namespaced by process so parallel `cargo test`
/// binaries never collide. Recreated empty on each call.
fn flight_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chameleon-flight-e2e-{}-{label}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create flight dir");
    dir
}

/// Files in `dir` whose name starts with `flight-{reason}-`.
fn dumps(dir: &PathBuf, reason: &str) -> Vec<PathBuf> {
    let prefix = format!("flight-{reason}-");
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read flight dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

/// A partition plan where every partition does real collection work and
/// the last one panics. The panic waits until both workers have finished
/// a partition, so both worker lanes hold completed spans at panic time
/// whatever the scheduling.
struct PanicAtFive {
    /// The tracer the environment records partition spans into.
    tracer: Tracer,
}

fn panic_site(f: &CollectionFactory, p: usize) {
    let _g = f.enter("PanicAtFive.site:1");
    let mut m = f.new_map::<i64, i64>(None);
    for i in 0..64 {
        m.put(i, i);
    }
    assert!(p != 5, "induced worker panic in partition 5");
}

/// Polls `cond` every millisecond; fails after 10 s, which only a worker
/// that never runs can exceed.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Workload for PanicAtFive {
    fn name(&self) -> &'static str {
        "panic-at-five"
    }
    fn run(&self, f: &CollectionFactory) {
        for p in 0..6 {
            panic_site(f, p);
        }
    }
    fn partitions(&self, _parts: usize) -> Option<Vec<PartitionTask>> {
        // Both workers claim partitions from one counter. Partitions 0-4
        // each wait until two threads have entered one, so each worker
        // completes at least one; partition 5, claimed last, panics once
        // the tracer holds a finished partition span on both worker lanes.
        let entered = Arc::new(Mutex::new(HashSet::new()));
        let tracer = self.tracer.clone();
        Some(
            (0..6)
                .map(|p| {
                    let entered = Arc::clone(&entered);
                    let tracer = tracer.clone();
                    PartitionTask::new(format!("panic[{p}]"), move |f| {
                        if p < 5 {
                            entered.lock().unwrap().insert(std::thread::current().id());
                            wait_until("both workers entered a partition", || {
                                entered.lock().unwrap().len() == 2
                            });
                        } else {
                            wait_until("both worker lanes finished a partition", || {
                                let lanes: BTreeSet<u32> = tracer
                                    .records()
                                    .iter()
                                    .filter(|r| r.name == "partition")
                                    .map(|r| r.lane)
                                    .collect();
                                lanes.contains(&1) && lanes.contains(&2)
                            });
                        }
                        panic_site(f, p);
                    })
                })
                .collect(),
        )
    }
}

#[test]
fn panic_hook_dumps_spans_from_all_worker_lanes() {
    let dir = flight_dir("panic");
    let tracer = Tracer::new();
    tracer.set_flight_dir(&dir);
    tracer.install_panic_hook();
    let env = Env::new(&EnvConfig {
        tracer: Some(tracer.clone()),
        gc_interval_bytes: Some(32 * 1024),
        ..EnvConfig::default()
    });
    let workload = PanicAtFive {
        tracer: tracer.clone(),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        env.run_parallel(
            &workload,
            ParallelConfig {
                partitions: 6,
                threads: 2,
            },
        )
    }));
    assert!(result.is_err(), "partition 5 must panic");

    let files = dumps(&dir, "panic");
    assert!(!files.is_empty(), "panic hook wrote no flight dump");
    let body = fs::read_to_string(&files[0]).expect("read dump");
    let v = json::parse(&body).expect("dump is valid Chrome JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let lanes: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) != Some("M"))
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    assert!(
        lanes.contains(&1) && lanes.contains(&2),
        "dump must cover both worker lanes: {lanes:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("partition")),
        "dump must carry the finished partition spans"
    );
}

/// A heap tracing GC spans into `tracer`'s lane 0, which arms its anomaly
/// trigger at the production factor ([`ANOMALY_FACTOR`], 8× the running
/// median pause).
fn anomaly_heap(tracer: &Tracer) -> Heap {
    let heap = Heap::new();
    heap.attach_tracer(&tracer.lane(0));
    heap
}

/// Warms up the pause history with near-empty cycles: each pause is the
/// fixed 50 000-unit cycle cost, so the running median settles there.
/// Returns the last steady cycle.
fn steady_cycles(heap: &Heap, class: ClassId) -> CycleStats {
    let mut last = None;
    for _ in 0..10 {
        let _ = heap.alloc_scalar(class, 0, 8, None);
        last = Some(heap.gc());
    }
    last.expect("ten cycles ran")
}

/// 1 KiB arrays a tripping spike roots: ~700 KiB live charges a pause of
/// about 50 000 + 700 × 600 = 470 000 units, ~9.4× the steady median. The
/// trigger needs more than ~583 KiB.
const TRIPPING_SPIKE: usize = 700;
/// 1 KiB arrays a mild spike roots: ~200 KiB live charges about 170 000
/// units, ~3.4× the median, under the factor.
const MILD_SPIKE: usize = 200;

/// Roots `arrays` more 1 KiB arrays and collects: the pause charges the
/// fixed cycle cost plus 600 units per live KiB.
fn pause_spike(heap: &Heap, class: ClassId, arrays: usize) -> CycleStats {
    for _ in 0..arrays {
        let arr = heap.alloc_array(class, ElemKind::Prim { bytes_per_elem: 1 }, 1024, None);
        heap.add_root(arr);
    }
    heap.gc()
}

#[test]
fn gc_anomaly_trigger_dumps_when_a_pause_blows_past_the_median() {
    let dir = flight_dir("anomaly");
    let tracer = Tracer::new();
    tracer.set_flight_dir(&dir);
    let heap = anomaly_heap(&tracer);
    let class = heap.register_class("Blob", None);

    let steady = steady_cycles(&heap, class);
    assert!(
        dumps(&dir, "gc-anomaly").is_empty(),
        "steady-state cycles must not trip the anomaly trigger"
    );

    let spike = pause_spike(&heap, class, TRIPPING_SPIKE);
    assert!(spike.pause_cost_units > ANOMALY_FACTOR * steady.pause_cost_units);
    let files = dumps(&dir, "gc-anomaly");
    assert_eq!(files.len(), 1, "exactly one anomaly dump: {files:?}");
    let body = fs::read_to_string(&files[0]).expect("read dump");
    let v = json::parse(&body).expect("dump is valid Chrome JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("gc")),
        "anomaly dump must carry the gc spans leading up to the spike"
    );
}

#[test]
fn gc_anomaly_trigger_ignores_a_spike_under_the_factor() {
    let dir = flight_dir("mild");
    let tracer = Tracer::new();
    tracer.set_flight_dir(&dir);
    let heap = anomaly_heap(&tracer);
    let class = heap.register_class("Blob", None);

    let steady = steady_cycles(&heap, class);
    let spike = pause_spike(&heap, class, MILD_SPIKE);
    // A pause several times the median, but not `ANOMALY_FACTOR` times.
    assert!(spike.pause_cost_units > 3 * steady.pause_cost_units);
    assert!(spike.pause_cost_units < ANOMALY_FACTOR * steady.pause_cost_units);
    assert!(
        dumps(&dir, "gc-anomaly").is_empty(),
        "a spike under the factor must not dump"
    );
}

#[test]
fn tracer_without_flight_dir_never_dumps() {
    // The same pause spike trips the trigger, but with no flight
    // directory configured the dump is a no-op.
    let tracer = Tracer::new();
    let heap = anomaly_heap(&tracer);
    let class = heap.register_class("Blob", None);
    steady_cycles(&heap, class);
    pause_spike(&heap, class, TRIPPING_SPIKE);
    assert!(tracer.flight_dump("manual").is_none());

    let dir = flight_dir("no-dir");
    tracer.set_flight_dir(&dir);
    assert!(tracer.flight_dump("manual").is_some());
    assert_eq!(dumps(&dir, "manual").len(), 1);
}
