//! End-to-end tests for the flight recorder: the panic hook dumps the
//! tail of every lane's ring when a worker thread dies, and the GC
//! anomaly trigger dumps when a pause blows past the running median.

use chameleon_collections::CollectionFactory;
use chameleon_core::{Env, EnvConfig, ParallelConfig, PartitionTask, Workload};
use chameleon_heap::{ClassId, ElemKind, GcConfig, Heap, HeapConfig};
use chameleon_telemetry::{json, Tracer};
use std::collections::BTreeSet;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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
/// the last one panics midway — inducing a worker death with completed
/// spans already sitting in both workers' rings.
struct PanicAtFive;

fn panic_site(f: &CollectionFactory, p: usize) {
    let _g = f.enter("PanicAtFive.site:1");
    let mut m = f.new_map::<i64, i64>(None);
    for i in 0..64 {
        m.put(i, i);
    }
    assert!(p != 5, "induced worker panic in partition 5");
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
        // Both workers claim partitions from one counter; the panic in
        // partition 5, the last one, fires after both have usually
        // completed spans.
        Some(
            (0..6)
                .map(|p| PartitionTask::new(format!("panic[{p}]"), move |f| panic_site(f, p)))
                .collect(),
        )
    }
}

#[test]
fn panic_hook_dumps_spans_from_all_worker_lanes() {
    // Worker scheduling decides how many spans each lane holds at panic
    // time, so retry the run until a dump shows both worker lanes.
    for attempt in 0..5 {
        let dir = flight_dir(&format!("panic-{attempt}"));
        let tracer = Tracer::new();
        tracer.set_flight_dir(&dir);
        tracer.install_panic_hook();
        let env = Env::new(&EnvConfig {
            tracer: Some(tracer.clone()),
            gc_interval_bytes: Some(32 * 1024),
            ..EnvConfig::default()
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            env.run_parallel(
                &PanicAtFive,
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
        let has_partition_span = events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("partition"));
        if lanes.contains(&1) && lanes.contains(&2) && has_partition_span {
            return;
        }
        eprintln!("attempt {attempt}: dump covered lanes {lanes:?}, retrying");
    }
    panic!("no flight dump covered both worker lanes in 5 attempts");
}

/// A heap whose anomaly trigger fires at twice the running median pause,
/// tracing GC spans into `tracer`'s lane 0.
fn anomaly_heap(tracer: &Tracer) -> Heap {
    let heap = Heap::with_config(HeapConfig {
        gc: GcConfig {
            anomaly_factor: 2,
            ..GcConfig::default()
        },
        ..HeapConfig::default()
    });
    heap.attach_tracer(&tracer.lane(0));
    heap
}

/// Warms up the pause history with near-empty cycles: each pause is
/// ~cost_per_cycle, so the running median settles there.
fn steady_cycles(heap: &Heap, class: ClassId) {
    for _ in 0..10 {
        let _ = heap.alloc_scalar(class, 0, 8, None);
        heap.gc();
    }
}

/// Roots ~200 KiB of live data and collects: the pause charges
/// live_kib * cost_per_live_kib, far beyond 2x the median.
fn pause_spike(heap: &Heap, class: ClassId) {
    for _ in 0..200 {
        let arr = heap.alloc_array(class, ElemKind::Prim { bytes_per_elem: 1 }, 1024, None);
        heap.add_root(arr);
    }
    heap.gc();
}

#[test]
fn gc_anomaly_trigger_dumps_when_a_pause_blows_past_the_median() {
    let dir = flight_dir("anomaly");
    let tracer = Tracer::new();
    tracer.set_flight_dir(&dir);
    let heap = anomaly_heap(&tracer);
    let class = heap.register_class("Blob", None);

    steady_cycles(&heap, class);
    assert!(
        dumps(&dir, "gc-anomaly").is_empty(),
        "steady-state cycles must not trip the anomaly trigger"
    );

    pause_spike(&heap, class);
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
fn tracer_without_flight_dir_never_dumps() {
    // The same pause spike trips the trigger, but with no flight
    // directory configured the dump is a no-op.
    let tracer = Tracer::new();
    let heap = anomaly_heap(&tracer);
    let class = heap.register_class("Blob", None);
    steady_cycles(&heap, class);
    pause_spike(&heap, class);
    assert!(tracer.flight_dump("manual").is_none());

    let dir = flight_dir("no-dir");
    tracer.set_flight_dir(&dir);
    assert!(tracer.flight_dump("manual").is_some());
    assert_eq!(dumps(&dir, "manual").len(), 1);
}
