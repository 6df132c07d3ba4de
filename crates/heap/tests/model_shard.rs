//! Model checking for the heap's single-mutator entry flag (`heap.rs`).
//!
//! Run with `cargo test --features model -p chameleon-heap --test
//! model_shard`. The entry-flag test is the one that catches mutation (a)
//! from the issue: weakening the `busy.swap(true, Ordering::Acquire)` to
//! `Relaxed` removes the release/acquire handoff between consecutive
//! occupants, and the explorer reports a data race on the `HeapInner`
//! cell in every sequential-handoff schedule.

#![cfg(feature = "model")]

use chameleon_heap::{Heap, HeapConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MIN_SCHEDULES: u64 = 1_000;

fn explorer() -> loom::Builder {
    loom::Builder {
        preemption_bound: 5,
        state_pruning: false,
        ..loom::Builder::default()
    }
}

/// The default-config heap every environment builds, named as partition 3.
fn partition_heap() -> Heap {
    Heap::with_config(HeapConfig {
        shard_index: Some(3),
        ..HeapConfig::default()
    })
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// Runs one heap entry, treating the partition-named contract panic as a
/// legal outcome (`false`) and re-raising schedule aborts. Any other
/// panic — including a contract message that fails to name partition 3
/// and the operation — fails the schedule.
fn attempt(f: impl FnOnce(), op: &str) -> bool {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(()) => true,
        Err(e) => {
            if loom::is_abort(e.as_ref()) {
                std::panic::resume_unwind(e);
            }
            let msg = panic_text(e.as_ref());
            assert!(
                msg.contains("partition 3") && msg.contains(op),
                "contract panic must name the partition and operation: {msg}"
            );
            false
        }
    }
}

/// Two threads entering one heap: in every schedule either the
/// entries serialize cleanly (the flag handoff publishes the first
/// occupant's writes to the second — the race detector verifies this) or
/// the loser panics with the partition-named contract message. No third
/// outcome — in particular, no schedule where both threads are inside the
/// cell — exists.
#[test]
fn entry_flag_serializes_or_panics() {
    let clean = Arc::new(AtomicU64::new(0));
    let contested = Arc::new(AtomicU64::new(0));
    let (c2, v2) = (Arc::clone(&clean), Arc::clone(&contested));
    let mut builder = explorer();
    // The entry-flag kernel is tiny (a swap, a handful of guarded cell
    // accesses, a store per entry), so a deeper preemption budget is needed
    // to clear the schedule floor; it is still fast.
    builder.preemption_bound = 12;
    let report = builder.check(move || {
        let heap = partition_heap();
        let h = heap.clone();
        let worker = loom::thread::spawn(move || {
            // register_class mutates HeapInner through the guard: a write
            // access on the heap cell, checked against the main thread's.
            let first = attempt(
                || {
                    let _ = h.register_class("Widget", None);
                },
                "register_class",
            );
            let second = attempt(
                || {
                    let _ = h.root_count();
                },
                "root_count",
            );
            let third = attempt(
                || {
                    let _ = h.root_count();
                },
                "root_count",
            );
            first && second && third
        });
        let entered = attempt(
            || {
                let _ = heap.root_count();
            },
            "root_count",
        ) & attempt(
            || {
                let _ = heap.register_class("Gadget", None);
            },
            "register_class",
        ) & attempt(
            || {
                let _ = heap.root_count();
            },
            "root_count",
        );
        let worker_entered = worker.join().unwrap();
        if entered && worker_entered {
            c2.fetch_add(1, Ordering::Relaxed);
        } else {
            v2.fetch_add(1, Ordering::Relaxed);
        }
        // Whatever happened mid-run, both threads are done now: the flag
        // must be released and the heap re-enterable and consistent.
        assert_eq!(heap.root_count(), 0);
    });
    assert!(
        report.schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.schedules
    );
    // Both outcomes must occur across the schedule set, or the test lost
    // its teeth (e.g. the entries never actually overlapped).
    assert!(
        clean.load(Ordering::Relaxed) > 0,
        "no schedule serialized cleanly"
    );
    assert!(
        contested.load(Ordering::Relaxed) > 0,
        "no schedule tripped the single-mutator contract"
    );
}
