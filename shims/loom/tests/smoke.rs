//! Self-checks for the model explorer: it must find classic concurrency
//! bugs (races, missing fences) and must not flag correct protocols.

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use loom::sync::{Arc, Mutex};

fn fails(body: impl Fn() + Send + Sync + 'static) -> String {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        loom::model(body);
    }));
    match r {
        Ok(()) => panic!("model unexpectedly passed"),
        Err(e) => e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn unsynchronized_writes_race() {
    let msg = fails(|| {
        let cell = Arc::new(UnsafeCell::new(0u32));
        let c2 = Arc::clone(&cell);
        let t = loom::thread::spawn(move || {
            c2.with_mut(|p| unsafe { *p += 1 });
        });
        cell.with_mut(|p| unsafe { *p += 1 });
        t.join().unwrap();
    });
    assert!(msg.contains("data race"), "got: {msg}");
}

#[test]
fn mutex_protected_writes_do_not_race() {
    let report = loom::Builder::default().check(|| {
        let cell = Arc::new((Mutex::new(()), UnsafeCell::new(0u32)));
        let c2 = Arc::clone(&cell);
        let t = loom::thread::spawn(move || {
            let _g = c2.0.lock();
            c2.1.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = cell.0.lock();
            cell.1.with_mut(|p| unsafe { *p += 1 });
        }
        t.join().unwrap();
        let _g = cell.0.lock();
        cell.1.with(|p| assert_eq!(unsafe { *p }, 2));
    });
    assert!(
        report.schedules >= 2,
        "explored {} schedules",
        report.schedules
    );
}

#[test]
fn release_acquire_publishes() {
    loom::model(|| {
        let st = Arc::new((AtomicBool::new(false), UnsafeCell::new(0u32)));
        let s2 = Arc::clone(&st);
        let t = loom::thread::spawn(move || {
            s2.1.with_mut(|p| unsafe { *p = 7 });
            s2.0.store(true, Ordering::Release);
        });
        if st.0.load(Ordering::Acquire) {
            st.1.with(|p| assert_eq!(unsafe { *p }, 7));
        }
        t.join().unwrap();
    });
}

#[test]
fn relaxed_flag_is_not_a_publication() {
    // Same shape as above but with a relaxed flag: the data read races the
    // write because no happens-before edge exists.
    let msg = fails(|| {
        let st = Arc::new((AtomicBool::new(false), UnsafeCell::new(0u32)));
        let s2 = Arc::clone(&st);
        let t = loom::thread::spawn(move || {
            s2.1.with_mut(|p| unsafe { *p = 7 });
            s2.0.store(true, Ordering::Relaxed);
        });
        if st.0.load(Ordering::Relaxed) {
            st.1.with(|p| {
                let _ = unsafe { *p };
            });
        }
        t.join().unwrap();
    });
    assert!(msg.contains("data race"), "got: {msg}");
}

#[test]
fn relaxed_load_explores_stale_and_fresh_stores() {
    // Store-history speculation: a relaxed load racing two relaxed stores
    // must be able to observe every coherent value (0, 1 and 2 across the
    // schedule set), and a load *after* join must observe only the final
    // one (the join edge floors the history).
    let seen = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    loom::Builder::default().check(move || {
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&flag);
        let t = loom::thread::spawn(move || {
            f2.store(1, Ordering::Relaxed);
            f2.store(2, Ordering::Relaxed);
        });
        let racy = flag.load(Ordering::Relaxed);
        t.join().unwrap();
        let settled = flag.load(Ordering::Relaxed);
        assert_eq!(settled, 2, "post-join load must see the final store");
        seen2.lock().unwrap_or_else(|e| e.into_inner()).insert(racy);
    });
    let vals: Vec<u32> = seen
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .copied()
        .collect();
    assert_eq!(
        vals,
        vec![0, 1, 2],
        "racy load must explore all coherent values"
    );
}

#[test]
fn deadlock_is_reported() {
    let msg = fails(|| {
        let locks = Arc::new((Mutex::new(()), Mutex::new(())));
        let l2 = Arc::clone(&locks);
        let t = loom::thread::spawn(move || {
            let _a = l2.0.lock();
            let _b = l2.1.lock();
        });
        let _b = locks.1.lock();
        let _a = locks.0.lock();
        drop(_a);
        drop(_b);
        t.join().unwrap();
    });
    assert!(msg.contains("deadlock"), "got: {msg}");
}

#[test]
fn panic_in_body_fails_check() {
    let msg = fails(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let t = loom::thread::spawn(move || {
            f2.store(true, Ordering::Release);
        });
        t.join().unwrap();
        assert!(flag.load(Ordering::Acquire), "flag must be set after join");
        panic!("intentional failure");
    });
    assert!(msg.contains("intentional failure"), "got: {msg}");
}

#[test]
fn passthrough_outside_model() {
    // No model context: everything behaves like plain std.
    let a = AtomicU32::new(1);
    assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
    assert_eq!(a.load(Ordering::Acquire), 3);
    let m = Mutex::new(5u32);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 6);
    let c = UnsafeCell::new(9u32);
    c.with(|p| assert_eq!(unsafe { *p }, 9));
}
