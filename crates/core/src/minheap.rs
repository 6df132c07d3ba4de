//! Minimal-heap-size search.
//!
//! The paper evaluates space savings as "the minimal heap size required to
//! run the program" (§5.2): shrink the heap until the program throws
//! `OutOfMemoryError`. Here the simulated heap panics with an
//! [`OutOfMemory`] payload; the search runs
//! workload under a capacity via `catch_unwind` and binary-searches the
//! smallest capacity that completes.

use crate::env::{Env, EnvConfig, PortableUpdate};
use crate::workload::Workload;
use chameleon_heap::OutOfMemory;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Granularity of the search in bytes.
pub const MIN_HEAP_STEP: u64 = 1024;

/// Installs (once per process) a panic hook that stays silent for the
/// simulated `OutOfMemoryError` — those panics are the expected signal of
/// the minimal-heap search — and delegates everything else to the previous
/// hook.
pub fn silence_oom_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<OutOfMemory>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs `workload` under `capacity` with `policy`; returns whether it
/// completed without OOM.
///
/// # Panics
///
/// Re-panics if the workload fails for any reason other than the simulated
/// `OutOfMemoryError`.
pub fn completes_under(workload: &dyn Workload, policy: &[PortableUpdate], capacity: u64) -> bool {
    completes_under_with(workload, policy, capacity, &EnvConfig::default())
}

/// [`completes_under`] with an environment template (layout model and
/// cost model are taken from `template`; capacity, capture and profiling
/// follow the measured-run protocol).
pub fn completes_under_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    capacity: u64,
    template: &EnvConfig,
) -> bool {
    silence_oom_panics();
    let env = Env::new(&EnvConfig {
        model: template.model,
        cost: template.cost,
        ..EnvConfig::measured(capacity)
    });
    env.apply_policy(policy);
    let result = catch_unwind(AssertUnwindSafe(|| env.run(workload)));
    match result {
        Ok(()) => true,
        Err(payload) => {
            if payload.downcast_ref::<OutOfMemory>().is_some() {
                false
            } else {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Binary-searches the minimal heap capacity (to [`MIN_HEAP_STEP`]
/// granularity) at which `workload` completes with `policy` applied.
///
/// `hint` seeds the upper bound (e.g. the profiling run's peak live bytes);
/// the bound doubles until the workload completes.
pub fn min_heap_size(workload: &dyn Workload, policy: &[PortableUpdate], hint: u64) -> u64 {
    min_heap_size_with(workload, policy, hint, &EnvConfig::default())
}

/// [`min_heap_size`] with an environment template (see
/// [`completes_under_with`]).
pub fn min_heap_size_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    hint: u64,
    template: &EnvConfig,
) -> u64 {
    // Establish a completing upper bound.
    let mut hi = hint.max(64 * 1024);
    while !completes_under_with(workload, policy, hi, template) {
        hi = hi.saturating_mul(2);
        assert!(
            hi < (1 << 40),
            "workload does not complete even with a 1 TiB heap"
        );
    }
    let mut lo = 0u64;
    // Invariant: completes at hi, not at lo.
    while hi - lo > MIN_HEAP_STEP {
        let mid = lo + (hi - lo) / 2;
        if completes_under_with(workload, policy, mid, template) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::CollectionFactory;

    /// Keeps `n` maps of 4 entries alive simultaneously.
    fn pinned_maps(n: usize) -> impl Workload {
        ("pinned", move |f: &CollectionFactory| {
            let _g = f.enter("P.site:1");
            let mut keep = Vec::new();
            for _ in 0..n {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..4 {
                    m.put(i, i);
                }
                keep.push(m);
            }
        })
    }

    #[test]
    fn completes_detects_oom() {
        let w = pinned_maps(50);
        assert!(completes_under(&w, &[], 64 * 1024 * 1024));
        assert!(!completes_under(&w, &[], 4 * 1024));
    }

    #[test]
    fn min_heap_scales_with_live_data() {
        let small = min_heap_size(&pinned_maps(20), &[], 64 * 1024);
        let large = min_heap_size(&pinned_maps(100), &[], 64 * 1024);
        assert!(
            large > small + 3 * MIN_HEAP_STEP,
            "5x live data must need a bigger heap: {small} vs {large}"
        );
        // Sanity: both complete at their reported minimum and fail at
        // noticeably less.
        let w = pinned_maps(20);
        assert!(completes_under(&w, &[], small));
        assert!(!completes_under(&w, &[], small / 2));
    }

    #[test]
    fn policy_reduces_min_heap() {
        use crate::env::{PortableChoice, PortableUpdate};
        use chameleon_collections::factory::Selection;
        use chameleon_collections::MapChoice;
        let w = pinned_maps(100);
        let before = min_heap_size(&w, &[], 64 * 1024);
        let policy = vec![PortableUpdate {
            src_type: "HashMap".to_owned(),
            frames: vec!["P.site:1".to_owned()],
            kind: PortableChoice::Map(Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(4),
            }),
        }];
        let after = min_heap_size(&w, &policy, 64 * 1024);
        assert!(
            after < before,
            "ArrayMap policy must shrink the minimal heap ({before} -> {after})"
        );
    }
}
