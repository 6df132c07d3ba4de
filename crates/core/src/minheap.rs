//! Minimal-heap-size search.
//!
//! The paper evaluates space savings as "the minimal heap size required to
//! run the program" (§5.2): shrink the heap until the program throws
//! `OutOfMemoryError`. Here the simulated heap panics with an
//! [`OutOfMemory`] payload when an allocation does not fit after a GC.
//!
//! [`min_heap_size_with`] is the literal search and the test oracle: it
//! doubles a completing upper bound from `hint`, then bisects down to
//! [`MIN_HEAP_STEP`], running the workload once per probe under
//! `catch_unwind`.
//!
//! [`min_heap_size`] finds the same number in one run, and never unwinds.
//! A measured run at capacity `C` checks every allocation of `size` bytes
//! against `C`, collecting first if the heap is full, and fails iff
//! `live + size > C` after that collection. So it completes iff `C ≥ T`,
//! where `T` is the largest `reachable + size` over all allocations. This
//! rests on one condition: the mutator's allocations and what they keep
//! reachable do not depend on when the GC runs. Measured runs satisfy it
//! (static capture, no GC-driven decisions). So does a profiling run with
//! no policy: the profiler and context capture only charge the simulated
//! clock, and never allocate, link or root on the simulated heap, so the
//! run allocates and keeps reachable what a measured run of the default
//! collections does. The oracle tests check both on every paper
//! workload. Given the condition, the bisection is a function of `T`
//! alone; it returns `g(T)`, where `g(v)` is the smallest point `≥ v` of
//! its own grid (the leaf bounds of the doubling and bisection for `hint`).
//!
//! A *lifetime run* computes `T` exactly, whatever its GC schedule, from a
//! Merlin lifetime trace
//! ([`Heap::record_lifetimes`](chameleon_heap::Heap::record_lifetimes);
//! Hertz et al., TOPLAS 2006). [`min_heap_size`] makes one of its own,
//! uncapped with a GC every 256 KiB (`LIFETIME_GC_INTERVAL`);
//! [`run_experiment`](crate::run_experiment) records the trace on its
//! profile run and on its measured policy run instead, whose results the
//! trace leaves unchanged. Time is the allocation count `k`. Each
//! object records the allocation `a` it followed and a stamp, raised to
//! the current `k` whenever it loses a reference or a root. Each GC gives
//! every object it sweeps the largest stamp `d` of any swept object that
//! reaches it: the allocation at which the last path to it was cut. The
//! object is then reachable exactly at the allocations `a < k ≤ d`, so a
//! difference array over `k` sums to `reachable(k)`, and
//! `T = max_k reachable(k) + size(k)`. This is exact under the same
//! condition: an object unreachable at one allocation is never written or
//! linked to again, so the dead edges that reach it are frozen until its
//! sweep. For the same reason `T` does not depend on the GC interval,
//! which only sets how many dead objects each GC walks (the heap's module
//! `lifetime` has the full argument).

use crate::env::{Env, EnvConfig, PortableUpdate};
use crate::workload::Workload;
use chameleon_heap::OutOfMemory;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Granularity of the search in bytes.
pub const MIN_HEAP_STEP: u64 = 1024;

/// GC interval of the lifetime run of [`min_heap_size`]. `T` does not
/// depend on it; it bounds the slab and the dead objects each GC walks
/// (the profiling run's default interval).
const LIFETIME_GC_INTERVAL: u64 = 256 * 1024;

/// Installs (once per process) a panic hook that stays silent for the
/// simulated `OutOfMemoryError` — those panics are the expected signal of
/// the bisection oracle — and delegates everything else to the previous
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

/// The measured-run configuration at `capacity` under `template`'s layout
/// model.
fn trial_config(capacity: u64, template: &EnvConfig) -> EnvConfig {
    EnvConfig {
        model: template.model,
        ..EnvConfig::measured(capacity)
    }
}

/// [`completes_under`] with an environment template (the layout model is
/// taken from `template`; capacity, capture and profiling follow the
/// measured-run protocol).
pub fn completes_under_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    capacity: u64,
    template: &EnvConfig,
) -> bool {
    silence_oom_panics();
    let env = Env::new(&trial_config(capacity, template));
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

/// The minimal heap capacity (to [`MIN_HEAP_STEP`] granularity) at which
/// `workload` completes with `policy` applied, under `template`'s layout
/// model: one uncapped lifetime run (see the module docs).
/// Equals [`min_heap_size_with`] for the same arguments.
///
/// `hint` seeds the search grid (e.g. the profiling run's peak live bytes).
///
/// # Panics
///
/// Panics if the workload needs a heap of 1 TiB or more.
pub fn min_heap_size(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    hint: u64,
    template: &EnvConfig,
) -> u64 {
    let env = Env::new(&EnvConfig {
        heap_capacity: None,
        gc_interval_bytes: Some(LIFETIME_GC_INTERVAL),
        ..trial_config(0, template)
    });
    env.apply_policy(policy);
    lifetime_run(&env, workload, |_| (hint, ())).0
}

/// Runs `workload` on `env` under a lifetime trace and returns the
/// minimal heap of that run, `g(T)` on the grid of the hint `observe`
/// returns, with whatever else `observe` read. `observe` sees the
/// finished run before the trace ends. The run must satisfy the module
/// docs' condition: its reachability must not depend on when it collects.
pub(crate) fn lifetime_run<R>(
    env: &Env,
    workload: &dyn Workload,
    observe: impl FnOnce(&Env) -> (u64, R),
) -> (u64, R) {
    env.heap.record_lifetimes();
    env.run(workload);
    let (hint, observed) = observe(env);
    (grid_point(hint, env.heap.lifetime_peak()), observed)
}

/// Binary-searches the minimal heap capacity (to [`MIN_HEAP_STEP`]
/// granularity) at which `workload` completes with `policy` applied, one
/// [`completes_under_with`] trial per probe. This is the oracle
/// [`min_heap_size`] is tested against.
///
/// `hint` seeds the upper bound (e.g. the profiling run's peak live bytes);
/// the bound doubles until the workload completes.
pub fn min_heap_size_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    hint: u64,
    template: &EnvConfig,
) -> u64 {
    bisect(hint, |capacity| {
        completes_under_with(workload, policy, capacity, template)
    })
}

/// The smallest point `≥ need` of the grid [`min_heap_size_with`] searches
/// for `hint`: what it returns for a workload that completes exactly at
/// capacities `≥ need`.
fn grid_point(hint: u64, need: u64) -> u64 {
    bisect(hint, |capacity| capacity >= need)
}

/// Doubles an upper bound from `hint` (at least 64 KiB) until `completes`
/// holds, then bisects `[0, bound]` down to [`MIN_HEAP_STEP`] and returns
/// the smallest probed capacity that completed.
fn bisect(hint: u64, mut completes: impl FnMut(u64) -> bool) -> u64 {
    let mut hi = hint.max(64 * 1024);
    while !completes(hi) {
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
        if completes(mid) {
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

    /// Asserts that the one-run search equals the bisection oracle and
    /// returns their common answer.
    fn assert_matches_oracle(w: &dyn Workload, policy: &[PortableUpdate], hint: u64) -> u64 {
        let template = EnvConfig::default();
        let oracle = min_heap_size_with(w, policy, hint, &template);
        assert_eq!(
            min_heap_size(w, policy, hint, &template),
            oracle,
            "one-run search disagrees with the bisection (hint {hint})"
        );
        oracle
    }

    #[test]
    fn completes_detects_oom() {
        let w = pinned_maps(50);
        assert!(completes_under(&w, &[], 64 * 1024 * 1024));
        assert!(!completes_under(&w, &[], 4 * 1024));
    }

    #[test]
    fn one_run_search_matches_oracle_on_pinned_maps() {
        for n in [20, 100, 3000] {
            assert_matches_oracle(&pinned_maps(n), &[], 64 * 1024);
        }
    }

    #[test]
    fn one_run_search_matches_oracle_when_the_grid_doubles() {
        // 3000 pinned maps need far more than the 64 KiB the hint floors
        // at, so both searches double the bound several times.
        let min = assert_matches_oracle(&pinned_maps(3000), &[], 1);
        assert!(min > 4 * 64 * 1024, "the grid did not double: {min}");
    }

    #[test]
    fn one_run_search_matches_oracle_with_a_hint_far_above() {
        assert_matches_oracle(&pinned_maps(20), &[], 64 * 1024 * 1024);
    }

    #[test]
    fn one_run_search_matches_oracle_on_an_empty_workload() {
        let w = ("empty", |_: &CollectionFactory| {});
        assert_eq!(assert_matches_oracle(&w, &[], 64 * 1024), MIN_HEAP_STEP);
    }

    #[test]
    fn one_run_search_matches_oracle_when_one_request_sets_the_peak() {
        // A small live set, then one 64k-slot backing array: the peak is
        // the array request, not the live set before it.
        let w = ("one-big-array", |f: &CollectionFactory| {
            let _g = f.enter("Big.site:1");
            let mut keep = Vec::new();
            for i in 0..20 {
                let mut m = f.new_map::<i64, i64>(None);
                m.put(i, i);
                keep.push(m);
            }
            let mut big = f.new_list::<i64>(Some(64 * 1024));
            big.add(1);
        });
        let min = assert_matches_oracle(&w, &[], 64 * 1024);
        assert!(
            min > 256 * 1024,
            "the array request must set the peak: {min}"
        );
    }

    #[test]
    fn min_heap_scales_with_live_data() {
        let template = EnvConfig::default();
        let small = min_heap_size(&pinned_maps(20), &[], 64 * 1024, &template);
        let large = min_heap_size(&pinned_maps(100), &[], 64 * 1024, &template);
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
        let policy = vec![PortableUpdate {
            src_type: "HashMap".to_owned(),
            frames: vec!["P.site:1".to_owned()],
            kind: PortableChoice::Map(Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(4),
            }),
        }];
        let before = assert_matches_oracle(&w, &[], 64 * 1024);
        let after = assert_matches_oracle(&w, &policy, 64 * 1024);
        assert!(
            after < before,
            "ArrayMap policy must shrink the minimal heap ({before} -> {after})"
        );
    }
}
