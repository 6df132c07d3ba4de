//! Merlin object-lifetime trace for the minimal-heap search (Hertz et al.,
//! "Generating Object Lifetime Traces with Merlin", TOPLAS 2006).
//!
//! Time is the number `k` of capacity checks (`ensure_room` calls, one per
//! allocation or batch) made so far; check `k` asks room for `request(k)`
//! bytes. An object allocated right after check `a` is reachable at the
//! checks `a < k ≤ d`, where its *death time* `d` is the last check at
//! which it was reachable (`d = a` if none). A heap capped at `C` then
//! completes iff `C ≥ T`, the largest `live(k) + request(k)` over all
//! checks, where `live(k)` sums the sizes of the objects reachable at
//! check `k`: those are exactly what a GC at check `k` keeps.
//!
//! Each slot records its object's birth `a` and a *stamp*, the latest
//! check at which the object is known reachable. The stamp starts at `a`
//! and is raised to the current `k` whenever the object loses an incoming
//! reference (the old target of `set_ref`, `set_elem` or an `alloc_batch`
//! link) or a root registration (`remove_root`): an object the mutator
//! cuts is reachable at the check before the cut. Before each sweep,
//! [`Lifetimes::propagate`] gives every unreachable object the largest
//! stamp of any unreachable object that reaches it, itself included, with
//! one depth-first walk per object in descending stamp order, so the
//! first walk to reach an object carries its death time. Each object then
//! adds `+size` at `a + 1` and `−size` at `d + 1` to a difference array
//! over `k`, whose prefix sums are `live(k)`. [`Lifetimes::needs`] counts
//! the objects still live at the end up to the last check.
//!
//! The propagated time is exact when the mutator only touches (writes,
//! stores a reference to, roots or unroots) objects reachable at the last
//! check or allocated since: the condition under which a run's reachable
//! set does not depend on when its GCs ran. Given it, an object
//! unreachable at a check is never written or linked to again, so the
//! edges that reach it from unreachable objects are frozen, and:
//!
//! * *No later than `d`.* Every unreachable object reaching `o` was
//!   already unreachable at check `d + 1` and never stamped after it.
//! * *No earlier than `d`.* Take a path from a root to `o` at check `d`
//!   and its cut closest to `o`, made before check `d + 1`. The cut
//!   object was stamped `d`, is unreachable from then on, and still
//!   reaches `o` along the rest of the path.
//!
//! So `T` does not depend on the GC interval of the recording run either:
//! each cycle only finalizes the death times of the objects it sweeps.

use crate::heap::{HeapInner, F_OCCUPIED};

/// Stamp of a slot whose death time this cycle's walks already assigned.
const VISITED: u32 = u32::MAX;

/// One run's lifetime trace (see the module docs).
pub(crate) struct Lifetimes {
    /// Request of every capacity check so far: check `k` is `requests[k - 1]`.
    requests: Vec<u64>,
    /// Difference array over checks: `live(k)` is the sum of `delta[..=k]`.
    delta: Vec<i64>,
    /// Per slot: the check count when its object was allocated.
    born: Vec<u32>,
    /// Per slot: the latest check at which its object is known reachable.
    stamp: Vec<u32>,
    /// The check count at the last collection.
    collected_at: u32,
    /// `propagate`'s `(stamp, slot)` order and walk stack, kept for reuse.
    order: Vec<(u32, u32)>,
    stack: Vec<u32>,
}

impl Lifetimes {
    /// A trace of a heap with `slots` slots, whose objects count as
    /// allocated before the first check.
    pub(crate) fn new(slots: usize) -> Self {
        Lifetimes {
            requests: Vec::new(),
            delta: Vec::new(),
            born: vec![0; slots],
            stamp: vec![0; slots],
            collected_at: 0,
            order: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The current check count `k`.
    fn now(&self) -> u32 {
        self.requests.len() as u32
    }

    /// Counts one capacity check asking room for `size` bytes.
    #[cold]
    pub(crate) fn request(&mut self, size: u64) {
        self.requests.push(size);
    }

    /// Records a fresh object in `slot`, born at the current check.
    #[cold]
    pub(crate) fn born(&mut self, slot: usize) {
        let k = self.now();
        if slot == self.born.len() {
            self.born.push(k);
            self.stamp.push(k);
        } else {
            self.born[slot] = k;
            self.stamp[slot] = k;
        }
    }

    /// Records that the object in `slot` is reachable at the current check
    /// (it is losing a reference or a root registration).
    #[cold]
    pub(crate) fn touch(&mut self, slot: usize) {
        self.stamp[slot] = self.now();
    }

    /// Whether a capacity check ran since the last collection (or, with
    /// none, since the trace began). If not, every object still on the
    /// heap was reachable at the last check, because a collection since
    /// then kept it and no object becomes reachable again.
    pub(crate) fn checked_since_collection(&self) -> bool {
        self.now() != self.collected_at
    }

    fn add(&mut self, k: u32, bytes: i64) {
        let k = k as usize;
        if self.delta.len() <= k {
            self.delta.resize(k + 1, 0);
        }
        self.delta[k] += bytes;
    }

    /// Charges the objects in slots `dead` to `live(k)` over the checks
    /// they were reachable at. `dead` must be every occupied slot left
    /// unmarked (`marks[i] != epoch`) by the cycle about to sweep them.
    pub(crate) fn propagate(&mut self, inner: &HeapInner, marks: &[u32], epoch: u32, dead: &[u32]) {
        self.collected_at = self.now();
        let mut order = std::mem::take(&mut self.order);
        let mut stack = std::mem::take(&mut self.stack);
        order.clear();
        order.extend(dead.iter().map(|&i| (self.stamp[i as usize], i)));
        order.sort_unstable_by(|a, b| b.cmp(a));
        for &(death, start) in &order {
            if self.stamp[start as usize] == VISITED {
                continue;
            }
            self.stamp[start as usize] = VISITED;
            stack.push(start);
            while let Some(i) = stack.pop() {
                let o = &inner.slab[i as usize];
                let born = self.born[i as usize];
                if death > born {
                    let size = i64::from(o.size);
                    self.add(born + 1, size);
                    self.add(death + 1, -size);
                }
                for child in o.refs_iter(&inner.ref_pool) {
                    let Some(j) = inner.live_slot(child) else {
                        continue;
                    };
                    if marks[j] != epoch && self.stamp[j] != VISITED {
                        self.stamp[j] = VISITED;
                        stack.push(child.index);
                    }
                }
            }
        }
        self.order = order;
        self.stack = stack;
    }

    /// `live(k) + request(k)` for every check `k`, in order; `T` is their
    /// maximum. Every object unreachable at the last check must have been
    /// swept (with `propagate`) first; the objects still occupying
    /// `inner`'s slots count as live up to the last check.
    pub(crate) fn needs(mut self, inner: &HeapInner) -> Vec<u64> {
        let last = self.now();
        for (i, &flags) in inner.flags.iter().enumerate() {
            let born = self.born[i];
            if flags & F_OCCUPIED != 0 && last > born {
                self.add(born + 1, i64::from(inner.slab[i].size));
            }
        }
        let mut live = 0i64;
        for (k, need) in (1..).zip(&mut self.requests) {
            live += self.delta.get(k).copied().unwrap_or(0);
            *need += live as u64;
        }
        self.requests
    }
}

#[cfg(test)]
mod tests {
    use crate::heap::{BatchAlloc, BatchRef, Heap, HeapConfig};
    use crate::object::{ClassId, ElemKind, ObjId};

    /// GC intervals of the recording heap; `T` must not depend on them.
    const INTERVALS: [Option<u64>; 4] = [None, Some(0), Some(64), Some(512)];

    fn heap_with_interval(gc_interval_bytes: Option<u64>) -> (Heap, ClassId) {
        let heap = Heap::with_config(HeapConfig {
            gc_interval_bytes,
            ..HeapConfig::default()
        });
        let class = heap.register_class("Obj", None);
        (heap, class)
    }

    /// Runs `program` on a heap that collects before every allocation,
    /// whose `peak_need` is then exactly `T`, and on a recording heap at
    /// each of [`INTERVALS`]; asserts they all agree and returns `T`.
    fn lifetime_peak_matches_oracle(program: impl Fn(&Heap, ClassId)) -> u64 {
        let (oracle, class) = heap_with_interval(Some(0));
        program(&oracle, class);
        let expected = oracle.peak_need();
        for interval in INTERVALS {
            let (heap, class) = heap_with_interval(interval);
            heap.record_lifetimes();
            program(&heap, class);
            assert_eq!(
                heap.lifetime_peak(),
                expected,
                "lifetime trace at GC interval {interval:?} disagrees with the oracle"
            );
        }
        expected
    }

    #[test]
    fn dead_cycle_dies_when_its_last_root_goes() {
        let model = Heap::new().model();
        let node = u64::from(model.object_size(1, 0));
        let big = u64::from(model.object_size(0, 200));
        let t = lifetime_peak_matches_oracle(|heap, class| {
            let a = heap.alloc_scalar(class, 1, 0, None);
            heap.add_root(a);
            let b = heap.alloc_scalar(class, 1, 0, None);
            heap.set_ref(a, 0, Some(b));
            heap.set_ref(b, 0, Some(a));
            // Check 3: the cycle is still rooted. `b` is never stamped
            // after its birth, so only the walk from `a` keeps it live here.
            let _ = heap.alloc_scalar(class, 0, 200, None);
            heap.remove_root(a);
            // Check 4: the cycle is garbage.
            let _ = heap.alloc_scalar(class, 0, 200, None);
        });
        assert_eq!(t, 2 * node + big);
    }

    #[test]
    fn batch_link_over_a_live_reference_kills_the_old_target() {
        let model = Heap::new().model();
        let holder = u64::from(model.object_size(1, 0));
        let old = u64::from(model.object_size(0, 64));
        let batch = u64::from(model.object_size(1, 0) + model.ref_array_size(64));
        let t = lifetime_peak_matches_oracle(|heap, class| {
            let h = heap.alloc_scalar(class, 1, 0, None);
            heap.add_root(h);
            let x = heap.alloc_scalar(class, 0, 64, None);
            heap.set_ref(h, 0, Some(x));
            // Check 3 still sees `x`; the batch's link then overwrites
            // `h`'s only reference to it.
            let [fresh, _] = heap.alloc_batch(
                [
                    BatchAlloc::Scalar {
                        class,
                        ref_fields: 1,
                        prim_bytes: 0,
                        ctx: None,
                    },
                    BatchAlloc::Array {
                        class,
                        elem: ElemKind::Ref,
                        capacity: 64,
                        ctx: None,
                    },
                ],
                &[
                    (BatchRef::New(0), 0, Some(BatchRef::New(1))),
                    (BatchRef::Obj(h), 0, Some(BatchRef::New(0))),
                ],
                &[],
            );
            assert_eq!(heap.get_ref(h, 0), Some(fresh));
            // Check 4: `x` is garbage; the batch is live through `h`.
            let _ = heap.alloc_scalar(class, 0, 8, None);
        });
        assert_eq!(t, holder + old + batch);
    }

    #[test]
    fn unrooting_an_object_still_referenced_keeps_it_live() {
        let model = Heap::new().model();
        let holder = u64::from(model.object_size(1, 0));
        let x = u64::from(model.object_size(0, 64));
        let big = u64::from(model.object_size(0, 400));
        let t = lifetime_peak_matches_oracle(|heap, class| {
            let h = heap.alloc_scalar(class, 1, 0, None);
            heap.add_root(h);
            let o = heap.alloc_scalar(class, 0, 64, None);
            heap.add_root(o);
            heap.set_ref(h, 0, Some(o));
            heap.remove_root(o);
            // Checks 3 and 4: `o` is still reachable through `h`.
            let _ = heap.alloc_scalar(class, 0, 8, None);
            let _ = heap.alloc_scalar(class, 0, 400, None);
            heap.set_ref(h, 0, None);
            let _ = heap.alloc_scalar(class, 0, 8, None);
        });
        assert_eq!(t, holder + x + big);
    }

    /// Shape of a generated object: reference fields (scalar) or slots
    /// (array) it can hold.
    #[derive(Clone, Copy)]
    enum Shape {
        Scalar(u32),
        Array(u32),
    }

    /// The objects a generated program may touch next: allocated and not
    /// swept by the oracle, which collects at every check, so each was
    /// reachable at the last check or allocated since.
    fn touchable<'a>(
        oracle: &'a Heap,
        objs: &'a [(ObjId, ObjId, Shape)],
    ) -> impl Iterator<Item = usize> + 'a {
        (0..objs.len()).filter(move |&i| oracle.is_live(objs[i].0))
    }

    fn pick(candidates: &[usize], k: u32) -> Option<usize> {
        (!candidates.is_empty()).then(|| candidates[k as usize % candidates.len()])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// On random mutator programs (scalar, array and batch allocations,
        /// `set_ref`, `set_elem`, batch links to existing objects,
        /// `add_root`, `remove_root`), a recording heap's `T` equals the
        /// `peak_need` of a heap that collects at every check, at every
        /// GC interval. So does its live-plus-request at each check, the
        /// oracle's heap bytes right after that allocation, so a miscounted
        /// object shows wherever it lives, not only at the peak.
        #[test]
        fn lifetime_peak_equals_collect_every_check_oracle(
            ops in proptest::collection::vec((0u32..8, 0u32..64, 0u32..64, 0u32..64), 1..120),
            interval in 0usize..4,
        ) {
            let (oracle, oracle_class) = heap_with_interval(Some(0));
            let (heap, class) = heap_with_interval(INTERVALS[interval]);
            heap.record_lifetimes();
            // Every object allocated: (oracle id, recorded id, shape).
            let mut objs: Vec<(ObjId, ObjId, Shape)> = Vec::new();
            let mut needs = Vec::new();
            for (op, a, b, c) in ops {
                if op == 2 {
                    // A batch links existing objects after its own check,
                    // so they must survive a GC there. The oracle runs
                    // that GC now; a GC outside a check is not counted.
                    oracle.gc();
                }
                let live: Vec<usize> = touchable(&oracle, &objs).collect();
                let with_refs: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&i| matches!(objs[i].2, Shape::Scalar(n) if n > 0))
                    .collect();
                let arrays: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&i| matches!(objs[i].2, Shape::Array(n) if n > 0))
                    .collect();
                let target = pick(&live, b).filter(|_| c % 4 != 0);
                match op {
                    0 => {
                        let refs = a % 4;
                        let (x, y) = (
                            oracle.alloc_scalar(oracle_class, refs, c, None),
                            heap.alloc_scalar(class, refs, c, None),
                        );
                        objs.push((x, y, Shape::Scalar(refs)));
                        needs.push(oracle.heap_bytes());
                    }
                    1 => {
                        let (elem, shape) = if c % 2 == 0 {
                            (ElemKind::Ref, Shape::Array(a % 8))
                        } else {
                            (ElemKind::Prim { bytes_per_elem: 4 }, Shape::Array(0))
                        };
                        let (x, y) = (
                            oracle.alloc_array(oracle_class, elem, a % 8, None),
                            heap.alloc_array(class, elem, a % 8, None),
                        );
                        objs.push((x, y, shape));
                        needs.push(oracle.heap_bytes());
                    }
                    2 => {
                        // A scalar holding a fresh 3-slot array, linked to an
                        // existing object and, optionally, linked from one
                        // (overwriting what that slot held).
                        let run = |h: &Heap, class: ClassId, id: fn(&(ObjId, ObjId, Shape)) -> ObjId| {
                            let mut links = vec![(BatchRef::New(0), 0, Some(BatchRef::New(1)))];
                            if let Some(t) = target {
                                links.push((BatchRef::New(1), (a % 3) as usize, Some(BatchRef::Obj(id(&objs[t])))));
                            }
                            if let Some(s) = pick(&with_refs, a).filter(|_| c % 3 != 0) {
                                let Shape::Scalar(n) = objs[s].2 else { unreachable!() };
                                links.push((BatchRef::Obj(id(&objs[s])), (b % n) as usize, Some(BatchRef::New(0))));
                            }
                            let roots: &[usize] = if c % 2 == 0 { &[0] } else { &[] };
                            h.alloc_batch(
                                [
                                    BatchAlloc::Scalar { class, ref_fields: 1, prim_bytes: a % 16, ctx: None },
                                    BatchAlloc::Array { class, elem: ElemKind::Ref, capacity: 3, ctx: None },
                                ],
                                &links,
                                roots,
                            )
                        };
                        let x = run(&oracle, oracle_class, |o| o.0);
                        let y = run(&heap, class, |o| o.1);
                        objs.push((x[0], y[0], Shape::Scalar(1)));
                        objs.push((x[1], y[1], Shape::Array(3)));
                        needs.push(oracle.heap_bytes());
                    }
                    3 => {
                        if let Some(s) = pick(&with_refs, a) {
                            let Shape::Scalar(n) = objs[s].2 else { unreachable!() };
                            let field = (b % n) as usize;
                            oracle.set_ref(objs[s].0, field, target.map(|t| objs[t].0));
                            heap.set_ref(objs[s].1, field, target.map(|t| objs[t].1));
                        }
                    }
                    4 => {
                        if let Some(s) = pick(&arrays, a) {
                            let Shape::Array(n) = objs[s].2 else { unreachable!() };
                            let idx = (b % n) as usize;
                            oracle.set_elem(objs[s].0, idx, target.map(|t| objs[t].0));
                            heap.set_elem(objs[s].1, idx, target.map(|t| objs[t].1));
                        }
                    }
                    5 | 6 => {
                        if let Some(s) = pick(&live, a) {
                            oracle.add_root(objs[s].0);
                            heap.add_root(objs[s].1);
                        }
                    }
                    _ => {
                        if let Some(s) = pick(&live, a) {
                            oracle.remove_root(objs[s].0);
                            heap.remove_root(objs[s].1);
                        }
                    }
                }
            }
            let recorded = heap.lifetime_needs();
            proptest::prop_assert_eq!(recorded.iter().max().copied().unwrap_or(0), oracle.peak_need());
            proptest::prop_assert_eq!(recorded, needs);
        }
    }
}
