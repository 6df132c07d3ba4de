//! Mark-sweep collector with semantic collection accounting.
//!
//! The collector performs a standard mark phase, then a *single fused pass*
//! over the slab that simultaneously gathers live/type statistics, walks
//! every marked object whose class registered a *top-level* semantic map to
//! compute per-collection live/used/core statistics attributed to the
//! allocation context recorded in the object (§4.3), and identifies the
//! garbage to sweep. The pass fills dense per-class and per-context
//! accumulators indexed by `ClassId`/`ContextId`. Finally the recorded
//! garbage is swept and the simulated clock is charged for the pause.
//!
//! The collector runs on the thread that owns the heap. The paper's J9
//! collector marks in parallel, but here the pause is simulated (a pure
//! function of config and live bytes), so host threads would change only
//! wall-clock time, never a result.
//!
//! Marking uses an epoch-stamped mark array kept in `HeapInner` (a slot is
//! marked iff its stamp equals the current cycle's epoch), so no per-cycle
//! mark allocation or clearing is needed.
//!
//! A top-level collection whose walk resolves at least
//! [`CACHE_MIN_FOOTPRINT`] objects keeps its totals and the slots it
//! resolved (its *footprint*) across cycles. The next cycle reuses them
//! when no footprint slot carries `F_DIRTY`: the walk reads nothing but
//! the footprint objects, their ref slots and meta, and the immutable
//! class registry and layout model, so it would read the same bytes.
//!
//! The same entry is the collection's *mark summary*. It also keeps the
//! footprint's external edges: the targets of footprint ref slots that
//! lie outside the footprint. When the mark reaches a collection whose
//! entry is still valid, it stamps the whole footprint and traces only
//! those edges. Every footprint object was reachable from the collection
//! through footprint refs, none of those refs was written since, and only
//! the sweep frees a slot, so the marked set is exactly the one a full
//! trace finds. The mark's verdict is the one the scan reuses.
//!
//! A footprint is stored as ascending, disjoint slot runs (pmd's symbol
//! tables are one run each), so validating an entry is one OR-fold over
//! the runs' flag bytes and stamping it is one `fill` per run. The entry
//! also keeps the live bytes and objects, per class, of its footprint's
//! objects without `F_TOP_COLL`. After the mark, each entry validated this
//! cycle claims its runs by setting `F_SUMMARIZED`, unless another entry
//! claimed one of those slots first (footprints may overlap). The scan
//! skips a summarized slot without `F_TOP_COLL` and adds the claiming
//! entry's stored accounting at its collection slot, so it pays per object
//! outside the claimed footprints. This is exact: a footprint slot is
//! occupied and unwritten, so its object's size and class are the ones
//! recorded, and a claim is exclusive, so no object is counted twice. A
//! cycle that takes a heap snapshot claims nothing and scans every object.

use crate::heap::{
    HeapInner, ANOMALY_WARMUP, F_DIRTY, F_OCCUPIED, F_SUMMARIZED, F_TOP_COLL, PAUSE_HISTORY,
};
use crate::object::{ClassId, ElemKind, ObjBody, ObjId, Object};
use crate::semantic::{AdtDescriptor, SemanticMap};
use crate::snapshot::{self, SnapAcc};
use crate::stats::{AdtTotals, CycleStats};
use chameleon_telemetry::SpanTimer;
use std::ops::Range;

/// Runs one full collection cycle on the heap.
pub(crate) fn collect(inner: &mut HeapInner) -> CycleStats {
    // Wall-clock phase timing happens only with telemetry or tracing
    // attached; the simulated results below never depend on it.
    let lane = inner.tracer.clone();
    let timed = inner.telemetry.is_some() || lane.is_some();
    let _gc_span = lane
        .as_ref()
        .map(|l| l.scope("gc").arg("cycle", inner.gc_count + 1));

    // Snapshot capture is due on cycles 1, 1+every, 1+2*every, ... after
    // profiling was enabled. One Option check per cycle when disabled.
    let snap_due = inner
        .heapprof
        .as_ref()
        .is_some_and(|s| inner.gc_count.is_multiple_of(s.config.every.max(1)));

    // Take the reusable mark array out of the heap so mark and scan can
    // borrow `&HeapInner` alongside the marks.
    let mut marks = std::mem::take(&mut inner.marks);
    let epoch = next_epoch(inner, &mut marks);
    if marks.len() < inner.slab.len() {
        marks.resize(inner.slab.len(), 0);
    }

    let mut cache = std::mem::take(&mut inner.adt_cache);
    let mark_span = lane.as_ref().map(|l| l.scope("gc_mark"));
    let mark_timer = timed.then(SpanTimer::start);
    mark(inner, &mut cache, &mut marks, epoch);
    // Heap profiling needs every live object's edges, so a snapshot-due
    // cycle scans every object.
    if !snap_due {
        claim_footprints(&mut inner.flags, &mut cache, epoch);
    }
    let mark_ns = mark_timer.map_or(0, |t| t.elapsed_ns());
    drop(mark_span);

    // ----- fused live/semantic/sweep scan ---------------------------------------
    let scan_span = lane.as_ref().map(|l| l.scope("gc_scan"));
    let scan_timer = timed.then(SpanTimer::start);
    let n_contexts = inner.contexts.len();
    let ScanAcc {
        live_bytes,
        live_objects,
        swept_bytes,
        swept_objects,
        sweep_list,
        collection,
        per_context: per_ctx_dense,
        type_dist: type_dense,
        snap,
        adt_cache,
        coll_cached,
        summarized_objects,
    } = scan(inner, &marks, epoch, n_contexts, snap_due, cache);
    let scan_ns = scan_timer.map_or(0, |t| t.elapsed_ns());
    drop(scan_span);

    // ----- apply the sweep ------------------------------------------------------
    // The sweep list is ascending, so slots are freed in ascending index order.
    let sweep_span = lane.as_ref().map(|l| l.scope("gc_sweep"));
    let sweep_timer = timed.then(SpanTimer::start);
    if let Some(mut lifetimes) = inner.lifetimes.take() {
        lifetimes.propagate(inner, &marks, epoch, &sweep_list);
        inner.lifetimes = Some(lifetimes);
    }
    for &i in &sweep_list {
        inner.release_slot(i as usize);
        inner.free.push(i);
    }
    for f in &mut inner.flags {
        *f &= !(F_DIRTY | F_SUMMARIZED);
    }
    inner.adt_cache = adt_cache;
    let sweep_ns = sweep_timer.map_or(0, |t| t.elapsed_ns());
    drop(sweep_span);
    inner.heap_bytes = inner.heap_bytes.saturating_sub(swept_bytes);
    inner.generation = inner.generation.wrapping_add(1).max(1);
    inner.gc_count += 1;
    inner.marks = marks;

    // ----- clock ----------------------------------------------------------------
    // The pause cost is a pure function of config and live bytes, so it is
    // recorded in the stats even when no clock is attached to charge it.
    let cfg = inner.gc_config;
    let pause_cost_units = cfg.cost_per_cycle + (live_bytes / 1024) * cfg.cost_per_live_kib;
    let at_units = if let Some(clock) = &inner.clock {
        clock.charge(pause_cost_units);
        clock.now()
    } else {
        0
    };

    // ----- flight-recorder anomaly trigger --------------------------------------
    // Purely observational: compares the deterministic pause cost against the
    // running median of recent cycles and dumps the trace rings to disk when
    // a pause exceeds `anomaly_factor` times that median. The history itself
    // is deterministic data, so it is maintained whether or not a tracer is
    // attached; only the dump requires one.
    if let Some(l) = &lane {
        if cfg.anomaly_factor > 0 && inner.pause_history.len() >= ANOMALY_WARMUP {
            let mut sorted: Vec<u64> = inner.pause_history.iter().copied().collect();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            if median > 0 && pause_cost_units > cfg.anomaly_factor.saturating_mul(median) {
                let _ = l.tracer().flight_dump("gc-anomaly");
            }
        }
    }
    inner.pause_history.push_back(pause_cost_units);
    if inner.pause_history.len() > PAUSE_HISTORY {
        inner.pause_history.pop_front();
    }

    // ----- snapshot assembly ----------------------------------------------------
    // Pure read-side work: the scan's accumulator plus virtual-root edges
    // resolved against the (already swept, but roots are live) slab. Never
    // touches the clock or the cycle statistics.
    let snap_span = lane
        .as_ref()
        .filter(|_| snap_due)
        .map(|l| l.scope("heap_snapshot_capture"));
    let snapshot = snap.map(|mut acc| {
        let root_node = (n_contexts + 1) as u32;
        for id in inner.root_ids() {
            let o = &inner.slab[id.index as usize];
            let tnode = o.ctx.map_or(n_contexts as u32, |c| c.0);
            acc.edges.insert(snapshot::pack_edge(root_node, tnode));
        }
        snapshot::build_snapshot(
            inner.gc_count,
            at_units,
            live_bytes,
            live_objects,
            &acc,
            &per_ctx_dense,
            collection,
        )
    });
    drop(snap_span);

    let per_context: Vec<_> = per_ctx_dense
        .into_iter()
        .enumerate()
        .filter(|(_, t)| t.count > 0)
        .map(|(i, t)| (crate::context::ContextId(i as u32), t))
        .collect();
    let type_distribution: Vec<_> = type_dense
        .into_iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(i, (b, n))| (crate::object::ClassId(i as u32), b, n))
        .collect();

    let stats = CycleStats {
        cycle: inner.gc_count,
        at_units,
        live_bytes,
        live_objects,
        swept_bytes,
        swept_objects,
        pause_cost_units,
        collection,
        per_context,
        type_distribution,
    };

    if let Some(ht) = &inner.telemetry {
        ht.gc_cycles.inc();
        ht.gc_pause_units.record(pause_cost_units);
        ht.gc_marked_objects.add(live_objects);
        ht.gc_swept_objects.add(swept_objects);
        ht.t.event("gc_cycle", at_units)
            .num("cycle", stats.cycle)
            .num("live_bytes", live_bytes)
            .num("live_objects", live_objects)
            .num("swept_bytes", swept_bytes)
            .num("swept_objects", swept_objects)
            .num("pause_units", pause_cost_units)
            .num("mark_ns", mark_ns)
            .num("scan_ns", scan_ns)
            .num("sweep_ns", sweep_ns)
            .num("coll_live", stats.collection.live)
            .num("coll_used", stats.collection.used)
            .num("coll_core", stats.collection.core)
            .num("coll_count", stats.collection.count)
            .num("coll_cached", coll_cached)
            .num("summarized_objects", summarized_objects);
        if let Some(s) = &snapshot {
            ht.prof_snapshots.inc();
            ht.t.event("heap_snapshot", at_units)
                .num("cycle", s.cycle)
                .num("live_bytes", s.live_bytes)
                .num("live_objects", s.live_objects)
                .num("retained_root", s.retained_root)
                .num("contexts", s.contexts.len() as u64);
        }
    }

    if let Some(s) = snapshot {
        if let Some(state) = inner.heapprof.as_mut() {
            state.snapshots.push(s);
        }
    }

    inner.cycles.push(stats.clone());
    stats
}

/// Advances the mark epoch, resetting stamps on the (rare) u32 wraparound
/// so a slot marked billions of cycles ago can never alias a fresh epoch.
fn next_epoch(inner: &mut HeapInner, marks: &mut [u32]) -> u32 {
    inner.mark_epoch = inner.mark_epoch.wrapping_add(1);
    if inner.mark_epoch == 0 {
        marks.fill(0);
        inner.mark_epoch = 1;
    }
    inner.mark_epoch
}

/// Accumulator of the fused scan. Dense vectors are indexed by
/// `ClassId`/`ContextId`.
struct ScanAcc {
    live_bytes: u64,
    live_objects: u64,
    swept_bytes: u64,
    swept_objects: u64,
    /// Slab indices to free, ascending.
    sweep_list: Vec<u32>,
    collection: AdtTotals,
    per_context: Vec<AdtTotals>,
    type_dist: Vec<(u64, u64)>,
    /// Snapshot accumulator, filled only on cycles where heap profiling is
    /// due; `None` keeps the scan loop free of snapshot branches' work.
    snap: Option<SnapAcc>,
    /// The next cycle's collection cache, ascending by slot.
    adt_cache: Vec<AdtCached>,
    /// Top-level collections whose totals came from the cache.
    coll_cached: u64,
    /// Live objects whose accounting came from a mark summary.
    summarized_objects: u64,
}

/// One top-level collection's semantic totals from an earlier cycle, and
/// its mark summary.
pub(crate) struct AdtCached {
    slot: u32,
    /// Generation of the collection object at `slot`.
    generation: u32,
    totals: AdtTotals,
    /// Slots the walk resolved (its footprint), as ascending, disjoint
    /// `[start, end)` runs.
    runs: Vec<Range<usize>>,
    /// Resolvable targets of the footprint objects' ref slots that lie
    /// outside the footprint: the only edges the mark still traces.
    external: Vec<ObjId>,
    /// Live `(class, bytes, objects)` of the footprint objects without
    /// `F_TOP_COLL`, ascending by class: what the scan would add up for
    /// them.
    classes: Vec<(ClassId, u64, u64)>,
    /// Epoch of the last mark that found the entry valid; the scan reuses
    /// the entry only in that cycle.
    valid_at: u32,
    /// Epoch of the last cycle whose footprint claim gave this entry every
    /// one of its slots; the scan adds `classes` only in that cycle.
    claimed_at: u32,
}

impl AdtCached {
    /// Builds the entry for a walk that resolved `footprint`.
    fn record(inner: &HeapInner, slot: u32, totals: AdtTotals, footprint: &mut [u32]) -> Self {
        footprint.sort_unstable();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for &s in footprint.iter() {
            let s = s as usize;
            match runs.last_mut() {
                // `s == r.end` extends the run; sorted, so `s < r.end`
                // repeats a slot already in it.
                Some(r) if s <= r.end => r.end = r.end.max(s + 1),
                _ => runs.push(s..s + 1),
            }
        }
        let slots = || runs.iter().flat_map(Range::clone);
        let mut external = Vec::new();
        for s in slots() {
            for child in inner.slab[s].refs_iter(&inner.ref_pool) {
                // A resolvable id whose slot is in the footprint is that
                // footprint object.
                if resolve_opt(inner, child).is_some() && !in_runs(&runs, child.index as usize) {
                    external.push(child);
                }
            }
        }
        let mut classes: Vec<(ClassId, u64, u64)> = Vec::new();
        for s in slots().filter(|&s| inner.flags[s] & F_TOP_COLL == 0) {
            let (class, size) = (inner.slab[s].class, u64::from(inner.slab[s].size));
            match classes.binary_search_by_key(&class, |t| t.0) {
                Ok(k) => {
                    classes[k].1 += size;
                    classes[k].2 += 1;
                }
                Err(k) => classes.insert(k, (class, size, 1)),
            }
        }
        AdtCached {
            slot,
            generation: inner.slab[slot as usize].generation,
            totals,
            runs,
            external,
            classes,
            valid_at: 0,
            claimed_at: 0,
        }
    }

    /// True while the collection at `slot` is the one walked and no
    /// footprint slot was freed or written since.
    fn still_valid(&self, inner: &HeapInner) -> bool {
        self.generation == inner.slab[self.slot as usize].generation
            && fold_runs(&inner.flags, &self.runs, F_OCCUPIED) & (F_OCCUPIED | F_DIRTY) == 0
    }
}

/// Whether slot `s` lies in one of the ascending, disjoint `runs`.
fn in_runs(runs: &[Range<usize>], s: usize) -> bool {
    let k = runs.partition_point(|r| r.end <= s);
    runs.get(k).is_some_and(|r| r.start <= s)
}

/// OR of `flag ^ flip` over the flag bytes of every slot in `runs`. With
/// `flip = F_OCCUPIED`, the result's `F_OCCUPIED` bit says some slot is
/// free.
fn fold_runs(flags: &[u8], runs: &[Range<usize>], flip: u8) -> u8 {
    runs.iter().fold(0, |acc, r| {
        flags[r.clone()]
            .iter()
            .fold(acc, |acc, &f| acc | (f ^ flip))
    })
}

/// Sets `F_SUMMARIZED` on the footprint of every entry this cycle's mark
/// validated, and marks the entry claimed. Footprints can overlap (a chain
/// may run into another collection's entries); an entry that meets a slot
/// an earlier entry claimed is left unclaimed, so its objects are scanned
/// one by one and no object is counted twice.
fn claim_footprints(flags: &mut [u8], cache: &mut [AdtCached], epoch: u32) {
    for e in cache.iter_mut().filter(|e| e.valid_at == epoch) {
        if fold_runs(flags, &e.runs, 0) & F_SUMMARIZED != 0 {
            continue;
        }
        for r in &e.runs {
            flags[r.clone()].iter_mut().for_each(|f| *f |= F_SUMMARIZED);
        }
        e.claimed_at = epoch;
    }
}

/// Smallest footprint worth caching. Smaller walks cost less than
/// validating and storing their entry, and findbugs keeps ~1.2k live
/// collections of at most 8 objects each. The walks that pay are pmd's
/// ~4000-entry symbol tables; every other benchmark walk is at most 65
/// objects.
const CACHE_MIN_FOOTPRINT: usize = 64;

/// Scans the slab: live/type accounting, semantic ADT accounting for
/// top-level collections, and garbage identification. Read-only over the
/// heap; the caller applies the sweep afterwards. `cache` is the previous
/// cycle's collection cache; entries of collections not met live drop out.
fn scan(
    inner: &HeapInner,
    marks: &[u32],
    epoch: u32,
    n_contexts: usize,
    snap_due: bool,
    cache: Vec<AdtCached>,
) -> ScanAcc {
    let mut acc = ScanAcc {
        live_bytes: 0,
        live_objects: 0,
        swept_bytes: 0,
        swept_objects: 0,
        sweep_list: Vec::new(),
        collection: AdtTotals::default(),
        per_context: vec![AdtTotals::default(); n_contexts],
        type_dist: vec![(0, 0); inner.classes.len()],
        snap: snap_due.then(|| SnapAcc::new(n_contexts)),
        adt_cache: Vec::new(),
        coll_cached: 0,
        summarized_objects: 0,
    };
    let mut cache = cache.into_iter().peekable();
    let mut footprint = Vec::new();
    for (i, &slot_flags) in inner.flags.iter().enumerate() {
        if slot_flags & F_OCCUPIED == 0 {
            continue;
        }
        // Live, and counted by its claimed summary at the collection slot.
        if slot_flags & (F_SUMMARIZED | F_TOP_COLL) == F_SUMMARIZED {
            continue;
        }
        let o = &inner.slab[i];
        if marks[i] != epoch {
            acc.swept_bytes += u64::from(o.size);
            acc.swept_objects += 1;
            acc.sweep_list.push(i as u32);
            continue;
        }
        acc.live_bytes += u64::from(o.size);
        acc.live_objects += 1;
        let slot = &mut acc.type_dist[o.class.0 as usize];
        slot.0 += u64::from(o.size);
        slot.1 += 1;
        if let Some(snap) = acc.snap.as_mut() {
            // Live objects reachable from this one are marked by
            // construction, so every resolvable reference is a live edge.
            let node = o.ctx.map_or(n_contexts as u32, |c| c.0);
            snap.self_bytes[node as usize] += u64::from(o.size);
            snap.objects[node as usize] += 1;
            for child in o.refs_iter(&inner.ref_pool) {
                if let Some(target) = resolve_opt(inner, child) {
                    let tnode = target.ctx.map_or(n_contexts as u32, |c| c.0);
                    snap.edges_in[tnode as usize] += 1;
                    if tnode != node {
                        snap.edges.insert(snapshot::pack_edge(node, tnode));
                    }
                }
            }
        }
        // F_TOP_COLL is precomputed at insert, so the common (non-collection)
        // case costs one flag test instead of a class-registry lookup.
        if slot_flags & F_TOP_COLL == 0 {
            continue;
        }
        let map = inner
            .classes
            .info(o.class)
            .semantic_map
            .expect("F_TOP_COLL implies a top-level semantic map");
        while cache.next_if(|e| (e.slot as usize) < i).is_some() {}
        // The mark validated every entry it used this cycle.
        let totals = match cache.next_if(|e| e.slot as usize == i) {
            Some(e) if e.valid_at == epoch => {
                acc.coll_cached += 1;
                if e.claimed_at == epoch {
                    for &(class, bytes, objects) in &e.classes {
                        acc.live_bytes += bytes;
                        acc.live_objects += objects;
                        acc.summarized_objects += objects;
                        let t = &mut acc.type_dist[class.0 as usize];
                        t.0 += bytes;
                        t.1 += objects;
                    }
                }
                let totals = e.totals;
                acc.adt_cache.push(e);
                totals
            }
            _ => {
                footprint.clear();
                footprint.push(i as u32);
                let mut totals = adt_stats(inner, o, map, &mut footprint);
                totals.count = 1;
                if footprint.len() >= CACHE_MIN_FOOTPRINT {
                    acc.adt_cache
                        .push(AdtCached::record(inner, i as u32, totals, &mut footprint));
                }
                totals
            }
        };
        acc.collection.add(totals);
        if let Some(ctx) = o.ctx {
            acc.per_context[ctx.0 as usize].add(totals);
        }
    }
    acc
}

/// Marks everything reachable from the roots by stamping `epoch` into the
/// mark array. A top-level collection with a still-valid `cache` entry is
/// marked from its summary: its footprint is stamped whole and only its
/// external edges are traced. Each entry used is marked valid for `epoch`.
fn mark(inner: &HeapInner, cache: &mut [AdtCached], marks: &mut [u32], epoch: u32) {
    let mut stack: Vec<u32> = Vec::new();
    for root in inner.root_ids() {
        if claim(inner, marks, epoch, root) {
            stack.push(root.index);
        }
        while let Some(i) = stack.pop() {
            if inner.flags[i as usize] & F_TOP_COLL != 0 {
                if let Ok(k) = cache.binary_search_by_key(&i, |e| e.slot) {
                    let e = &mut cache[k];
                    if e.still_valid(inner) {
                        e.valid_at = epoch;
                        for r in &e.runs {
                            marks[r.clone()].fill(epoch);
                        }
                        for &child in &e.external {
                            if claim(inner, marks, epoch, child) {
                                stack.push(child.index);
                            }
                        }
                        continue;
                    }
                }
            }
            for child in inner.slab[i as usize].refs_iter(&inner.ref_pool) {
                if claim(inner, marks, epoch, child) {
                    stack.push(child.index);
                }
            }
        }
    }
}

/// Stamps `obj`'s mark word; returns true if it was unmarked this cycle.
/// Stale ids (swept or reused slots) are ignored rather than traced.
fn claim(inner: &HeapInner, marks: &mut [u32], epoch: u32, obj: ObjId) -> bool {
    let i = obj.index as usize;
    if resolve_opt(inner, obj).is_none() || marks[i] == epoch {
        return false;
    }
    marks[i] = epoch;
    true
}

/// Computes live/used/core for one collection object according to its
/// semantic map. `count` is left zero; callers set it. Every object the
/// walk resolves besides `obj` is pushed onto `footprint`.
fn adt_stats(
    inner: &HeapInner,
    obj: &Object,
    map: SemanticMap,
    footprint: &mut Vec<u32>,
) -> AdtTotals {
    let model = inner.model;
    let size_meta = obj.meta.first().copied().unwrap_or(0).max(0) as u32;
    let refs_per_elem = map.kind.refs_per_elem();
    let core = u64::from(model.array_size(model.ref_bytes, size_meta * refs_per_elem));
    let own = u64::from(obj.size);

    match map.descriptor {
        AdtDescriptor::Wrapper { impl_field } => {
            let backing = scalar_ref(inner, obj, impl_field);
            let mut totals = match backing.and_then(|b| resolve_fp(inner, b, footprint)) {
                Some(backing_obj) => {
                    let backing_map = inner
                        .classes
                        .info(backing_obj.class)
                        .semantic_map
                        .unwrap_or(SemanticMap::backing(map.kind, AdtDescriptor::Inline));
                    adt_stats(inner, backing_obj, backing_map, footprint)
                }
                None => AdtTotals {
                    live: 0,
                    used: 0,
                    core,
                    count: 0,
                },
            };
            totals.live += own;
            totals.used += own;
            totals
        }
        AdtDescriptor::ArrayBacked {
            array_field,
            slots_per_elem,
        } => {
            let mut live = own;
            let mut slack = 0u64;
            if let Some(arr) =
                scalar_ref(inner, obj, array_field).and_then(|a| resolve_fp(inner, a, footprint))
            {
                live += u64::from(arr.size);
                if let ObjBody::Array { elem, capacity, .. } = &arr.body {
                    let elem_bytes = match elem {
                        ElemKind::Ref => model.ref_bytes,
                        ElemKind::Prim { bytes_per_elem } => *bytes_per_elem,
                    };
                    let used_slots = size_meta.saturating_mul(slots_per_elem).min(*capacity);
                    slack = u64::from((capacity - used_slots) * elem_bytes);
                }
            }
            AdtTotals {
                live,
                used: live - slack,
                core,
                count: 0,
            }
        }
        AdtDescriptor::ChainedHash { array_field } => {
            let mut live = own;
            let mut slack = 0u64;
            if let Some(arr) =
                scalar_ref(inner, obj, array_field).and_then(|a| resolve_fp(inner, a, footprint))
            {
                live += u64::from(arr.size);
                if let ObjBody::Array {
                    slots, capacity, ..
                } = &arr.body
                {
                    let used_buckets = obj.meta.get(1).copied().unwrap_or(0).max(0) as u32;
                    slack = u64::from((capacity.saturating_sub(used_buckets)) * model.ref_bytes);
                    // Walk every bucket chain; entries link through ref field 0.
                    let max_steps = size_meta as usize + slots.len as usize + 8;
                    let mut steps = 0usize;
                    for head in inner.ref_pool[slots.as_range()].iter().filter_map(|s| *s) {
                        let mut cur = Some(head);
                        while let Some(id) = cur {
                            if steps >= max_steps {
                                break;
                            }
                            steps += 1;
                            let Some(entry) = resolve_fp(inner, id, footprint) else {
                                break;
                            };
                            live += u64::from(entry.size);
                            cur = scalar_ref(inner, entry, 0);
                        }
                    }
                }
            }
            AdtTotals {
                live,
                used: live - slack,
                core,
                count: 0,
            }
        }
        AdtDescriptor::LinkedEntries { head_field } => {
            let mut live = own;
            if let Some(head) = scalar_ref(inner, obj, head_field) {
                // Circular list: walk next pointers until back at the head.
                let max_steps = size_meta as usize + 4;
                let mut cur = resolve_opt(inner, head).map(|_| head);
                let mut steps = 0usize;
                while let Some(id) = cur {
                    if steps >= max_steps {
                        break;
                    }
                    steps += 1;
                    let Some(entry) = resolve_fp(inner, id, footprint) else {
                        break;
                    };
                    live += u64::from(entry.size);
                    cur = scalar_ref(inner, entry, 0).filter(|next| *next != head);
                }
            }
            AdtTotals {
                live,
                used: live,
                core,
                count: 0,
            }
        }
        AdtDescriptor::Inline => AdtTotals {
            live: own,
            used: own,
            core,
            count: 0,
        },
    }
}

fn scalar_ref(inner: &HeapInner, obj: &Object, field: usize) -> Option<ObjId> {
    match obj.body {
        ObjBody::Scalar { refs, .. } if (field as u32) < refs.len => {
            inner.ref_pool[refs.start as usize + field]
        }
        _ => None,
    }
}

/// [`resolve_opt`] that records a resolved object's slot in `footprint`.
fn resolve_fp<'h>(
    inner: &'h HeapInner,
    obj: ObjId,
    footprint: &mut Vec<u32>,
) -> Option<&'h Object> {
    let o = resolve_opt(inner, obj)?;
    footprint.push(obj.index);
    Some(o)
}

fn resolve_opt(inner: &HeapInner, obj: ObjId) -> Option<&Object> {
    let i = obj.index as usize;
    if inner.flags.get(i)? & F_OCCUPIED == 0 {
        return None;
    }
    let o = &inner.slab[i];
    (o.generation == obj.generation).then_some(o)
}

#[cfg(test)]
mod tests {
    use crate::heap::{BatchAlloc, BatchRef, GcConfig, Heap};
    use crate::object::{ElemKind, ObjId};
    use crate::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
    use crate::snapshot::HeapProfConfig;

    /// Builds an ArrayList-shaped pair: impl object + backing array of
    /// `cap` slots with `size` elements, wrapped in a top-level wrapper.
    fn array_list_fixture(heap: &Heap, cap: u32, size: u32) -> crate::object::ObjId {
        let wrapper_class = heap.register_class(
            "ListWrapper",
            Some(SemanticMap::wrapper(CollectionKind::List)),
        );
        let impl_class = heap.register_class(
            "ArrayListImpl",
            Some(SemanticMap::backing(
                CollectionKind::List,
                AdtDescriptor::ArrayBacked {
                    array_field: 0,
                    slots_per_elem: 1,
                },
            )),
        );
        let arr_class = heap.register_class("Object[]", None);
        let ctx = heap.intern_context("ArrayList", &["A.m:1".to_owned()], 2);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, Some(ctx));
        let im = heap.alloc_scalar(impl_class, 1, 8, None);
        let arr = heap.alloc_array(arr_class, ElemKind::Ref, cap, None);
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(arr));
        heap.set_meta(im, 0, &[i64::from(size)]);
        heap.set_meta(w, 0, &[i64::from(size)]);
        heap.add_root(w);
        w
    }

    #[test]
    fn array_backed_accounting() {
        let heap = Heap::new();
        let _w = array_list_fixture(&heap, 10, 3);
        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0)) // wrapper
            + u64::from(m.object_size(1, 8)) // impl
            + u64::from(m.ref_array_size(10)); // backing array
        assert_eq!(stats.collection.live, expected_live);
        // 7 unused slots * 4 bytes slack.
        assert_eq!(stats.collection.used, expected_live - 7 * 4);
        assert_eq!(stats.collection.core, u64::from(m.core_size(3)));
        assert_eq!(stats.collection.count, 1);
        assert_eq!(stats.per_context.len(), 1);
        assert_eq!(stats.per_context[0].1.live, expected_live);
    }

    #[test]
    fn empty_backing_array_is_all_slack() {
        let heap = Heap::new();
        let _w = array_list_fixture(&heap, 10, 0);
        let stats = heap.gc();
        let m = heap.model();
        let fixed = u64::from(m.object_size(1, 0)) + u64::from(m.object_size(1, 8));
        assert_eq!(
            stats.collection.used,
            fixed + u64::from(m.ref_array_size(10)) - 40
        );
        assert_eq!(stats.collection.core, u64::from(m.core_size(0)));
    }

    #[test]
    fn chained_hash_accounting() {
        let heap = Heap::new();
        let wrapper_class = heap.register_class(
            "MapWrapper",
            Some(SemanticMap::wrapper(CollectionKind::Map)),
        );
        let impl_class = heap.register_class(
            "HashMapImpl",
            Some(SemanticMap::backing(
                CollectionKind::Map,
                AdtDescriptor::ChainedHash { array_field: 0 },
            )),
        );
        let arr_class = heap.register_class("Entry[]", None);
        let entry_class = heap.register_class("HashMap$Entry", None);
        let ctx = heap.intern_context("HashMap", &["B.m:2".to_owned()], 2);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, Some(ctx));
        let im = heap.alloc_scalar(impl_class, 1, 8, None);
        let buckets = heap.alloc_array(arr_class, ElemKind::Ref, 16, None);
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(buckets));
        // Two entries in one bucket (a chain), one in another.
        let e1 = heap.alloc_scalar(entry_class, 3, 4, None); // 24 B
        let e2 = heap.alloc_scalar(entry_class, 3, 4, None);
        let e3 = heap.alloc_scalar(entry_class, 3, 4, None);
        heap.set_elem(buckets, 0, Some(e1));
        heap.set_ref(e1, 0, Some(e2));
        heap.set_elem(buckets, 5, Some(e3));
        heap.set_meta(im, 0, &[3, 2]); // size, used buckets
        heap.set_meta(w, 0, &[3]);
        heap.add_root(w);

        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0))
            + u64::from(m.object_size(1, 8))
            + u64::from(m.ref_array_size(16))
            + 3 * 24;
        assert_eq!(stats.collection.live, expected_live);
        // 14 empty buckets * 4 B slack.
        assert_eq!(stats.collection.used, expected_live - 14 * 4);
        // Map core: 3 elements * 2 refs.
        assert_eq!(stats.collection.core, u64::from(m.ref_array_size(6)));
    }

    #[test]
    fn linked_entries_accounting_counts_sentinel() {
        let heap = Heap::new();
        let wrapper_class = heap.register_class(
            "LinkedWrapper",
            Some(SemanticMap::wrapper(CollectionKind::List)),
        );
        let impl_class = heap.register_class(
            "LinkedListImpl",
            Some(SemanticMap::backing(
                CollectionKind::List,
                AdtDescriptor::LinkedEntries { head_field: 0 },
            )),
        );
        let entry_class = heap.register_class("LinkedList$Entry", None);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, None);
        let im = heap.alloc_scalar(impl_class, 1, 4, None);
        // Circular: header <-> e1, empty logical list would be header only.
        let header = heap.alloc_scalar(entry_class, 3, 0, None); // 24 B sentinel
        let e1 = heap.alloc_scalar(entry_class, 3, 0, None);
        heap.set_ref(header, 0, Some(e1));
        heap.set_ref(e1, 0, Some(header)); // circular back
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(header));
        heap.set_meta(im, 0, &[1]);
        heap.set_meta(w, 0, &[1]);
        heap.add_root(w);

        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0))
            + u64::from(m.object_size(1, 4))
            + 2 * u64::from(m.object_size(3, 0));
        assert_eq!(stats.collection.live, expected_live);
        // Linked entries have no slack: used == live.
        assert_eq!(stats.collection.used, expected_live);
        assert_eq!(stats.collection.core, u64::from(m.core_size(1)));
    }

    #[test]
    fn epoch_marks_survive_many_cycles() {
        let heap = Heap::new();
        let class = heap.register_class("Node", None);
        let keep = heap.alloc_scalar(class, 0, 8, None);
        heap.add_root(keep);
        for _ in 0..50 {
            let _garbage = heap.alloc_scalar(class, 0, 8, None);
            let stats = heap.gc();
            assert_eq!(stats.live_objects, 1);
            assert_eq!(stats.swept_objects, 1);
        }
        assert!(heap.is_live(keep));
    }

    #[test]
    fn type_distribution_covers_live_bytes() {
        let heap = Heap::new();
        let a = heap.register_class("A", None);
        let b = heap.register_class("B", None);
        let o1 = heap.alloc_scalar(a, 0, 0, None);
        let o2 = heap.alloc_scalar(b, 0, 32, None);
        heap.add_root(o1);
        heap.add_root(o2);
        let stats = heap.gc();
        let sum: u64 = stats
            .type_distribution
            .iter()
            .map(|(_, bytes, _)| bytes)
            .sum();
        assert_eq!(sum, stats.live_bytes);
        assert_eq!(stats.type_distribution.len(), 2);
    }

    #[test]
    fn clock_charged_per_cycle() {
        use crate::clock::SimClock;
        let heap = Heap::new();
        let clock = SimClock::new();
        heap.attach_clock(clock.clone());
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        let stats = heap.gc();
        assert!(clock.now() >= GcConfig::default().cost_per_cycle);
        assert_eq!(
            stats.pause_cost_units,
            clock.now(),
            "one cycle == one charge"
        );
    }

    #[test]
    fn pause_cost_recorded_without_clock() {
        let heap = Heap::new();
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 2048, None);
        heap.add_root(o);
        let stats = heap.gc();
        let cfg = GcConfig::default();
        assert_eq!(
            stats.pause_cost_units,
            cfg.cost_per_cycle + (stats.live_bytes / 1024) * cfg.cost_per_live_kib
        );
        assert_eq!(stats.at_units, 0, "no clock attached");
    }

    #[test]
    fn snapshot_capture_reconciles_with_cycle_stats() {
        let heap = Heap::new();
        heap.set_heap_profiling(Some(HeapProfConfig { every: 1 }));
        let _w = array_list_fixture(&heap, 10, 3);
        let stats = heap.gc();
        let snaps = heap.heap_snapshots();
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(s.cycle, stats.cycle);
        assert_eq!(s.live_bytes, stats.live_bytes);
        assert_eq!(s.live_objects, stats.live_objects);
        let self_sum: u64 = s.contexts.iter().map(|c| c.self_bytes).sum();
        assert_eq!(self_sum, stats.live_bytes, "self bytes partition the heap");
        assert_eq!(s.retained_root, stats.live_bytes);
        // The rooted wrapper's context dominates the context-less impl and
        // backing array, so it retains the entire live heap.
        let ctx_snap = s.contexts.iter().find(|c| c.ctx.is_some()).unwrap();
        assert_eq!(ctx_snap.retained_bytes, stats.live_bytes);
        assert_eq!(ctx_snap.coll, stats.per_context[0].1);
        // Wrapper -> impl and impl -> array are the only resolvable edges
        // into the no-context bucket.
        let none_snap = s.contexts.iter().find(|c| c.ctx.is_none()).unwrap();
        assert_eq!(none_snap.edges_in, 2);
        assert_eq!(none_snap.objects, 2);
    }

    #[test]
    fn snapshot_cadence_follows_every() {
        let heap = Heap::new();
        heap.set_heap_profiling(Some(HeapProfConfig { every: 3 }));
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        for _ in 0..7 {
            heap.gc();
        }
        let cycles: Vec<u64> = heap.heap_snapshots().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [1, 4, 7]);
        heap.clear_heap_snapshots();
        assert!(heap.heap_snapshots().is_empty());
        assert_eq!(heap.heap_profiling(), Some(HeapProfConfig { every: 3 }));
    }

    #[test]
    fn disabling_heap_profiling_stops_capture() {
        let heap = Heap::new();
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        heap.gc();
        assert!(heap.heap_snapshots().is_empty(), "off by default");
        heap.set_heap_profiling(Some(HeapProfConfig::default()));
        heap.gc();
        assert_eq!(heap.heap_snapshots().len(), 1);
        heap.set_heap_profiling(None);
        heap.gc();
        assert!(heap.heap_snapshots().is_empty());
    }

    #[test]
    fn telemetry_records_gc_cycles_without_perturbing_them() {
        use chameleon_telemetry::{json, Telemetry};
        let run = |t: Option<&Telemetry>| {
            let heap = Heap::new();
            if let Some(t) = t {
                heap.attach_telemetry(t);
            }
            let class = heap.register_class("A", None);
            let o = heap.alloc_scalar(class, 0, 0, None);
            heap.add_root(o);
            heap.gc()
        };
        let absent = run(None);
        let t = Telemetry::new();
        let attached = run(Some(&t));
        assert_eq!(
            (absent.pause_cost_units, absent.live_objects),
            (attached.pause_cost_units, attached.live_objects),
            "telemetry must not perturb simulated results"
        );
        assert_eq!(t.counter("heap.gc.cycles").get(), 1);
        let log = t.drain_events();
        json::validate_jsonl(&log, &["ev", "t", "cycle", "pause_units"])
            .expect("gc_cycle event is valid JSONL");
        let ev = json::parse(log.lines().next().unwrap()).unwrap();
        assert_eq!(ev.get("ev").unwrap().as_str(), Some("gc_cycle"));
        assert_eq!(
            ev.get("pause_units").unwrap().as_u64(),
            Some(attached.pause_cost_units)
        );
        assert_eq!(
            ev.get("live_objects").unwrap().as_u64(),
            Some(attached.live_objects)
        );
    }

    /// Objects of the cache fixtures, grouped by the writes they take.
    #[derive(Debug, Default, PartialEq)]
    struct Pool {
        wrappers: Vec<ObjId>,
        impls: Vec<ObjId>,
        entries: Vec<ObjId>,
        arrays: Vec<ObjId>,
        payloads: Vec<ObjId>,
    }

    impl Pool {
        /// Whether each pool object is live in `heap`, in pool order.
        fn liveness(&self, heap: &Heap) -> Vec<bool> {
            [
                &self.wrappers,
                &self.impls,
                &self.entries,
                &self.arrays,
                &self.payloads,
            ]
            .into_iter()
            .flatten()
            .map(|&id| heap.is_live(id))
            .collect()
        }
    }

    /// Capacity of every reference array the cache fixtures allocate.
    const SLOTS: u32 = 32;

    /// Three rooted collections, one per walk shape, each behind a
    /// `Wrapper`: an ArrayList (`ArrayBacked`), a HashMap (`ChainedHash`,
    /// 80 entries) and a LinkedList (`LinkedEntries`, 70 entries). The last
    /// two walk past `CACHE_MIN_FOOTPRINT`; an `ArrayBacked` walk resolves
    /// 3 objects whatever its size, so it is always walked afresh and sits
    /// between cached entries in slot order.
    ///
    /// Payloads hang off entries' field 1, outside every footprint: every
    /// tenth entry holds one, the first heads a chain of two more, and the
    /// last entry-held one is shared by the hash map and the linked list.
    /// The hash map's first entry also holds the linked list's wrapper as
    /// a value in field 2.
    fn cache_fixtures(heap: &Heap) -> Pool {
        let mut pool = Pool::default();
        let entry = heap.register_class("Entry", None);
        let arr_class = heap.register_class("Object[]", None);
        let shapes = [
            (
                "ArrayList",
                CollectionKind::List,
                AdtDescriptor::ArrayBacked {
                    array_field: 0,
                    slots_per_elem: 1,
                },
                0usize,
            ),
            (
                "HashMap",
                CollectionKind::Map,
                AdtDescriptor::ChainedHash { array_field: 0 },
                80,
            ),
            (
                "LinkedList",
                CollectionKind::List,
                AdtDescriptor::LinkedEntries { head_field: 0 },
                70,
            ),
        ];
        for (name, kind, descriptor, n) in shapes {
            let wrapper =
                heap.register_class(&format!("{name}Wrapper"), Some(SemanticMap::wrapper(kind)));
            let imp = heap.register_class(
                &format!("{name}Impl"),
                Some(SemanticMap::backing(kind, descriptor)),
            );
            let ctx = heap.intern_context(name, &[format!("{name}.m:1")], 2);
            let w = heap.alloc_scalar(wrapper, 1, 0, Some(ctx));
            let im = heap.alloc_scalar(imp, 1, 8, None);
            heap.set_ref(w, 0, Some(im));
            heap.add_root(w);
            let entries: Vec<ObjId> = (0..n)
                .map(|_| heap.alloc_scalar(entry, 3, 4, None))
                .collect();
            if let AdtDescriptor::LinkedEntries { .. } = descriptor {
                for (k, &e) in entries.iter().enumerate() {
                    heap.set_ref(e, 0, Some(entries[(k + 1) % n]));
                }
                heap.set_ref(im, 0, entries.first().copied());
            } else {
                let arr = heap.alloc_array(arr_class, ElemKind::Ref, SLOTS, None);
                heap.set_ref(im, 0, Some(arr));
                for (k, &e) in entries.iter().enumerate() {
                    let bucket = k % SLOTS as usize;
                    heap.set_ref(e, 0, heap.get_elem(arr, bucket));
                    heap.set_elem(arr, bucket, Some(e));
                }
                pool.arrays.push(arr);
            }
            let size = n.max(5) as i64;
            heap.set_meta(im, 0, &[size, n.min(SLOTS as usize) as i64]);
            heap.set_meta(w, 0, &[size]);
            pool.wrappers.push(w);
            pool.impls.push(im);
            pool.entries.extend(entries);
        }
        let payload = heap.register_class("Payload", None);
        for k in (0..pool.entries.len()).step_by(10) {
            let p = heap.alloc_scalar(payload, 2, 8, None);
            heap.set_ref(pool.entries[k], 1, Some(p));
            pool.payloads.push(p);
        }
        let shared = pool.payloads[pool.payloads.len() - 1];
        heap.set_ref(pool.entries[5], 1, Some(shared));
        let mut tail = pool.payloads[0];
        for _ in 0..2 {
            let p = heap.alloc_scalar(payload, 2, 8, None);
            heap.set_ref(tail, 0, Some(p));
            pool.payloads.push(p);
            tail = p;
        }
        heap.set_ref(pool.entries[0], 2, Some(pool.wrappers[2]));
        pool
    }

    /// The `k`-th object of `ids` (cyclically) if it is still live.
    fn pick(heap: &Heap, ids: &[ObjId], k: u32) -> Option<ObjId> {
        (!ids.is_empty())
            .then(|| ids[k as usize % ids.len()])
            .filter(|&id| heap.is_live(id))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The collection cache is invisible: a heap that keeps it and one
        /// that forgets it before every cycle report identical cycle
        /// statistics over random writes through every path that sets
        /// `F_DIRTY` (`set_meta`, `set_ref`, `set_elem`, `alloc_batch`
        /// links into existing objects), unrooting, garbage and GC, and
        /// both heaps keep the same objects live. Payload writes change the
        /// graph below the collections while their mark summaries stay
        /// valid. Both heaps take a heap snapshot every second cycle, which
        /// must match too: a snapshot-due cycle visits every live object.
        #[test]
        fn adt_cache_is_invisible(
            ops in proptest::collection::vec((0u32..11, 0u32..1024, 0u32..1024), 1..120)
        ) {
            let cached = Heap::new();
            let reference = Heap::new();
            for h in [&cached, &reference] {
                h.set_heap_profiling(Some(HeapProfConfig { every: 2 }));
            }
            let mut pool = cache_fixtures(&cached);
            proptest::prop_assert_eq!(&pool, &cache_fixtures(&reference));
            // One cycle on both heaps; the reference forgets its cache first.
            let cycle = |pool: &Pool| {
                let got = cached.gc();
                reference.clear_adt_cache();
                proptest::prop_assert_eq!(got, reference.gc());
                proptest::prop_assert_eq!(pool.liveness(&cached), pool.liveness(&reference));
                proptest::prop_assert_eq!(cached.heap_snapshots(), reference.heap_snapshots());
            };
            let entry = cached.register_class("Entry", None);
            let arr_class = cached.register_class("Object[]", None);
            let payload = cached.register_class("Payload", None);
            let entry_req = BatchAlloc::Scalar {
                class: entry,
                ref_fields: 3,
                prim_bytes: 4,
                ctx: None,
            };
            // Applies the same batch to both heaps, which stay in lockstep.
            let batch = |req: BatchAlloc, links: &[(BatchRef, usize, Option<BatchRef>)]| {
                let [id] = cached.alloc_batch([req], links, &[]);
                assert_eq!(reference.alloc_batch([req], links, &[]), [id]);
                id
            };
            for (op, a, b) in ops {
                let heaps = [&cached, &reference];
                match op {
                    0 => {
                        let owners = if a % 4 == 0 { &pool.wrappers } else { &pool.impls };
                        if let Some(o) = pick(&cached, owners, a / 4) {
                            let values = [i64::from(b % 160), i64::from(b % 33)];
                            for h in heaps {
                                h.set_meta(o, 0, &values);
                            }
                        }
                    }
                    1 => {
                        let srcs = if a % 5 == 0 { &pool.impls } else { &pool.entries };
                        let all: Vec<ObjId> = pool.entries.iter().chain(&pool.arrays).copied().collect();
                        if let Some(src) = pick(&cached, srcs, a / 5) {
                            let target = (b % 6 != 0).then(|| pick(&cached, &all, b)).flatten();
                            for h in heaps {
                                h.set_ref(src, 0, target);
                            }
                        }
                    }
                    2 => {
                        if let Some(arr) = pick(&cached, &pool.arrays, a) {
                            let target = (b % 3 != 0).then(|| pick(&cached, &pool.entries, b)).flatten();
                            for h in heaps {
                                h.set_elem(arr, (b % SLOTS) as usize, target);
                            }
                        }
                    }
                    3 => {
                        // A hash insert: the new entry heads an existing bucket.
                        if let Some(arr) = pick(&cached, &pool.arrays, a) {
                            let bucket = (b % SLOTS) as usize;
                            let old = cached.get_elem(arr, bucket).map(BatchRef::Obj);
                            let new = Some(BatchRef::New(0));
                            let links = [(BatchRef::Obj(arr), bucket, new), (BatchRef::New(0), 0, old)];
                            pool.entries.push(batch(entry_req, &links));
                        }
                    }
                    4 => {
                        // A chain or list splice after an existing entry.
                        if let Some(src) = pick(&cached, &pool.entries, a) {
                            let old = cached.get_ref(src, 0).map(BatchRef::Obj);
                            let new = Some(BatchRef::New(0));
                            let links = [(BatchRef::Obj(src), 0, new), (BatchRef::New(0), 0, old)];
                            pool.entries.push(batch(entry_req, &links));
                        }
                    }
                    5 => {
                        // Backing growth: an impl moves to a fresh array.
                        if let Some(im) = pick(&cached, &pool.impls, a) {
                            let req = BatchAlloc::Array {
                                class: arr_class,
                                elem: ElemKind::Ref,
                                capacity: SLOTS,
                                ctx: None,
                            };
                            let links = [(BatchRef::Obj(im), 0, Some(BatchRef::New(0)))];
                            pool.arrays.push(batch(req, &links));
                        }
                    }
                    6 if b % 4 == 0 => {
                        if let Some(w) = pick(&cached, &pool.wrappers, a) {
                            for h in heaps {
                                h.remove_root(w);
                            }
                        }
                    }
                    6 | 7 => {
                        for _ in 0..a % 12 {
                            for h in heaps {
                                h.alloc_scalar(entry, 3, 4, None);
                            }
                        }
                    }
                    8 => {
                        // A payload write: relink, clear, or hang a fresh
                        // payload off one.
                        if let Some(p) = pick(&cached, &pool.payloads, a) {
                            let field = (a % 2) as usize;
                            if b % 7 == 0 {
                                let req = BatchAlloc::Scalar {
                                    class: payload,
                                    ref_fields: 2,
                                    prim_bytes: 8,
                                    ctx: None,
                                };
                                let links = [(BatchRef::Obj(p), field, Some(BatchRef::New(0)))];
                                pool.payloads.push(batch(req, &links));
                            } else {
                                let all: Vec<ObjId> = pool.payloads.iter()
                                    .chain(&pool.entries)
                                    .chain(&pool.wrappers)
                                    .copied()
                                    .collect();
                                let target = (b % 5 != 0).then(|| pick(&cached, &all, b)).flatten();
                                for h in heaps {
                                    h.set_ref(p, field, target);
                                }
                            }
                        }
                    }
                    _ => cycle(&pool),
                }
            }
            cycle(&pool);
        }
    }

    #[test]
    fn unwritten_collections_reuse_their_walk() {
        use chameleon_telemetry::{json, Telemetry};
        let heap = Heap::new();
        let t = Telemetry::new();
        heap.attach_telemetry(&t);
        let pool = cache_fixtures(&heap);
        let cycle = || {
            let stats = heap.gc();
            let log = t.drain_events();
            let ev = json::parse(log.lines().next().expect("gc_cycle event")).unwrap();
            let reused = ev.get("coll_cached").and_then(|v| v.as_u64()).unwrap();
            (reused, stats.collection)
        };
        let (reused, first) = cycle();
        assert_eq!(reused, 0, "the first cycle walks every collection");
        let (reused, second) = cycle();
        assert_eq!(reused, 2, "the hash map and the linked list are reused");
        assert_eq!(second, first);
        // Emptying a bucket dirties only the hash map.
        heap.set_elem(pool.arrays[1], 0, None);
        let (reused, third) = cycle();
        assert_eq!(reused, 1, "the written hash map is walked again");
        assert!(third.live < second.live, "its unlinked chain is gone");
        let (reused, fourth) = cycle();
        assert_eq!(reused, 2);
        assert_eq!(fourth, third);
    }

    #[test]
    fn summarized_collections_still_trace_their_payloads() {
        use chameleon_telemetry::{json, Telemetry};
        let heap = Heap::new();
        let t = Telemetry::new();
        heap.attach_telemetry(&t);
        let pool = cache_fixtures(&heap);
        let cached_walks = || {
            heap.gc();
            let log = t.drain_events();
            let ev = json::parse(log.lines().next().expect("gc_cycle event")).unwrap();
            ev.get("coll_cached").and_then(|v| v.as_u64()).unwrap()
        };
        assert_eq!(cached_walks(), 0);
        // Payloads lie outside every footprint, so linking through the
        // end of the payload chain leaves both summaries valid.
        let tail = *pool.payloads.last().unwrap();
        let class = heap.register_class("Leaf", None);
        let leaf = heap.alloc_scalar(class, 0, 8, None);
        heap.set_ref(tail, 1, Some(leaf));
        // The linked list stays reachable as the hash map's value.
        heap.remove_root(pool.wrappers[2]);
        assert_eq!(cached_walks(), 2);
        assert!(heap.is_live(leaf), "a leaf below a payload chain survives");
        assert!(heap.is_live(pool.wrappers[2]), "a map value survives");
        assert!(pool.payloads.iter().all(|&p| heap.is_live(p)));
        heap.set_ref(tail, 1, None);
        assert_eq!(cached_walks(), 2);
        assert!(!heap.is_live(leaf), "an unlinked leaf is swept");
        assert!(heap.is_live(tail));
    }

    #[test]
    fn summarized_footprints_skip_the_scan() {
        use chameleon_telemetry::{json, Telemetry};
        let heap = Heap::new();
        let t = Telemetry::new();
        heap.attach_telemetry(&t);
        let pool = cache_fixtures(&heap);
        let cycle = || {
            let stats = heap.gc();
            let log = t.drain_events();
            let ev = json::parse(log.lines().next().expect("gc_cycle event")).unwrap();
            let summarized = ev.get("summarized_objects").and_then(|v| v.as_u64());
            (summarized.unwrap(), stats)
        };
        let accounting = |s: &crate::stats::CycleStats| {
            (
                s.live_bytes,
                s.live_objects,
                s.type_distribution.clone(),
                s.collection,
                s.per_context.clone(),
            )
        };
        let (summarized, first) = cycle();
        assert_eq!(summarized, 0, "the first cycle records the summaries");
        let (summarized, second) = cycle();
        // The footprints without their wrappers: the hash map's impl, bucket
        // array and 80 entries, and the linked list's impl and 70 entries.
        assert_eq!(summarized, (2 + 80) + (1 + 70));
        assert_eq!(accounting(&second), accounting(&first));

        // Bucket 0 ends at the map's first entry; run it into the list. The
        // map's walk now follows bucket 0 (3 entries) around the circular
        // list until its step cap, so its footprint takes in all 70 list
        // entries, which the list's own footprint holds too.
        heap.set_ref(pool.entries[0], 0, Some(pool.entries[80]));
        let (summarized, _) = cycle();
        assert_eq!(summarized, 1 + 70, "only the unwritten list is summarized");
        let (summarized, overlapped) = cycle();
        assert_eq!(
            summarized,
            2 + 3 + 70,
            "the map claims the shared entries first; the list is scanned"
        );
        heap.clear_adt_cache();
        let (summarized, reference) = cycle();
        assert_eq!(summarized, 0);
        assert_eq!(accounting(&overlapped), accounting(&reference));
    }
}
