//! Per-cycle heap snapshots with retained-size attribution.
//!
//! When heap profiling is enabled ([`crate::Heap::set_heap_profiling`]) the
//! collector's fused scan additionally fills a `SnapAcc`: self
//! bytes, object counts and incoming reference-edge counts per allocation
//! context, plus the set of *cross-context* reference edges. Capture rides
//! the existing epoch-stamped mark pass — no second heap traversal.
//!
//! Retained size is computed on the **context condensation** of the object
//! graph: one node per allocation context (plus a bucket for objects
//! allocated without a context and a virtual root that edges to every GC
//! root's context). A dominator pass (iterative Cooper–Harvey–Kennedy over
//! reverse postorder) yields, for each context node, the bytes that would
//! become unreachable if every path through that context were severed.
//! The computation is exact on the condensation; per *object* it is an
//! over-approximation, because distinct objects of one context are merged
//! into a single node (an object kept alive by a sibling of the same
//! context counts as retained by that context). Invariants, asserted in
//! tests: Σ self bytes over nodes == cycle live bytes, retained(virtual
//! root) == live bytes, and retained ≥ self for every node.

use crate::context::ContextId;
use crate::stats::AdtTotals;
use std::collections::HashSet;

/// Configuration for continuous heap profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapProfConfig {
    /// Capture a snapshot on every `every`-th GC cycle, starting with the
    /// first cycle after profiling is enabled (1 = every cycle). Must be
    /// at least 1; callers validate before constructing the config (the
    /// CLI rejects `--every 0` at parse time), and the collector clamps a
    /// zero to 1 as a last-resort guard.
    pub every: u64,
}

impl Default for HeapProfConfig {
    fn default() -> Self {
        HeapProfConfig { every: 1 }
    }
}

/// Heap-profiling state owned by the heap: the configuration plus every
/// snapshot captured so far.
pub(crate) struct HeapProfState {
    pub(crate) config: HeapProfConfig,
    pub(crate) snapshots: Vec<HeapSnapshot>,
}

impl HeapProfState {
    pub(crate) fn new(config: HeapProfConfig) -> Self {
        HeapProfState {
            config,
            snapshots: Vec::new(),
        }
    }
}

/// One captured heap snapshot: per-context accounting for a single GC
/// cycle, including dominator-based retained sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// GC cycle this snapshot was captured on (matches
    /// [`crate::CycleStats::cycle`]).
    pub cycle: u64,
    /// Simulated time of the cycle (0 without an attached clock).
    pub at_units: u64,
    /// Live bytes at this cycle (equals the cycle's `CycleStats`).
    pub live_bytes: u64,
    /// Live objects at this cycle.
    pub live_objects: u64,
    /// Retained size of the virtual root; always equals `live_bytes`.
    pub retained_root: u64,
    /// Populated context nodes in context-id order; the bucket for objects
    /// allocated without a context, if populated, comes last.
    pub contexts: Vec<ContextSnap>,
}

impl HeapSnapshot {
    /// The snapshot entry for `ctx` (`None` = the no-context bucket).
    pub fn context(&self, ctx: Option<ContextId>) -> Option<&ContextSnap> {
        self.contexts.iter().find(|c| c.ctx == ctx)
    }
}

/// Per-context accounting within one [`HeapSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextSnap {
    /// The allocation context (`None` = objects allocated without one).
    pub ctx: Option<ContextId>,
    /// Bytes of live objects allocated in this context.
    pub self_bytes: u64,
    /// Number of live objects allocated in this context.
    pub objects: u64,
    /// Heap reference edges pointing *into* this context's live objects
    /// (root-set registrations are not counted).
    pub edges_in: u64,
    /// Bytes retained by this context on the condensation (≥ `self_bytes`).
    pub retained_bytes: u64,
    /// Semantic collection totals (live/used/core) attributed to this
    /// context, as in [`crate::CycleStats::per_context`].
    pub coll: AdtTotals,
}

/// Packs a cross-node edge into one u64 (node ids are u32).
pub(crate) fn pack_edge(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// Snapshot accumulator for the fused scan. Node ids:
/// `0..n_contexts` are contexts, `n_contexts` is the no-context bucket and
/// `n_contexts + 1` is the virtual root (only ever an edge source).
pub(crate) struct SnapAcc {
    /// Live bytes per node (contexts + no-context bucket).
    pub(crate) self_bytes: Vec<u64>,
    /// Live objects per node.
    pub(crate) objects: Vec<u64>,
    /// Incoming heap reference edges per node.
    pub(crate) edges_in: Vec<u64>,
    /// Cross-node edges, packed with [`pack_edge`].
    pub(crate) edges: HashSet<u64>,
}

impl SnapAcc {
    pub(crate) fn new(n_contexts: usize) -> Self {
        SnapAcc {
            self_bytes: vec![0; n_contexts + 1],
            objects: vec![0; n_contexts + 1],
            edges_in: vec![0; n_contexts + 1],
            edges: HashSet::new(),
        }
    }
}

/// Assembles a [`HeapSnapshot`] from the scan accumulator (which
/// must already include the virtual-root edges), the dense per-context
/// collection totals, and the cycle's whole-heap collection totals.
pub(crate) fn build_snapshot(
    cycle: u64,
    at_units: u64,
    live_bytes: u64,
    live_objects: u64,
    acc: &SnapAcc,
    per_ctx_coll: &[AdtTotals],
    coll_total: AdtTotals,
) -> HeapSnapshot {
    let n_contexts = acc.self_bytes.len() - 1;
    let none_node = n_contexts;
    let root = n_contexts + 1;
    let n_nodes = n_contexts + 2;

    // hashmap-iter-ok: sorted edge list -> deterministic successor order
    // -> deterministic postorder and dominator tree regardless of
    // hash-set iteration order.
    let mut edges: Vec<u64> = acc.edges.iter().copied().collect();
    edges.sort_unstable();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
    // hashmap-iter-ok: `edges` is the sorted Vec above, not the hash set.
    for e in edges {
        let src = (e >> 32) as u32;
        let dst = (e & 0xffff_ffff) as u32;
        succs[src as usize].push(dst);
        preds[dst as usize].push(src);
    }

    let (order, rpo_index) = reverse_postorder(root as u32, &succs, n_nodes);
    let idom = dominators(root as u32, &order, &rpo_index, &preds);

    // Retained size: bottom-up over the dominator tree. idom(v) always has
    // a smaller RPO index than v, so walking the RPO backwards completes
    // every subtree before its root is added to its own dominator.
    let mut retained = vec![0u64; n_nodes];
    for (node, bytes) in acc.self_bytes.iter().enumerate() {
        retained[node] = *bytes;
    }
    for &v in order.iter().rev() {
        let v = v as usize;
        if v != root {
            let d = idom[v] as usize;
            retained[d] += retained[v];
        }
    }

    // The no-context bucket's collection totals are whatever the cycle
    // total does not attribute to a concrete context (exact: u64 sums).
    let mut attributed = AdtTotals::default();
    for t in per_ctx_coll {
        attributed.add(*t);
    }
    let none_coll = AdtTotals {
        live: coll_total.live - attributed.live,
        used: coll_total.used - attributed.used,
        core: coll_total.core - attributed.core,
        count: coll_total.count - attributed.count,
    };

    let contexts = (0..=n_contexts)
        .filter(|&node| acc.objects[node] > 0)
        .map(|node| ContextSnap {
            ctx: (node < none_node).then_some(ContextId(node as u32)),
            self_bytes: acc.self_bytes[node],
            objects: acc.objects[node],
            edges_in: acc.edges_in[node],
            retained_bytes: retained[node],
            coll: if node < none_node {
                per_ctx_coll[node]
            } else {
                none_coll
            },
        })
        .collect();

    HeapSnapshot {
        cycle,
        at_units,
        live_bytes,
        live_objects,
        retained_root: retained[root],
        contexts,
    }
}

/// Reverse postorder from `root`, visiting successors in ascending node
/// order. Returns the RPO node sequence (root first) and a per-node RPO
/// index (`u32::MAX` for unreachable nodes).
fn reverse_postorder(root: u32, succs: &[Vec<u32>], n_nodes: usize) -> (Vec<u32>, Vec<u32>) {
    const UNSEEN: u32 = u32::MAX;
    let mut postorder = Vec::new();
    let mut state = vec![0u8; n_nodes]; // 0 unseen, 1 on stack, 2 done
    let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
    state[root as usize] = 1;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        let kids = &succs[node as usize];
        if *next < kids.len() {
            let child = kids[*next];
            *next += 1;
            if state[child as usize] == 0 {
                state[child as usize] = 1;
                stack.push((child, 0));
            }
        } else {
            state[node as usize] = 2;
            postorder.push(node);
            stack.pop();
        }
    }
    postorder.reverse();
    let mut rpo_index = vec![UNSEEN; n_nodes];
    for (i, &node) in postorder.iter().enumerate() {
        rpo_index[node as usize] = i as u32;
    }
    (postorder, rpo_index)
}

/// Iterative dominator computation (Cooper–Harvey–Kennedy). Returns
/// `idom[v]` for every reachable node (`idom[root] == root`); unreachable
/// nodes keep the `u32::MAX` sentinel.
fn dominators(root: u32, order: &[u32], rpo_index: &[u32], preds: &[Vec<u32>]) -> Vec<u32> {
    const UNDEF: u32 = u32::MAX;
    let mut idom = vec![UNDEF; rpo_index.len()];
    idom[root as usize] = root;
    let mut changed = true;
    while changed {
        changed = false;
        for &v in order.iter().skip(1) {
            let mut new_idom = UNDEF;
            for &p in &preds[v as usize] {
                if rpo_index[p as usize] == UNDEF || idom[p as usize] == UNDEF {
                    continue; // unreachable or not yet processed
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(new_idom, p, &idom, rpo_index)
                };
            }
            if new_idom != UNDEF && idom[v as usize] != new_idom {
                idom[v as usize] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Walks two dominator-tree fingers up to their common ancestor.
fn intersect(mut a: u32, mut b: u32, idom: &[u32], rpo_index: &[u32]) -> u32 {
    while a != b {
        while rpo_index[a as usize] > rpo_index[b as usize] {
            a = idom[a as usize];
        }
        while rpo_index[b as usize] > rpo_index[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an accumulator over `n` contexts with the given self byte
    /// counts (one object per populated context) and cross-context edges.
    fn acc(self_bytes: &[u64], edges: &[(u32, u32)]) -> SnapAcc {
        let n = self_bytes.len() - 1; // last entry = no-context bucket
        let mut a = SnapAcc::new(n);
        for (i, &b) in self_bytes.iter().enumerate() {
            a.self_bytes[i] = b;
            a.objects[i] = u64::from(b > 0);
        }
        for &(src, dst) in edges {
            a.edges.insert(pack_edge(src, dst));
            if src != n as u32 + 1 {
                a.edges_in[dst as usize] += 1;
            }
        }
        a
    }

    fn snap(self_bytes: &[u64], edges: &[(u32, u32)]) -> HeapSnapshot {
        let a = acc(self_bytes, edges);
        let live: u64 = self_bytes.iter().sum();
        let n = self_bytes.len() - 1;
        build_snapshot(
            1,
            0,
            live,
            a.objects.iter().sum(),
            &a,
            &vec![AdtTotals::default(); n],
            AdtTotals::default(),
        )
    }

    #[test]
    fn diamond_sharing_is_retained_by_the_fork_point() {
        // root -> A; A -> B; A -> C; B -> D; C -> D. D is reachable via two
        // disjoint paths, so neither B nor C retains it — A does.
        let root = 5u32;
        let s = snap(
            &[100, 10, 20, 40, 0],
            &[(root, 0), (0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let get = |i: u32| s.context(Some(ContextId(i))).unwrap();
        assert_eq!(get(0).retained_bytes, 170, "A retains everything");
        assert_eq!(get(1).retained_bytes, 10, "B retains only itself");
        assert_eq!(get(2).retained_bytes, 20);
        assert_eq!(get(3).retained_bytes, 40, "D is its own dominatee");
        assert_eq!(s.retained_root, 170);
        assert_eq!(s.retained_root, s.live_bytes);
    }

    #[test]
    fn chain_retains_transitively() {
        let root = 4u32;
        let s = snap(&[8, 16, 32, 0], &[(root, 0), (0, 1), (1, 2)]);
        let get = |i: u32| s.context(Some(ContextId(i))).unwrap();
        assert_eq!(get(0).retained_bytes, 56);
        assert_eq!(get(1).retained_bytes, 48);
        assert_eq!(get(2).retained_bytes, 32);
        assert!(s.contexts.iter().all(|c| c.retained_bytes >= c.self_bytes));
    }

    #[test]
    fn no_context_bucket_participates_and_sorts_last() {
        // Two roots: context 0 and the no-context bucket (node 1).
        let root = 2u32;
        let s = snap(&[24, 48], &[(root, 0), (root, 1)]);
        assert_eq!(s.contexts.len(), 2);
        assert_eq!(s.contexts[0].ctx, Some(ContextId(0)));
        assert_eq!(s.contexts[1].ctx, None);
        assert_eq!(s.contexts[1].retained_bytes, 48);
        assert_eq!(s.retained_root, 72);
    }

    #[test]
    fn cycles_in_the_condensation_converge() {
        // root -> A -> B -> A (mutual retention collapses onto A, the
        // entry point of the cycle).
        let root = 3u32;
        let s = snap(&[5, 7, 0], &[(root, 0), (0, 1), (1, 0)]);
        let get = |i: u32| s.context(Some(ContextId(i))).unwrap();
        assert_eq!(get(0).retained_bytes, 12);
        assert_eq!(get(1).retained_bytes, 7);
        assert_eq!(s.retained_root, 12);
    }

    #[test]
    fn empty_heap_snapshot_is_well_formed() {
        let s = snap(&[0, 0, 0], &[]);
        assert!(s.contexts.is_empty());
        assert_eq!(s.retained_root, 0);
    }

    #[test]
    fn default_config_snapshots_every_cycle() {
        assert_eq!(HeapProfConfig::default().every, 1);
    }
}
