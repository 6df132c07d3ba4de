//! bloat-like workload (DaCapo BLOAT, §5.3, Fig. 8).
//!
//! The paper found bloat's footprint "dominated by a spike of collections"
//! where "most of the LinkedLists allocated at that context remained empty
//! and were never used. Around 25% of the heap at that point of execution
//! was consumed by LinkedList$Entry objects allocated as the head of an
//! empty linked list." Replacing the lists with `LazyArrayList`s saves more
//! than 20%; manually making the *allocation itself* lazy cuts the minimal
//! heap by 56%.
//!
//! This simulacrum builds waves of short-lived IR nodes, then a retained
//! *spike* of nodes. Each node eagerly allocates three `LinkedList` fields
//! (def/use/succ chains); most stay empty. The `manual_lazy` flag models
//! the paper's manual fix: list fields are only allocated when they will
//! actually receive elements.

use crate::util::AppData;
use chameleon_collections::{CollectionFactory, ListHandle};
use chameleon_core::Workload;

/// The bloat-like IR builder.
#[derive(Debug, Clone)]
pub struct Bloat {
    /// Short-lived nodes per steady-phase wave.
    pub wave_nodes: usize,
    /// Number of steady waves before the spike.
    pub waves: usize,
    /// Retained nodes at the spike (peak live data).
    pub spike_nodes: usize,
    /// Apply the paper's manual fix: allocate list fields lazily.
    pub manual_lazy: bool,
}

impl Default for Bloat {
    fn default() -> Self {
        Bloat {
            wave_nodes: 150,
            waves: 6,
            spike_nodes: 2500,
            manual_lazy: false,
        }
    }
}

/// One IR node: a small payload plus three list fields, of which on
/// average only ~15% ever hold data.
struct IrNode {
    #[allow(dead_code)]
    lists: Vec<ListHandle<i64>>,
}

const LIST_SITES: [&str; 3] = [
    "bloat.cfg.Block.defs:17",
    "bloat.cfg.Block.uses:18",
    "bloat.cfg.Block.succs:19",
];

impl Bloat {
    fn build_node(&self, f: &CollectionFactory, data: &mut AppData, idx: usize) -> IrNode {
        let heap = f.runtime().heap().clone();
        let node_class = heap.register_class("bloat.Node", None);
        let _payload = data.alloc(node_class, 2, 88);
        let mut lists = Vec::new();
        for (site, frame) in LIST_SITES.iter().enumerate() {
            // ~15% of the lists at site 0 receive elements; the others
            // remain empty forever (the paper's dominant waste).
            let will_use = site == 0 && idx.is_multiple_of(7);
            if self.manual_lazy && !will_use {
                continue; // the manual fix: don't allocate at all
            }
            let _g = f.enter(frame);
            let mut l: ListHandle<i64> = f.new_linked_list();
            if will_use {
                for k in 0..3 {
                    l.add((idx + k) as i64);
                }
            }
            lists.push(l);
        }
        crate::util::app_work(f, 400);
        IrNode { lists }
    }
}

impl Workload for Bloat {
    fn name(&self) -> &'static str {
        "bloat"
    }

    fn run(&self, f: &CollectionFactory) {
        let heap = f.runtime().heap().clone();
        let mut data = AppData::new(heap.clone());

        // Steady phase: waves of short-lived nodes.
        for w in 0..self.waves {
            let mut wave = Vec::with_capacity(self.wave_nodes);
            for i in 0..self.wave_nodes {
                wave.push(self.build_node(f, &mut data, w * self.wave_nodes + i));
            }
            // Wave dies; release its payloads too.
            drop(wave);
            data.release_oldest(self.wave_nodes);
        }

        // The spike: a large batch of nodes retained simultaneously.
        let mut spike = Vec::with_capacity(self.spike_nodes);
        for i in 0..self.spike_nodes {
            spike.push(self.build_node(f, &mut data, i));
        }
        // Work over the spike: traverse the used lists.
        for node in &spike {
            for l in &node.lists {
                for v in l.iter() {
                    std::hint::black_box(v);
                }
            }
        }
        drop(spike);
        data.release_oldest(self.spike_nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::{min_heap_size, Chameleon, Env, EnvConfig};

    fn small() -> Bloat {
        Bloat {
            wave_nodes: 40,
            waves: 3,
            spike_nodes: 400,
            ..Bloat::default()
        }
    }

    fn small_env() -> EnvConfig {
        EnvConfig {
            gc_interval_bytes: Some(24 * 1024),
            ..EnvConfig::default()
        }
    }

    #[test]
    fn live_share_of_collections_spikes() {
        let env = Env::new(&small_env());
        env.run(&small());
        let report = env.report();
        let max = report
            .series
            .iter()
            .map(|p| p.live_pct)
            .fold(0.0f64, f64::max);
        let min = report
            .series
            .iter()
            .map(|p| p.live_pct)
            .fold(100.0f64, f64::min);
        assert!(
            max - min > 20.0,
            "collection share should spike: min {min:.1}%, max {max:.1}%"
        );
    }

    #[test]
    fn empty_linked_lists_get_lazified() {
        let chameleon = Chameleon::new().with_profile_config(small_env());
        let report = chameleon.profile(&small());
        let suggestions = chameleon.engine().evaluate(&report);
        // The two always-empty sites must be flagged for lazy allocation.
        for site in ["uses:18", "succs:19"] {
            assert!(
                suggestions
                    .iter()
                    .any(|s| s.label.contains(site) && s.rule_text.contains("Lazy")),
                "site {site} should be lazified: {suggestions:#?}"
            );
        }
    }

    #[test]
    fn manual_lazy_fix_halves_min_heap() {
        let template = EnvConfig::default();
        let before = min_heap_size(&small(), &[], 64 * 1024, &template);
        let after = min_heap_size(
            &Bloat {
                manual_lazy: true,
                ..small()
            },
            &[],
            64 * 1024,
            &template,
        );
        let reduction = 100.0 * (before - after) as f64 / before as f64;
        assert!(
            reduction > 35.0,
            "manual lazy allocation should cut min-heap drastically: {reduction:.1}% \
             ({before} -> {after})"
        );
    }
}
