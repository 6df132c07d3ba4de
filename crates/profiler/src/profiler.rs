//! The semantic collections profiler.
//!
//! Installed as the runtime's death-statistics sink, it aggregates every
//! collection instance's trace data per allocation context; combined with
//! the heap's per-cycle semantic statistics it produces the ranked
//! [`ProfileReport`](crate::report::ProfileReport).

use crate::context_trace::ContextTrace;
use chameleon_collections::runtime::{InstanceStats, Runtime, StatsSink};
use chameleon_heap::ContextId;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Collects per-context trace statistics from dying collections.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::factory::CollectionFactory;
/// use chameleon_collections::runtime::Runtime;
/// use chameleon_profiler::Profiler;
///
/// let rt = Runtime::new(Heap::new());
/// let profiler = Profiler::install(&rt);
/// let factory = CollectionFactory::new(rt);
/// {
///     let _f = factory.enter("Main.run:3");
///     let mut l = factory.new_list::<i64>(None);
///     l.add(1);
/// } // death statistics flow into the profiler here
/// assert_eq!(profiler.context_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Profiler {
    contexts: RefCell<HashMap<Option<ContextId>, ContextTrace>>,
    deaths: Cell<u64>,
}

impl Profiler {
    /// Creates an unattached profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler and installs it as `rt`'s statistics sink.
    pub fn install(rt: &Runtime) -> Rc<Profiler> {
        let p = Rc::new(Profiler::new());
        rt.set_sink(p.clone());
        p
    }

    /// Number of distinct contexts observed (including the "uncaptured"
    /// bucket if any deaths had no context).
    pub fn context_count(&self) -> usize {
        self.contexts.borrow().len()
    }

    /// Total instance deaths observed.
    pub fn death_count(&self) -> u64 {
        self.deaths.get()
    }

    /// Clones the trace for `ctx`, if observed.
    pub fn trace(&self, ctx: Option<ContextId>) -> Option<ContextTrace> {
        self.contexts.borrow().get(&ctx).cloned()
    }

    /// Clones all `(context, trace)` pairs.
    pub fn traces(&self) -> Vec<(Option<ContextId>, ContextTrace)> {
        self.contexts
            .borrow()
            .iter()
            .map(|(c, t)| (*c, t.clone()))
            .collect()
    }

    /// Folds a whole per-context trace in — the partition-merge path of
    /// the parallel runner. `ctx` must already be remapped into this
    /// profiler's heap. The death counter advances by the trace's instance
    /// count, exactly as if every instance had died here.
    pub fn merge_trace(&self, ctx: Option<ContextId>, trace: &ContextTrace) {
        self.contexts
            .borrow_mut()
            .entry(ctx)
            .or_insert_with(|| ContextTrace::new(&trace.requested_type))
            .merge(trace);
        self.deaths.set(self.deaths.get() + trace.instances);
    }

    /// Discards all collected data (between runs).
    pub fn reset(&self) {
        self.contexts.borrow_mut().clear();
        self.deaths.set(0);
    }
}

impl StatsSink for Profiler {
    fn on_death(&self, ctx: Option<ContextId>, stats: &InstanceStats) {
        self.contexts
            .borrow_mut()
            .entry(ctx)
            .or_insert_with(|| ContextTrace::new(stats.requested_type))
            .absorb(stats);
        self.deaths.set(self.deaths.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::factory::CollectionFactory;
    use chameleon_collections::Op;
    use chameleon_heap::Heap;

    #[test]
    fn aggregates_instances_per_context() {
        let rt = Runtime::new(Heap::new());
        let p = Profiler::install(&rt);
        let f = CollectionFactory::new(rt);
        let _g = f.enter("Site.a:1");
        for round in 0..5 {
            let mut m = f.new_map::<i64, i64>(None);
            for i in 0..round {
                m.put(i, i);
            }
        }
        assert_eq!(p.death_count(), 5);
        assert_eq!(p.context_count(), 1);
        let (ctx, trace) = &p.traces()[0];
        assert!(ctx.is_some());
        assert_eq!(trace.instances, 5);
        assert_eq!(trace.op_total(Op::Add), 1 + 2 + 3 + 4);
        assert_eq!(trace.requested_type, "HashMap");
    }

    #[test]
    fn uncaptured_deaths_pool_in_none_bucket() {
        use chameleon_collections::factory::{CaptureConfig, CaptureMethod};
        let rt = Runtime::new(Heap::new());
        let p = Profiler::install(&rt);
        let f = CollectionFactory::with_capture(
            rt,
            CaptureConfig {
                method: CaptureMethod::None,
                ..CaptureConfig::default()
            },
        );
        let _l = f.new_list::<i64>(None);
        drop(_l);
        assert_eq!(p.context_count(), 1);
        assert!(p.trace(None).is_some());
    }

    #[test]
    fn reset_clears_state() {
        let rt = Runtime::new(Heap::new());
        let p = Profiler::install(&rt);
        let f = CollectionFactory::new(rt);
        drop(f.new_list::<i64>(None));
        assert_eq!(p.death_count(), 1);
        p.reset();
        assert_eq!(p.death_count(), 0);
        assert_eq!(p.context_count(), 0);
    }
}
