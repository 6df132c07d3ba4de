//! The collection factory: context capture, implementation selection, and
//! wrapper assembly.
//!
//! Programs request a *logical* collection type (`ArrayList`, `HashMap`, …);
//! the factory captures the allocation context (charging the §4.2 capture
//! cost, optionally sampled or switched off per type), consults the
//! [`SelectionPolicy`] for a per-context override — the mechanism both the
//! offline apply-suggestions step and the §5.4 fully-automatic online mode
//! use — and assembles the wrapper handle around the chosen backing
//! implementation.

use crate::elem::Elem;
use crate::handle::{ListHandle, MapHandle, SetHandle};
use crate::list::{ArrayListImpl, IntArrayImpl, LinkedListImpl, ListImpl, SingletonListImpl};
use crate::map::{ArrayMapImpl, HashMapImpl, MapImpl, SizeAdaptingMapImpl};
use crate::runtime::Runtime;
use crate::set::{ArraySetImpl, HashSetImpl, SetImpl, SizeAdaptingSetImpl};
use chameleon_heap::{CallStackSim, ContextId, ObjId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// How the factory obtains allocation contexts (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureMethod {
    /// No context capture: free, but statistics cannot be attributed and
    /// per-context policies cannot be routed.
    None,
    /// Walk a `Throwable`'s stack frames: accurate but very expensive.
    Throwable,
    /// The JVMTI-based native path: significantly faster.
    #[default]
    Jvmti,
    /// Zero-cost context resolution, modeling *source-level* replacement:
    /// the re-run of a program whose allocation sites were rewritten pays
    /// no capture cost, yet each site still maps to its (compiled-in)
    /// selection.
    Static,
}

/// Context-capture configuration.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Capture mechanism.
    pub method: CaptureMethod,
    /// Partial context depth (the paper uses 2 or 3).
    pub depth: usize,
    /// Capture one allocation in every `sample_every` (1 = always).
    pub sample_every: u32,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            method: CaptureMethod::Jvmti,
            depth: 2,
            sample_every: 1,
        }
    }
}

/// Selected list implementation for a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListChoice {
    /// Eager resizable array (Java default).
    ArrayList,
    /// Doubly-linked list.
    LinkedList,
    /// Array allocated on first update.
    LazyArrayList,
    /// At most one element.
    SingletonList,
}

/// Selected set implementation for a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetChoice {
    /// Chained hash set (Java default).
    HashSet,
    /// Insertion-ordered chained hash set.
    LinkedHashSet,
    /// Array-backed set.
    ArraySet,
    /// Array-backed set, array allocated on first update.
    LazySet,
    /// Array until the threshold, hash beyond.
    SizeAdapting(usize),
}

/// Selected map implementation for a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapChoice {
    /// Chained hash map (Java default).
    HashMap,
    /// Insertion-ordered chained hash map.
    LinkedHashMap,
    /// Interleaved key/value array map.
    ArrayMap,
    /// Array map whose array is allocated on first update.
    LazyMap,
    /// Array until the threshold, hash beyond.
    SizeAdapting(usize),
}

/// A per-context selection: implementation plus optional initial capacity
/// (Table 2's "set initial capacity" fix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection<C> {
    /// Chosen implementation.
    pub choice: C,
    /// Initial-capacity override, if the rules tuned it.
    pub capacity: Option<u32>,
}

/// Per-context overrides applied by the factory. Shared (`Rc`) so the
/// orchestrator can update it while a run is in progress (online mode).
#[derive(Debug, Default)]
pub struct SelectionPolicy {
    lists: HashMap<ContextId, Selection<ListChoice>>,
    sets: HashMap<ContextId, Selection<SetChoice>>,
    maps: HashMap<ContextId, Selection<MapChoice>>,
}

impl SelectionPolicy {
    /// Empty policy (every context gets the requested default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the list implementation for `ctx`.
    pub fn set_list(&mut self, ctx: ContextId, sel: Selection<ListChoice>) {
        self.lists.insert(ctx, sel);
    }

    /// Overrides the set implementation for `ctx`.
    pub fn set_set(&mut self, ctx: ContextId, sel: Selection<SetChoice>) {
        self.sets.insert(ctx, sel);
    }

    /// Overrides the map implementation for `ctx`.
    pub fn set_map(&mut self, ctx: ContextId, sel: Selection<MapChoice>) {
        self.maps.insert(ctx, sel);
    }

    /// Removes the list override for `ctx` (the context reverts to the
    /// requested default). Returns the override that was installed.
    pub fn clear_list(&mut self, ctx: ContextId) -> Option<Selection<ListChoice>> {
        self.lists.remove(&ctx)
    }

    /// Removes the set override for `ctx`.
    pub fn clear_set(&mut self, ctx: ContextId) -> Option<Selection<SetChoice>> {
        self.sets.remove(&ctx)
    }

    /// Removes the map override for `ctx`.
    pub fn clear_map(&mut self, ctx: ContextId) -> Option<Selection<MapChoice>> {
        self.maps.remove(&ctx)
    }

    /// Number of overrides installed.
    pub fn len(&self) -> usize {
        self.lists.len() + self.sets.len() + self.maps.len()
    }

    /// Whether no override is installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cloneable handle to a factory's capture state alone, for controllers
/// (like the online mode's per-type shutoff) that run inside sinks, where
/// a factory clone would form an `Rc` cycle through the runtime's sink.
#[derive(Clone)]
pub struct CaptureController {
    capture: Rc<RefCell<CaptureState>>,
}

impl std::fmt::Debug for CaptureController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureController")
            .field("captures", &self.capture.borrow().captures)
            .finish()
    }
}

impl CaptureController {
    /// Disables context tracking for a requested type (the paper's
    /// per-type shutoff when potential is low, §4.2).
    pub fn disable_tracking_for(&self, requested_type: &str) {
        self.capture
            .borrow_mut()
            .disabled_types
            .insert(requested_type.to_owned());
    }

    /// Re-enables context tracking for a previously shut-off type: the
    /// inverse of [`disable_tracking_for`](Self::disable_tracking_for),
    /// used by the drift trigger so a type that was quiet early can still
    /// be profiled once it turns hot. Returns whether the type had been
    /// disabled.
    pub fn enable_tracking_for(&self, requested_type: &str) -> bool {
        self.capture
            .borrow_mut()
            .disabled_types
            .remove(requested_type)
    }

    /// Types whose tracking has been switched off.
    pub fn disabled_types(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .capture
            .borrow()
            .disabled_types
            .iter()
            .cloned()
            .collect();
        v.sort();
        v
    }
}

struct CaptureState {
    config: CaptureConfig,
    counter: u64,
    disabled_types: HashSet<String>,
    captures: u64,
}

/// Factory through which workloads allocate all their collections.
///
/// # Examples
///
/// ```
/// use chameleon_heap::Heap;
/// use chameleon_collections::runtime::Runtime;
/// use chameleon_collections::factory::CollectionFactory;
///
/// let factory = CollectionFactory::new(Runtime::new(Heap::new()));
/// let _frame = factory.enter("Main.run:10");
/// let mut list = factory.new_list::<i64>(None);
/// list.add(1);
/// assert_eq!(list.size(), 1);
/// ```
#[derive(Clone)]
pub struct CollectionFactory {
    rt: Runtime,
    stack: CallStackSim,
    policy: Rc<RefCell<SelectionPolicy>>,
    capture: Rc<RefCell<CaptureState>>,
}

impl std::fmt::Debug for CollectionFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectionFactory")
            .field("rt", &self.rt)
            .field("overrides", &self.policy.borrow().len())
            .finish()
    }
}

impl CollectionFactory {
    /// Creates a factory with default capture (JVMTI, depth 2, no
    /// sampling).
    pub fn new(rt: Runtime) -> Self {
        CollectionFactory::with_capture(rt, CaptureConfig::default())
    }

    /// Creates a factory with an explicit capture configuration.
    pub fn with_capture(rt: Runtime, config: CaptureConfig) -> Self {
        // Bind the stack to the heap so frame ids from `with_top` feed
        // `intern_context_ids` directly — no name snapshot on capture.
        let stack = CallStackSim::for_heap(rt.heap().clone());
        CollectionFactory {
            rt,
            stack,
            policy: Rc::default(),
            capture: Rc::new(RefCell::new(CaptureState {
                config,
                counter: 0,
                disabled_types: HashSet::new(),
                captures: 0,
            })),
        }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Pushes a simulated stack frame; pop on guard drop.
    pub fn enter(&self, frame: &str) -> chameleon_heap::context::FrameGuard {
        self.stack.enter(frame)
    }

    /// Marks a workload phase boundary in the telemetry event stream (a
    /// `phase` event stamped with the current SimClock reading). A no-op
    /// without a telemetry handle on the runtime.
    pub fn phase(&self, name: &str) {
        if let Some(t) = self.rt.telemetry() {
            t.event("phase", self.rt.clock().now()).str("name", name);
        }
    }

    /// The simulated call stack (shared across clones).
    pub fn stack(&self) -> &CallStackSim {
        &self.stack
    }

    /// The shared selection policy.
    pub fn policy(&self) -> Rc<RefCell<SelectionPolicy>> {
        Rc::clone(&self.policy)
    }

    /// A handle to this factory's capture state.
    pub fn capture_controller(&self) -> CaptureController {
        CaptureController {
            capture: Rc::clone(&self.capture),
        }
    }

    /// Number of contexts actually captured (diagnostics).
    pub fn capture_count(&self) -> u64 {
        self.capture.borrow().captures
    }

    /// Folds `n` captures performed by a partition's factory into this
    /// factory's count, so `capture_count` covers a whole parallel run.
    pub fn absorb_captures(&self, n: u64) {
        self.capture.borrow_mut().captures += n;
    }

    /// Captures the allocation context for an allocation of `src_type`,
    /// charging the configured capture cost.
    pub fn capture_context(&self, src_type: &'static str) -> Option<ContextId> {
        let mut st = self.capture.borrow_mut();
        st.counter += 1;
        if st.config.method == CaptureMethod::None || st.disabled_types.contains(src_type) {
            return None;
        }
        if st.config.sample_every > 1
            && !st.counter.is_multiple_of(u64::from(st.config.sample_every))
        {
            return None;
        }
        let cost = self.rt.cost();
        match st.config.method {
            CaptureMethod::Throwable => {
                self.rt.charge(cost.capture_throwable);
                st.captures += 1;
            }
            CaptureMethod::Jvmti => {
                self.rt.charge(cost.capture_jvmti);
                st.captures += 1;
            }
            CaptureMethod::Static => {}
            CaptureMethod::None => unreachable!("handled above"),
        }
        let depth = st.config.depth;
        drop(st);
        // Allocation-free once warm: the top frame ids are copied into a
        // stack buffer and interned via a borrowed-key probe.
        Some(self.stack.with_top(depth, |ids| {
            self.rt.heap().intern_context_ids(src_type, ids, depth)
        }))
    }

    fn alloc_wrapper(&self, class: chameleon_heap::ClassId, ctx: Option<ContextId>) -> ObjId {
        let [w] = self.rt.heap().alloc_batch(
            [chameleon_heap::BatchAlloc::Scalar {
                class,
                ref_fields: 1,
                prim_bytes: 0,
                ctx,
            }],
            &[],
            &[0],
        );
        self.rt.charge(self.rt.cost().alloc_object);
        w
    }

    // ----- lists ---------------------------------------------------------------

    /// Allocates a list the program requested as an `ArrayList`.
    pub fn new_list<T: Elem>(&self, capacity: Option<u32>) -> ListHandle<T> {
        self.request_list("ArrayList", ListChoice::ArrayList, capacity)
    }

    /// Allocates a list the program requested as a `LinkedList`.
    pub fn new_linked_list<T: Elem>(&self) -> ListHandle<T> {
        self.request_list("LinkedList", ListChoice::LinkedList, None)
    }

    /// Allocates a list copy-constructed from `src` (records the
    /// interaction on `src`).
    pub fn list_from<T: Elem>(&self, src: &ListHandle<T>) -> ListHandle<T> {
        src.mark_copied();
        let mut l = self.request_list("ArrayList", ListChoice::ArrayList, Some(src.size() as u32));
        for v in src.snapshot() {
            l.add(v);
        }
        l
    }

    /// Allocates an unboxed integer list (explicit opt-in, as in the
    /// paper's library).
    pub fn new_int_list(&self, capacity: Option<u32>) -> ListHandle<i64> {
        let ctx = self.capture_context("IntArray");
        let wrapper = self.alloc_wrapper(self.rt.classes().list_wrapper, ctx);
        let backing: Box<dyn ListImpl<i64>> = Box::new(IntArrayImpl::new(&self.rt, capacity, None));
        self.link(wrapper, backing.obj());
        ListHandle::assemble(self.rt.clone(), wrapper, backing, ctx, "IntArray")
    }

    fn request_list<T: Elem>(
        &self,
        requested: &'static str,
        default_choice: ListChoice,
        capacity: Option<u32>,
    ) -> ListHandle<T> {
        let ctx = self.capture_context(requested);
        let sel = ctx
            .and_then(|c| self.policy.borrow().lists.get(&c).copied())
            .unwrap_or(Selection {
                choice: default_choice,
                capacity,
            });
        let cap = sel.capacity.or(capacity);
        let wrapper = self.alloc_wrapper(self.rt.classes().list_wrapper, ctx);
        let backing: Box<dyn ListImpl<T>> = match sel.choice {
            ListChoice::ArrayList => Box::new(ArrayListImpl::new(&self.rt, cap, None)),
            ListChoice::LazyArrayList => Box::new(ArrayListImpl::new_lazy(&self.rt, None)),
            ListChoice::LinkedList => Box::new(LinkedListImpl::new(&self.rt, None)),
            ListChoice::SingletonList => Box::new(SingletonListImpl::new(&self.rt, None)),
        };
        self.link(wrapper, backing.obj());
        ListHandle::assemble(self.rt.clone(), wrapper, backing, ctx, requested)
    }

    // ----- sets ----------------------------------------------------------------

    /// Allocates a set the program requested as a `HashSet`.
    pub fn new_set<T: Elem>(&self, capacity: Option<u32>) -> SetHandle<T> {
        self.request_set("HashSet", SetChoice::HashSet, capacity)
    }

    /// Allocates a set the program requested as a `LinkedHashSet`.
    pub fn new_linked_set<T: Elem>(&self, capacity: Option<u32>) -> SetHandle<T> {
        self.request_set("LinkedHashSet", SetChoice::LinkedHashSet, capacity)
    }

    /// Allocates a set copy-constructed from `src`.
    pub fn set_from<T: Elem>(&self, src: &SetHandle<T>) -> SetHandle<T> {
        src.mark_copied();
        let mut s = self.request_set("HashSet", SetChoice::HashSet, Some(src.size() as u32));
        for v in src.snapshot() {
            s.add(v);
        }
        s
    }

    fn request_set<T: Elem>(
        &self,
        requested: &'static str,
        default_choice: SetChoice,
        capacity: Option<u32>,
    ) -> SetHandle<T> {
        let ctx = self.capture_context(requested);
        let sel = ctx
            .and_then(|c| self.policy.borrow().sets.get(&c).copied())
            .unwrap_or(Selection {
                choice: default_choice,
                capacity,
            });
        let cap = sel.capacity.or(capacity);
        let wrapper = self.alloc_wrapper(self.rt.classes().set_wrapper, ctx);
        let backing: Box<dyn SetImpl<T>> = match sel.choice {
            SetChoice::HashSet => Box::new(HashSetImpl::new(&self.rt, cap, None)),
            SetChoice::LinkedHashSet => Box::new(HashSetImpl::new_linked(&self.rt, cap, None)),
            SetChoice::ArraySet => Box::new(ArraySetImpl::new(&self.rt, cap, None)),
            SetChoice::LazySet => Box::new(ArraySetImpl::new_lazy(&self.rt, None)),
            SetChoice::SizeAdapting(t) => Box::new(SizeAdaptingSetImpl::new(&self.rt, t, None)),
        };
        self.link(wrapper, backing.obj());
        SetHandle::assemble(self.rt.clone(), wrapper, backing, ctx, requested)
    }

    // ----- maps ----------------------------------------------------------------

    /// Allocates a map the program requested as a `HashMap`.
    pub fn new_map<K: Elem, V: Elem>(&self, capacity: Option<u32>) -> MapHandle<K, V> {
        self.request_map("HashMap", MapChoice::HashMap, capacity)
    }

    /// Allocates a map the program requested as a `LinkedHashMap`.
    pub fn new_linked_map<K: Elem, V: Elem>(&self, capacity: Option<u32>) -> MapHandle<K, V> {
        self.request_map("LinkedHashMap", MapChoice::LinkedHashMap, capacity)
    }

    /// Allocates a map copy-constructed from `src`.
    pub fn map_from<K: Elem, V: Elem>(&self, src: &MapHandle<K, V>) -> MapHandle<K, V> {
        src.mark_copied();
        let mut m = self.request_map("HashMap", MapChoice::HashMap, Some(src.size() as u32));
        for (k, v) in src.snapshot() {
            m.put(k, v);
        }
        m
    }

    fn request_map<K: Elem, V: Elem>(
        &self,
        requested: &'static str,
        default_choice: MapChoice,
        capacity: Option<u32>,
    ) -> MapHandle<K, V> {
        let ctx = self.capture_context(requested);
        let sel = ctx
            .and_then(|c| self.policy.borrow().maps.get(&c).copied())
            .unwrap_or(Selection {
                choice: default_choice,
                capacity,
            });
        let cap = sel.capacity.or(capacity);
        let wrapper = self.alloc_wrapper(self.rt.classes().map_wrapper, ctx);
        let backing: Box<dyn MapImpl<K, V>> = match sel.choice {
            MapChoice::HashMap => Box::new(HashMapImpl::new(&self.rt, cap, None)),
            MapChoice::LinkedHashMap => Box::new(HashMapImpl::new_linked(&self.rt, cap, None)),
            MapChoice::ArrayMap => Box::new(ArrayMapImpl::new(&self.rt, cap, None)),
            MapChoice::LazyMap => Box::new(ArrayMapImpl::new_lazy(&self.rt, None)),
            MapChoice::SizeAdapting(t) => Box::new(SizeAdaptingMapImpl::new(&self.rt, t, None)),
        };
        self.link(wrapper, backing.obj());
        MapHandle::assemble(self.rt.clone(), wrapper, backing, ctx, requested)
    }

    fn link(&self, wrapper: ObjId, backing: ObjId) {
        self.rt.heap().set_ref(wrapper, 0, Some(backing));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_heap::Heap;

    fn factory() -> CollectionFactory {
        CollectionFactory::new(Runtime::new(Heap::new()))
    }

    #[test]
    fn default_requests_get_default_impls() {
        let f = factory();
        let l = f.new_list::<i64>(None);
        assert_eq!(l.impl_name(), "ArrayList");
        let ll = f.new_linked_list::<i64>();
        assert_eq!(ll.impl_name(), "LinkedList");
        let s = f.new_set::<i64>(None);
        assert_eq!(s.impl_name(), "HashSet");
        let m = f.new_map::<i64, i64>(None);
        assert_eq!(m.impl_name(), "HashMap");
    }

    #[test]
    fn context_capture_sees_through_factory_frames() {
        let f = factory();
        let _outer = f.enter("tvla.core.base.BaseTVS:50");
        let _inner = f.enter("tvla.util.HashMapFactory:31");
        let m = f.new_map::<i64, i64>(None);
        let ctx = m.ctx().expect("context captured");
        assert_eq!(
            f.runtime().heap().format_context(ctx),
            "HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50"
        );
    }

    #[test]
    fn same_site_same_context_different_site_different_context() {
        let f = factory();
        let (c1, c2, c3);
        {
            let _g = f.enter("A.m:1");
            c1 = f.new_map::<i64, i64>(None).ctx();
            c2 = f.new_map::<i64, i64>(None).ctx();
        }
        {
            let _g = f.enter("B.n:2");
            c3 = f.new_map::<i64, i64>(None).ctx();
        }
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
    }

    #[test]
    fn policy_override_changes_backing() {
        let f = factory();
        let ctx = {
            let _g = f.enter("Site.alloc:1");
            f.new_map::<i64, i64>(None).ctx().expect("captured")
        };
        f.policy().borrow_mut().set_map(
            ctx,
            Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(8),
            },
        );
        let _g = f.enter("Site.alloc:1");
        let m = f.new_map::<i64, i64>(None);
        assert_eq!(m.impl_name(), "ArrayMap");
        assert_eq!(m.requested_type(), "HashMap");
        assert_eq!(m.capacity(), 8);
    }

    #[test]
    fn capture_off_means_no_context_and_no_cost() {
        let rt = Runtime::new(Heap::new());
        let f = CollectionFactory::with_capture(
            rt.clone(),
            CaptureConfig {
                method: CaptureMethod::None,
                ..CaptureConfig::default()
            },
        );
        let t0 = rt.clock().now();
        let l = f.new_list::<i64>(None);
        assert!(l.ctx().is_none());
        // Only the wrapper+impl alloc costs, no capture cost.
        assert!(rt.clock().now() - t0 < rt.cost().capture_jvmti);
    }

    #[test]
    fn throwable_capture_costs_more_than_jvmti() {
        let run = |method: CaptureMethod| {
            let rt = Runtime::new(Heap::new());
            let f = CollectionFactory::with_capture(
                rt.clone(),
                CaptureConfig {
                    method,
                    ..CaptureConfig::default()
                },
            );
            for _ in 0..100 {
                let _l = f.new_list::<i64>(None);
            }
            rt.clock().now()
        };
        assert!(run(CaptureMethod::Throwable) > run(CaptureMethod::Jvmti));
    }

    #[test]
    fn sampling_reduces_captures() {
        let rt = Runtime::new(Heap::new());
        let f = CollectionFactory::with_capture(
            rt,
            CaptureConfig {
                sample_every: 10,
                ..CaptureConfig::default()
            },
        );
        for _ in 0..100 {
            let _l = f.new_list::<i64>(None);
        }
        assert_eq!(f.capture_count(), 10);
    }

    #[test]
    fn per_type_shutoff() {
        let f = factory();
        f.capture_controller().disable_tracking_for("ArrayList");
        let l = f.new_list::<i64>(None);
        assert!(l.ctx().is_none());
        let m = f.new_map::<i64, i64>(None);
        assert!(m.ctx().is_some());
    }

    #[test]
    fn per_type_shutoff_is_reversible() {
        let f = factory();
        let ctl = f.capture_controller();
        ctl.disable_tracking_for("ArrayList");
        assert_eq!(ctl.disabled_types(), ["ArrayList"]);
        assert!(f.new_list::<i64>(None).ctx().is_none());
        assert!(ctl.enable_tracking_for("ArrayList"));
        assert!(ctl.disabled_types().is_empty());
        assert!(f.new_list::<i64>(None).ctx().is_some());
        // Re-enabling an already-enabled type reports false and stays safe.
        assert!(!ctl.enable_tracking_for("ArrayList"));
    }

    #[test]
    fn policy_overrides_can_be_cleared() {
        let f = factory();
        let ctx = {
            let _g = f.enter("Site.alloc:2");
            f.new_map::<i64, i64>(None).ctx().expect("captured")
        };
        let policy = f.policy();
        policy.borrow_mut().set_map(
            ctx,
            Selection {
                choice: MapChoice::ArrayMap,
                capacity: None,
            },
        );
        {
            let _g = f.enter("Site.alloc:2");
            assert_eq!(f.new_map::<i64, i64>(None).impl_name(), "ArrayMap");
        }
        let removed = policy.borrow_mut().clear_map(ctx);
        assert_eq!(
            removed,
            Some(Selection {
                choice: MapChoice::ArrayMap,
                capacity: None
            })
        );
        assert!(policy.borrow().is_empty());
        let _g = f.enter("Site.alloc:2");
        assert_eq!(f.new_map::<i64, i64>(None).impl_name(), "HashMap");
        // Clearing keys that were never set is a no-op returning None.
        assert!(policy.borrow_mut().clear_list(ctx).is_none());
        assert!(policy.borrow_mut().clear_set(ctx).is_none());
    }

    #[test]
    fn copy_constructor_marks_source() {
        use crate::ops::Op;
        let f = factory();
        let mut src = f.new_list::<i64>(None);
        src.add(1);
        src.add(2);
        let copy = f.list_from(&src);
        assert_eq!(copy.snapshot(), vec![1, 2]);
        assert_eq!(src.op_counts().get(Op::CopiedInto), 1);
    }

    #[test]
    fn warm_capture_interns_nothing() {
        let f = factory();
        let heap = f.runtime().heap().clone();
        let _g = f.enter("Hot.site:7");
        let _warmup = f.new_map::<i64, i64>(None);
        let (frame_misses, ctx_misses) = heap.context_intern_misses();
        // Every subsequent capture at the same site must hit the borrowed
        // lookups: zero new frame or context interns => zero String
        // allocations on the capture path.
        for _ in 0..1000 {
            let _m = f.new_map::<i64, i64>(None);
        }
        assert_eq!(heap.context_intern_misses(), (frame_misses, ctx_misses));
    }

    #[test]
    fn warm_capture_interns_nothing_with_telemetry_attached() {
        use chameleon_telemetry::Telemetry;
        // An attached telemetry handle must preserve the zero-allocation
        // warm capture path: the instrumented sites bump counters, nothing
        // else.
        let f = factory();
        let t = Telemetry::new();
        f.runtime().attach_telemetry(&t);
        let heap = f.runtime().heap().clone();
        let _g = f.enter("Hot.site:7");
        let _warmup = f.new_map::<i64, i64>(None);
        let (frame_misses, ctx_misses) = heap.context_intern_misses();
        let hits = t.counter("heap.context.hits").get();
        for _ in 0..1000 {
            let _m = f.new_map::<i64, i64>(None);
        }
        assert_eq!(heap.context_intern_misses(), (frame_misses, ctx_misses));
        assert_eq!(
            t.counter("heap.context.hits").get() - hits,
            1000,
            "every warm capture is a counted hit"
        );
        assert_eq!(t.event_count(), 0, "captures emit no events");
        f.phase("warm");
        assert_eq!(t.event_count(), 1);
    }

    #[test]
    fn capture_telemetry_counts_hits_and_misses() {
        use chameleon_telemetry::Telemetry;
        const N: u64 = 5;
        const M: u64 = 3;
        let f = factory();
        let t = Telemetry::new();
        f.runtime().attach_telemetry(&t);
        let heap = f.runtime().heap().clone();
        let (_, ctx_misses) = heap.context_intern_misses();
        {
            let _g = f.enter("A.m:1");
            for _ in 0..N {
                let _m = f.new_map::<i64, i64>(None);
            }
        }
        {
            // Re-entering a known frame interns nothing new.
            let _outer = f.enter("A.m:1");
            let _g = f.enter("B.n:2");
            for _ in 0..M {
                let _m = f.new_map::<i64, i64>(None);
            }
        }
        assert_eq!(t.counter("heap.context.misses").get(), 2);
        assert_eq!(t.counter("heap.context.hits").get(), N + M - 2);
        assert_eq!(t.counter("heap.context.frame_misses").get(), 2);
        assert_eq!(heap.context_intern_misses().1 - ctx_misses, 2);
    }

    #[test]
    fn telemetry_counts_ops_at_death_and_phases() {
        use chameleon_telemetry::Telemetry;
        let f = factory();
        let t = Telemetry::new();
        f.runtime().attach_telemetry(&t);
        f.phase("build");
        let mut m = f.new_map::<i64, i64>(None);
        for i in 0..5 {
            m.put(i, i);
        }
        let _ = m.get(&3);
        drop(m); // death folds op counts into telemetry
        f.phase("done");
        assert_eq!(t.counter("coll.deaths").get(), 1);
        assert_eq!(t.counter("coll.ops.add").get(), 5);
        assert_eq!(t.counter("coll.ops.get(Object)").get(), 1);
        let op_cost = t.histogram("coll.op_cost_units", &[1, 1024]);
        assert!(op_cost.count() >= 6, "charge() feeds the cost histogram");
        assert!(op_cost.sum() > 0);
        let log = t.drain_events();
        let phases: Vec<_> = log
            .lines()
            .filter(|l| l.contains("\"ev\":\"phase\""))
            .collect();
        assert_eq!(phases.len(), 2, "{log}");
        assert!(phases[0].contains("\"name\":\"build\""));
    }

    #[test]
    fn gc_attributes_collections_to_contexts() {
        let f = factory();
        let heap = f.runtime().heap().clone();
        let _g = f.enter("W.site:9");
        let mut m = f.new_map::<i64, i64>(None);
        for i in 0..10 {
            m.put(i, i);
        }
        let stats = heap.gc();
        assert_eq!(stats.collection.count, 1);
        let (ctx, totals) = stats.per_context[0];
        assert_eq!(heap.context_src_type(ctx), "HashMap");
        assert!(totals.live > totals.core);
        drop(m);
        let stats = heap.gc();
        assert_eq!(stats.collection.count, 0);
    }
}
