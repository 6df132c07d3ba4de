//! # chameleon-heap
//!
//! A simulated managed heap with a collection-aware mark-sweep garbage
//! collector, reproducing the VM substrate of *Chameleon: Adaptive Selection
//! of Collections* (Shacham, Vechev & Yahav, PLDI 2009).
//!
//! The paper instruments IBM's J9 JVM so that, on every GC cycle, the
//! collector computes — through per-class *semantic ADT maps* — how many
//! bytes each collection occupies (**live**), how much of that actually
//! stores application entries (**used**), and the ideal lower bound
//! (**core**), attributed to the *allocation context* each collection was
//! created at. This crate rebuilds that substrate:
//!
//! * [`layout::MemoryModel`] — the 32-bit JVM object-layout arithmetic;
//! * [`Heap`] — object table, roots, capacity caps with automatic GC and a
//!   simulated `OutOfMemoryError` ([`heap::OutOfMemory`]);
//! * [`semantic`] — declarative semantic ADT maps;
//! * `gc` (internal) — mark-sweep with semantic accounting;
//! * [`stats`] — per-cycle statistics (Table 3) and aggregates (Table 1);
//! * [`context`] — interned partial allocation contexts (§3.2.1);
//! * [`clock::SimClock`] — the deterministic cost clock.
//!
//! # Examples
//!
//! ```
//! use chameleon_heap::{Heap, ElemKind};
//! use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
//!
//! let heap = Heap::new();
//! let list = heap.register_class(
//!     "MyList",
//!     Some(SemanticMap {
//!         kind: CollectionKind::List,
//!         descriptor: AdtDescriptor::ArrayBacked { array_field: 0, slots_per_elem: 1 },
//!         top_level: true,
//!     }),
//! );
//! let arr_class = heap.register_class("Object[]", None);
//! let ctx = heap.intern_context("MyList", &["Main.run:10".to_owned()], 2);
//! let obj = heap.alloc_scalar(list, 1, 4, Some(ctx));
//! let arr = heap.alloc_array(arr_class, ElemKind::Ref, 10, None);
//! heap.set_ref(obj, 0, Some(arr));
//! heap.set_meta(obj, 0, &[3]); // logical size
//! heap.add_root(obj);
//!
//! let cycle = heap.gc();
//! assert_eq!(cycle.collection.count, 1);
//! assert!(cycle.collection.used < cycle.collection.live); // 7 empty slots
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod context;
mod gc;
#[allow(clippy::module_inception)]
pub mod heap;
pub mod layout;
mod lifetime;
pub mod object;
pub mod semantic;
pub mod snapshot;
pub mod stats;
mod telemetry;

pub use clock::SimClock;
pub use context::{CallStackSim, ContextExport, ContextId, ContextTable, FrameId};
pub use heap::{BatchAlloc, BatchRef, GcConfig, Heap, HeapConfig, OutOfMemory};
pub use layout::MemoryModel;
pub use object::{ClassId, ElemKind, ObjId, ObjectView};
pub use semantic::{AdtDescriptor, CollectionKind, SemanticMap};
pub use snapshot::{ContextSnap, HeapProfConfig, HeapSnapshot};
pub use stats::{AdtTotals, CycleStats, HeapAggregate};
