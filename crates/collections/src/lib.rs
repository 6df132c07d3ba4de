//! # chameleon-collections
//!
//! Interchangeable collection implementations with Java-faithful memory
//! footprints, wrapped in instrumented handles — the library half of the
//! Chameleon system (PLDI 2009, §4.1–§4.2).
//!
//! The paper's design is reproduced directly:
//!
//! * every program-level collection is a **wrapper** delegating to a
//!   swappable backing implementation ([`handle`]);
//! * a [`factory`] captures the *allocation context* at each allocation
//!   (with configurable capture method, depth, sampling and per-type
//!   shutoff) and consults a [`factory::SelectionPolicy`] for per-context
//!   implementation overrides;
//! * the alternative implementations of §4.2 are all provided: `ArrayList`,
//!   `LinkedList`, `LazyArrayList`, `SingletonList`, `IntArray`; `HashSet`,
//!   `LinkedHashSet`, `ArraySet`, `LazySet`, `SizeAdaptingSet`; `HashMap`,
//!   `LinkedHashMap`, `ArrayMap`, `LazyMap`, `SizeAdaptingMap`;
//! * every implementation mirrors its wrapper, impl object, backing arrays
//!   and entry objects into the simulated heap of
//!   [`chameleon-heap`](chameleon_heap), so the collection-aware GC computes
//!   the same live/used/core byte counts the paper's J9 collector did;
//! * operations charge a deterministic [`cost::CostModel`] to the shared
//!   clock, making runtime comparisons reproducible.
//!
//! # Examples
//!
//! ```
//! use chameleon_heap::Heap;
//! use chameleon_collections::factory::CollectionFactory;
//! use chameleon_collections::runtime::Runtime;
//!
//! let factory = CollectionFactory::new(Runtime::new(Heap::new()));
//! let _frame = factory.enter("Quickstart.main:1");
//! let mut map = factory.new_map::<i64, i64>(None);
//! map.put(1, 100);
//! assert_eq!(map.get(&1), Some(100));
//!
//! // The collection-aware GC sees the map and its entries.
//! let cycle = factory.runtime().heap().gc();
//! assert_eq!(cycle.collection.count, 1);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod elem;
pub mod factory;
pub mod handle;
mod hash_core;
pub mod list;
pub mod map;
pub mod ops;
pub mod runtime;
pub mod set;

pub use cost::CostModel;
pub use elem::{Elem, HeapVal};
pub use factory::{
    CaptureConfig, CaptureMethod, CollectionFactory, ListChoice, MapChoice, Selection,
    SelectionPolicy, SetChoice,
};
pub use handle::{HandleIter, ListHandle, MapHandle, SetHandle};
pub use ops::{Op, OpCounts};
pub use runtime::{ClassIds, InstanceStats, Runtime, StatsSink};
