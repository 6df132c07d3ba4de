//! # chameleon-profiler
//!
//! The semantic collections profiler of Chameleon (PLDI 2009, §3.2):
//! per-allocation-context aggregation of **trace** statistics (operation
//! counts and maximal sizes, with averages and variances — Table 1) joined
//! with the collection-aware GC's **heap** statistics (live/used/core per
//! cycle — Table 3) into a ranked potential-savings report.
//!
//! * [`Profiler`] — the runtime's death-statistics sink; builds
//!   [`ContextTrace`]s (the paper's `ContextInfo`).
//! * [`StabilityConfig`] — Definition 3.1's stability gate on metric
//!   deviations.
//! * [`ProfileReport`] — the combined, ranked report plus the Fig. 2 /
//!   Fig. 8 live/used/core time series.
//!
//! # Examples
//!
//! ```
//! use chameleon_heap::Heap;
//! use chameleon_collections::factory::CollectionFactory;
//! use chameleon_collections::runtime::Runtime;
//! use chameleon_profiler::{Profiler, ProfileReport};
//!
//! let heap = Heap::new();
//! let rt = Runtime::new(heap.clone());
//! let profiler = Profiler::install(&rt);
//! let factory = CollectionFactory::new(rt);
//! {
//!     let _f = factory.enter("App.load:7");
//!     let mut m = factory.new_map::<i64, i64>(None);
//!     m.put(1, 10);
//!     heap.gc();
//! }
//! let report = ProfileReport::build(&profiler, &heap);
//! assert_eq!(report.contexts.len(), 1);
//! assert!(report.contexts[0].label.contains("App.load:7"));
//! ```

#![forbid(unsafe_code)]

pub mod context_trace;
pub mod heapprof;
#[allow(clippy::module_inception)]
pub mod profiler;
pub mod report;

pub use context_trace::{ContextTrace, StabilityConfig};
pub use heapprof::HeapProfile;
pub use profiler::Profiler;
pub use report::{ContextProfile, ProfileReport, SeriesPoint};
