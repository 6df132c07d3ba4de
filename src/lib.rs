//! # chameleon-repro
//!
//! Facade crate for the reproduction of *Chameleon: Adaptive Selection of
//! Collections* (Shacham, Vechev & Yahav, PLDI 2009). Re-exports the
//! workspace crates under one roof:
//!
//! * [`heap`] — simulated managed heap + collection-aware GC
//!   ([`chameleon_heap`]);
//! * [`collections`] — swappable, instrumented collection library
//!   ([`chameleon_collections`]);
//! * [`profiler`] — per-context trace/heap statistics
//!   ([`chameleon_profiler`]);
//! * [`rules`] — the selection-rule language and engine
//!   ([`chameleon_rules`]);
//! * [`core`] — the profile → suggest → apply → re-run orchestrator
//!   ([`chameleon_core`]);
//! * [`workloads`] — the paper's benchmark simulacra
//!   ([`chameleon_workloads`]).
//!
//! See `examples/quickstart.rs` for the five-minute tour and the
//! `chameleon-bench` crate for every table/figure harness.

#![forbid(unsafe_code)]

pub use chameleon_collections as collections;
pub use chameleon_core as core;
pub use chameleon_heap as heap;
pub use chameleon_profiler as profiler;
pub use chameleon_rules as rules;
pub use chameleon_telemetry as telemetry;
pub use chameleon_workloads as workloads;
