//! End-to-end benchmark and per-layer cost ledger for the Chameleon
//! reproduction. It drives the library's public API only: four workloads
//! (`profile-pmd`, `profile-tvla-par`, `optimize-findbugs`, `serve-mixed`),
//! each in a process of its own, every request's output checked against a
//! reference fingerprint. See `README.md` for the metrics and why each
//! workload was chosen.

pub mod compare;
pub mod counting;
pub mod harness;
pub mod host;
pub mod ledger;
pub mod scenario;
pub mod script;
pub mod spec;
pub mod stats;
