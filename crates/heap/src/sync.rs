//! std-vs-loom indirection for this crate's one concurrency kernel, the
//! single-mutator cell's entry flag.
//!
//! Re-exports `chameleon_telemetry::sync` (atomics and
//! [`UnsafeCell`](chameleon_telemetry::sync::UnsafeCell)): the plain std
//! types normally, the loom shim's model-checked equivalents under
//! `--features model`. The `model` feature of this crate enables
//! `chameleon-telemetry/model`, so both crates always agree.

pub(crate) use chameleon_telemetry::sync::{AtomicBool, Ordering, UnsafeCell};
