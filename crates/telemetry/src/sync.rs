//! std-vs-loom indirection for the concurrency kernels.
//!
//! The workspace's two lock-free/low-level kernels (the trace-ring
//! seqlock here and the heap's single-mutator entry flag) import their
//! atomics, fences and interior-mutability cells from this module
//! instead of `std` directly. Under
//! `--features model` the re-exports switch to the in-tree `loom` shim,
//! whose types participate in exhaustive schedule exploration and race
//! checking; without the feature they are the plain `std` types (plus a
//! zero-cost [`UnsafeCell`] wrapper carrying loom's closure-based access
//! API so kernel code is written once).
//!
//! The one downstream kernel crate, `chameleon-heap`, re-exports from
//! here so both crates flip on a single feature edge.

#[cfg(feature = "model")]
pub use loom::cell::UnsafeCell;
#[cfg(feature = "model")]
pub use loom::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "model"))]
mod cell_impl {
    /// Interior-mutability cell with the loom shim's closure-scoped access
    /// API ([`with`](UnsafeCell::with) / [`with_mut`](UnsafeCell::with_mut)
    /// / [`with_racy`](UnsafeCell::with_racy)); in this std build every
    /// method is a direct pointer handoff with no checking or overhead.
    #[derive(Debug, Default)]
    pub struct UnsafeCell<T: ?Sized> {
        inner: std::cell::UnsafeCell<T>,
    }

    // SAFETY: matches the model-mode (loom) cell, which is `Sync` so model
    // threads can share it. Soundness of the *accesses* is the caller's
    // obligation either way — every call site carries its own SAFETY
    // justification, and the model build race-checks them.
    unsafe impl<T: Send + ?Sized> Sync for UnsafeCell<T> {}

    impl<T> UnsafeCell<T> {
        /// Wraps `value`.
        pub fn new(value: T) -> Self {
            UnsafeCell {
                inner: std::cell::UnsafeCell::new(value),
            }
        }

        /// Consumes the cell and returns the wrapped value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }

        /// Shared access to the wrapped value.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.inner.get())
        }

        /// Exclusive access to the wrapped value.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.inner.get())
        }

        /// Racy-by-design read (seqlock readers): identical to [`with`]
        /// here; under the model it skips race recording.
        ///
        /// [`with`]: UnsafeCell::with
        pub fn with_racy<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.inner.get())
        }
    }
}

#[cfg(not(feature = "model"))]
pub use cell_impl::UnsafeCell;
