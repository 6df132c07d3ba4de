//! Model-aware synchronization primitives.
//!
//! [`atomic`] mirrors `std::sync::atomic` for the types the workspace
//! kernels use. Inside a model run each operation is a scheduling point
//! over a per-location store history (so relaxed/acquire loads may observe
//! stale-but-coherent values); outside one it delegates to the plain std
//! atomic it wraps. [`Mutex`] hands out a guard without a poison `Result`
//! and participates in scheduling and happens-before tracking.

use crate::rt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicUsize;

pub use std::sync::Arc;

/// Model-aware atomics; `Ordering` is re-exported from std.
pub mod atomic {
    use super::rt;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    pub use std::sync::atomic::Ordering;

    /// Memory fence: release fences attach the current clock to later
    /// relaxed stores; acquire fences promote earlier relaxed loads to
    /// synchronizing ones.
    pub fn fence(order: Ordering) {
        rt::fence(order);
    }

    /// Primitive representable in the runtime's u64 store slots.
    pub trait Prim: Copy {
        #[doc(hidden)]
        fn to_u64(self) -> u64;
        #[doc(hidden)]
        fn from_u64(v: u64) -> Self;
    }

    macro_rules! prim_int {
        ($($t:ty),*) => {$(
            impl Prim for $t {
                fn to_u64(self) -> u64 {
                    self as u64
                }
                fn from_u64(v: u64) -> Self {
                    v as $t
                }
            }
        )*};
    }
    prim_int!(u32, u64, usize);

    impl Prim for bool {
        fn to_u64(self) -> u64 {
            u64::from(self)
        }
        fn from_u64(v: u64) -> Self {
            v != 0
        }
    }

    macro_rules! atomic_type {
        ($name:ident, $ty:ty, $std:ty) => {
            /// Model-aware counterpart of the std atomic of the same name.
            #[derive(Debug, Default)]
            pub struct $name {
                plain: $std,
                /// Lazily-registered model location: 0 = unregistered,
                /// otherwise id + 1 (see `rt::lazy_loc`).
                loc: StdAtomicUsize,
            }

            impl $name {
                /// Wraps `v`, registering a store-history location with
                /// the active model run, if any.
                pub fn new(v: $ty) -> Self {
                    let a = $name {
                        plain: <$std>::new(v),
                        loc: StdAtomicUsize::new(0),
                    };
                    a.model_loc();
                    a
                }

                fn model_loc(&self) -> Option<usize> {
                    rt::lazy_loc(&self.loc, || self.plain.load(Ordering::Relaxed).to_u64())
                }

                /// Atomic load; under the model the observed store is a
                /// branch point among coherence-eligible stores.
                pub fn load(&self, order: Ordering) -> $ty {
                    match self.model_loc() {
                        Some(l) => Prim::from_u64(rt::load(l, order)),
                        None => self.plain.load(order),
                    }
                }

                /// Atomic store.
                pub fn store(&self, v: $ty, order: Ordering) {
                    match self.model_loc() {
                        Some(l) => rt::store(l, v.to_u64(), order),
                        None => self.plain.store(v, order),
                    }
                }

                /// Atomic swap; reads the latest store (RMW atomicity).
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    match self.model_loc() {
                        Some(l) => Prim::from_u64(rt::rmw(l, order, |_| v.to_u64())),
                        None => self.plain.swap(v, order),
                    }
                }
            }
        };
    }

    macro_rules! atomic_arith {
        ($name:ident, $ty:ty) => {
            impl $name {
                /// Atomic wrapping add; returns the previous value.
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    match self.model_loc() {
                        Some(l) => Prim::from_u64(rt::rmw(l, order, |old| {
                            <$ty as Prim>::from_u64(old).wrapping_add(v).to_u64()
                        })),
                        None => self.plain.fetch_add(v, order),
                    }
                }

                /// Atomic wrapping subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    match self.model_loc() {
                        Some(l) => Prim::from_u64(rt::rmw(l, order, |old| {
                            <$ty as Prim>::from_u64(old).wrapping_sub(v).to_u64()
                        })),
                        None => self.plain.fetch_sub(v, order),
                    }
                }

                /// Atomic maximum; returns the previous value.
                pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                    match self.model_loc() {
                        Some(l) => Prim::from_u64(rt::rmw(l, order, |old| {
                            <$ty as Prim>::from_u64(old).max(v).to_u64()
                        })),
                        None => self.plain.fetch_max(v, order),
                    }
                }
            }
        };
    }

    atomic_type!(AtomicBool, bool, std::sync::atomic::AtomicBool);
    atomic_type!(AtomicU32, u32, std::sync::atomic::AtomicU32);
    atomic_type!(AtomicU64, u64, std::sync::atomic::AtomicU64);
    atomic_type!(AtomicUsize, usize, std::sync::atomic::AtomicUsize);
    atomic_arith!(AtomicU32, u32);
    atomic_arith!(AtomicU64, u64);
    atomic_arith!(AtomicUsize, usize);
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

fn recover<T>(r: Result<T, std::sync::TryLockError<T>>) -> Option<T> {
    match r {
        Ok(g) => Some(g),
        Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Model-aware mutex whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    /// Lazily-registered model id: 0 = unregistered, otherwise id + 1.
    id: AtomicUsize,
}

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        let m = Mutex {
            inner: std::sync::Mutex::new(value),
            id: AtomicUsize::new(0),
        };
        m.model_id();
        m
    }

    fn model_id(&self) -> Option<usize> {
        rt::lazy_mutex(&self.id)
    }

    /// Acquires the lock, blocking (model: descheduling) until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.model_id() {
            Some(id) => {
                rt::lock_mutex(id);
                let g = recover(self.inner.try_lock())
                    .expect("model granted a mutex that is still held");
                MutexGuard {
                    guard: Some(g),
                    id: Some(id),
                }
            }
            None => MutexGuard {
                guard: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
                id: None,
            },
        }
    }

    /// Non-blocking acquisition.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.model_id() {
            Some(id) => {
                if !rt::try_lock_mutex(id) {
                    return None;
                }
                let g = recover(self.inner.try_lock())
                    .expect("model granted a mutex that is still held");
                Some(MutexGuard {
                    guard: Some(g),
                    id: Some(id),
                })
            }
            None => recover(self.inner.try_lock()).map(|g| MutexGuard {
                guard: Some(g),
                id: None,
            }),
        }
    }
}

/// Guard returned by [`Mutex::lock`]; releases on drop.
pub struct MutexGuard<'a, T> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
    id: Option<usize>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock before telling the scheduler, so the next
        // thread it grants can take the std lock immediately.
        self.guard.take();
        if let Some(id) = self.id {
            rt::unlock_mutex(id);
        }
    }
}
