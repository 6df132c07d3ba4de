//! Offline shim for `proptest`.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the proptest API this workspace uses: `Strategy` with
//! `prop_map`/`boxed`, `Just`, `any`, integer-range strategies, tuple
//! strategies, `prop::collection::vec`, `prop::bool::ANY`, `prop_oneof!`,
//! and the `proptest!` test macro with `ProptestConfig::with_cases`.
//!
//! Cases are generated deterministically: the RNG seed is derived from the
//! test name and case index, so every run explores the same inputs and a
//! failure message names the case that reproduces it. No shrinking — the
//! failing input is printed verbatim instead.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::rc::Rc;

pub mod test_runner {
    /// SplitMix64-based deterministic generator for test case inputs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x5851_f42d_4c95_7f2d,
            }
        }

        /// Seed derived from the test name and case index, so each test
        /// explores a stable, independent input sequence.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng::new(h.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use super::*;

    /// A generator of test-case values. Unlike real proptest there is no
    /// value tree or shrinking; `new_value` directly produces a value.
    pub trait Strategy {
        type Value: Debug;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.new_value(rng)))
        }
    }

    /// Type-erased strategy, used by `prop_oneof!` to mix branch types.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Result of [`Strategy::prop_filter`]. Rejection-samples with a
    /// bounded retry count (generators here are cheap and dense).
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.new_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter exhausted retries: {}", self.whence);
        }
    }

    /// Uniform choice between boxed branches (built by `prop_oneof!`).
    pub struct Union<T> {
        branches: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(branches: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!branches.is_empty(), "prop_oneof! needs >= 1 branch");
            Union { branches }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.branches.len() as u64) as usize;
            self.branches[idx].new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + offset) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128 % span) as i128;
                    (lo as i128 + offset) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use super::*;

    /// Types with a canonical full-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized + Debug {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy over the full domain of `T`.
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Length bound for collection strategies (`0..120`, `1..=6`, `5`, ...).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing a `Vec` of element-strategy values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Uniform boolean strategy (`prop::bool::ANY`).
    #[derive(Debug, Clone, Copy)]
    pub struct BoolStrategy;

    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Uniform choice among strategies that share a `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($branch)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Guard printed on panic so a failing case is reproducible: it names the
/// test, the case index, and the generated input.
#[doc(hidden)]
pub struct CaseGuard<'a> {
    pub test_name: &'a str,
    pub case: u64,
    pub input: String,
    pub armed: bool,
}

impl Drop for CaseGuard<'_> {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest shim: test `{}` failed at case {} with input: {}",
                self.test_name, self.case, self.input
            );
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let strategy = ($($strat,)+);
                for case in 0..config.cases as u64 {
                    let mut rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    let values = $crate::strategy::Strategy::new_value(&strategy, &mut rng);
                    let mut guard = $crate::CaseGuard {
                        test_name: stringify!($name),
                        case,
                        input: format!("{:?}", values),
                        armed: true,
                    };
                    let ($($arg,)+) = values;
                    $body
                    guard.armed = false;
                    let _ = &guard;
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(i64),
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![(0..100i64).prop_map(Op::Push), Just(Op::Pop)],
            0..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated sequences respect the declared size bound.
        #[test]
        fn vec_respects_bounds(v in ops()) {
            prop_assert!(v.len() < 40);
        }

        #[test]
        fn tuples_and_ranges(pair in (0..10u32, any::<bool>())) {
            prop_assert!(pair.0 < 10);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let strat = ops();
        let mut a = TestRng::for_case("determinism", 3);
        let mut b = TestRng::for_case("determinism", 3);
        assert_eq!(strat.new_value(&mut a), strat.new_value(&mut b));
    }
}
