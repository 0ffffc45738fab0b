//! In-tree stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of proptest's API its test-suites use: the
//! [`Strategy`] trait with `prop_map`, range / tuple / collection / `any`
//! strategies, `prop_oneof!`, and the `proptest!` / `prop_assert*!` /
//! `prop_assume!` macros.
//!
//! Semantics differ from upstream in two deliberate ways: there is no
//! shrinking (a failing case reports its inputs via the assertion message
//! only), and `prop_assume!` skips the case rather than drawing a
//! replacement. Case generation is deterministic: each test derives its RNG
//! seed from the test's module path, so failures reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A generator of random values of type `Self::Value`.
///
/// Mirrors `proptest::strategy::Strategy` closely enough that helper
/// functions can be written as `fn arb_x() -> impl Strategy<Value = X>`.
pub trait Strategy: Clone {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> O + Clone,
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O + Clone,
{
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of the same value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Types with a canonical "any value" strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rand::RngCore::next_u64(rng) as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the unconstrained strategy for `T`, as in `any::<u8>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Object-safe strategy facade backing [`OneOf`].
pub trait DynStrategy<V> {
    /// Draws one value through the trait object.
    fn dyn_generate(&self, rng: &mut StdRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut StdRng) -> S::Value {
        self.generate(rng)
    }
}

/// Strategy built by [`prop_oneof!`]: picks one arm uniformly per case.
pub struct OneOf<V> {
    arms: Vec<Rc<dyn DynStrategy<V>>>,
}

impl<V> OneOf<V> {
    /// Builds from pre-erased arms; used by the `prop_oneof!` expansion.
    pub fn new(arms: Vec<Rc<dyn DynStrategy<V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }

    /// Erases one strategy arm; used by the `prop_oneof!` expansion.
    pub fn arm<S>(s: S) -> Rc<dyn DynStrategy<V>>
    where
        S: Strategy<Value = V> + 'static,
    {
        Rc::new(s)
    }
}

impl<V> Clone for OneOf<V> {
    fn clone(&self) -> Self {
        OneOf {
            arms: self.arms.clone(),
        }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut StdRng) -> V {
        let idx = rng.gen_range(0..self.arms.len());
        self.arms[idx].dyn_generate(rng)
    }
}

/// Strategy namespace mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;
        use std::ops::{Range, RangeInclusive};

        /// Lengths acceptable to [`vec()`]: an exact size or a size range.
        pub trait VecLen: Clone {
            /// Picks the length for one generated vector.
            fn pick(&self, rng: &mut StdRng) -> usize;
        }

        impl VecLen for usize {
            fn pick(&self, _rng: &mut StdRng) -> usize {
                *self
            }
        }

        impl VecLen for Range<usize> {
            fn pick(&self, rng: &mut StdRng) -> usize {
                rng.gen_range(self.clone())
            }
        }

        impl VecLen for RangeInclusive<usize> {
            fn pick(&self, rng: &mut StdRng) -> usize {
                rng.gen_range(self.clone())
            }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: VecLen> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = self.len.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, len)`: vectors of generated elements.
        pub fn vec<S: Strategy, L: VecLen>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy for a fair coin flip.
        #[derive(Clone, Copy)]
        pub struct BoolStrategy;

        impl Strategy for BoolStrategy {
            type Value = bool;

            fn generate(&self, rng: &mut StdRng) -> bool {
                rng.gen_bool(0.5)
            }
        }

        /// `prop::bool::ANY`: either boolean, equiprobably.
        pub const ANY: BoolStrategy = BoolStrategy;
    }
}

/// Per-test configuration, set with `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Derives the deterministic RNG for a test from its full path (FNV-1a).
pub fn rng_for_test(test_path: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Defines property tests: each `fn` runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng =
                    $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        panic!("proptest case {} of {} failed: {}", case + 1, config.cases, msg);
                    }
                }
            }
        )*
    };
}

/// Asserts inside a `proptest!` body; failure reports the offending case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left), stringify!($right), l, r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Combines strategies: each case picks one arm uniformly at random.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(::std::vec![$($crate::OneOf::arm($arm)),+])
    };
}

/// Everything a proptest file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Line(f32, f32),
    }

    fn arb_shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (0u32..1).prop_map(|_| Shape::Dot),
            (0.0f32..1.0, 2.0f32..3.0).prop_map(|(a, b)| Shape::Line(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_generate_in_bounds(x in 1u32..10, f in -1.0f32..1.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "f out of range: {}", f);
        }

        #[test]
        fn vec_lengths_respect_bounds(
            v in prop::collection::vec(0u8..255, 3..7),
            exact in prop::collection::vec(any::<u8>(), 4),
        ) {
            prop_assert!((3..7).contains(&v.len()));
            prop_assert_eq!(exact.len(), 4);
        }

        #[test]
        fn oneof_hits_every_arm_eventually(shapes in prop::collection::vec(arb_shape(), 64)) {
            let dots = shapes.iter().filter(|s| **s == Shape::Dot).count();
            prop_assert!(dots > 0 && dots < shapes.len());
            for s in &shapes {
                if let Shape::Line(a, b) = s {
                    prop_assert!(*a < 1.0 && *b >= 2.0);
                }
            }
        }

        #[test]
        fn assume_skips_cases(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn bool_any_flips_both_ways(flags in prop::collection::vec(prop::bool::ANY, 64)) {
            prop_assert!(flags.iter().any(|&b| b));
            prop_assert!(flags.iter().any(|&b| !b));
        }
    }

    #[test]
    fn deterministic_rng_per_test_name() {
        use crate::Strategy;
        let mut a = crate::rng_for_test("x::y");
        let mut b = crate::rng_for_test("x::y");
        let s = 0.0f64..1.0;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
