//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no access to crates.io, so this crate
//! implements the property-testing subset the workspace's test suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map` / `prop_filter` / `prop_flat_map`,
//! * range strategies, [`any`], [`Just`], tuple strategies,
//!   [`collection::vec`], [`prop_oneof!`], and [`sample::Index`],
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.
//!
//! Cases are generated from a deterministic per-test seed (override with
//! `PROPTEST_SEED`), so failures are reproducible. Unlike real proptest
//! there is **no shrinking**: a failing case reports its exact inputs
//! instead. For the regression-style invariants tested here that is an
//! acceptable trade for zero dependencies.

use std::fmt::Debug;

/// The per-case random source (SplitMix64: tiny and statistically fine for
/// test-case generation).
#[derive(Debug, Clone)]
pub struct TestRng {
    x: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            x: seed ^ 0x9E3779B97F4A7C15,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// A value generator. `gen` returns `None` when a filter rejected the
/// candidate (the runner then retries the whole case).
pub trait Strategy {
    type Value: Debug;

    fn gen(&self, rng: &mut TestRng) -> Option<Self::Value>;

    fn prop_map<R: Debug, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> R,
    {
        strategy::Map { base: self, f }
    }

    fn prop_filter<F>(self, reason: &'static str, pred: F) -> strategy::Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        strategy::Filter {
            base: self,
            reason,
            pred,
        }
    }

    fn prop_flat_map<S2: Strategy, F>(self, f: F) -> strategy::FlatMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> S2,
    {
        strategy::FlatMap { base: self, f }
    }

    /// Type-erase (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: Debug> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn gen(&self, rng: &mut TestRng) -> Option<V> {
        self.as_ref().gen(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Uniform-over-the-type strategy; for floats this draws raw bit patterns,
/// so NaNs and infinities appear (matching real proptest's `any::<f32>()`
/// in spirit).
pub fn any<T: Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub trait Arbitrary: Debug + Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.next_u64())
    }
}

pub mod strategy {
    use super::{Arbitrary, Debug, Strategy, TestRng};

    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen(&self, rng: &mut TestRng) -> Option<T> {
            Some(T::arbitrary(rng))
        }
    }

    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, R: Debug, F: Fn(S::Value) -> R> Strategy for Map<S, F> {
        type Value = R;
        fn gen(&self, rng: &mut TestRng) -> Option<R> {
            self.base.gen(rng).map(&self.f)
        }
    }

    pub struct Filter<S, F> {
        pub(crate) base: S,
        #[allow(dead_code)]
        pub(crate) reason: &'static str,
        pub(crate) pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn gen(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Retry locally a few times before bubbling the rejection up;
            // keeps sparse filters (e.g. "finite" over raw f32 bits) cheap.
            for _ in 0..32 {
                if let Some(v) = self.base.gen(rng) {
                    if (self.pred)(&v) {
                        return Some(v);
                    }
                }
            }
            None
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn gen(&self, rng: &mut TestRng) -> Option<S2::Value> {
            let mid = self.base.gen(rng)?;
            (self.f)(mid).gen(rng)
        }
    }

    /// Uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<V: Debug> {
        pub arms: Vec<super::BoxedStrategy<V>>,
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn gen(&self, rng: &mut TestRng) -> Option<V> {
            let i = rng.below(self.arms.len());
            self.arms[i].gen(rng)
        }
    }
}

macro_rules! impl_float_range_strategy {
    ($t:ty) => {
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> Option<$t> {
                debug_assert!(self.start < self.end);
                Some(self.start + (rng.unit_f64() as $t) * (self.end - self.start))
            }
        }
    };
}
impl_float_range_strategy!(f32);
impl_float_range_strategy!(f64);

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> Option<$t> {
                debug_assert!(self.start < self.end);
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                Some((self.start as i128 + off as i128) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> Option<$t> {
                let (start, end) = (*self.start(), *self.end());
                debug_assert!(start <= end);
                let span = (end as i128 - start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                Some((start as i128 + off as i128) as $t)
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$idx.gen(rng)?,)+))
            }
        }
    };
}
impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        pub lo: usize,
        pub hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements come from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span.max(1));
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.elem.gen(rng)?);
            }
            Some(out)
        }
    }
}

pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An index into a collection whose length is only known inside the
    /// test body (`any::<Index>()` + `idx.index(len)`).
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        unit: f64,
    }

    impl Index {
        /// Map onto `0..len`. `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            ((self.unit * len as f64) as usize).min(len - 1)
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index {
                unit: rng.unit_f64(),
            }
        }
    }
}

pub mod test_runner {
    /// Runner configuration (`#![proptest_config(..)]`).
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
        /// Abandon the test if this many candidate cases get rejected by
        /// filters/`prop_assume!` before `cases` successes.
        pub max_global_rejects: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }
}

/// Outcome of one generated case.
pub enum CaseResult {
    Pass,
    Reject,
    Fail(String),
}

pub mod runner {
    use super::{test_runner::Config, CaseResult, TestRng};

    fn base_seed(test_name: &str) -> u64 {
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(v) = s.parse::<u64>() {
                return v;
            }
        }
        // FNV-1a over the test name: deterministic, distinct per test.
        let mut h = 0xcbf29ce484222325u64;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Drive `case` until `cfg.cases` cases pass, a case fails, or the
    /// reject budget is exhausted.
    pub fn run<F>(cfg: Config, test_name: &str, case: F)
    where
        F: Fn(&mut TestRng, &mut Vec<String>) -> CaseResult + std::panic::RefUnwindSafe,
    {
        let seed = base_seed(test_name);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let mut case_no = 0u64;
        while passed < cfg.cases {
            let mut rng = TestRng::new(seed.wrapping_add(case_no.wrapping_mul(0x9E3779B97F4A7C15)));
            case_no += 1;
            let mut inputs: Vec<String> = Vec::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                case(&mut rng, &mut inputs)
            }));
            match outcome {
                Ok(CaseResult::Pass) => passed += 1,
                Ok(CaseResult::Reject) => {
                    rejected += 1;
                    if rejected > cfg.max_global_rejects {
                        panic!(
                            "proptest '{test_name}': too many rejected cases \
                             ({rejected}) before {} passes",
                            cfg.cases
                        );
                    }
                }
                Ok(CaseResult::Fail(msg)) => {
                    panic!(
                        "proptest '{test_name}' failed at case #{case_no} (seed {seed}):\n\
                         {msg}\ninputs:\n{}",
                        inputs.join("\n")
                    );
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".into());
                    panic!(
                        "proptest '{test_name}' panicked at case #{case_no} (seed {seed}):\n\
                         {msg}\ninputs:\n{}",
                        inputs.join("\n")
                    );
                }
            }
        }
    }
}

/// Declares property tests. Mirrors proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn holds(x in 0u32..100, v in pvec(any::<f32>(), 1..50)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                $crate::runner::run(cfg, stringify!($name), |__rng, __inputs| {
                    $(
                        let __val = match $crate::Strategy::gen(&($strat), __rng) {
                            Some(v) => v,
                            None => return $crate::CaseResult::Reject,
                        };
                        __inputs.push(format!(
                            "  {} = {:?}",
                            stringify!($pat),
                            __val
                        ));
                        let $pat = __val;
                    )*
                    // Bodies use `prop_assert*`/`prop_assume!`, which early-
                    // return a CaseResult; falling through means the case
                    // passed.
                    #[allow(unused_braces)]
                    { $body }
                    $crate::CaseResult::Pass
                });
            }
        )*
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($arm:expr),+ $(,)? ) => {
        $crate::strategy::Union { arms: vec![ $( $crate::Strategy::boxed($arm) ),+ ] }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return $crate::CaseResult::Fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return $crate::CaseResult::Fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return $crate::CaseResult::Fail(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), file!(), line!(), va, vb
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return $crate::CaseResult::Fail(format!(
                "assertion failed: {} == {} ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), file!(), line!(), format!($($fmt)+), va, vb
            ));
        }
    }};
}

/// Discard the current case (not a failure) when its inputs don't satisfy a
/// precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::CaseResult::Reject;
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return $crate::CaseResult::Reject;
        }
    };
}

pub mod prelude {
    /// `prop::` paths (`prop::sample::Index`, `prop::collection::vec`, …).
    pub use crate as prop;
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Arbitrary, BoxedStrategy, CaseResult, Just, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec as pvec;
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, f in -2.0f32..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(v in pvec(0u8..10, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9, "len {}", v.len());
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_and_filter_compose(
            v in prop_oneof![Just(1u32), 5u32..10, Just(3u32)],
            f in any::<f32>().prop_filter("finite", |x| x.is_finite()),
        ) {
            prop_assert!(v == 1 || v == 3 || (5..10).contains(&v));
            prop_assert!(f.is_finite());
        }

        #[test]
        fn flat_map_links_sizes((n, v) in (1usize..20).prop_flat_map(|n| {
            (Just(n), pvec(any::<u8>(), n..=n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn index_is_always_valid(idx in any::<prop::sample::Index>(), len in 1usize..100) {
            prop_assert!(idx.index(len) < len);
        }
    }

    #[test]
    fn any_f32_produces_nonfinite_eventually() {
        let mut rng = TestRng::new(1);
        let s = any::<f32>();
        let nonfinite = (0..10_000)
            .filter(|_| !Strategy::gen(&s, &mut rng).unwrap().is_finite())
            .count();
        assert!(
            nonfinite > 10,
            "raw-bit f32s must include NaN/Inf, saw {nonfinite}"
        );
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failing_property_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            fn always_small(x in 0u32..1000) {
                prop_assert!(x < 2, "x = {}", x);
            }
        }
        always_small();
    }
}
