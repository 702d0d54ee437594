//! A deterministic property-test runner covering the subset of the
//! `proptest` API this workspace uses.
//!
//! Differences from upstream: no shrinking (failures report the case
//! index and message), rejection via `prop_assume!` skips the case rather
//! than resampling, and generation is driven by a SplitMix64 stream
//! seeded from the test's module path so runs are reproducible.

pub mod test_runner {
    /// Per-test configuration; only `cases` is modelled.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// A failed property case.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The deterministic generation stream (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from a test identifier (FNV-1a of the name),
        /// so every run of a given test sees the same cases.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. Upstream strategies build shrinkable value
    /// trees; this stub only ever needs fresh values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Keeps only values accepted by `f`, resampling on rejection.
        fn prop_filter<R: Into<String>, F: Fn(&Self::Value) -> bool>(
            self,
            whence: R,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, whence: whence.into(), f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) whence: String,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1024 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1024 consecutive values: {}", self.whence);
        }
    }

    macro_rules! impl_range_int {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty integer range strategy");
                    (lo + rng.below((hi - lo) as u64) as i128) as $t
                }
            }
        )*};
    }
    impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_range_float {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as f64;
                    let hi = self.end as f64;
                    assert!(lo < hi, "empty float range strategy");
                    (lo + rng.unit_f64() * (hi - lo)) as $t
                }
            }
        )*};
    }
    impl_range_float!(f32, f64);

    macro_rules! impl_tuple {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple!(A.0);
    impl_tuple!(A.0, B.1);
    impl_tuple!(A.0, B.1, C.2);
    impl_tuple!(A.0, B.1, C.2, D.3);
    impl_tuple!(A.0, B.1, C.2, D.3, E.4);
    impl_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
    impl_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    impl_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Full-range strategy for a primitive type (see [`any`]).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// The `any::<T>()` entry point: uniform over `T`'s whole domain.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Element-count bound for [`vec()`]: an exact size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec`s of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span > 1 { rng.below(span) as usize } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing uniformly from a fixed set of values.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select() needs at least one item");
        Select { items }
    }

    /// See [`select`].
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }
}

/// Everything a property-test file needs, mirroring upstream's prelude.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::sample::select`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// `assert!` that fails the property (with context) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        // `if cond {} else` rather than `if !cond`: negating a float
        // comparison trips clippy::neg_cmp_op_on_partial_ord at call sites.
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` flavour of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// `assert_ne!` flavour of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Skips the case when the assumption does not hold (upstream resamples;
/// the stub just accepts the case).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in -1.5f32..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.5..2.5).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn exact_vec_len(v in prop::collection::vec(any::<bool>(), 7)) {
            prop_assert_eq!(v.len(), 7);
        }

        #[test]
        fn map_filter_compose(
            x in (0u32..100).prop_map(|v| v * 2).prop_filter("nonzero", |v| *v > 0),
        ) {
            prop_assert!(x % 2 == 0 && x > 0);
        }

        #[test]
        fn select_draws_member(x in prop::sample::select(vec![1, 5, 9])) {
            prop_assert!(x == 1 || x == 5 || x == 9);
        }

        #[test]
        fn tuples_generate(t in (any::<u8>(), 0usize..4, -1.0f64..1.0)) {
            prop_assert!(t.1 < 4);
            prop_assert!(t.2.abs() <= 1.0);
        }

        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("same-name");
        let mut b = TestRng::deterministic("same-name");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
