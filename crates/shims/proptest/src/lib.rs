//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build container has no crates.io access, so this crate implements the
//! subset of the proptest API this workspace's property tests use: the
//! [`Strategy`] trait (ranges, `any::<T>()`, `Just`, `prop_map`,
//! `prop::collection::vec`, `prop::sample::select`, `prop_oneof!`), the
//! [`proptest!`]/`prop_assert*!` macros, and [`ProptestConfig`].
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs (every
//!   test failure prints the case number and seed) but is not minimized.
//! * **Deterministic seeding.** Each test function derives its RNG seed
//!   from its own name, so runs are reproducible across machines — in the
//!   spirit of this repo's "pure function of `(topology, seed)`" rule.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod collection;
pub mod sample;

/// Module alias matching `proptest::prelude::prop`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, and plenty for test-case generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift rejection-free mapping is fine at test scale.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// FNV-1a, used to derive a per-test seed from the test function's name.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Subset of `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; the simulator-heavy suites here
        // want something brisker while still exercising the space.
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
///
/// Unlike the real crate there is no value tree: `new_value` draws a fresh
/// value directly (no shrinking).
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            source: self,
            whence,
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.new_value(rng))
    }
}

/// The result of [`Strategy::prop_filter`].
#[derive(Clone)]
pub struct Filter<S, F> {
    source: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.source.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected 1000 candidates in a row",
            self.whence
        );
    }
}

/// Uniform choice between boxed strategies — the engine behind
/// [`prop_oneof!`].
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].new_value(rng)
    }
}

/// String literals act as regex strategies, like the real crate. This shim
/// supports the subset the workspace's tests use: literal characters,
/// character classes (`[a-z0-9_.]`, with ranges), and the repetitions
/// `{n}`, `{m,n}`, `?`, `*`, `+` (the unbounded ones capped at 8).
/// Regex syntax outside that subset (alternation, groups, wildcards,
/// negated classes, anchors) panics instead of silently generating from
/// the wrong input space.
impl Strategy for str {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // Parse one atom: a character class or a literal.
            let atom: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .unwrap_or_else(|| panic!("unclosed [ in regex strategy {self:?}"))
                    + i;
                assert!(
                    chars.get(i + 1) != Some(&'^'),
                    "negated character class in regex strategy {self:?} is not supported by the \
                     proptest shim (crates/shims/proptest); extend it or avoid [^...]"
                );
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.push(char::from_u32(c).unwrap());
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else if chars[i] == '\\' && i + 1 < chars.len() {
                i += 2;
                vec![chars[i - 1]]
            } else {
                assert!(
                    !matches!(chars[i], '.' | '|' | '(' | ')' | '^' | '$'),
                    "regex metacharacter {:?} in strategy {self:?} is not supported by the \
                     proptest shim (crates/shims/proptest); escape it or extend the shim",
                    chars[i]
                );
                i += 1;
                vec![chars[i - 1]]
            };
            assert!(
                !atom.is_empty(),
                "empty character class in regex strategy {self:?}"
            );
            // Parse an optional repetition suffix.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed {{ in regex strategy {self:?}"))
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().expect("bad repetition"),
                        n.trim().parse::<usize>().expect("bad repetition"),
                    ),
                    None => {
                        let n = body.trim().parse::<usize>().expect("bad repetition");
                        (n, n)
                    }
                }
            } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
                let suffix = chars[i];
                i += 1;
                match suffix {
                    '*' => (0, 8),
                    '+' => (1, 8),
                    _ => (0, 1),
                }
            } else {
                (1, 1)
            };
            let count = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..count {
                out.push(atom[rng.below(atom.len() as u64) as usize]);
            }
        }
        out
    }
}

impl Strategy for String {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        self.as_str().new_value(rng)
    }
}

// ---------------------------------------------------------------------------
// Arbitrary + any
// ---------------------------------------------------------------------------

pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategy producing any value of `T` (uniform over the representation).
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Ranges as strategies
// ---------------------------------------------------------------------------

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                }
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ---------------------------------------------------------------------------
// Test failure plumbing
// ---------------------------------------------------------------------------

/// Matches `proptest::test_runner::TestCaseError` closely enough for the
/// macros below.
#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

pub type TestCaseResult = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Discards the current case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// The property-test entry point. Supports the same surface syntax as the
/// real crate for plain `arg in strategy` parameter lists and an optional
/// leading `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $config; $($rest)*);
    };
    (@impl $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::TestRng::seed_from_u64(seed);
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while passed < config.cases {
                case += 1;
                if rejected > config.cases.saturating_mul(16) {
                    panic!(
                        "proptest {}: too many rejected cases ({} rejects for {} passes)",
                        stringify!($name), rejected, passed
                    );
                }
                $(let $arg = $crate::Strategy::new_value(&($strategy), &mut rng);)+
                let result: $crate::TestCaseResult = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match result {
                    Ok(()) => passed += 1,
                    Err($crate::TestCaseError::Reject(_)) => rejected += 1,
                    Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest {} failed at case {} (seed {:#x}):\n{}",
                        stringify!($name), case, seed, msg
                    ),
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 3u8..=5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((3..=5).contains(&y));
        }

        #[test]
        fn map_and_vec(v in prop::collection::vec(any::<u8>(), 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
        }

        #[test]
        fn oneof_and_select(
            k in prop_oneof![Just(1usize), (5usize..7).prop_map(|v| v)],
            s in prop::sample::select(vec!["a", "b"]),
        ) {
            prop_assert!(k == 1 || k == 5 || k == 6);
            prop_assert!(s == "a" || s == "b");
        }
    }

    #[test]
    fn determinism() {
        let mut a = crate::TestRng::seed_from_u64(7);
        let mut b = crate::TestRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
