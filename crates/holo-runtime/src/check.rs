//! Deterministic property testing: seeded shrinking generators driven
//! by the [`holo_prop!`](crate::holo_prop) macro.
//!
//! Each property runs a fixed number of cases from a seed derived from
//! the property's name, so a failure reproduces bit-for-bit on every
//! machine and every run. Override the base seed with the
//! `HOLO_PROP_SEED` environment variable (decimal or `0x`-hex) to
//! re-explore the input space or replay a reported failure.
//!
//! On failure, the framework shrinks the counterexample: it repeatedly
//! asks the generator for smaller candidate inputs and keeps the
//! smallest one that still fails, then panics with the minimal input,
//! the seed, and the failure message.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// RNG (splitmix64: tiny, fast, full-period, no external deps)
// ---------------------------------------------------------------------

/// Deterministic generator RNG. Not for cryptography or statistics —
/// only for reproducible test-input generation.
pub struct PropRng {
    state: u64,
}

impl PropRng {
    /// Start a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------
// Property outcome
// ---------------------------------------------------------------------

/// Why a single property case did not pass.
#[derive(Debug)]
pub enum PropFail {
    /// Input rejected by `prop_assume!` — does not count as a case.
    Discard,
    /// Assertion failure with its message.
    Fail(String),
}

impl PropFail {
    /// Build a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        PropFail::Fail(msg.into())
    }
}

/// Result of one property-case execution.
pub type PropResult = Result<(), PropFail>;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A seeded, shrinkable input generator.
pub trait Gen {
    /// The value type this generator produces.
    type Value: Clone + Debug;
    /// Draw one value from the RNG stream.
    fn generate(&self, rng: &mut PropRng) -> Self::Value;
    /// Candidate "smaller" values to try during shrinking. Candidates
    /// must stay inside the generator's domain; an empty vec ends
    /// shrinking along this axis.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Types with a canonical full-domain generator (`any::<T>()`).
pub trait Arbitrary: Clone + Debug {
    /// Draw a value from the type's full domain.
    fn arbitrary(rng: &mut PropRng) -> Self;
    /// Smaller candidates for shrinking.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Full-domain generator for an [`Arbitrary`] type; mirrors proptest's
/// `any::<T>()` call-site syntax.
pub fn any<T: Arbitrary>() -> AnyGen<T> {
    AnyGen(std::marker::PhantomData)
}

/// Generator returned by [`any`].
pub struct AnyGen<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Gen for AnyGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut PropRng) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink()
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut PropRng) -> Self {
                // Bias toward small values and edge cases: full-range
                // uniform u64s almost never hit the interesting ends.
                match rng.next_u64() % 8 {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => (rng.next_u64() % 16) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v > 0 {
                    out.push(0);
                    if v / 2 > 0 { out.push(v / 2); }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )+};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut PropRng) -> Self {
                match rng.next_u64() % 8 {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => <$t>::MIN,
                    3 => (rng.next_u64() % 16) as $t - 8,
                    _ => rng.next_u64() as $t,
                }
            }
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v / 2 != 0 { out.push(v / 2); }
                    out.push(v - v.signum());
                }
                out.dedup();
                out
            }
        }
    )+};
}
arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut PropRng) -> Self {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self) -> Vec<Self> {
        if *self { vec![false] } else { Vec::new() }
    }
}

macro_rules! gen_int_range {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut PropRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid > lo { out.push(mid); }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )+};
}
gen_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! gen_float_range {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut PropRng) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                // Toward the low bound, and toward zero if it is inside
                // the range (the usual "simplest" float).
                if (0.0 as $t) > lo && (0.0 as $t) < self.end && v != 0.0 {
                    out.push(0.0);
                }
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2.0;
                    if mid > lo && mid < v { out.push(mid); }
                }
                out.retain(|c| *c != v);
                out.dedup();
                out
            }
        }
    )+};
}
gen_float_range!(f32, f64);

/// Collection generators (mirrors `proptest::collection`).
pub mod collection {
    use super::*;

    /// Vec of `elem`-generated values with length drawn from `len`.
    pub fn vec<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
        VecGen { elem, len }
    }

    /// Generator returned by [`vec`].
    pub struct VecGen<G: Gen> {
        elem: G,
        len: Range<usize>,
    }

    impl<G: Gen> Gen for VecGen<G> {
        type Value = Vec<G::Value>;

        fn generate(&self, rng: &mut PropRng) -> Vec<G::Value> {
            let n = rng.range_u64(self.len.start as u64, self.len.end as u64) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
            let min = self.len.start;
            let n = value.len();
            let mut out: Vec<Vec<G::Value>> = Vec::new();
            // Length shrinks first: minimal, half, drop-last.
            if n > min {
                out.push(value[..min].to_vec());
                if n / 2 > min {
                    out.push(value[..n / 2].to_vec());
                }
                out.push(value[..n - 1].to_vec());
            }
            // Then one element-wise pass: every element replaced by its
            // first shrink candidate (length preserved).
            let mut elementwise = value.clone();
            let mut changed = false;
            for e in elementwise.iter_mut() {
                if let Some(c) = self.elem.shrink(e).into_iter().next() {
                    *e = c;
                    changed = true;
                }
            }
            if changed {
                out.push(elementwise);
            }
            out
        }
    }
}

macro_rules! gen_tuple {
    ($(($($g:ident / $v:ident / $i:tt),+))+) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut PropRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut next = value.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}
gen_tuple! {
    (A/a/0)
    (A/a/0, B/b/1)
    (A/a/0, B/b/1, C/c/2)
    (A/a/0, B/b/1, C/c/2, D/d/3)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5)
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Environment variable overriding the per-property base seed.
pub const SEED_ENV: &str = "HOLO_PROP_SEED";

fn base_seed(name: &str) -> u64 {
    if let Ok(s) = std::env::var(SEED_ENV) {
        let parsed = if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            s.parse()
        };
        match parsed {
            Ok(seed) => return seed,
            Err(_) => panic!("{SEED_ENV}={s:?} is not a u64 (decimal or 0x-hex)"),
        }
    }
    // Derived from the property name: stable across runs and platforms.
    crate::fnv1a64(name.as_bytes())
}

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

fn run_once<V, F: Fn(V) -> PropResult>(f: &F, value: V) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| f(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(PropFail::Discard)) => Outcome::Discard,
        Ok(Err(PropFail::Fail(msg))) => Outcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panicked (non-string payload)");
            Outcome::Fail(format!("panic: {msg}"))
        }
    }
}

/// Execute a property: `cases` inputs from `gen`, shrinking the first
/// counterexample. Panics (test failure) with the minimal input, the
/// seed, and the message. Called by the [`holo_prop!`](crate::holo_prop)
/// macro; usable directly for one-off properties.
pub fn run_prop<G: Gen, F: Fn(G::Value) -> PropResult>(name: &str, cases: u32, gen: G, f: F) {
    let seed = base_seed(name);
    let mut rng = PropRng::new(seed);
    let max_discards = cases.saturating_mul(16).max(256);
    let mut discards = 0u32;
    let mut ran = 0u32;
    while ran < cases {
        let value = gen.generate(&mut rng);
        match run_once(&f, value.clone()) {
            Outcome::Pass => ran += 1,
            Outcome::Discard => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "[holo_prop] property '{name}': {discards} inputs discarded before \
                     {cases} cases ran — loosen the generator or the prop_assume!"
                );
            }
            Outcome::Fail(first_msg) => {
                let (min_value, min_msg, steps) = shrink_failure(&gen, &f, value, first_msg);
                panic!(
                    "[holo_prop] property '{name}' failed after {ran} passing cases \
                     ({steps} shrink steps)\n  minimal input: {min_value:?}\n  cause: {min_msg}\n  \
                     reproduce: {SEED_ENV}={seed:#x}"
                );
            }
        }
    }
}

fn shrink_failure<G: Gen, F: Fn(G::Value) -> PropResult>(
    gen: &G,
    f: &F,
    mut current: G::Value,
    mut msg: String,
) -> (G::Value, String, u32) {
    let budget = 512u32;
    let mut steps = 0u32;
    'outer: while steps < budget {
        for candidate in gen.shrink(&current) {
            if steps >= budget {
                break 'outer;
            }
            steps += 1;
            if let Outcome::Fail(m) = run_once(f, candidate.clone()) {
                current = candidate;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }
    (current, msg, steps)
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Define deterministic property tests.
///
/// ```ignore
/// holo_prop! {
///     #![cases(64)]
///
///     /// Doubling then halving is the identity.
///     fn double_halve(x in 0u32..10_000) {
///         prop_assert_eq!(x * 2 / 2, x);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` running `cases` inputs (default 64)
/// drawn from the generators after `in`. Inside the body,
/// [`prop_assert!`](crate::prop_assert),
/// [`prop_assert_eq!`](crate::prop_assert_eq) and
/// [`prop_assume!`](crate::prop_assume) report failures/discards to the
/// shrinking runner. Set `HOLO_PROP_SEED` to replay a failure.
#[macro_export]
macro_rules! holo_prop {
    ( #![cases($cases:expr)] $($rest:tt)* ) => {
        $crate::__holo_prop_fns!($cases; $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__holo_prop_fns!(64; $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __holo_prop_fns {
    ( $cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::check::run_prop(
                stringify!($name),
                $cases as u32,
                ( $($gen,)+ ),
                |__holo_prop_input| {
                    let ( $($arg,)+ ) = __holo_prop_input;
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
    )*};
}

/// Property-body assertion: reports to the shrinking runner instead of
/// panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::PropFail::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::check::PropFail::fail(format!($($fmt)+)));
        }
    };
}

/// Property-body equality assertion with Debug output of both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::check::PropFail::fail(format!(
                "assertion failed: `{} == {}`\n    left: {:?}\n   right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::check::PropFail::fail(format!(
                "{}\n    left: {:?}\n   right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Property-body inequality assertion with Debug output of both sides.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::check::PropFail::fail(format!(
                "assertion failed: `{} != {}`\n    both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
}

/// Discard inputs that don't satisfy a precondition; discarded inputs
/// don't count toward the case budget.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::check::PropFail::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = PropRng::new(7);
        let mut b = PropRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = PropRng::new(3);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let f = (-2.0f32..3.0).generate(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let n = collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&n.len()));
        }
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        // Fails for x >= 100; shrinking must land exactly on 100.
        let gen = (0u32..10_000,);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("shrink_to_minimal", 200, gen, |(x,)| {
                if x >= 100 {
                    return Err(PropFail::fail("too big"));
                }
                Ok(())
            });
        }));
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().unwrap().clone(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("minimal input: (100,)"), "got: {msg}");
        assert!(msg.contains("reproduce"), "got: {msg}");
    }

    #[test]
    fn vec_shrinks_toward_empty() {
        let gen = collection::vec(any::<u8>(), 0..64);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("vec_shrink", 200, (gen,), |(v,): (Vec<u8>,)| {
                if !v.is_empty() {
                    return Err(PropFail::fail("non-empty"));
                }
                Ok(())
            });
        }));
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().unwrap().clone(),
            Ok(()) => panic!("property should have failed"),
        };
        // Minimal non-empty vec is a single shrunk element.
        assert!(msg.contains("minimal input: ([0],)"), "got: {msg}");
    }

    #[test]
    fn discard_does_not_consume_cases() {
        // Every odd input is discarded; the property must still complete
        // 64 cases on evens only.
        let mut even_seen = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run_prop("assume_discards", 64, (any::<u32>(),), |(x,)| {
            if x % 2 == 1 {
                return Err(PropFail::Discard);
            }
            counter.set(counter.get() + 1);
            Ok(())
        });
        even_seen += counter.get();
        assert_eq!(even_seen, 64);
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("panic_shrink", 100, (0u32..1000,), |(x,)| {
                assert!(x < 50, "boom at {x}");
                Ok(())
            });
        }));
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().unwrap().clone(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("minimal input: (50,)"), "got: {msg}");
        assert!(msg.contains("panic: boom at 50"), "got: {msg}");
    }

    holo_prop! {
        #![cases(32)]

        /// The macro itself: bindings, multiple generators, assertions.
        fn macro_smoke(a in 0u32..100, b in 0u32..100) {
            prop_assume!(a + b < 200);
            prop_assert!(a + b <= 198, "sum {}", a + b);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a + b + 1, a + b);
        }
    }
}
