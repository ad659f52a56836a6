//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment for this repository has no access to a crates
//! registry, so this crate re-implements the subset of the proptest API the
//! workspace's property tests use, with the same names and shapes:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`], [`prop_oneof!`],
//! * the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! * strategies for integer/float ranges, tuples, [`strategy::Just`], booleans,
//!   [`collection::vec`], and a permissive `&str` "regex" strategy that
//!   produces arbitrary unicode text.
//!
//! Differences from the real crate: cases are generated from a fixed
//! per-test seed (fully deterministic runs), there is **no shrinking** (a
//! failing case is reported as-is), and regex string strategies ignore the
//! pattern beyond producing arbitrary printable-ish text. Those trade-offs
//! keep the dependency surface at zero while preserving the tests' intent.

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — collection strategies.
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec`s of values from `element`, with a length drawn
    /// from `size` (a fixed count or a range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `proptest::bool` — boolean strategies.
pub mod bool {
    /// Generates `true` or `false` uniformly.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl crate::strategy::Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut crate::test_runner::TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `proptest::num` is not needed by this workspace; ranges implement
/// [`strategy::Strategy`] directly.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// The test macro: each `fn name(bindings in strategies) { body }` becomes a
/// test that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            while passed < config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        if rejected > config.cases.saturating_mul(256).max(4096) {
                            panic!(
                                "proptest: too many rejected cases ({} rejects for {} passes)",
                                rejected, passed
                            );
                        }
                    }
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest case failed: {}", msg);
                    }
                }
            }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a proptest body, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a proptest body.
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

/// Discards the current case (it is regenerated, not counted as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Chooses uniformly between the listed strategies (all must yield the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(::std::boxed::Box::new($strat)
                as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}
