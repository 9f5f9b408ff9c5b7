#![warn(missing_docs)]

//! A std-only, offline property-testing harness with a `proptest`-shaped
//! surface.
//!
//! The workspace builds in environments with **no registry access**, so the
//! real `proptest` crate cannot be downloaded. Rather than gating the
//! property tests out of the tier-1 suite, this crate reimplements the
//! subset of the `proptest` API those tests use — the [`proptest!`] macro,
//! [`Strategy`](strategy::Strategy) with `prop_map`, ranges, tuples, `prop::collection::vec`,
//! `prop::sample::select`, `prop::bool::ANY`, and `ProptestConfig` — on top
//! of a deterministic SplitMix64 generator, so the properties keep running
//! in every offline `cargo test`.
//!
//! Differences from the real engine, by design:
//!
//! * no shrinking — a failing case reports its case index and base seed so
//!   it can be replayed deterministically;
//! * cases default to 64 per property (override with the `PROPTEST_CASES`
//!   environment variable or `ProptestConfig::with_cases`);
//! * generation is uniform rather than bias-weighted.
//!
//! Seeds derive from the property's module path and name, so runs are
//! reproducible across processes without any persisted regression files.

pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Internal runtime used by the [`proptest!`] macro expansion.
pub mod shim {
    /// Deterministic per-case generator: SplitMix64 over a (name, case)
    /// derived seed.
    #[derive(Debug, Clone)]
    pub struct CaseRng {
        state: u64,
    }

    impl CaseRng {
        /// Generator for `case` of the property with `base_seed`.
        pub fn new(base_seed: u64, case: u32) -> Self {
            // Decorrelate consecutive cases with a Weyl step.
            CaseRng {
                state: base_seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn next_below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Stable FNV-1a seed for a property name.
    pub fn seed_for(name: &str) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Panic payload used by `prop_assume!` to skip a case.
    #[derive(Debug)]
    pub struct Assume;
}

/// Define property tests: a proptest-compatible macro.
///
/// Supports the two shapes the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     /// doc comment
///     #[test]
///     fn property(x in 0u64..100, flag in prop::bool::ANY) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config); $($rest)*);
    };
    (@impl ($config:expr);
        $($(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strategy:expr),* $(,)? ) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let cases = config.resolved_cases();
                let base_seed =
                    $crate::shim::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    let mut case_rng = $crate::shim::CaseRng::new(base_seed, case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut case_rng);
                    )*
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body }),
                    );
                    if let Err(panic) = outcome {
                        if panic.downcast_ref::<$crate::shim::Assume>().is_some() {
                            continue; // prop_assume! rejected the case
                        }
                        eprintln!(
                            "[proptest shim] property {} failed at case {case} of {cases} \
                             (base seed {base_seed:#x})",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()); $($rest)*);
    };
}

/// Assert inside a property (forwards to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Assert equality inside a property (forwards to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Assert inequality inside a property (forwards to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Skip the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            ::std::panic::panic_any($crate::shim::Assume);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5, z in -2i64..3) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((-2..3).contains(&z));
        }

        #[test]
        fn floats_stay_in_bounds(x in 0.25f64..0.75) {
            prop_assert!((0.25..0.75).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_the_range(v in prop::collection::vec(0u64..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn tuples_and_map_compose(
            pair in (0u32..4, prop::bool::ANY),
            doubled in (0u64..50).prop_map(|x| x * 2),
        ) {
            prop_assert!(pair.0 < 4);
            prop_assert_eq!(doubled % 2, 0);
        }

        #[test]
        fn select_picks_members(choice in prop::sample::select(vec![2u32, 4, 8])) {
            prop_assert!([2u32, 4, 8].contains(&choice));
        }

        #[test]
        fn assume_skips_cases(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn explicit_config_is_honoured(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name_and_case() {
        let mut a = crate::shim::CaseRng::new(crate::shim::seed_for("some::prop"), 3);
        let mut b = crate::shim::CaseRng::new(crate::shim::seed_for("some::prop"), 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::shim::CaseRng::new(crate::shim::seed_for("some::prop"), 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
