//! Value-generation strategies: the shim's analogue of `proptest::strategy`.

use crate::shim::CaseRng;
use std::ops::Range;

/// Something that can generate values for a property's arguments.
///
/// Mirrors `proptest::strategy::Strategy` closely enough that test code
/// written against the real crate (`impl Strategy<Value = T>` returns,
/// `.prop_map`) compiles unchanged.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut CaseRng) -> Self::Value;

    /// Transform generated values with a function.
    fn prop_map<O, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, map }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    map: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut CaseRng) -> O {
        (self.map)(self.inner.generate(rng))
    }
}

macro_rules! unsigned_range_strategy {
    ($($ty:ty),*) => {
        $(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut CaseRng) -> $ty {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = u64::from(self.end as u64 - self.start as u64);
                    self.start + rng.next_below(span) as $ty
                }
            }
        )*
    };
}

unsigned_range_strategy!(u8, u16, u32, u64);

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut CaseRng) -> usize {
        assert!(self.start < self.end, "empty strategy range");
        let span = (self.end - self.start) as u64;
        self.start + rng.next_below(span) as usize
    }
}

macro_rules! signed_range_strategy {
    ($($ty:ty),*) => {
        $(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut CaseRng) -> $ty {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.next_below(span) as $ty)
                }
            }
        )*
    };
}

signed_range_strategy!(i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut CaseRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let value = self.start + rng.next_f64() * (self.end - self.start);
        // Rounding can land exactly on `end`; fold back inside.
        if value >= self.end {
            self.start
        } else {
            value
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $index:tt),+))*) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut CaseRng) -> Self::Value {
                    ($(self.$index.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Strategy namespace mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{CaseRng, Strategy};
        use std::ops::Range;

        /// Length specification for [`vec()`]: an exact length or a range.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            min: usize,
            max_exclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(exact: usize) -> Self {
                SizeRange {
                    min: exact,
                    max_exclusive: exact + 1,
                }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(range: Range<usize>) -> Self {
                assert!(range.start < range.end, "empty vec length range");
                SizeRange {
                    min: range.start,
                    max_exclusive: range.end,
                }
            }
        }

        /// Generate `Vec`s whose elements come from `element` and whose
        /// length falls in `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// The result of [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut CaseRng) -> Vec<S::Value> {
                let span = (self.size.max_exclusive - self.size.min) as u64;
                let len = self.size.min + rng.next_below(span.max(1)) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Choosing among explicit values.
    pub mod sample {
        use super::super::{CaseRng, Strategy};

        /// Uniformly select one of the given values.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        /// The result of [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut CaseRng) -> T {
                self.options[rng.next_below(self.options.len() as u64) as usize].clone()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::{CaseRng, Strategy};

        /// Either boolean with equal probability.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The uniform boolean strategy.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;

            fn generate(&self, rng: &mut CaseRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}
