//! `proptest::collection` subset: [`vec()`].

use crate::{Strategy, TestRng};
use std::ops::{Range, RangeInclusive};

/// Inclusive bounds on a generated collection's size.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max_incl: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_incl: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max_incl: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max_incl: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_incl - self.size.min + 1) as u64;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
