//! Totally ordered score wrapper.
//!
//! Scores in the Q System are real values produced by monotone scoring
//! functions (Section 2.1). We need them as keys in priority queues and
//! `BTreeMap`s, so `Score` wraps `f64` with a total order (`total_cmp`),
//! normalizing NaN at construction.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul};

/// A real-valued result score with a total order.
#[derive(Clone, Copy, PartialEq)]
pub struct Score(f64);

impl Score {
    /// The lowest possible score (identity for `max`).
    #[cfg(test)]
    pub(crate) const NEG_INFINITY: Score = Score(f64::NEG_INFINITY);
    /// The highest possible score (identity for `min`).
    pub const INFINITY: Score = Score(f64::INFINITY);
    /// Zero.
    pub const ZERO: Score = Score(0.0);
    /// One.
    #[cfg(test)]
    pub(crate) const ONE: Score = Score(1.0);

    /// Wrap a raw float, normalizing NaN to negative infinity so the total
    /// order never observes NaN.
    #[inline]
    pub fn new(v: f64) -> Score {
        if v.is_nan() {
            Score(f64::NEG_INFINITY)
        } else {
            Score(v)
        }
    }

    /// The raw float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Whether the score is finite (not ±∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Maximum of two scores.
    #[inline]
    pub fn max(self, other: Score) -> Score {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Minimum of two scores.
    #[inline]
    pub fn min(self, other: Score) -> Score {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Score {}

impl PartialOrd for Score {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Score {
    type Output = Score;
    #[inline]
    fn add(self, rhs: Score) -> Score {
        Score::new(self.0 + rhs.0)
    }
}

impl Mul for Score {
    type Output = Score;
    #[inline]
    fn mul(self, rhs: Score) -> Score {
        Score::new(self.0 * rhs.0)
    }
}

impl From<f64> for Score {
    #[inline]
    fn from(v: f64) -> Score {
        Score::new(v)
    }
}

impl fmt::Debug for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_handles_infinities() {
        assert!(Score::NEG_INFINITY < Score::ZERO);
        assert!(Score::ZERO < Score::ONE);
        assert!(Score::ONE < Score::INFINITY);
    }

    #[test]
    fn nan_becomes_neg_infinity() {
        assert_eq!(Score::new(f64::NAN), Score::NEG_INFINITY);
    }

    #[test]
    fn arithmetic_and_minmax() {
        let a = Score::new(0.5);
        let b = Score::new(0.25);
        assert_eq!((a + b).get(), 0.75);
        assert_eq!((a * b).get(), 0.125);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = [Score::new(0.3), Score::new(0.9), Score::new(0.1)];
        v.sort();
        assert_eq!(v[0].get(), 0.1);
        assert_eq!(v[2].get(), 0.9);
    }
}
