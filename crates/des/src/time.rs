//! Simulation time: integer microseconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in whole microseconds.
///
/// Arithmetic is checked: overflow and negative durations panic rather
/// than wrap, since either indicates a simulation bug.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// From whole milliseconds.
    ///
    /// # Panics
    /// Panics on overflow.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000) {
            Some(us) => Self(us),
            None => panic!("SimTime overflow"),
        }
    }

    /// From whole seconds.
    ///
    /// # Panics
    /// Panics on overflow.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000) {
            Some(us) => Self(us),
            None => panic!("SimTime overflow"),
        }
    }

    /// From fractional seconds, rounding to the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or too large.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        let us = (s * 1e6).round();
        assert!(us <= u64::MAX as f64, "SimTime overflow");
        Self(us as u64)
    }

    /// Whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds (lossy for very large times).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction (`0` floor), for elapsed-time calculations
    /// where clock skew is acceptable.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    /// Scale a duration by an integer factor.
    ///
    /// # Panics
    /// Panics on overflow.
    #[inline]
    fn mul(self, factor: u64) -> Self {
        Self(self.0.checked_mul(factor).expect("SimTime overflow"))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics if `rhs > self` (negative durations are bugs).
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a + b, SimTime::from_millis(14));
        assert_eq!(a - b, SimTime::from_millis(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b * 3, SimTime::from_millis(12));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(14));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn negative_duration_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let _ = SimTime::MAX + SimTime::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_micros(12).to_string(), "12µs");
        assert_eq!(SimTime::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimTime::from_micros(1_250_000).to_string(), "1.250s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
