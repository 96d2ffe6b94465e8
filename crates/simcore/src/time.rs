//! Virtual simulation time.
//!
//! Time is a non-negative, finite `f64` wrapped in [`SimTime`] so it can be
//! totally ordered (and therefore used as a heap key). The paper's models are
//! expressed in dimensionless "time units" (task inter-arrival mean is five
//! time units); we keep that convention.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in simulation time units.
///
/// Invariant: the inner value is finite and non-negative. All constructors
/// enforce this, which is what makes the `Ord` implementation sound. The
/// default is [`SimTime::ZERO`].
#[derive(Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

/// A span of virtual time, in simulation time units.
///
/// Invariant: finite and non-negative.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// The latest representable instant; no event can fire after it.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time point from raw units.
    ///
    /// # Panics
    /// Panics if `t` is negative, NaN or infinite.
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "SimTime must be finite and non-negative, got {t}"
        );
        SimTime(t)
    }

    /// Raw value in time units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Span from `earlier` to `self`, saturating at zero if `earlier` is
    /// actually later (guards against floating-point jitter at equal times).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from raw units.
    ///
    /// # Panics
    /// Panics if `d` is negative, NaN or infinite.
    #[inline]
    pub fn new(d: f64) -> Self {
        assert!(
            d.is_finite() && d >= 0.0,
            "SimDuration must be finite and non-negative, got {d}"
        );
        SimDuration(d)
    }

    /// Raw value in time units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Scales the duration by a non-negative factor.
    #[inline]
    pub fn scale(self, factor: f64) -> SimDuration {
        SimDuration::new(self.0 * factor)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Sound: construction guarantees the value is never NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Eq for SimDuration {}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::new(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.4}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.4}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn since_saturates_at_zero() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a).as_f64(), 1.0);
    }

    #[test]
    fn add_duration_advances_time() {
        let mut t = SimTime::ZERO;
        t += SimDuration::new(5.0);
        assert_eq!(t.as_f64(), 5.0);
        assert_eq!((t + SimDuration::new(2.5)).as_f64(), 7.5);
    }

    #[test]
    fn duration_scale() {
        assert_eq!(SimDuration::new(4.0).scale(0.25).as_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_duration_rejected() {
        let _ = SimDuration::new(f64::NAN);
    }

    #[test]
    fn sub_yields_duration() {
        let a = SimTime::new(3.0);
        let b = SimTime::new(10.0);
        assert_eq!((b - a).as_f64(), 7.0);
    }
}
