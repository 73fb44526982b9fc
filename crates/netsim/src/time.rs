//! Simulated time.
//!
//! [`SimTime`] is an absolute instant in simulated microseconds;
//! [`SimDuration`] a non-negative span. Microsecond resolution comfortably
//! covers both radio latencies (hundreds of µs) and negotiation deadlines
//! (hundreds of ms) without floating-point drift — the event queue orders
//! on integers only, which keeps runs bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant (µs since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A non-negative span of simulated time (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since epoch, as a float (for reporting only).
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From whole milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From fractional seconds (rounds to µs; negative clamps to zero).
    pub fn secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::millis(1), SimDuration::micros(1000));
        assert_eq!(SimDuration::secs(1), SimDuration::millis(1000));
        assert_eq!(SimDuration::secs_f64(0.5), SimDuration::micros(500_000));
        assert_eq!(SimDuration::secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::millis(3);
        assert_eq!(t.as_micros(), 3000);
        assert_eq!(
            (t + SimDuration::millis(2)).since(t),
            SimDuration::millis(2)
        );
        // Saturating difference never panics.
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
        assert_eq!(t - SimTime::ZERO, SimDuration::millis(3));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime(5) < SimTime(6));
        assert_eq!(SimTime(1_500_000).to_string(), "1.500000s");
    }
}
