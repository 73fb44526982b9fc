//! The arrival process: a homogeneous Poisson stream.
//!
//! Service requests "may arrive dynamically" (§5). Every experiment and
//! benchmark workload models them as one homogeneous Poisson process,
//! sampled here as exponential inter-arrival gaps.

use rand::Rng;

use qosc_netsim::{SimDuration, SimTime};

/// Exponential inter-arrival sampler (homogeneous Poisson process). A
/// rate that is not finite and positive samples no arrivals.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    /// Mean arrivals per simulated second.
    pub rate_per_s: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given rate (arrivals/second).
    pub fn new(rate_per_s: f64) -> Self {
        Self { rate_per_s }
    }

    /// Samples the next inter-arrival gap; `None` when the rate is not
    /// finite and positive: no arrival ever comes.
    ///
    /// The explicit `None` replaces the old "huge duration" sentinel
    /// (`SimDuration::secs(u64::MAX / 2_000_000)`), which relied on
    /// saturating `SimTime` addition to behave when added to a late
    /// instant — callers summing gaps themselves had no such safety net.
    pub fn next_gap(&self, rng: &mut impl Rng) -> Option<SimDuration> {
        // Gaps drawn at a NaN or infinite rate would all round to zero
        // and never reach the window's end.
        let rate = self.rate_per_s;
        if !(rate.is_finite() && rate > 0.0) {
            return None;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        Some(SimDuration::secs_f64(-u.ln() / rate))
    }

    /// Samples arrival instants from `start` until `end` (exclusive).
    ///
    /// The window is not capped: a finite rate so large that every gap
    /// rounds to 0 µs (from ~1e8/s up) never advances and keeps growing
    /// the result until memory runs out.
    pub fn sample_until(&self, start: SimTime, end: SimTime, rng: &mut impl Rng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = start;
        while let Some(gap) = self.next_gap(rng) {
            t += gap;
            if t >= end {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mean_rate_is_approximately_honoured() {
        let p = PoissonArrivals::new(5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let arrivals = p.sample_until(SimTime::ZERO, SimTime(100_000_000), &mut rng);
        // 5/s over 100 s → ~500 arrivals; accept ±20 %.
        assert!(
            (400..=600).contains(&arrivals.len()),
            "got {}",
            arrivals.len()
        );
        // Strictly increasing.
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn zero_rate_never_arrives() {
        let p = PoissonArrivals::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(p.next_gap(&mut rng).is_none());
        assert!(p
            .sample_until(SimTime::ZERO, SimTime(10_000_000), &mut rng)
            .is_empty());
    }

    /// Regression for the old sentinel `SimDuration::secs(u64::MAX /
    /// 2_000_000)`: a zero-rate process sampled from an instant near the
    /// end of time must return no arrivals without overflowing — the
    /// `Option` gap makes "never" explicit instead of relying on
    /// saturating adds downstream.
    #[test]
    fn zero_rate_near_the_end_of_time_is_safe() {
        let p = PoissonArrivals::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let late = SimTime(u64::MAX - 10);
        assert!(p.sample_until(late, SimTime(u64::MAX), &mut rng).is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = PoissonArrivals::new(2.0);
        let sample = || {
            p.sample_until(
                SimTime::ZERO,
                SimTime(10_000_000),
                &mut ChaCha8Rng::seed_from_u64(3),
            )
        };
        assert_eq!(sample(), sample());
    }
}
