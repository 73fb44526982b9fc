//! Arrival processes: homogeneous Poisson, piecewise-constant rate
//! curves, and thinning-based inhomogeneous sampling.
//!
//! Service requests "may arrive dynamically" (§5). The original F2-style
//! sweeps modelled them as a homogeneous Poisson process; the open-loop
//! load engine also needs time-varying offered load (diurnal curves,
//! ramps), which the literature simulates either exactly per
//! constant-rate segment ([`PiecewiseRate`]) or by Lewis–Shedler thinning
//! of a dominating homogeneous envelope ([`ThinnedProcess`]) for
//! arbitrary rate functions.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use qosc_netsim::{SimDuration, SimTime};

/// `rate` when finite and positive, else zero: gaps drawn at a NaN or
/// infinite rate all round to zero and never reach the window's end.
fn arrival_rate(rate: f64) -> f64 {
    if rate.is_finite() && rate > 0.0 {
        rate
    } else {
        0.0
    }
}

/// A point process generating service-arrival instants.
///
/// Object-safe (takes the workspace's one concrete RNG) so drivers and
/// sweeps can store heterogeneous processes behind `&dyn`.
pub trait ArrivalProcess {
    /// Samples arrival instants in `[start, end)`, non-decreasing.
    fn sample_until(&self, start: SimTime, end: SimTime, rng: &mut ChaCha8Rng) -> Vec<SimTime>;

    /// Expected number of arrivals in `[start, end)` — the integral of
    /// the rate function over the window.
    fn expected_arrivals(&self, start: SimTime, end: SimTime) -> f64;
}

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
        let rate = arrival_rate(self.rate_per_s);
        if rate == 0.0 {
            return None;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        Some(SimDuration::secs_f64(-u.ln() / rate))
    }

    /// Samples arrival instants from `start` until `end` (exclusive).
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

impl ArrivalProcess for PoissonArrivals {
    fn sample_until(&self, start: SimTime, end: SimTime, rng: &mut ChaCha8Rng) -> Vec<SimTime> {
        PoissonArrivals::sample_until(self, start, end, rng)
    }

    fn expected_arrivals(&self, start: SimTime, end: SimTime) -> f64 {
        arrival_rate(self.rate_per_s) * end.since(start).as_secs_f64()
    }
}

/// A periodic piecewise-constant rate curve: segments of `(length, rate)`
/// repeated forever. Sampling is *exact* (a homogeneous Poisson process
/// per constant-rate stretch — no envelope, no rejection), which makes
/// this the reference the thinning sampler is property-tested against.
/// A segment whose rate is not finite and positive counts as zero.
#[derive(Debug, Clone)]
pub struct PiecewiseRate {
    segments: Vec<(SimDuration, f64)>,
    period: SimDuration,
}

impl PiecewiseRate {
    /// Builds a curve from `(segment length, arrivals/second)` pairs.
    ///
    /// # Panics
    /// If `segments` is empty or the total length is zero.
    pub fn new(segments: Vec<(SimDuration, f64)>) -> Self {
        assert!(
            !segments.is_empty(),
            "rate curve needs at least one segment"
        );
        let period = segments
            .iter()
            .fold(SimDuration::ZERO, |acc, (len, _)| acc + *len);
        assert!(period > SimDuration::ZERO, "rate curve period must be > 0");
        Self { segments, period }
    }

    /// A diurnal preset: 24 equal segments tracing a raised cosine from
    /// `trough_per_s` (start of the period) up to `peak_per_s`
    /// (mid-period) and back.
    pub fn diurnal(trough_per_s: f64, peak_per_s: f64, period: SimDuration) -> Self {
        const N: u64 = 24;
        let seg = SimDuration::micros((period.as_micros() / N).max(1));
        let segments = (0..N)
            .map(|i| {
                let phase = (i as f64 + 0.5) / N as f64;
                let x = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
                (seg, trough_per_s + (peak_per_s - trough_per_s) * x)
            })
            .collect();
        Self::new(segments)
    }

    /// One full cycle of the curve.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Instantaneous rate at `t` (the curve repeats with [`Self::period`]).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mut off = t.as_micros() % self.period.as_micros();
        for (len, rate) in &self.segments {
            if off < len.as_micros() {
                return *rate;
            }
            off -= len.as_micros();
        }
        // Unreachable: off < period = Σ lengths.
        self.segments[self.segments.len() - 1].1
    }

    /// The curve's maximum rate — a valid thinning envelope.
    pub fn max_rate(&self) -> f64 {
        self.segments
            .iter()
            .fold(0.0, |m, &(_, r)| m.max(arrival_rate(r)))
    }

    /// Integral of the rate over `[SimTime::ZERO, t)`, in expected
    /// arrivals.
    fn integral_from_zero(&self, t: SimTime) -> f64 {
        let per_period: f64 = self
            .segments
            .iter()
            .map(|(len, r)| len.as_secs_f64() * arrival_rate(*r))
            .sum();
        let us = t.as_micros();
        let full = (us / self.period.as_micros()) as f64 * per_period;
        let mut off = us % self.period.as_micros();
        let mut partial = 0.0;
        for (len, r) in &self.segments {
            let take = off.min(len.as_micros());
            partial += take as f64 / 1e6 * arrival_rate(*r);
            off -= take;
            if off == 0 {
                break;
            }
        }
        full + partial
    }
}

impl ArrivalProcess for PiecewiseRate {
    /// Exact sampling: walk the constant-rate stretches covering
    /// `[start, end)` and sample exponential gaps at each stretch's rate.
    /// Restarting at each boundary is exact by memorylessness.
    fn sample_until(&self, start: SimTime, end: SimTime, rng: &mut ChaCha8Rng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            // Locate the stretch containing `t` and its absolute end.
            let mut off = t.as_micros() % self.period.as_micros();
            let mut rate = 0.0;
            let mut remaining = 0u64;
            for (len, r) in &self.segments {
                if off < len.as_micros() {
                    rate = arrival_rate(*r);
                    remaining = len.as_micros() - off;
                    break;
                }
                off -= len.as_micros();
            }
            let stretch_end = (t + SimDuration::micros(remaining)).min(end);
            if rate == 0.0 {
                t = stretch_end;
                continue;
            }
            let mut cur = t;
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                cur += SimDuration::secs_f64(-u.ln() / rate);
                if cur >= stretch_end {
                    break;
                }
                out.push(cur);
            }
            t = stretch_end;
        }
        out
    }

    fn expected_arrivals(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.integral_from_zero(end) - self.integral_from_zero(start)
    }
}

/// Lewis–Shedler thinning: sample a homogeneous envelope process at
/// `envelope_per_s` and accept each arrival `t` with probability
/// `rate(t) / envelope_per_s`. Exact for any rate function bounded by the
/// envelope; rates above the envelope are clipped (the caller must supply
/// a true upper bound, e.g. [`PiecewiseRate::max_rate`]).
/// An envelope that is not finite and positive samples no arrivals; a
/// NaN `rate(t)` accepts nothing.
pub struct ThinnedProcess<F: Fn(SimTime) -> f64> {
    rate: F,
    envelope_per_s: f64,
}

impl<F: Fn(SimTime) -> f64> ThinnedProcess<F> {
    /// Creates a thinning sampler for `rate` under the given envelope.
    pub fn new(envelope_per_s: f64, rate: F) -> Self {
        Self {
            rate,
            envelope_per_s,
        }
    }

    /// The instantaneous rate at `t` as the sampler sees it (clipped to
    /// the envelope; NaN reads as zero).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let envelope = arrival_rate(self.envelope_per_s);
        (self.rate)(t).max(0.0).min(envelope)
    }

    /// Samples both the thinned arrivals and the envelope arrivals they
    /// were selected from (the accepted set is a subset of the envelope —
    /// the property the `arrival_props` tests pin).
    pub fn sample_with_envelope(
        &self,
        start: SimTime,
        end: SimTime,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<SimTime>, Vec<SimTime>) {
        let envelope = PoissonArrivals::new(self.envelope_per_s).sample_until(start, end, rng);
        let mut accepted = Vec::new();
        // Only a finite positive envelope draws arrivals: p is in [0, 1].
        for &t in &envelope {
            if rng.gen_bool(self.rate_at(t) / self.envelope_per_s) {
                accepted.push(t);
            }
        }
        (accepted, envelope)
    }
}

impl<F: Fn(SimTime) -> f64> ArrivalProcess for ThinnedProcess<F> {
    fn sample_until(&self, start: SimTime, end: SimTime, rng: &mut ChaCha8Rng) -> Vec<SimTime> {
        self.sample_with_envelope(start, end, rng).0
    }

    /// Midpoint-rule numeric integral of the (clipped) rate — the rate is
    /// an opaque closure, so this is approximate by construction; 4096
    /// panels keep the error far below sampling noise for reporting.
    fn expected_arrivals(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        const PANELS: u64 = 4096;
        let span = end.since(start).as_micros();
        let mut sum = 0.0;
        for i in 0..PANELS {
            let mid = start + SimDuration::micros(span * (2 * i + 1) / (2 * PANELS));
            sum += self.rate_at(mid);
        }
        sum * (span as f64 / 1e6) / PANELS as f64
    }
}

/// A diurnal inhomogeneous process via thinning: a raised-cosine
/// [`PiecewiseRate::diurnal`] curve sampled under its own max-rate
/// envelope. The go-to preset for daily-traffic saturation studies.
pub fn diurnal_thinned(
    trough_per_s: f64,
    peak_per_s: f64,
    period: SimDuration,
) -> ThinnedProcess<impl Fn(SimTime) -> f64> {
    let curve = PiecewiseRate::diurnal(trough_per_s, peak_per_s, period);
    let envelope = curve.max_rate();
    ThinnedProcess::new(envelope, move |t| curve.rate_at(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_rate_is_approximately_honoured() {
        let p = PoissonArrivals::new(5.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let arrivals =
            PoissonArrivals::sample_until(&p, SimTime::ZERO, SimTime(100_000_000), &mut rng);
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
        assert!(
            PoissonArrivals::sample_until(&p, SimTime::ZERO, SimTime(10_000_000), &mut rng)
                .is_empty()
        );
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
        assert!(PoissonArrivals::sample_until(&p, late, SimTime(u64::MAX), &mut rng).is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = PoissonArrivals::new(2.0);
        let a = PoissonArrivals::sample_until(
            &p,
            SimTime::ZERO,
            SimTime(10_000_000),
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        let b = PoissonArrivals::sample_until(
            &p,
            SimTime::ZERO,
            SimTime(10_000_000),
            &mut ChaCha8Rng::seed_from_u64(3),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn piecewise_rate_lookup_and_integral() {
        let curve = PiecewiseRate::new(vec![
            (SimDuration::secs(10), 2.0),
            (SimDuration::secs(10), 8.0),
        ]);
        assert_eq!(curve.period(), SimDuration::secs(20));
        assert_eq!(curve.rate_at(SimTime(5_000_000)), 2.0);
        assert_eq!(curve.rate_at(SimTime(15_000_000)), 8.0);
        // Periodicity.
        assert_eq!(curve.rate_at(SimTime(25_000_000)), 2.0);
        assert_eq!(curve.max_rate(), 8.0);
        // Integral: 10 s · 2 + 5 s · 8 = 60 over [0, 15 s).
        let e = curve.expected_arrivals(SimTime::ZERO, SimTime(15_000_000));
        assert!((e - 60.0).abs() < 1e-9, "expected 60, got {e}");
        // One full period + 5 s.
        let e = curve.expected_arrivals(SimTime::ZERO, SimTime(25_000_000));
        assert!((e - 110.0).abs() < 1e-9, "expected 110, got {e}");
    }

    #[test]
    fn piecewise_sampler_tracks_the_curve_per_segment() {
        let curve = PiecewiseRate::new(vec![
            (SimDuration::secs(50), 1.0),
            (SimDuration::secs(50), 9.0),
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let arrivals =
            ArrivalProcess::sample_until(&curve, SimTime::ZERO, SimTime(100_000_000), &mut rng);
        let low = arrivals
            .iter()
            .filter(|t| t.as_micros() < 50_000_000)
            .count();
        let high = arrivals.len() - low;
        // ~50 vs ~450 expected; the high segment must clearly dominate.
        assert!(high > 4 * low, "low {low}, high {high}");
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn diurnal_preset_peaks_mid_period() {
        let curve = PiecewiseRate::diurnal(1.0, 25.0, SimDuration::secs(240));
        let trough = curve.rate_at(SimTime::ZERO);
        let peak = curve.rate_at(SimTime(120_000_000));
        assert!(trough < 2.0, "trough {trough}");
        assert!(peak > 24.0, "peak {peak}");
        assert!(curve.max_rate() <= 25.0 + 1e-9);
    }

    #[test]
    fn thinned_process_is_deterministic_and_bounded() {
        let p = diurnal_thinned(2.0, 20.0, SimDuration::secs(60));
        let sample = |seed: u64| {
            ArrivalProcess::sample_until(
                &p,
                SimTime::ZERO,
                SimTime(60_000_000),
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
        };
        assert_eq!(sample(5), sample(5));
        let (accepted, envelope) = p.sample_with_envelope(
            SimTime::ZERO,
            SimTime(60_000_000),
            &mut ChaCha8Rng::seed_from_u64(5),
        );
        assert!(accepted.len() <= envelope.len());
    }
}
