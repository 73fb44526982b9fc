//! Statistical and structural properties of the arrival samplers.
//!
//! The thinning sampler is pinned two ways: structurally (accepted
//! arrivals are a subset of the envelope process they were thinned
//! from) and statistically (on random piecewise-constant curves its
//! empirical count tracks the exact integral of the rate within a
//! Poisson-noise tolerance — the same integral the exact per-segment
//! sampler is held to). A rate that is not finite and positive samples
//! nothing, on every sampler, and returns at once.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_load::{ArrivalProcess, PiecewiseRate, PoissonArrivals, ThinnedProcess};
use qosc_netsim::{SimDuration, SimTime};

/// Builds a random piecewise curve from drawn `(len_s, rate_dhz)` pairs
/// (rates in deci-hertz so the strategy stays integral).
fn curve_of(segments: &[(u64, u64)]) -> PiecewiseRate {
    PiecewiseRate::new(
        segments
            .iter()
            .map(|&(len_s, rate_dhz)| (SimDuration::secs(5 + len_s), rate_dhz as f64 / 10.0))
            .collect(),
    )
}

/// |n − E| within 5 sigmas of Poisson noise (+ slack for tiny E).
fn close_to_poisson_mean(n: usize, expected: f64) -> bool {
    (n as f64 - expected).abs() <= 5.0 * expected.sqrt() + 10.0
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The thinned sampler's empirical arrival count matches the exact
    /// integral of a random piecewise curve, sampled under the curve's
    /// own max-rate envelope — and so does the exact per-segment
    /// sampler, over the same window.
    #[test]
    fn thinning_tracks_the_integrated_rate_curve(
        seed in 0u64..(1 << 48),
        segments in proptest::collection::vec((0u64..30, 0u64..80), 1..5),
    ) {
        let curve = curve_of(&segments);
        let expected = curve.expected_arrivals(SimTime::ZERO, SimTime(200_000_000));
        let exact = ArrivalProcess::sample_until(
            &curve,
            SimTime::ZERO,
            SimTime(200_000_000),
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        prop_assert!(
            close_to_poisson_mean(exact.len(), expected),
            "exact sampler: {} arrivals vs expected {expected}", exact.len()
        );

        let thinned = {
            let c = curve.clone();
            ThinnedProcess::new(curve.max_rate(), move |t| c.rate_at(t))
        };
        // The numeric integral must agree with the curve's closed form.
        let numeric = thinned.expected_arrivals(SimTime::ZERO, SimTime(200_000_000));
        prop_assert!(
            (numeric - expected).abs() <= expected * 0.02 + 1.0,
            "numeric integral {numeric} vs exact {expected}"
        );
        let accepted = ArrivalProcess::sample_until(
            &thinned,
            SimTime::ZERO,
            SimTime(200_000_000),
            &mut ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE),
        );
        prop_assert!(
            close_to_poisson_mean(accepted.len(), expected),
            "thinned sampler: {} arrivals vs expected {expected}", accepted.len()
        );
    }

    /// Thinning only ever removes arrivals: the accepted set is a
    /// subsequence of the envelope process, and both stay inside the
    /// sampling window.
    #[test]
    fn thinned_arrivals_are_a_subset_of_the_envelope(
        seed in 0u64..(1 << 48),
        segments in proptest::collection::vec((0u64..20, 0u64..60), 1..4),
    ) {
        let curve = curve_of(&segments);
        let envelope_rate = curve.max_rate();
        let thinned = ThinnedProcess::new(envelope_rate, move |t| curve.rate_at(t));
        let (accepted, envelope) = thinned.sample_with_envelope(
            SimTime(3_000_000),
            SimTime(120_000_000),
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        // Subsequence check: every accepted instant appears in the
        // envelope, in order.
        let mut env = envelope.iter();
        for t in &accepted {
            prop_assert!(
                env.any(|e| e == t),
                "accepted arrival {t:?} not drawn from the envelope"
            );
        }
        for t in accepted.iter().chain(envelope.iter()) {
            prop_assert!(*t >= SimTime(3_000_000) && *t < SimTime(120_000_000));
        }
        // Sanity: the envelope itself is a plain Poisson process at the
        // envelope rate.
        let expected_env = PoissonArrivals::new(envelope_rate)
            .expected_arrivals(SimTime(3_000_000), SimTime(120_000_000));
        prop_assert!(close_to_poisson_mean(envelope.len(), expected_env));
    }
}

/// NaN, ±inf, zero and negative rates sample no arrivals: before, NaN
/// and +inf rounded every Poisson gap to zero (an endless loop) and a
/// NaN thinning ratio panicked in `gen_bool`.
#[test]
fn hostile_rates_sample_nothing_and_return() {
    let end = SimTime(30_000_000);
    let rng = || ChaCha8Rng::seed_from_u64(1);
    let secs = SimDuration::secs;
    for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0] {
        let poisson = PoissonArrivals::new(rate);
        assert!(poisson.next_gap(&mut rng()).is_none(), "rate {rate}");
        assert!(poisson
            .sample_until(SimTime::ZERO, end, &mut rng())
            .is_empty());
        assert_eq!(poisson.expected_arrivals(SimTime::ZERO, end), 0.0);

        // The hostile stretch is silent; the sane ones around it sample.
        let curve = PiecewiseRate::new(vec![(secs(10), 2.0), (secs(10), rate), (secs(10), 2.0)]);
        let arrivals = ArrivalProcess::sample_until(&curve, SimTime::ZERO, end, &mut rng());
        assert!(!arrivals.is_empty());
        assert!(
            arrivals
                .iter()
                .all(|t| !(SimTime(10_000_000)..SimTime(20_000_000)).contains(t)),
            "rate {rate} sampled inside its stretch"
        );
        assert_eq!(curve.max_rate(), 2.0);
        let expected = curve.expected_arrivals(SimTime::ZERO, end);
        assert!((expected - 40.0).abs() < 1e-9, "rate {rate}: {expected}");
        let silent = PiecewiseRate::new(vec![(secs(10), rate)]);
        assert!(ArrivalProcess::sample_until(&silent, SimTime::ZERO, end, &mut rng()).is_empty());

        // A hostile envelope samples nothing at all.
        let envelope = ThinnedProcess::new(rate, |_| 5.0);
        assert!(ArrivalProcess::sample_until(&envelope, SimTime::ZERO, end, &mut rng()).is_empty());
        assert_eq!(envelope.expected_arrivals(SimTime::ZERO, end), 0.0);

        // A hostile rate under a sane envelope accepts nothing, except
        // +inf, which is clipped to the envelope and accepts everything.
        let thinned = ThinnedProcess::new(5.0, move |_| rate);
        let (accepted, drawn) = thinned.sample_with_envelope(SimTime::ZERO, end, &mut rng());
        assert!(!drawn.is_empty());
        if rate == f64::INFINITY {
            assert_eq!(accepted, drawn);
        } else {
            assert!(accepted.is_empty(), "rate {rate} accepted {accepted:?}");
        }
    }
}
