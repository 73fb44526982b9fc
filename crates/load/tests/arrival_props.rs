//! Hostile rates on the arrival sampler: a rate that is not finite and
//! positive samples nothing and returns at once.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_load::PoissonArrivals;
use qosc_netsim::SimTime;

/// NaN, ±inf, zero and negative rates sample no arrivals: before, NaN
/// and +inf rounded every Poisson gap to zero (an endless loop).
#[test]
fn hostile_rates_sample_nothing_and_return() {
    let end = SimTime(30_000_000);
    let rng = || ChaCha8Rng::seed_from_u64(1);
    for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0] {
        let poisson = PoissonArrivals::new(rate);
        assert!(poisson.next_gap(&mut rng()).is_none(), "rate {rate}");
        assert!(poisson
            .sample_until(SimTime::ZERO, end, &mut rng())
            .is_empty());
    }
}
