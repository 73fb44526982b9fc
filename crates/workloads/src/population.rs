//! Heterogeneous device populations (paper §2).
//!
//! "Such an environment is expected to be heterogeneous, consisting of
//! nodes with several resource capabilities." A [`PopulationConfig`] draws
//! node profiles from a device-class mix with per-node capacity jitter, so
//! no two laptops are identical — the §1 motivation ("more powerful (or
//! less congested) devices") emerges naturally.

use rand::Rng;

use qosc_resources::{DeviceClass, NodeProfile};

/// Mix weights and jitter for a random device population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Relative weight of each class, aligned with [`DeviceClass::ALL`]
    /// (phone, pda, laptop, fixed server).
    pub class_weights: [f64; 4],
    /// Capacity jitter: each node's capacity is scaled by a uniform factor
    /// in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            // A mobile-heavy mix with occasional fixed infrastructure.
            class_weights: [0.3, 0.3, 0.35, 0.05],
            jitter: 0.2,
        }
    }
}

impl PopulationConfig {
    /// A mix with no fixed infrastructure (pure ad-hoc, the paper's
    /// current focus).
    pub fn pure_adhoc() -> Self {
        Self {
            class_weights: [0.35, 0.3, 0.35, 0.0],
            jitter: 0.2,
        }
    }

    /// A resource-constrained mix (phones and PDAs only) — the regime
    /// where quality degradation and placement genuinely matter.
    pub fn constrained() -> Self {
        Self {
            class_weights: [0.5, 0.5, 0.0, 0.0],
            jitter: 0.2,
        }
    }

    /// Draws one node profile.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> NodeProfile {
        let total: f64 = self.class_weights.iter().sum();
        let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        let mut class = DeviceClass::FixedServer;
        for (c, w) in DeviceClass::ALL.iter().zip(self.class_weights.iter()) {
            if x < *w {
                class = *c;
                break;
            }
            x -= w;
        }
        let factor = if self.jitter > 0.0 {
            rng.gen_range(1.0 - self.jitter..=1.0 + self.jitter)
        } else {
            1.0
        };
        NodeProfile::scaled(class, factor.max(0.05))
    }

    /// Draws `n` profiles.
    pub fn sample_many(&self, n: usize, rng: &mut impl Rng) -> Vec<NodeProfile> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_resources::ResourceKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_respects_zero_weights() {
        let cfg = PopulationConfig {
            class_weights: [1.0, 0.0, 0.0, 0.0],
            jitter: 0.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(cfg.sample(&mut rng).class, DeviceClass::Phone);
        }
    }

    #[test]
    fn jitter_varies_capacity_within_bounds() {
        let cfg = PopulationConfig {
            class_weights: [0.0, 0.0, 1.0, 0.0],
            jitter: 0.2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let base = DeviceClass::Laptop.capacity().get(ResourceKind::Cpu);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..30 {
            let p = cfg.sample(&mut rng);
            let cpu = p.capacity.get(ResourceKind::Cpu);
            assert!(cpu >= base * 0.8 - 1e-9 && cpu <= base * 1.2 + 1e-9);
            distinct.insert((cpu * 1000.0) as u64);
        }
        assert!(distinct.len() > 10, "jitter should vary capacities");
    }

    #[test]
    fn pure_adhoc_has_no_servers() {
        let cfg = PopulationConfig::pure_adhoc();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for p in cfg.sample_many(100, &mut rng) {
            assert_ne!(p.class, DeviceClass::FixedServer);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = PopulationConfig::default();
        let a = cfg.sample_many(20, &mut ChaCha8Rng::seed_from_u64(9));
        let b = cfg.sample_many(20, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
