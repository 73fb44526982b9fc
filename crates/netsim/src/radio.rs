//! Radio propagation and link model.
//!
//! The unit-disc model is the standard abstraction for protocol-level
//! ad-hoc studies: two nodes share a link iff their distance is within the
//! radio range. On top of the disc we model what the negotiation protocol
//! actually observes — per-message latency (propagation + serialisation
//! over a shared-medium bitrate) and an optional distance-dependent loss
//! probability (grey zone near the range edge).

use rand::Rng;

use crate::time::SimDuration;

/// Radio and medium parameters shared by all nodes of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioModel {
    /// Disc radius in metres.
    pub range_m: f64,
    /// Link bitrate in kbit/s (802.11b-era defaults ≈ 11_000).
    pub bitrate_kbps: f64,
    /// Fixed per-message medium-access + propagation latency.
    pub base_latency: SimDuration,
    /// Loss probability at zero distance (link-layer floor).
    pub loss_floor: f64,
    /// Additional loss probability ramped linearly from `grey_zone_start ×
    /// range` to the full range (edge-of-range unreliability). 0 disables.
    pub loss_at_edge: f64,
    /// Fraction of the range where the grey zone begins (0..1).
    pub grey_zone_start: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        Self {
            range_m: 50.0,
            bitrate_kbps: 11_000.0,
            base_latency: SimDuration::millis(2),
            loss_floor: 0.0,
            loss_at_edge: 0.0,
            grey_zone_start: 0.8,
        }
    }
}

impl RadioModel {
    /// A zero-latency, lossless radio: every message arrives at its send
    /// timestamp. This is the DES configuration whose event order is
    /// pinned against the in-memory direct runtime by the cross-backend
    /// equivalence test.
    pub fn instant() -> Self {
        Self {
            bitrate_kbps: f64::INFINITY,
            base_latency: SimDuration::ZERO,
            loss_floor: 0.0,
            loss_at_edge: 0.0,
            ..Default::default()
        }
    }

    /// True if two nodes at distance `d` share a link.
    pub(crate) fn in_range(&self, d: f64) -> bool {
        d <= self.range_m
    }

    /// Transmission latency of a `bytes`-long message: base latency plus
    /// serialisation time at the configured bitrate.
    pub(crate) fn latency(&self, bytes: u64) -> SimDuration {
        let ser_s = (bytes as f64 * 8.0) / (self.bitrate_kbps * 1000.0);
        self.base_latency + SimDuration::secs_f64(ser_s)
    }

    /// Loss probability of a message over a link of distance `d`
    /// (assumed already in range).
    pub(crate) fn loss_probability(&self, d: f64) -> f64 {
        let mut p = self.loss_floor;
        let grey_start = self.grey_zone_start * self.range_m;
        if self.loss_at_edge > 0.0 && d > grey_start && self.range_m > grey_start {
            let t = (d - grey_start) / (self.range_m - grey_start);
            p += self.loss_at_edge * t.clamp(0.0, 1.0);
        }
        p.clamp(0.0, 1.0)
    }

    /// Samples whether a message at distance `d` is lost.
    pub(crate) fn drops(&self, d: f64, rng: &mut impl Rng) -> bool {
        let p = self.loss_probability(d);
        p > 0.0 && rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn disc_membership() {
        let r = RadioModel {
            range_m: 50.0,
            ..Default::default()
        };
        assert!(r.in_range(50.0));
        assert!(!r.in_range(50.01));
    }

    #[test]
    fn latency_scales_with_size() {
        let r = RadioModel {
            bitrate_kbps: 8_000.0, // 1 MB/s
            base_latency: SimDuration::millis(1),
            ..Default::default()
        };
        // 1000 bytes at 1 MB/s = 1 ms serialisation + 1 ms base.
        assert_eq!(r.latency(1000), SimDuration::millis(2));
        assert!(r.latency(10_000) > r.latency(1000));
        assert_eq!(r.latency(0), SimDuration::millis(1));
    }

    #[test]
    fn loss_ramp_in_grey_zone() {
        let r = RadioModel {
            range_m: 100.0,
            loss_floor: 0.05,
            loss_at_edge: 0.4,
            grey_zone_start: 0.8,
            ..Default::default()
        };
        assert!((r.loss_probability(10.0) - 0.05).abs() < 1e-12);
        assert!((r.loss_probability(80.0) - 0.05).abs() < 1e-12);
        assert!((r.loss_probability(90.0) - 0.25).abs() < 1e-12);
        assert!((r.loss_probability(100.0) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn instant_radio_has_zero_latency_and_loss() {
        let r = RadioModel::instant();
        assert_eq!(r.latency(0), SimDuration::ZERO);
        assert_eq!(r.latency(1_000_000), SimDuration::ZERO);
        assert_eq!(r.loss_probability(r.range_m), 0.0);
    }

    #[test]
    fn zero_loss_never_drops() {
        let r = RadioModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!r.drops(49.0, &mut rng));
        }
    }

    #[test]
    fn certain_loss_always_drops() {
        let r = RadioModel {
            loss_floor: 1.0,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(r.drops(1.0, &mut rng));
    }
}
