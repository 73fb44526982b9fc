//! Log-bucketed latency histogram.
//!
//! Open-loop runs record one latency per formed negotiation — potentially
//! millions per sweep — so percentiles must come from a constant-memory
//! sketch, not a sorted vector. [`LatencyHistogram`] uses HDR-style
//! log-linear buckets: 8 sub-buckets per power of two, so every bucket's
//! width is at most 12.5 % of its lower bound, and any reported quantile
//! is guaranteed to land in the same bucket as the exact order statistic.

use qosc_netsim::SimDuration;

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count: values below 8 are exact (indices 0–7); each of the 61
/// octaves from 2^3 up contributes 8 sub-buckets (top index 495).
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS as usize;

/// Index of the bucket containing `v` (µs).
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUBS - 1);
    (((octave - SUB_BITS + 1) as u64 * SUBS) + sub) as usize
}

/// Lower bound (µs) of bucket `index` — the representative a quantile
/// query reports.
fn bucket_lower(index: usize) -> u64 {
    let i = index as u64;
    if i < SUBS {
        return i;
    }
    let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = i & (SUBS - 1);
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// Constant-memory latency sketch with ≤12.5 % relative bucket width.
///
/// Records microsecond durations; `quantile` returns the lower bound of
/// the bucket holding the exact order statistic (clamped into the
/// recorded `[min, max]`), so a reported pXX is always within one bucket
/// — under 12.5 % relative error — of the true value.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min_us", &self.min())
            .field("max_us", &self.max())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram (512 buckets, ~4 KiB).
    pub fn new() -> Self {
        Self {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one latency.
    pub fn record(&mut self, d: SimDuration) {
        self.record_us(d.as_micros());
    }

    /// Records one latency in raw microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, if any.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_us)
    }

    /// Largest recorded value, if any.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_us)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`, a NaN `q` reads as 0),
    /// or `None` when empty.
    ///
    /// Returns the lower bound of the bucket holding the exact order
    /// statistic of rank `ceil(q·count)` (clamped into `[min, max]`),
    /// so the report and the exact value always share a bucket.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                // Clamping into [min, max] tightens the tails and cannot
                // leave the bucket: min ≤ exact and lower ≤ exact, so
                // max(lower, min) ≤ exact; symmetrically for max.
                let us = bucket_lower(i).clamp(self.min_us, self.max_us);
                return Some(SimDuration::micros(us));
            }
        }
        Some(SimDuration::micros(self.max_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bucket_layout_is_continuous_and_monotone() {
        // Every value maps to a bucket whose [lower, next lower) range
        // contains it, and indices are non-decreasing in the value.
        let mut prev_idx = 0usize;
        for v in (0u64..4096).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v {v} → idx {idx}");
            assert!(bucket_lower(idx) <= v, "lower bound exceeds v {v}");
            if idx + 1 < BUCKETS {
                assert!(bucket_lower(idx + 1) > v, "v {v} beyond bucket {idx}");
            }
            assert!(idx >= prev_idx || v == 0, "index regressed at {v}");
            prev_idx = idx;
        }
        // Relative width ≤ 12.5 % from the second octave on.
        for idx in (SUBS as usize * 2)..BUCKETS - 1 {
            let lo = bucket_lower(idx) as f64;
            let hi = bucket_lower(idx + 1) as f64;
            assert!((hi - lo) / lo <= 0.125 + 1e-12, "bucket {idx} too wide");
        }
    }

    #[test]
    fn zero_count_behaviour() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        for q in [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(h.quantile(q), None, "q {q}");
        }
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn quantiles_bracket_the_exact_order_statistic() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(1usize..=2000);
            let mut values: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix scales so many octaves are exercised.
                    let exp = rng.gen_range(0u32..30);
                    rng.gen_range(0u64..(1u64 << exp).max(2))
                })
                .collect();
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record_us(v);
            }
            values.sort_unstable();
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = values[rank - 1];
                let got = h.quantile(q).expect("non-empty").as_micros();
                assert_eq!(
                    bucket_index(got),
                    bucket_index(exact),
                    "q {q}: got {got}, exact {exact} (n {n})"
                );
            }
        }
    }

    #[test]
    fn single_value_reports_itself_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::millis(250));
        for q in [0.0, 0.5, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(h.quantile(q), Some(SimDuration::millis(250)), "q {q}");
            let v = h.quantile(q).unwrap().as_micros();
            assert_eq!(bucket_index(v), bucket_index(250_000));
            assert!(v >= h.min().unwrap() && v <= h.max().unwrap());
        }
    }
}
