//! Saturation sweeps: offered load vs what the system sustains.
//!
//! A [`SaturationReport`] runs one [`LoadReport`](crate::LoadReport)
//! cell per offered rate and lines the points up so the knee — the
//! highest offered rate the system still absorbs — can be read off (or
//! asked for via [`SaturationReport::knee`]).

use qosc_netsim::SimDuration;

use crate::driver::LoadReport;

/// One cell of a saturation sweep.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Offered rate the cell was driven at (arrivals per second).
    pub offered_per_s: f64,
    /// Requests submitted in the cell.
    pub submitted: usize,
    /// Fraction of submitted requests that formed before cut-off.
    pub formed_ratio: f64,
    /// Formed coalitions per second of window.
    pub sustained_per_s: f64,
    /// Median formation latency, if anything formed.
    pub p50: Option<SimDuration>,
    /// 90th-percentile formation latency.
    pub p90: Option<SimDuration>,
    /// 99th-percentile formation latency.
    pub p99: Option<SimDuration>,
}

impl SaturationPoint {
    /// Distils one load cell into a sweep point.
    fn from_report(offered_per_s: f64, report: &LoadReport) -> SaturationPoint {
        SaturationPoint {
            offered_per_s,
            submitted: report.submitted,
            formed_ratio: report.formed_ratio(),
            sustained_per_s: report.sustained_per_s(),
            p50: report.latency.quantile(0.50),
            p90: report.latency.quantile(0.90),
            p99: report.latency.quantile(0.99),
        }
    }
}

/// An offered-load sweep, ordered by offered rate.
#[derive(Debug, Clone, Default)]
pub struct SaturationReport {
    /// Sweep cells, sorted ascending by offered rate.
    pub points: Vec<SaturationPoint>,
}

impl SaturationReport {
    /// Runs `cell` once per offered rate and collects the points.
    /// `cell` receives the offered rate and returns that cell's report.
    pub fn sweep(rates: &[f64], mut cell: impl FnMut(f64) -> LoadReport) -> SaturationReport {
        let mut points: Vec<SaturationPoint> = rates
            .iter()
            .map(|&r| SaturationPoint::from_report(r, &cell(r)))
            .collect();
        points.sort_by(|a, b| a.offered_per_s.total_cmp(&b.offered_per_s));
        SaturationReport { points }
    }

    /// The saturation knee: the highest offered rate whose formed ratio
    /// is still at least `frac` (e.g. `0.95`). `None` when even the
    /// lightest cell misses the bar — the system saturates below the
    /// swept range — and when `frac` is NaN.
    pub fn knee(&self, frac: f64) -> Option<&SaturationPoint> {
        self.points
            .iter()
            .rev()
            .find(|p| p.formed_ratio >= frac && p.submitted > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;

    fn report(submitted: usize, formed: usize) -> LoadReport {
        let mut latency = LatencyHistogram::new();
        for i in 0..formed {
            latency.record_us(10_000 + i as u64);
        }
        LoadReport {
            submitted,
            formed,
            incomplete: 0,
            window: SimDuration::secs(10),
            latency,
            messages: 0,
        }
    }

    #[test]
    fn sweep_sorts_points_and_knee_finds_the_last_good_cell() {
        // Formed ratio collapses above 20/s regardless of call order.
        let sweep = SaturationReport::sweep(&[40.0, 5.0, 20.0], |r| {
            let submitted = (r * 10.0) as usize;
            let formed = if r <= 20.0 { submitted } else { submitted / 4 };
            report(submitted, formed)
        });
        let offered: Vec<f64> = sweep.points.iter().map(|p| p.offered_per_s).collect();
        assert_eq!(offered, vec![5.0, 20.0, 40.0]);
        let knee = sweep.knee(0.95).expect("two cells clear the bar");
        assert_eq!(knee.offered_per_s, 20.0);
        assert!(knee.p50.is_some());
        assert!(sweep.points[2].formed_ratio < 0.95);
    }

    #[test]
    fn knee_is_none_when_everything_saturates() {
        let sweep = SaturationReport::sweep(&[10.0, 20.0], |r| report((r * 10.0) as usize, 0));
        for frac in [0.5, f64::NAN, f64::INFINITY] {
            assert!(sweep.knee(frac).is_none(), "frac {frac}");
        }
        // Every ratio clears a bar of -inf: the knee is the top cell.
        let knee = sweep.knee(f64::NEG_INFINITY).expect("cells submitted");
        assert_eq!(knee.offered_per_s, 20.0);
        assert!(sweep.points[0].p50.is_none());
    }
}
