//! # qosc-load — open-loop workload engine
//!
//! Drives the coalition-formation engines with *offered* load rather
//! than closed-loop request/response cycles, which is what the paper's
//! §5 evaluation needs to locate saturation: a generator that slows
//! down when the system falls behind measures the generator.
//!
//! * [`PoissonArrivals`] — arrival-instant sampling from a homogeneous
//!   Poisson stream.
//! * [`LoadPlan`] / [`LoadDriver`] — pre-samples every arrival, submits
//!   them all up front against an organizer pool, and harvests outcomes
//!   and formation latencies from the runtime's event log.
//! * [`LatencyHistogram`] — constant-memory log-bucketed percentile
//!   sketch (p50/p90/p99 within one ≤12.5 %-wide bucket of exact).
//! * [`SaturationReport`] — offered-rate sweep with
//!   [`knee`](SaturationReport::knee) detection.
//!
//! ```
//! use qosc_load::{LatencyHistogram, PoissonArrivals};
//! use qosc_netsim::{SimDuration, SimTime};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let arrivals = PoissonArrivals::new(20.0).sample_until(
//!     SimTime::ZERO,
//!     SimTime::ZERO + SimDuration::secs(10),
//!     &mut rng,
//! );
//! let mut lat = LatencyHistogram::new();
//! for (i, _) in arrivals.iter().enumerate() {
//!     lat.record(SimDuration::millis(40 + (i as u64 % 25)));
//! }
//! let p99 = lat.quantile(0.99).expect("non-empty");
//! assert!(p99 >= lat.quantile(0.50).expect("non-empty"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrivals;
mod driver;
mod histogram;
mod report;

pub use arrivals::PoissonArrivals;
pub use driver::{LoadDriver, LoadPlan, LoadReport};
pub use histogram::LatencyHistogram;
pub use report::{SaturationPoint, SaturationReport};
