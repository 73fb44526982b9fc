//! # qosc-workloads — populations, applications and scenarios
//!
//! Everything the evaluation suite needs to synthesise the paper's world:
//!
//! * [`PopulationConfig`] — heterogeneous device mixes (§2's phones, PDAs,
//!   laptops, optional fixed servers) with capacity jitter.
//! * [`AppTemplate`] — the multimedia applications the paper motivates
//!   (surveillance §3.1, video conferencing §1, voice, transcoding §7),
//!   each with spec, preference-ordered request, demand model and payload
//!   distribution.
//! * [`Scenario`] / [`ScenarioConfig`] — assembled DES runs: population +
//!   geometry + mobility + engines, ready for `submit` and `run_until`.
//!
//! Dynamic request arrivals (§5's Poisson process) live in the open-loop
//! load engine, `qosc-load`, which layers arrival sampling and
//! saturation sweeps on top of the scenarios assembled here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod apps;
mod population;
mod scenario;

pub use apps::{transcode_demand_model, AppTemplate};
pub use population::PopulationConfig;
pub use scenario::{pedestrian, Backend, Scenario, ScenarioConfig};
