//! # qosc-bench — experiment harness & benchmarks
//!
//! Regenerates every table of the canonical evaluation suite:
//!
//! ```text
//! cargo run -p qosc-bench --bin experiments --release          # all
//! cargo run -p qosc-bench --bin experiments --release -- f1 t3 # subset
//! cargo bench                                                  # B1–B5
//! ```
//!
//! Tables print to stdout and are written as CSV under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod instances;
pub mod table;
