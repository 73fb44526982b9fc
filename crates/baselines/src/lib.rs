//! # qosc-baselines — comparator allocation policies
//!
//! The paper argues (§1, §4, §7) that QoS-aware coalition formation beats
//! both single-node execution and QoS-blind placement. This crate provides
//! the comparators that turn those claims into measurable experiments:
//!
//! | Policy | What it models |
//! |---|---|
//! | [`single_node`] | no cooperation: everything on the requester |
//! | [`random_alloc`] | cooperation without evaluation |
//! | [`greedy_least_loaded`] | classic load balancing, QoS-blind |
//! | [`protocol_emulation`] | the paper's §4–§6 protocol: the engines on `DirectRuntime`, unbounded rounds |
//! | [`exhaustive_optimal`] | the lexicographic optimum (small instances) |
//!
//! All policies run on a common [`Instance`] snapshot and share the §5
//! degradation heuristic, isolating *placement policy* as the only
//! variable. The `builders` module provides ready-made instances for
//! benches and tests.
//!
//! The crate also holds the reference oracles of §5 and §6 that the
//! engines' compiled paths are proven against: [`Evaluator`] (eqs. 2–5,
//! per proposal) and [`formulate_reference`] (the §5 degradation as a
//! per-step argmin scan).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builders;
mod engines;
mod instance;
mod oracle;
mod policies;

pub use engines::{instance_runtime, instance_service, run_on_engines};
pub use instance::{Allocation, Instance, OfflineNode, OfflineTask, Pid, Placement};
pub use oracle::{formulate_reference, Evaluator};
pub use policies::{
    aggregate_cpu, exhaustive_optimal, greedy_least_loaded, protocol_emulation,
    protocol_emulation_with, random_alloc, single_node,
};
/// The provider's bundle-pricing mode, as [`protocol_emulation_with`] takes it.
pub use qosc_core::ProposalStrategy;
