//! # qosc-netsim — deterministic ad-hoc wireless network simulator
//!
//! The paper evaluates coalition formation in "a local ad-hoc network
//! \[that\] forms spontaneously, as nodes move in range of each other" (§1).
//! Lacking 2005-era handhelds and radios, this crate substitutes a
//! discrete-event simulator that reproduces exactly what the protocol
//! observes: connectivity (unit-disc radio over 2-D positions), message
//! latency (base MAC latency + serialisation at a bitrate), optional
//! message loss (grey-zone edge model), topology churn (random-waypoint
//! mobility) and node failures.
//!
//! * [`SimTime`] / [`SimDuration`] — integer-µs simulated clock.
//! * [`Point`] / [`Area`] — placement geometry.
//! * [`Mobility`] / [`MobilityState`] — static & random-waypoint walks.
//! * [`RadioModel`] — range, bitrate, latency, loss.
//! * [`NeighbourIndex`] — spatial grid behind neighbour queries and
//!   broadcast fan-out (rebuilt on each mobility tick).
//! * [`Simulator`] + [`NetApp`] — the event loop and the sans-IO protocol
//!   hook; applications send via [`Ctx`]. A broadcast is one queue entry
//!   and one `Arc<M>` payload regardless of fan-out, sent to a
//!   neighbourhood each node remembers until a node is added or moves
//!   (liveness is tested per target, so `Down`/`Up` never invalidate it).
//! * [`NetStats`] — message/latency counters for the T1 experiment.
//! * [`FaultPlan`] / [`FaultSampler`] — drop/duplicate/reorder fault
//!   injection, sharing one vocabulary with the `qosc-mc` model checker.
//! * [`PartitionPlan`] / [`PartitionTimeline`] — link-level partition
//!   and heal schedules (scripted or sampled), enforced identically at
//!   delivery time by every backend.
//! * [`ShardedSimulator`] — the same event loop partitioned into spatial
//!   shards under a conservative-lookahead horizon protocol. Not a
//!   protocol backend (it measures slower than [`Simulator`] at every
//!   worker count): it is the one-event-per-copy oracle that
//!   [`Simulator`]'s one-entry-per-transmission queue is proven against,
//!   and the engine behind the repo benchmark's `netsim.shard.*` rows.
//!
//! Determinism: every node owns a private `ChaCha8Rng` stream seeded from
//! `(run seed, node id)` (placement and mobility draw from a separate
//! control stream), events are totally ordered by `(time, origin shard,
//! sequence)` with keys assigned at schedule time, and the clock is
//! integral — equal seeds give bit-identical traces on the sequential
//! engine and on the sharded engine at any worker count that preserves
//! the run shape (asserted by tests, including a sequential-vs-sharded
//! bit-equality pin at one worker).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fault;
mod geometry;
mod grid;
mod mobility;
mod radio;
mod shard;
mod sim;
mod stats;
mod time;

pub use fault::{
    DeliveryFault, FaultPlan, FaultSampler, PartitionEvent, PartitionPlan, PartitionTimeline,
    SampledPartitions,
};
pub use geometry::{Area, Point};
pub use grid::NeighbourIndex;
pub use mobility::{Mobility, MobilityState};
pub use radio::RadioModel;
pub use shard::ShardedSimulator;
pub use sim::{Ctx, NetApp, NodeId, SimConfig, Simulator};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
