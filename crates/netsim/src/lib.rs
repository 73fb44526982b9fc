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
//!
//! `Simulator::per_copy` builds the same engine with both delivery-plane
//! shortcuts off: every broadcast queries the grid and every copy is a
//! queue entry of its own. It is the reference tests prove the batched
//! queue against, bit for bit, and is hidden from these docs.
//!
//! Determinism: every node owns a private `ChaCha8Rng` stream seeded from
//! `(run seed, node id)` (placement and mobility draw from a separate
//! control stream), events are totally ordered by `(time, sequence)` with
//! keys assigned at schedule time, and the clock is integral — equal
//! seeds give bit-identical traces (asserted by tests, including the
//! batched-vs-per-copy bit-equality pin).

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
    FaultPlan, FaultSampler, PartitionEvent, PartitionPlan, PartitionTimeline, SampledPartitions,
};
pub use geometry::{Area, Point};
pub use grid::NeighbourIndex;
pub use mobility::{Mobility, MobilityState};
pub use radio::RadioModel;
pub use shard::ShardedSimulator;
pub use sim::{Ctx, NetApp, NodeId, SimConfig, Simulator};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
