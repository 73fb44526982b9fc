//! One runtime API, two backends.
//!
//! The negotiation engines ([`OrganizerEngine`](crate::OrganizerEngine),
//! [`ProviderEngine`](crate::ProviderEngine)) are sans-IO state machines:
//! they consume [`Msg`](crate::Msg)s and timers and emit
//! [`Action`](crate::Action)s. This module packages them behind a uniform
//! execution API so a scenario description runs unmodified on any backend:
//!
//! * [`DesRuntime`] — the deterministic discrete-event simulator of
//!   `qosc-netsim`: geometry, latency, loss, mobility, failures. The
//!   backend every experiment sweep uses.
//! * [`DirectRuntime`] — a zero-latency in-memory event loop (FIFO message
//!   queue + timer wheel, no geometry, full connectivity). The fast path
//!   for tests, property checks and benches; at zero network latency it is
//!   event-for-event identical to the DES (pinned by the
//!   `runtime_equivalence` system test).
//!
//! Both are deterministic, expose their nodes for digests and
//! invariant checks ([`Runtime::node`]) and enforce the full fault
//! vocabulary ([`Runtime::set_fault_plan`],
//! [`Runtime::set_partition_plan`]).
//!
//! Per node the backends host a [`CoalitionNode`] — an organizer and/or a
//! provider engine plus the service queue — through the [`NodeEngine`]
//! trait (`on_start` / `on_message` / `on_timer`, all returning actions).
//! That trait is also the seam a future live transport plugs into: the
//! engines never see which backend drives them.
//!
//! # Quickstart — the same scenario on both backends
//!
//! ```
//! use std::sync::Arc;
//! use qosc_core::{
//!     CoalitionNode, DesRuntime, DirectRuntime, NegoEvent, OrganizerConfig, OrganizerEngine,
//!     ProviderConfig, ProviderEngine, Runtime,
//! };
//! use qosc_netsim::{Mobility, Point, SimConfig, SimTime, Simulator};
//! use qosc_resources::{av_demand_model, ResourceVector};
//! use qosc_spec::{catalog, ServiceDef, TaskDef};
//!
//! // Backend-agnostic scenario description: three heterogeneous nodes,
//! // node 0 organizes a one-task surveillance service.
//! let nodes = || -> Vec<CoalitionNode> {
//!     let spec = catalog::av_spec();
//!     (0..3u32)
//!         .map(|i| {
//!             let mut p = ProviderEngine::new(
//!                 i,
//!                 ResourceVector::new(100.0 + 150.0 * i as f64, 256.0, 5000.0, 40.0, 4000.0),
//!                 ProviderConfig::default(),
//!             );
//!             p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
//!             let node = CoalitionNode::new(i).with_provider(p);
//!             if i == 0 {
//!                 node.with_organizer(OrganizerEngine::new(i, OrganizerConfig::default()))
//!             } else {
//!                 node
//!             }
//!         })
//!         .collect()
//! };
//! let service = || {
//!     ServiceDef::new(
//!         "demo",
//!         vec![TaskDef {
//!             name: "camera".into(),
//!             spec: catalog::av_spec(),
//!             request: catalog::surveillance_request(),
//!             input_bytes: 50_000,
//!             output_bytes: 5_000,
//!         }],
//!     )
//! };
//!
//! // Two backends, one driver.
//! let mut sim = Simulator::new(SimConfig::default());
//! for i in 0..3 {
//!     sim.add_node(Point::new(10.0 * i as f64, 0.0), Mobility::Static);
//! }
//! let backends: Vec<Box<dyn Runtime>> = vec![
//!     Box::new(DirectRuntime::new()),
//!     Box::new(DesRuntime::new(sim)),
//! ];
//! for mut rt in backends {
//!     for node in nodes() {
//!         rt.add_node(node).unwrap();
//!     }
//!     rt.submit(0, service(), SimTime(1_000)).unwrap();
//!     rt.run_until_settled(1, SimTime(5_000_000));
//!     assert!(
//!         rt.events()
//!             .iter()
//!             .any(|e| matches!(e.event, NegoEvent::Formed { .. })),
//!         "no coalition on {}",
//!         rt.backend_name(),
//!     );
//! }
//! ```

mod des;
mod direct;
mod host;
mod node;

use qosc_netsim::{FaultPlan, PartitionPlan, SimTime};
use qosc_spec::ServiceDef;

use crate::metrics::NegoEvent;
use crate::protocol::{encode_timer, NegoId, Pid, TimerKind};

pub use des::{single_organizer_scenario, DesRuntime};
pub use direct::DirectRuntime;
pub use node::{CoalitionNode, NodeEngine};

/// Per-run event log entry, identical across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// When the event surfaced, in virtual time.
    pub at: SimTime,
    /// The node whose engine emitted it.
    pub node: Pid,
    /// The event.
    pub event: NegoEvent,
}

/// Errors of the runtime registration/submission API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// `add_node` saw a node id that is already registered.
    DuplicateNode(Pid),
    /// `submit`/`schedule_dissolve` addressed an unregistered node, or
    /// `add_node` an id the backend's simulator has no node for.
    UnknownNode(Pid),
    /// `submit` addressed a node with no organizer engine — its kickoff
    /// timer would pop the service and silently drop it.
    NoOrganizer(Pid),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::DuplicateNode(p) => write!(f, "node {p} is already registered"),
            RuntimeError::UnknownNode(p) => write!(f, "node {p} is not registered"),
            RuntimeError::NoOrganizer(p) => write!(f, "node {p} has no organizer engine"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// True for events that settle a formation round (used by
/// [`Runtime::run_until_settled`]).
fn is_settled(e: &LoggedEvent) -> bool {
    matches!(
        e.event,
        NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
    )
}

/// Counts settled formation rounds in an event log.
pub(crate) fn settled_count(events: &[LoggedEvent]) -> usize {
    events.iter().filter(|e| is_settled(e)).count()
}

/// Uniform execution API over the backends.
///
/// Time is a virtual `SimTime` measured from the runtime's creation.
pub trait Runtime {
    /// Short backend identifier for logs and tables.
    fn backend_name(&self) -> &'static str;

    /// Registers a node. Duplicate ids are rejected — silently replacing
    /// an engine mid-scenario was a classic source of lost state — and so
    /// is, on the backends with geometry, an id the simulator has no node
    /// for ([`RuntimeError::UnknownNode`]).
    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError>;

    /// Queues `service` at `node` and schedules its negotiation to start
    /// at `at`.
    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError>;

    /// Asks `nego`'s organizer to dissolve the coalition at `at`.
    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError>;

    /// Runs until `deadline`. Returns the number of backend events
    /// processed.
    fn run(&mut self, deadline: SimTime) -> u64;

    /// Runs until at least `settled` negotiations settled (Formed or
    /// FormationIncomplete, cumulative over this runtime's life) or
    /// `deadline` passed; returns the settled count.
    fn run_until_settled(&mut self, settled: usize, deadline: SimTime) -> usize {
        if settled_count(self.events()) < settled {
            self.run(deadline);
        }
        settled_count(self.events())
    }

    /// Installs a message-fault plan for this run, sampled per delivery
    /// (drop / duplicate / reorder; see [`FaultPlan`]). Returns `false` if
    /// the backend does not support fault injection (the default). Call
    /// before the first `run`; a plan that samples nothing leaves the
    /// backend bit-identical to an uninstalled one.
    fn set_fault_plan(&mut self, _plan: FaultPlan) -> bool {
        false
    }

    /// Installs a link-partition schedule for this run (see
    /// [`PartitionPlan`]): deliveries whose arrival falls inside a window
    /// that separates sender and receiver are cut. Returns `false` if the
    /// backend does not enforce partitions (the default). Call before the
    /// first `run`; a plan with no events leaves the backend bit-identical
    /// to an uninstalled one.
    fn set_partition_plan(&mut self, _plan: &PartitionPlan) -> bool {
        false
    }

    /// Everything the engines reported so far, in emission order.
    fn events(&self) -> &[LoggedEvent];

    /// Messages that entered the transport (unicasts + broadcasts).
    fn messages_sent(&self) -> u64;

    /// Direct access to a hosted node (`None` when `id` is not
    /// registered).
    fn node(&self, id: Pid) -> Option<&CoalitionNode>;
}

/// Timer token that triggers "start the next queued service" at a node.
pub fn kickoff_token(node: Pid) -> u64 {
    encode_timer(
        NegoId {
            organizer: node,
            seq: 0,
        },
        TimerKind::Kickoff,
    )
}

/// Timer token that dissolves `nego` at its organizer when it fires.
pub fn dissolve_token(nego: NegoId) -> u64 {
    encode_timer(nego, TimerKind::Dissolve)
}

#[cfg(test)]
mod tests;
