//! One runtime API, three backends.
//!
//! The negotiation engines ([`OrganizerEngine`], [`ProviderEngine`]) are
//! sans-IO state machines: they consume [`Msg`]s and timers and emit
//! [`Action`]s. This module packages them behind a uniform execution API so
//! a scenario description runs unmodified on any of three backends:
//!
//! * [`DesRuntime`] — the deterministic discrete-event simulator of
//!   `qosc-netsim`: geometry, latency, loss, mobility, failures. The
//!   backend every experiment sweep uses. [`DesShardedRuntime`] is the
//!   same semantics on the region-partitioned parallel simulator, for
//!   large node counts.
//! * [`DirectRuntime`] — a zero-latency in-memory event loop (FIFO message
//!   queue + timer wheel, no geometry, full connectivity). The fast path
//!   for tests, property checks and benches; at zero network latency it is
//!   event-for-event identical to the DES (pinned by the
//!   `runtime_equivalence` system test).
//! * [`ActorRuntime`] — the live threaded transport of `qosc-actors`: one
//!   OS thread per node, wall-clock timers, a process-wide
//!   [`Directory`] playing the radio's role.
//!
//! Per node the backends host a [`CoalitionNode`] — an organizer and/or a
//! provider engine plus the service queue — through the [`NodeEngine`]
//! trait (`on_start` / `on_message` / `on_timer`, all returning actions).
//!
//! # Quickstart — the same scenario on all three backends
//!
//! ```
//! use std::sync::Arc;
//! use qosc_core::{
//!     ActorRuntime, CoalitionNode, DesRuntime, DirectRuntime, NegoEvent, OrganizerConfig,
//!     OrganizerEngine, ProviderConfig, ProviderEngine, Runtime,
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
//! // Three backends, one driver.
//! let mut sim = Simulator::new(SimConfig::default());
//! for i in 0..3 {
//!     sim.add_node(Point::new(10.0 * i as f64, 0.0), Mobility::Static);
//! }
//! let backends: Vec<Box<dyn Runtime>> = vec![
//!     Box::new(DirectRuntime::new()),
//!     Box::new(DesRuntime::new(sim)),
//!     Box::new(ActorRuntime::new()),
//! ];
//! for mut rt in backends {
//!     for node in nodes() {
//!         rt.add_node(node).unwrap();
//!     }
//!     rt.submit(0, service(), SimTime(1_000)).unwrap();
//!     // DES/Direct: virtual deadline; Actor: the same horizon in wall time,
//!     // returning as soon as the negotiation settles.
//!     rt.run_until_settled(1, SimTime(5_000_000));
//!     assert!(
//!         rt.events()
//!             .iter()
//!             .any(|e| matches!(e.event, NegoEvent::Formed { .. })),
//!         "no coalition on {}",
//!         rt.backend_name(),
//!     );
//!     rt.shutdown();
//! }
//! ```

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use qosc_actors::{Actor, ActorCtx, ActorSystem, Addr, Directory};
use qosc_netsim::{
    Ctx, DeliveryFault, FaultPlan, FaultSampler, NetApp, NetStats, NodeId, PartitionPlan,
    PartitionTimeline, ShardedSimulator, SimDuration, SimTime, Simulator,
};
use qosc_spec::ServiceDef;

use crate::metrics::NegoEvent;
use crate::organizer::{OrganizerConfig, OrganizerEngine};
use crate::protocol::{decode_timer, encode_timer, Action, Msg, NegoId, Pid, TimerKind};
use crate::provider::ProviderEngine;

// ---------------------------------------------------------------------------
// NodeEngine: the uniform sans-IO surface the backends drive.
// ---------------------------------------------------------------------------

/// Uniform interface of one node's protocol logic, as the backends see it.
///
/// Implemented by [`OrganizerEngine`] and [`ProviderEngine`] individually
/// and by [`CoalitionNode`], the composite every backend hosts.
pub trait NodeEngine {
    /// The node id this engine answers for.
    fn id(&self) -> Pid;

    /// Called once when the runtime starts the node, before any message.
    fn on_start(&mut self, _now: SimTime) -> Vec<Action> {
        Vec::new()
    }

    /// A protocol message from `from` arrived.
    fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action>;

    /// A timer armed by this node fired.
    fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action>;
}

impl NodeEngine for OrganizerEngine {
    fn id(&self) -> Pid {
        OrganizerEngine::id(self)
    }

    fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action> {
        OrganizerEngine::on_message(self, now, from, msg)
    }

    fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::Dissolve => self.dissolve(nego),
            _ => OrganizerEngine::on_timer(self, now, nego, kind),
        }
    }
}

impl NodeEngine for ProviderEngine {
    fn id(&self) -> Pid {
        ProviderEngine::id(self)
    }

    fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action> {
        ProviderEngine::on_message(self, now, from, msg)
    }

    fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action> {
        ProviderEngine::on_timer(self, now, nego, kind)
    }
}

/// One node of a scenario: an optional organizer, an optional provider,
/// and the queue of services this node will originate.
///
/// The composite owns the one transport-level subtlety of the protocol: a
/// radio broadcast does not reach its own sender, but the paper explicitly
/// allows the organizer's node to join the coalition ("may include the node
/// that starts the negotiation"). Whenever the organizer broadcasts a CFP,
/// the local provider is handed it synchronously and its response actions
/// are spliced in; the proposal then travels the normal (zero-distance)
/// self-unicast path so message accounting stays honest on every backend.
#[derive(Clone)]
pub struct CoalitionNode {
    id: Pid,
    organizer: Option<OrganizerEngine>,
    provider: Option<ProviderEngine>,
    /// Services awaiting their kickoff, ordered by kickoff time (ties by
    /// submission order). Kickoff timers carry no payload, so the pop
    /// must mirror the timers' firing order, not submission order.
    pending: Vec<(SimTime, ServiceDef)>,
}

impl CoalitionNode {
    /// Creates an empty node (no engines installed yet).
    pub fn new(id: Pid) -> Self {
        Self {
            id,
            organizer: None,
            provider: None,
            pending: Vec::new(),
        }
    }

    /// Installs the organizer engine. Panics if its id differs.
    pub fn with_organizer(mut self, organizer: OrganizerEngine) -> Self {
        assert_eq!(organizer.id(), self.id, "organizer id must match node id");
        self.organizer = Some(organizer);
        self
    }

    /// Installs the provider engine. Panics if its id differs.
    pub fn with_provider(mut self, provider: ProviderEngine) -> Self {
        assert_eq!(
            ProviderEngine::id(&provider),
            self.id,
            "provider id must match node id"
        );
        self.provider = Some(provider);
        self
    }

    /// The organizer engine, if installed.
    pub fn organizer(&self) -> Option<&OrganizerEngine> {
        self.organizer.as_ref()
    }

    /// The provider engine, if installed.
    pub fn provider(&self) -> Option<&ProviderEngine> {
        self.provider.as_ref()
    }

    /// Mutable organizer access (fault injectors, model checking).
    pub fn organizer_mut(&mut self) -> Option<&mut OrganizerEngine> {
        self.organizer.as_mut()
    }

    /// Mutable provider access (fault injectors, model checking).
    pub fn provider_mut(&mut self) -> Option<&mut ProviderEngine> {
        self.provider.as_mut()
    }

    /// Services still queued for kickoff, in kickoff order.
    pub fn pending_services(&self) -> &[(SimTime, ServiceDef)] {
        &self.pending
    }

    /// Queues a service to be started by the kickoff timer armed for
    /// `at` (see [`kickoff_token`]; [`Runtime::submit`] arms it for you).
    /// Entries are kept in kickoff-time order — kickoff timers all look
    /// alike, so the earliest-firing timer must pop the earliest-`at`
    /// service even when submissions arrive out of time order.
    pub fn queue_service_at(&mut self, at: SimTime, service: ServiceDef) {
        let idx = self.pending.partition_point(|(t, _)| *t <= at);
        self.pending.insert(idx, (at, service));
    }

    /// Splices the local provider's synchronous CFP response in front of
    /// each CFP broadcast (see type docs). Providers never broadcast, so
    /// one pass suffices.
    fn absorb_local(&mut self, now: SimTime, actions: Vec<Action>) -> Vec<Action> {
        let is_cfp = |a: &Action| {
            matches!(a.payload(), Some(Msg::CallForProposals { .. }))
                && matches!(a, Action::Broadcast(_))
        };
        if self.provider.is_none() || !actions.iter().any(is_cfp) {
            return actions;
        }
        let mut out = Vec::with_capacity(actions.len() + 2);
        for action in actions {
            if let Action::Broadcast(msg) = &action {
                if matches!(&**msg, Msg::CallForProposals { .. }) {
                    let p = self.provider.as_mut().expect("checked above");
                    out.extend(p.on_message(now, self.id, msg));
                }
            }
            out.push(action);
        }
        out
    }

    /// Routes a burst of same-instant deliveries through the provider's
    /// batched pricing path ([`ProviderEngine::on_cfp_batch`]): exactly
    /// equivalent to delivering each message in order, but announcements
    /// repeated across the batch's CFPs are resolved and compiled once.
    /// A burst of one is [`NodeEngine::on_message`] itself; bursts that
    /// are not all CFPs (or a node without a provider) fall back to
    /// sequential delivery, so callers may hand over any same-destination
    /// burst.
    pub fn on_message_batch(&mut self, now: SimTime, batch: &[(Pid, &Msg)]) -> Vec<Action> {
        if let [(from, msg)] = *batch {
            return self.on_message(now, from, msg);
        }
        let all_cfps = batch
            .iter()
            .all(|(_, m)| matches!(m, Msg::CallForProposals { .. }));
        if !all_cfps || self.provider.is_none() {
            let mut out = Vec::new();
            for &(from, msg) in batch {
                out.extend(self.on_message(now, from, msg));
            }
            return out;
        }
        let p = self.provider.as_mut().expect("checked above");
        let actions = p.on_cfp_batch(now, batch);
        self.absorb_local(now, actions)
    }

    fn start_next_service(&mut self, now: SimTime) -> Vec<Action> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let (_, service) = self.pending.remove(0);
        let Some(org) = self.organizer.as_mut() else {
            return Vec::new();
        };
        match org.start_service(now, &service) {
            Ok((_nego, actions)) => actions,
            Err(e) => {
                // An invalid request is a host programming error; surface
                // loudly in tests without crashing long experiment sweeps.
                eprintln!("node {}: service `{}` rejected: {e}", self.id, service.name);
                Vec::new()
            }
        }
    }
}

impl NodeEngine for CoalitionNode {
    fn id(&self) -> Pid {
        self.id
    }

    fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action> {
        let actions = match msg {
            Msg::CallForProposals { .. }
            | Msg::Award { .. }
            | Msg::Release { .. }
            | Msg::LeaseRenew { .. } => self
                .provider
                .as_mut()
                .map(|p| p.on_message(now, from, msg))
                .unwrap_or_default(),
            Msg::Proposal { .. }
            | Msg::Accept { .. }
            | Msg::Decline { .. }
            | Msg::Heartbeat { .. } => self
                .organizer
                .as_mut()
                .map(|o| o.on_message(now, from, msg))
                .unwrap_or_default(),
        };
        self.absorb_local(now, actions)
    }

    fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action> {
        let actions = match kind {
            TimerKind::Kickoff => self.start_next_service(now),
            TimerKind::Dissolve => self
                .organizer
                .as_mut()
                .map(|o| o.dissolve(nego))
                .unwrap_or_default(),
            TimerKind::ProposalDeadline
            | TimerKind::AwardDeadline
            | TimerKind::HeartbeatCheck
            | TimerKind::ReAnnounce => self
                .organizer
                .as_mut()
                .map(|o| o.on_timer(now, nego, kind))
                .unwrap_or_default(),
            TimerKind::HeartbeatSend | TimerKind::HoldExpiry | TimerKind::LeaseCheck => self
                .provider
                .as_mut()
                .map(|p| p.on_timer(now, nego, kind))
                .unwrap_or_default(),
        };
        self.absorb_local(now, actions)
    }
}

impl crate::snapshot::StateDigest for CoalitionNode {
    fn digest(&self, h: &mut crate::snapshot::StableHasher) {
        h.write_u64(self.id as u64);
        h.write_bool(self.organizer.is_some());
        if let Some(o) = &self.organizer {
            o.digest(h);
        }
        h.write_bool(self.provider.is_some());
        if let Some(p) = &self.provider {
            p.digest(h);
        }
        h.write_usize(self.pending.len());
        for (at, service) in &self.pending {
            h.write_u64(at.0);
            h.write_str(&format!("{service:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// The Runtime trait and its shared vocabulary.
// ---------------------------------------------------------------------------

/// Per-run event log entry, identical across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// When the event surfaced (virtual time on DES/Direct, wall time
    /// since runtime creation on Actor).
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
    /// `submit`/`schedule_dissolve` addressed an unregistered node.
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
pub fn settled_count(events: &[LoggedEvent]) -> usize {
    events.iter().filter(|e| is_settled(e)).count()
}

/// Uniform execution API over the three backends.
///
/// Time is a virtual `SimTime` measured from the runtime's creation. The
/// DES and Direct backends interpret it exactly; the Actor backend maps it
/// onto the wall clock (1 µs of `SimTime` = 1 µs of real time).
pub trait Runtime {
    /// Short backend identifier for logs and tables.
    fn backend_name(&self) -> &'static str;

    /// Registers a node. Duplicate ids are rejected — silently replacing
    /// an engine mid-scenario was a classic source of lost state.
    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError>;

    /// Queues `service` at `node` and schedules its negotiation to start
    /// at `at`.
    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError>;

    /// Asks `nego`'s organizer to dissolve the coalition at `at`.
    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError>;

    /// Runs until `deadline`. Returns the number of backend events
    /// processed (0 on backends that cannot count them).
    fn run(&mut self, deadline: SimTime) -> u64;

    /// Runs until at least `settled` negotiations settled (Formed or
    /// FormationIncomplete, cumulative over this runtime's life) or
    /// `deadline` passed; returns the settled count. On the Actor backend
    /// this returns as soon as the count is reached instead of sleeping
    /// out the horizon.
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

    /// Direct access to a hosted node, where the backend permits it
    /// (`None` on the Actor backend, whose nodes live on their threads).
    fn node(&self, id: Pid) -> Option<&CoalitionNode>;

    /// Releases backend resources (joins actor threads). Idempotent;
    /// no-op on the in-process backends.
    fn shutdown(&mut self) {}
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

// ---------------------------------------------------------------------------
// DES backend.
// ---------------------------------------------------------------------------

/// The engine host plugged into the DES event loop.
#[derive(Default)]
struct DesHost {
    nodes: BTreeMap<Pid, CoalitionNode>,
    events: Vec<LoggedEvent>,
}

impl DesHost {
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, at: Pid, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    let bytes = msg.estimated_bytes();
                    ctx.broadcast(NodeId(at), bytes, msg);
                }
                Action::Send { to, msg } => {
                    let bytes = msg.estimated_bytes();
                    ctx.unicast(NodeId(at), NodeId(to), bytes, msg);
                }
                Action::Timer { delay, token } => ctx.timer(NodeId(at), delay, token),
                Action::Event(event) => self.events.push(LoggedEvent {
                    at: ctx.now,
                    node: at,
                    event,
                }),
            }
        }
    }
}

impl NetApp<Msg> for DesHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, from: NodeId, msg: &Msg) {
        let pid = at.0;
        if let Some(node) = self.nodes.get_mut(&pid) {
            let actions = node.on_message(ctx.now, from.0, msg);
            self.apply(ctx, pid, actions);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, token: u64) {
        let Some((nego, kind)) = decode_timer(token) else {
            return;
        };
        let pid = at.0;
        if let Some(node) = self.nodes.get_mut(&pid) {
            let actions = node.on_timer(ctx.now, nego, kind);
            self.apply(ctx, pid, actions);
        }
    }
}

/// [`Runtime`] backend over the `qosc-netsim` discrete-event simulator:
/// geometry, latency, loss, mobility and failure injection.
///
/// Construct the [`Simulator`] first (node positions, radio model,
/// mobility, scheduled failures), then register one [`CoalitionNode`] per
/// simulator node id.
pub struct DesRuntime {
    sim: Simulator<Msg>,
    host: DesHost,
    started: bool,
}

impl DesRuntime {
    /// Wraps a prepared simulator.
    pub fn new(sim: Simulator<Msg>) -> Self {
        Self {
            sim,
            host: DesHost::default(),
            started: false,
        }
    }

    /// The underlying simulator (positions, stats, radio).
    pub fn sim(&self) -> &Simulator<Msg> {
        &self.sim
    }

    /// Mutable simulator access for DES-only controls (failure injection,
    /// extra timers).
    pub fn sim_mut(&mut self) -> &mut Simulator<Msg> {
        &mut self.sim
    }

    /// The full network counters (the trait's [`Runtime::messages_sent`]
    /// is a summary of these).
    pub fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.sim.now();
        let mut startup: Vec<(Pid, Vec<Action>)> = Vec::new();
        for (pid, node) in self.host.nodes.iter_mut() {
            let actions = node.on_start(now);
            if !actions.is_empty() {
                startup.push((*pid, actions));
            }
        }
        for (pid, actions) in startup {
            for action in actions {
                match action {
                    Action::Timer { delay, token } => {
                        self.sim.schedule_timer(NodeId(pid), delay, token)
                    }
                    Action::Event(event) => self.host.events.push(LoggedEvent {
                        at: now,
                        node: pid,
                        event,
                    }),
                    // Startup runs outside the event loop, where the DES
                    // has no delivery context; an engine that needs to
                    // announce itself must arm a zero-delay timer instead.
                    // Failing loudly here keeps the DES-vs-Direct
                    // equivalence contract honest.
                    Action::Broadcast(_) | Action::Send { .. } => unreachable!(
                        "on_start must not emit messages directly; arm a zero-delay timer"
                    ),
                }
            }
        }
    }
}

impl Runtime for DesRuntime {
    fn backend_name(&self) -> &'static str {
        "des"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.host.nodes.contains_key(&id) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        debug_assert!(
            (id as usize) < self.sim.node_count(),
            "register sim node {id} (geometry) before its engines"
        );
        self.host.nodes.insert(id, node);
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let slot = self
            .host
            .nodes
            .get_mut(&node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        if slot.organizer.is_none() {
            return Err(RuntimeError::NoOrganizer(node));
        }
        slot.queue_service_at(at, service);
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(node), delay, kickoff_token(node));
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        if !self.host.nodes.contains_key(&nego.organizer) {
            return Err(RuntimeError::UnknownNode(nego.organizer));
        }
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(nego.organizer), delay, dissolve_token(nego));
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.start_nodes();
        self.sim.run_until(&mut self.host, deadline)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.sim.set_fault_plan(plan);
        true
    }

    fn set_partition_plan(&mut self, plan: &PartitionPlan) -> bool {
        self.sim.set_partition_plan(plan);
        true
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.host.events
    }

    fn messages_sent(&self) -> u64 {
        self.sim.stats().messages_sent()
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        self.host.nodes.get(&id)
    }
}

/// Convenience: builds a DES runtime where node 0 is the organizer (and a
/// provider) and the given engines are the providers, with `service`
/// queued at node 0 and its kickoff scheduled at `start`. The simulator
/// must already hold the matching geometry.
///
/// This is the canonical harness used by tests and several experiments;
/// richer topologies register [`CoalitionNode`]s directly.
pub fn single_organizer_scenario(
    sim: Simulator<Msg>,
    organizer_config: OrganizerConfig,
    providers: Vec<ProviderEngine>,
    service: ServiceDef,
    start: SimDuration,
) -> DesRuntime {
    let mut rt = DesRuntime::new(sim);
    let mut organizer = Some(OrganizerEngine::new(0, organizer_config));
    for p in providers {
        let id = ProviderEngine::id(&p);
        let mut node = CoalitionNode::new(id).with_provider(p);
        if id == 0 {
            node = node.with_organizer(organizer.take().expect("one provider per id"));
        }
        // Route every registration through add_node so a duplicate
        // provider id fails loudly instead of shadowing an engine.
        rt.add_node(node)
            .unwrap_or_else(|e| panic!("single_organizer_scenario: {e}"));
    }
    if let Some(org) = organizer {
        // No provider on node 0: the organizer still needs a home.
        rt.add_node(CoalitionNode::new(0).with_organizer(org))
            .unwrap_or_else(|e| panic!("single_organizer_scenario: {e}"));
    }
    rt.submit(0, service, SimTime::ZERO + start)
        .expect("node 0 registered");
    rt
}

// ---------------------------------------------------------------------------
// Sharded DES backend: region-partitioned conservative parallel simulation.
// ---------------------------------------------------------------------------

/// One shard's engine host: the [`CoalitionNode`]s of that shard's nodes
/// plus its slice of the event log. Run events are tagged with the
/// simulator's total-order key so per-shard logs merge into one
/// deterministic sequence afterwards.
#[derive(Default)]
struct ShardHost {
    nodes: BTreeMap<Pid, CoalitionNode>,
    events: Vec<((SimTime, u32, u64), LoggedEvent)>,
}

impl ShardHost {
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, at: Pid, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    let bytes = msg.estimated_bytes();
                    ctx.broadcast(NodeId(at), bytes, msg);
                }
                Action::Send { to, msg } => {
                    let bytes = msg.estimated_bytes();
                    ctx.unicast(NodeId(at), NodeId(to), bytes, msg);
                }
                Action::Timer { delay, token } => ctx.timer(NodeId(at), delay, token),
                Action::Event(event) => self.events.push((
                    ctx.order_key(),
                    LoggedEvent {
                        at: ctx.now,
                        node: at,
                        event,
                    },
                )),
            }
        }
    }
}

impl NetApp<Msg> for ShardHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, from: NodeId, msg: &Msg) {
        let pid = at.0;
        if let Some(node) = self.nodes.get_mut(&pid) {
            let actions = node.on_message(ctx.now, from.0, msg);
            self.apply(ctx, pid, actions);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, token: u64) {
        let Some((nego, kind)) = decode_timer(token) else {
            return;
        };
        let pid = at.0;
        if let Some(node) = self.nodes.get_mut(&pid) {
            let actions = node.on_timer(ctx.now, nego, kind);
            self.apply(ctx, pid, actions);
        }
    }
}

/// [`Runtime`] backend over the region-partitioned parallel simulator
/// ([`ShardedSimulator`]): same geometry, latency, loss and failure
/// semantics as [`DesRuntime`], with the event loop split across worker
/// threads under a conservative-lookahead horizon protocol.
///
/// Engine hosting follows the partition: nodes registered before the
/// first `run` are distributed into one host per shard, so a
/// worker thread only ever touches its own shard's engines. The event
/// log is merged across shards in total-order-key order after every run
/// — at one worker it is identical, entry for entry, to what
/// [`DesRuntime`] logs for the same scenario (pinned by the
/// sharded-equivalence system test); at higher worker counts it is the
/// same set of events in the same deterministic order for a given
/// partition.
pub struct DesShardedRuntime {
    sim: ShardedSimulator<Msg>,
    /// Nodes registered before the partition froze (pid order).
    staged: BTreeMap<Pid, CoalitionNode>,
    /// One host per shard once frozen.
    hosts: Vec<ShardHost>,
    /// Events emitted by `on_start`, before any simulator context exists.
    prelude: Vec<LoggedEvent>,
    /// Merged log: prelude + key-sorted run events; rebuilt after runs.
    merged: Vec<LoggedEvent>,
    frozen: bool,
}

impl DesShardedRuntime {
    /// Wraps a prepared sharded simulator.
    pub fn new(sim: ShardedSimulator<Msg>) -> Self {
        Self {
            sim,
            staged: BTreeMap::new(),
            hosts: Vec::new(),
            prelude: Vec::new(),
            merged: Vec::new(),
            frozen: false,
        }
    }

    /// The underlying simulator (positions, stats, radio, shard layout).
    pub fn sim(&self) -> &ShardedSimulator<Msg> {
        &self.sim
    }

    /// Mutable simulator access for DES-only controls (failure injection,
    /// extra timers).
    pub fn sim_mut(&mut self) -> &mut ShardedSimulator<Msg> {
        &mut self.sim
    }

    /// The full network counters, merged across shards.
    pub fn net_stats(&self) -> NetStats {
        self.sim.stats()
    }

    /// Starts every engine (pid order, like [`DesRuntime`]) and
    /// distributes the staged nodes into per-shard hosts. Runs once,
    /// implied by the first `run`.
    fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let now = self.sim.now();
        for (pid, node) in self.staged.iter_mut() {
            for action in node.on_start(now) {
                match action {
                    Action::Timer { delay, token } => {
                        self.sim.schedule_timer(NodeId(*pid), delay, token)
                    }
                    Action::Event(event) => self.prelude.push(LoggedEvent {
                        at: now,
                        node: *pid,
                        event,
                    }),
                    // Same contract as the sequential DES backend: no
                    // delivery context exists outside the event loop.
                    Action::Broadcast(_) | Action::Send { .. } => unreachable!(
                        "on_start must not emit messages directly; arm a zero-delay timer"
                    ),
                }
            }
        }
        let shards = self.sim.shard_count();
        self.hosts = (0..shards).map(|_| ShardHost::default()).collect();
        for (pid, node) in std::mem::take(&mut self.staged) {
            let q = self.sim.shard_of(NodeId(pid));
            self.hosts[q].nodes.insert(pid, node);
        }
        self.merged = self.prelude.clone();
    }

    /// Rebuilds the merged event log: prelude first (startup precedes the
    /// event loop), then every shard's entries sorted by total-order key.
    /// Equal keys only arise within one handler invocation — one shard —
    /// so the stable sort preserves their emission order.
    fn rebuild_events(&mut self) {
        let mut tagged: Vec<&((SimTime, u32, u64), LoggedEvent)> =
            self.hosts.iter().flat_map(|h| h.events.iter()).collect();
        tagged.sort_by_key(|(key, _)| *key);
        self.merged.clear();
        self.merged.extend(self.prelude.iter().cloned());
        self.merged
            .extend(tagged.into_iter().map(|(_, e)| e.clone()));
    }

    fn node_mut(&mut self, id: Pid) -> Option<&mut CoalitionNode> {
        if self.staged.contains_key(&id) {
            return self.staged.get_mut(&id);
        }
        self.hosts.iter_mut().find_map(|h| h.nodes.get_mut(&id))
    }
}

impl Runtime for DesShardedRuntime {
    fn backend_name(&self) -> &'static str {
        "des-sharded"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.staged.contains_key(&id) || self.hosts.iter().any(|h| h.nodes.contains_key(&id)) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        debug_assert!(
            (id as usize) < self.sim.node_count(),
            "register sim node {id} (geometry) before its engines"
        );
        if self.frozen {
            let q = self.sim.shard_of(NodeId(id));
            self.hosts[q].nodes.insert(id, node);
        } else {
            self.staged.insert(id, node);
        }
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let slot = self.node_mut(node).ok_or(RuntimeError::UnknownNode(node))?;
        if slot.organizer.is_none() {
            return Err(RuntimeError::NoOrganizer(node));
        }
        slot.queue_service_at(at, service);
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(node), delay, kickoff_token(node));
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        if self.node_mut(nego.organizer).is_none() {
            return Err(RuntimeError::UnknownNode(nego.organizer));
        }
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(nego.organizer), delay, dissolve_token(nego));
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.freeze();
        let n = self.sim.run_until(&mut self.hosts, deadline);
        self.rebuild_events();
        n
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.sim.set_fault_plan(plan);
        true
    }

    fn set_partition_plan(&mut self, plan: &PartitionPlan) -> bool {
        self.sim.set_partition_plan(plan);
        true
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.merged
    }

    fn messages_sent(&self) -> u64 {
        self.sim.stats().messages_sent()
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        self.staged
            .get(&id)
            .or_else(|| self.hosts.iter().find_map(|h| h.nodes.get(&id)))
    }
}

// ---------------------------------------------------------------------------
// Direct backend: zero-latency in-memory FIFO + timer wheel.
// ---------------------------------------------------------------------------

enum DirectKind {
    Deliver {
        from: Pid,
        to: Pid,
        /// Shared payload: a broadcast's deliveries all point at one
        /// allocation.
        msg: Arc<Msg>,
    },
    /// Stands in the queue for every CFP delivery filed under
    /// `(event.at, to)` in [`DirectRuntime::cfp_batches`], at the position
    /// of the first one filed.
    CfpBatch {
        to: Pid,
    },
    Timer {
        node: Pid,
        token: u64,
    },
}

/// The `(sender, payload)` deliveries of one coalesced CFP batch.
type CfpMembers = Vec<(Pid, Arc<Msg>)>;

struct DirectEvent {
    at: SimTime,
    seq: u64,
    kind: DirectKind,
}

impl PartialEq for DirectEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DirectEvent {}
impl PartialOrd for DirectEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DirectEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// [`Runtime`] backend with no network at all: messages are delivered at
/// their send timestamp (FIFO among simultaneous events), timers drive the
/// clock, every node hears every broadcast.
///
/// This is the fast path for tests, property checks and benches — and the
/// reference semantics for the DES at zero latency: for fully connected,
/// static, lossless scenarios the two produce identical event logs (the
/// `runtime_equivalence` system test pins this).
#[derive(Default)]
pub struct DirectRuntime {
    nodes: BTreeMap<Pid, CoalitionNode>,
    heap: BinaryHeap<DirectEvent>,
    seq: u64,
    now: SimTime,
    started: bool,
    events: Vec<LoggedEvent>,
    unicasts: u64,
    broadcasts: u64,
    /// Reused broadcast fan-out buffer (the same per-delivery allocation
    /// `Simulator` avoids with its scratch vec).
    bcast_scratch: Vec<Pid>,
    /// Installed when a [`FaultPlan`] with sampling content is set;
    /// `None` keeps the no-fault path allocation- and RNG-free.
    fault: Option<FaultSampler>,
    /// Partition schedule as installed; expanded against the registered
    /// node set on the first `run` (sampled plans bisect `0..node_count`,
    /// so expansion must wait until every node is known).
    partition_plan: Option<PartitionPlan>,
    /// Expanded schedule consulted per delivery; `None` = never cuts.
    partition: Option<PartitionTimeline>,
    /// Deliveries suppressed by the partition schedule.
    partition_cuts: u64,
    /// Coalesce same-instant CFP deliveries per target node (see
    /// [`DirectRuntime::set_cfp_batching`]).
    cfp_batching: bool,
    /// CFP deliveries coalesced at enqueue time, in send order, keyed by
    /// `(arrival instant, target)`; each entry has exactly one
    /// [`DirectKind::CfpBatch`] marker in the heap. Looked up by key only,
    /// never iterated, so the hash order cannot leak into a run.
    cfp_batches: HashMap<(SimTime, Pid), CfpMembers>,
}

impl DirectRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deliveries suppressed so far by the installed partition schedule.
    pub fn partition_cuts(&self) -> u64 {
        self.partition_cuts
    }

    /// True when the partition schedule separates `a` and `b` at `at`.
    fn cuts(&self, at: SimTime, a: Pid, b: Pid) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|tl| tl.cuts_at(at, a, b))
    }

    /// Enables (or disables) coalescing of same-instant CFP deliveries to
    /// one node into a single batched pricing pass
    /// ([`CoalitionNode::on_message_batch`]) — the open-loop load path:
    /// when many negotiations kick off in the same instant, every
    /// provider hears all their CFPs back-to-back, and batching prepares
    /// the repeated announcements once instead of once per negotiation.
    ///
    /// Coalescing happens when a delivery is enqueued: the first CFP for
    /// an `(arrival instant, node)` pair takes a place in the event queue
    /// and later ones are filed behind it, so a batch fires at the queue
    /// position of its earliest member and holds every CFP to that node
    /// and instant sent before it fires; CFPs sent after that start a new
    /// batch. Fault draws and the partition cut check still happen per
    /// delivery, and [`Runtime::run`] counts every coalesced delivery.
    ///
    /// Off by default. Batching preserves each node's own delivery order
    /// (the engine outcome per node is pinned identical by the
    /// `provider_batch` property test) but it *does* regroup
    /// same-timestamp deliveries across nodes, so the event-for-event
    /// `runtime_equivalence` pin only applies with batching off.
    ///
    /// The switch governs deliveries enqueued from now on. Mid-run,
    /// batches already filed are still delivered as batches after
    /// switching off, and CFP deliveries queued before switching on are
    /// delivered one by one; neither joins the other.
    pub fn set_cfp_batching(&mut self, on: bool) {
        self.cfp_batching = on;
    }

    fn push(&mut self, at: SimTime, kind: DirectKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(DirectEvent { at, seq, kind });
    }

    /// Queues one delivery (already past the fault draws and the cut
    /// check) for `when`. With batching on, a CFP joins the batch filed
    /// for its `(when, to)`, or opens one and queues its marker.
    fn push_delivery(&mut self, when: SimTime, from: Pid, to: Pid, msg: &Arc<Msg>) {
        let msg = Arc::clone(msg);
        if self.cfp_batching && matches!(&*msg, Msg::CallForProposals { .. }) {
            match self.cfp_batches.entry((when, to)) {
                Entry::Occupied(mut batch) => batch.get_mut().push((from, msg)),
                Entry::Vacant(slot) => {
                    slot.insert(vec![(from, msg)]);
                    self.push(when, DirectKind::CfpBatch { to });
                }
            }
        } else {
            self.push(when, DirectKind::Deliver { from, to, msg });
        }
    }

    /// When (and how often) one logical delivery lands, after consulting
    /// the fault sampler: `[None, None]` = dropped, one slot = normal,
    /// two slots = duplicated; reorder jitter pushes a copy later in time.
    /// Mirrors the DES simulator's fault hook so the two sampled backends
    /// inject the same fault vocabulary.
    fn fault_delivery_times(&mut self, base_at: SimTime) -> [Option<SimTime>; 2] {
        let Some(f) = self.fault.as_mut() else {
            return [Some(base_at), None];
        };
        let mut times = match f.on_delivery() {
            DeliveryFault::Drop => [None, None],
            DeliveryFault::None => [Some(base_at), None],
            DeliveryFault::Duplicate => [Some(base_at), Some(base_at)],
        };
        for slot in times.iter_mut().flatten() {
            if let Some(jitter) = f.reorder() {
                *slot += jitter;
            }
        }
        times
    }

    fn apply(&mut self, at: Pid, actions: Vec<Action>) {
        let now = self.now;
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    self.broadcasts += 1;
                    // Ascending-pid fan-out mirrors the DES's node order;
                    // each delivery clones the Arc, never the payload.
                    let mut targets = std::mem::take(&mut self.bcast_scratch);
                    targets.clear();
                    targets.extend(self.nodes.keys().copied().filter(|p| *p != at));
                    for &to in &targets {
                        for when in self.fault_delivery_times(now).into_iter().flatten() {
                            // Cut after the fault draws, on the arrival
                            // timestamp — the same discipline as the DES
                            // `Medium`, so RNG streams stay aligned.
                            if self.cuts(when, at, to) {
                                self.partition_cuts += 1;
                                continue;
                            }
                            self.push_delivery(when, at, to, &msg);
                        }
                    }
                    self.bcast_scratch = targets;
                }
                Action::Send { to, msg } => {
                    self.unicasts += 1;
                    if self.nodes.contains_key(&to) {
                        for when in self.fault_delivery_times(now).into_iter().flatten() {
                            if self.cuts(when, at, to) {
                                self.partition_cuts += 1;
                                continue;
                            }
                            self.push_delivery(when, at, to, &msg);
                        }
                    }
                }
                Action::Timer { delay, token } => {
                    self.push(now + delay, DirectKind::Timer { node: at, token });
                }
                Action::Event(event) => self.events.push(LoggedEvent {
                    at: now,
                    node: at,
                    event,
                }),
            }
        }
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if let Some(plan) = self.partition_plan.take() {
            let width = self.nodes.keys().next_back().map_or(0, |p| *p as usize + 1);
            let tl = plan.expand(width);
            self.partition = (!tl.is_empty()).then_some(tl);
        }
        let now = self.now;
        let pids: Vec<Pid> = self.nodes.keys().copied().collect();
        for pid in pids {
            let actions = self
                .nodes
                .get_mut(&pid)
                .map(|n| n.on_start(now))
                .unwrap_or_default();
            self.apply(pid, actions);
        }
    }
}

impl Runtime for DirectRuntime {
    fn backend_name(&self) -> &'static str {
        "direct"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.nodes.contains_key(&id) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        self.nodes.insert(id, node);
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let slot = self
            .nodes
            .get_mut(&node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        if slot.organizer.is_none() {
            return Err(RuntimeError::NoOrganizer(node));
        }
        let at = at.max(self.now);
        slot.queue_service_at(at, service);
        self.push(
            at,
            DirectKind::Timer {
                node,
                token: kickoff_token(node),
            },
        );
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        if !self.nodes.contains_key(&nego.organizer) {
            return Err(RuntimeError::UnknownNode(nego.organizer));
        }
        let at = at.max(self.now);
        self.push(
            at,
            DirectKind::Timer {
                node: nego.organizer,
                token: dissolve_token(nego),
            },
        );
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.start_nodes();
        let mut n = 0;
        while let Some(head) = self.heap.peek() {
            if head.at > deadline {
                self.now = deadline;
                break;
            }
            let ev = self.heap.pop().expect("peeked");
            self.now = ev.at;
            // `n` counts deliveries and timers, not queue entries: a batch
            // marker stands for every CFP filed behind it.
            let (at, actions) = match ev.kind {
                DirectKind::Deliver { from, to, msg } => {
                    n += 1;
                    let node = self.nodes.get_mut(&to);
                    (to, node.map(|node| node.on_message(ev.at, from, &msg)))
                }
                DirectKind::CfpBatch { to } => {
                    let batch = self.cfp_batches.remove(&(ev.at, to)).unwrap_or_default();
                    n += batch.len() as u64;
                    let node = self.nodes.get_mut(&to);
                    let actions = node.map(|node| match batch.as_slice() {
                        [(from, msg)] => node.on_message(ev.at, *from, msg),
                        members => {
                            let refs: Vec<(Pid, &Msg)> =
                                members.iter().map(|(f, m)| (*f, &**m)).collect();
                            node.on_message_batch(ev.at, &refs)
                        }
                    });
                    (to, actions)
                }
                DirectKind::Timer { node, token } => {
                    let Some((nego, kind)) = decode_timer(token) else {
                        continue;
                    };
                    n += 1;
                    let engine = self.nodes.get_mut(&node);
                    (node, engine.map(|e| e.on_timer(ev.at, nego, kind)))
                }
            };
            self.apply(at, actions.unwrap_or_default());
        }
        n
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.events
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.fault = plan.samples_anything().then(|| FaultSampler::new(plan));
        true
    }

    fn set_partition_plan(&mut self, plan: &PartitionPlan) -> bool {
        self.partition_plan = (!plan.is_none()).then(|| plan.clone());
        true
    }

    fn messages_sent(&self) -> u64 {
        self.unicasts + self.broadcasts
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        self.nodes.get(&id)
    }
}

// ---------------------------------------------------------------------------
// Actor backend: live threads, wall-clock timers.
// ---------------------------------------------------------------------------

/// Wire format of the actor backend. `Clone` lets the [`Directory`] fan a
/// broadcast to every mailbox, but the payload rides behind `Arc` — each
/// fan-out copy is a pointer clone, not a message clone.
#[derive(Clone)]
pub enum ActorWire {
    /// A protocol message from a peer.
    Proto {
        /// Sending node.
        from: Pid,
        /// The shared payload.
        msg: Arc<Msg>,
    },
    /// A timer armed by one of the node's engines fired.
    Timer(u64),
    /// Control: enqueue a service on the node's kickoff queue, keyed by
    /// its kickoff time.
    Queue(SimTime, ServiceDef),
}

struct ActorNode {
    node: CoalitionNode,
    dir: Directory<ActorWire>,
    epoch: Instant,
    events: Sender<LoggedEvent>,
    sent: Arc<AtomicU64>,
}

impl ActorNode {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn apply(&mut self, ctx: &ActorCtx<ActorWire>, actions: Vec<Action>) {
        let id = self.node.id();
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    self.sent.fetch_add(1, AtomicOrdering::Relaxed);
                    // The directory clones the wire struct per peer; every
                    // clone shares this one payload allocation.
                    self.dir.broadcast(id, &ActorWire::Proto { from: id, msg });
                }
                Action::Send { to, msg } => {
                    self.sent.fetch_add(1, AtomicOrdering::Relaxed);
                    self.dir.send(id, to, ActorWire::Proto { from: id, msg });
                }
                Action::Timer { delay, token } => {
                    send_timer_after(ctx.myself(), token, delay);
                }
                Action::Event(event) => {
                    let _ = self.events.send(LoggedEvent {
                        at: self.now(),
                        node: id,
                        event,
                    });
                }
            }
        }
    }
}

impl Actor for ActorNode {
    type Msg = ActorWire;

    fn on_start(&mut self, ctx: &ActorCtx<ActorWire>) {
        let now = self.now();
        let actions = self.node.on_start(now);
        self.apply(ctx, actions);
    }

    fn handle(&mut self, ctx: &ActorCtx<ActorWire>, msg: ActorWire) {
        let now = self.now();
        match msg {
            ActorWire::Proto { from, msg } => {
                let actions = self.node.on_message(now, from, &msg);
                self.apply(ctx, actions);
            }
            ActorWire::Timer(token) => {
                let Some((nego, kind)) = decode_timer(token) else {
                    return;
                };
                let actions = self.node.on_timer(now, nego, kind);
                self.apply(ctx, actions);
            }
            ActorWire::Queue(at, service) => self.node.queue_service_at(at, service),
        }
    }
}

/// Fires `token` at `addr` after `delay`, from a detached timer thread
/// (dropped silently if the actor has stopped meanwhile).
fn send_timer_after(addr: Addr<ActorWire>, token: u64, delay: SimDuration) {
    let d = Duration::from_micros(delay.as_micros());
    std::thread::spawn(move || {
        std::thread::sleep(d);
        let _ = addr.send(ActorWire::Timer(token));
    });
}

/// [`Runtime`] backend on the live threaded transport: each node runs on
/// its own OS thread with real wall-clock timers; a process-wide
/// [`Directory`] plays the radio's role (broadcast = clone-to-all, with an
/// optional reachability restriction for emulating partial topologies).
///
/// `SimTime` maps 1:1 onto microseconds of wall time since the runtime
/// was created; event timestamps and formation latencies are therefore
/// real measurements, not simulated ones.
pub struct ActorRuntime {
    system: ActorSystem,
    dir: Directory<ActorWire>,
    addrs: BTreeMap<Pid, Addr<ActorWire>>,
    /// Pids whose node had an organizer at registration (the nodes
    /// themselves live on their threads, so submit checks this copy).
    organizers: std::collections::BTreeSet<Pid>,
    epoch: Instant,
    rx: Receiver<LoggedEvent>,
    tx: Sender<LoggedEvent>,
    events: Vec<LoggedEvent>,
    sent: Arc<AtomicU64>,
    down: bool,
}

impl ActorRuntime {
    /// Creates an empty runtime (the epoch of its wall clock).
    pub fn new() -> Self {
        let (tx, rx) = unbounded();
        Self {
            system: ActorSystem::new(),
            dir: Directory::new(),
            addrs: BTreeMap::new(),
            organizers: std::collections::BTreeSet::new(),
            epoch: Instant::now(),
            rx,
            tx,
            events: Vec::new(),
            sent: Arc::new(AtomicU64::new(0)),
            down: false,
        }
    }

    /// The peer directory — restrict reachability with
    /// [`Directory::set_reachable`] to emulate partial topologies.
    pub fn directory(&self) -> &Directory<ActorWire> {
        &self.dir
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn drain(&mut self) {
        while let Ok(e) = self.rx.try_recv() {
            self.events.push(e);
        }
    }

    /// Wall-clock instant corresponding to a virtual deadline.
    fn wall(&self, deadline: SimTime) -> Instant {
        self.epoch + Duration::from_micros(deadline.as_micros())
    }
}

impl Default for ActorRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime for ActorRuntime {
    fn backend_name(&self) -> &'static str {
        "actor"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.addrs.contains_key(&id) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        if node.organizer().is_some() {
            self.organizers.insert(id);
        }
        let actor = ActorNode {
            node,
            dir: self.dir.clone(),
            epoch: self.epoch,
            events: self.tx.clone(),
            sent: Arc::clone(&self.sent),
        };
        let addr = self.system.spawn(format!("node-{id}"), actor);
        self.dir.register(id, addr.clone());
        self.addrs.insert(id, addr);
        Ok(())
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let addr = self
            .addrs
            .get(&node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        if !self.organizers.contains(&node) {
            return Err(RuntimeError::NoOrganizer(node));
        }
        // The queue entry rides the FIFO mailbox ahead of the kickoff.
        addr.send(ActorWire::Queue(at, service));
        let delay = at.since(self.now());
        send_timer_after(addr.clone(), kickoff_token(node), delay);
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        let addr = self
            .addrs
            .get(&nego.organizer)
            .ok_or(RuntimeError::UnknownNode(nego.organizer))?;
        let delay = at.since(self.now());
        send_timer_after(addr.clone(), dissolve_token(nego), delay);
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        let wall = self.wall(deadline);
        let mut n = 0;
        loop {
            let now = Instant::now();
            if now >= wall {
                break;
            }
            let step = (wall - now).min(Duration::from_millis(50));
            if let Ok(e) = self.rx.recv_timeout(step) {
                self.events.push(e);
                n += 1;
            }
        }
        self.drain();
        n
    }

    fn run_until_settled(&mut self, settled: usize, deadline: SimTime) -> usize {
        let wall = self.wall(deadline);
        loop {
            self.drain();
            let count = settled_count(&self.events);
            if count >= settled {
                return count;
            }
            let now = Instant::now();
            if now >= wall {
                return count;
            }
            let step = (wall - now).min(Duration::from_millis(50));
            if let Ok(e) = self.rx.recv_timeout(step) {
                self.events.push(e);
            }
        }
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.events
    }

    fn messages_sent(&self) -> u64 {
        self.sent.load(AtomicOrdering::Relaxed)
    }

    fn node(&self, _id: Pid) -> Option<&CoalitionNode> {
        None
    }

    fn shutdown(&mut self) {
        if !self.down {
            self.down = true;
            self.system.shutdown();
            self.drain();
        }
    }
}

impl Drop for ActorRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organizer::OrganizerConfig;
    use crate::provider::{ProviderConfig, ProviderEngine};
    use qosc_netsim::{Area, Mobility, Point, SimConfig};
    use qosc_resources::{av_demand_model, ResourceVector};
    use qosc_spec::{catalog, TaskDef};

    fn provider(id: Pid, cpu: f64) -> ProviderEngine {
        let mut p = ProviderEngine::new(
            id,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig::default(),
        );
        let spec = catalog::av_spec();
        p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
        p
    }

    fn service(tasks: usize) -> ServiceDef {
        ServiceDef::new(
            "svc",
            (0..tasks)
                .map(|i| TaskDef {
                    name: format!("t{i}"),
                    spec: catalog::av_spec(),
                    request: catalog::surveillance_request(),
                    input_bytes: 100_000,
                    output_bytes: 10_000,
                })
                .collect(),
        )
    }

    fn clustered_sim(n: usize) -> Simulator<Msg> {
        let mut sim = Simulator::new(SimConfig {
            area: Area::new(100.0, 100.0),
            seed: 42,
            ..Default::default()
        });
        for i in 0..n {
            // All nodes within a 30 m cluster; default range is 50 m.
            let angle = i as f64;
            sim.add_node(
                Point::new(50.0 + 10.0 * angle.cos(), 50.0 + 10.0 * angle.sin()),
                Mobility::Static,
            );
        }
        sim
    }

    fn direct_runtime(cpus: &[f64]) -> DirectRuntime {
        let mut rt = DirectRuntime::new();
        for (i, cpu) in cpus.iter().enumerate() {
            let id = i as Pid;
            let mut node = CoalitionNode::new(id).with_provider(provider(id, *cpu));
            if i == 0 {
                node = node.with_organizer(OrganizerEngine::new(id, OrganizerConfig::default()));
            }
            rt.add_node(node).unwrap();
        }
        rt
    }

    #[test]
    fn des_end_to_end_formation() {
        let sim = clustered_sim(4);
        let providers = (0..4)
            .map(|i| provider(i, 200.0 + 100.0 * i as f64))
            .collect();
        let mut rt = single_organizer_scenario(
            sim,
            OrganizerConfig::default(),
            providers,
            service(2),
            SimDuration::millis(1),
        );
        rt.run(SimTime(5_000_000));
        let formed: Vec<_> = rt
            .events()
            .iter()
            .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
            .collect();
        assert_eq!(formed.len(), 1, "events: {:?}", rt.events());
        if let NegoEvent::Formed { metrics, .. } = &formed[0].event {
            assert_eq!(metrics.outcomes.len(), 2);
            assert!(metrics.unassigned.is_empty());
            // Every winner offered the preferred quality (all nodes rich).
            for o in metrics.outcomes.values() {
                assert_eq!(o.distance, 0.0);
            }
        }
    }

    #[test]
    fn des_organizer_node_can_win_local_tasks() {
        // Only node 0 exists: the coalition must be the organizer itself.
        let sim = clustered_sim(1);
        let providers = vec![provider(0, 500.0)];
        let mut rt = single_organizer_scenario(
            sim,
            OrganizerConfig::default(),
            providers,
            service(1),
            SimDuration::millis(1),
        );
        rt.run(SimTime(5_000_000));
        let formed = rt
            .events()
            .iter()
            .find(|e| matches!(e.event, NegoEvent::Formed { .. }))
            .expect("coalition should form locally");
        if let NegoEvent::Formed { metrics, .. } = &formed.event {
            assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].node, 0);
            assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].comm_cost, 0.0);
        }
    }

    #[test]
    fn des_no_capable_neighbours_yields_incomplete_formation() {
        let sim = clustered_sim(3);
        // All providers far too weak for even the most degraded level.
        let providers = (0..3).map(|i| provider(i, 0.5)).collect();
        let mut rt = single_organizer_scenario(
            sim,
            OrganizerConfig {
                max_rounds: 2,
                ..Default::default()
            },
            providers,
            service(1),
            SimDuration::millis(1),
        );
        rt.run(SimTime(5_000_000));
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::FormationIncomplete { .. })));
    }

    #[test]
    fn des_failure_during_operation_reconfigures_to_surviving_node() {
        let sim = clustered_sim(3);
        // Node 0 (the organizer) is too weak to offer preferred quality, so
        // a remote node wins; nodes 1 and 2 tie at distance 0 and equal
        // comm cost, and the lowest id (1) is selected. Node 2 is the
        // fallback after node 1 dies.
        let providers = vec![provider(0, 10.0), provider(1, 500.0), provider(2, 400.0)];
        let mut rt = single_organizer_scenario(
            sim,
            OrganizerConfig::default(),
            providers,
            service(1),
            SimDuration::millis(1),
        );
        // Kill node 1 after formation settles (~300 ms), then run long
        // enough for miss detection (3 × 500 ms) and reconfiguration.
        rt.sim_mut()
            .schedule_down(NodeId(1), SimDuration::millis(600));
        rt.run(SimTime(10_000_000));
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::MemberFailed { node: 1, .. })));
        let formed_events = rt
            .events()
            .iter()
            .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
            .count();
        assert!(formed_events >= 1);
    }

    #[test]
    fn des_deterministic_across_runs() {
        let run = || {
            let sim = clustered_sim(5);
            let providers = (0..5)
                .map(|i| provider(i, 100.0 + 50.0 * i as f64))
                .collect();
            let mut rt = single_organizer_scenario(
                sim,
                OrganizerConfig::default(),
                providers,
                service(3),
                SimDuration::millis(1),
            );
            rt.run(SimTime(5_000_000));
            (rt.events().to_vec(), rt.net_stats().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn direct_forms_same_coalition_as_des() {
        let cpus = [12.0, 60.0, 500.0];
        let mut rt = direct_runtime(&cpus);
        rt.submit(0, service(1), SimTime(1_000)).unwrap();
        rt.run(SimTime(5_000_000));
        let formed = rt
            .events()
            .iter()
            .find(|e| matches!(e.event, NegoEvent::Formed { .. }))
            .expect("direct coalition");
        if let NegoEvent::Formed { metrics, .. } = &formed.event {
            // Node 0 cannot serve preferred quality; 1 and 2 tie at
            // distance 0 and the lowest id wins.
            assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].node, 1);
            assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].distance, 0.0);
        }
    }

    #[test]
    fn direct_is_deterministic() {
        let run = || {
            let mut rt = direct_runtime(&[30.0, 70.0, 200.0, 90.0]);
            rt.submit(0, service(2), SimTime(1_000)).unwrap();
            rt.run(SimTime(5_000_000));
            (rt.events().to_vec(), rt.messages_sent())
        };
        assert_eq!(run(), run());
    }

    /// A CFP announcing nothing: providers answer it with silence, so a
    /// run's event count is exactly the number of CFP deliveries.
    fn silent_cfp(organizer: Pid) -> Action {
        Action::broadcast(Msg::CallForProposals {
            nego: NegoId { organizer, seq: 0 },
            tasks: Vec::new(),
            round: 0,
        })
    }

    /// `(batch markers, plain CFP deliveries)` waiting in the queue.
    fn queued_cfps(rt: &DirectRuntime) -> (usize, usize) {
        let markers = rt
            .heap
            .iter()
            .filter(|e| matches!(e.kind, DirectKind::CfpBatch { .. }))
            .count();
        let plain = rt
            .heap
            .iter()
            .filter(|e| matches!(e.kind, DirectKind::Deliver { .. }))
            .count();
        (markers, plain)
    }

    #[test]
    fn batches_filed_before_switching_batching_off_are_still_delivered() {
        let mut rt = direct_runtime(&[100.0, 100.0, 100.0]);
        rt.set_cfp_batching(true);
        rt.apply(0, vec![silent_cfp(0)]);
        rt.apply(1, vec![silent_cfp(1)]);
        // One batch per target; node 2 hears both organizers.
        assert_eq!(queued_cfps(&rt), (3, 0));
        let from_of = |rt: &DirectRuntime, to: Pid| -> Vec<Pid> {
            rt.cfp_batches[&(SimTime::ZERO, to)]
                .iter()
                .map(|(from, _)| *from)
                .collect()
        };
        assert_eq!(from_of(&rt, 2), [0, 1]);

        rt.set_cfp_batching(false);
        rt.apply(2, vec![silent_cfp(2)]);
        // The late CFPs queue as plain deliveries and join no filed batch.
        assert_eq!(queued_cfps(&rt), (3, 2));
        assert_eq!(from_of(&rt, 0), [1]);
        assert_eq!(from_of(&rt, 1), [0]);

        assert_eq!(rt.run(SimTime::ZERO), 6, "four filed + two plain");
        assert!(rt.cfp_batches.is_empty() && rt.heap.is_empty());
    }

    #[test]
    fn cfps_queued_before_switching_batching_on_are_delivered_singly() {
        let mut rt = direct_runtime(&[100.0, 100.0, 100.0]);
        rt.apply(0, vec![silent_cfp(0)]);
        assert_eq!(queued_cfps(&rt), (0, 2));

        rt.set_cfp_batching(true);
        rt.apply(1, vec![silent_cfp(1)]);
        // Node 2 already has node 0's CFP queued for this instant; the
        // batch opened for it now holds node 1's alone.
        assert_eq!(queued_cfps(&rt), (2, 2));
        assert_eq!(rt.cfp_batches[&(SimTime::ZERO, 2)].len(), 1);

        assert_eq!(rt.run(SimTime::ZERO), 4);
        assert!(rt.cfp_batches.is_empty() && rt.heap.is_empty());
    }

    #[test]
    fn duplicate_registration_is_rejected_on_every_backend() {
        // Regression: SimHost silently overwrote engines registered under
        // a duplicate Pid, losing ledgers and negotiations.
        let mut direct = DirectRuntime::new();
        assert!(direct.add_node(CoalitionNode::new(7)).is_ok());
        assert_eq!(
            direct.add_node(CoalitionNode::new(7)),
            Err(RuntimeError::DuplicateNode(7))
        );

        let mut sim = Simulator::new(SimConfig::default());
        sim.add_node(Point::new(0.0, 0.0), Mobility::Static);
        let mut des = DesRuntime::new(sim);
        assert!(des.add_node(CoalitionNode::new(0)).is_ok());
        assert_eq!(
            des.add_node(CoalitionNode::new(0)),
            Err(RuntimeError::DuplicateNode(0))
        );

        let mut actor = ActorRuntime::new();
        assert!(actor.add_node(CoalitionNode::new(3)).is_ok());
        assert_eq!(
            actor.add_node(CoalitionNode::new(3)),
            Err(RuntimeError::DuplicateNode(3))
        );
        actor.shutdown();
    }

    #[test]
    fn unknown_node_submission_is_rejected() {
        let mut rt = DirectRuntime::new();
        assert_eq!(
            rt.submit(9, service(1), SimTime::ZERO),
            Err(RuntimeError::UnknownNode(9))
        );
        // A provider-only node would pop the kickoff and drop the service
        // on the floor; submit must refuse up front instead.
        rt.add_node(CoalitionNode::new(4).with_provider(provider(4, 100.0)))
            .unwrap();
        assert_eq!(
            rt.submit(4, service(1), SimTime::ZERO),
            Err(RuntimeError::NoOrganizer(4))
        );
        assert_eq!(
            rt.schedule_dissolve(
                NegoId {
                    organizer: 9,
                    seq: 0
                },
                SimTime::ZERO
            ),
            Err(RuntimeError::UnknownNode(9))
        );
    }

    #[test]
    fn out_of_order_submissions_start_in_kickoff_time_order() {
        // Regression: kickoff timers all look alike, so a service
        // submitted later but scheduled earlier must still be the one
        // the earlier timer starts. The one-task service kicks off at
        // t=1s, the two-task one at t=2s — submitted in reverse.
        let mut rt = direct_runtime(&[500.0, 400.0, 300.0]);
        rt.submit(0, service(2), SimTime(2_000_000)).unwrap();
        rt.submit(0, service(1), SimTime(1_000_000)).unwrap();
        rt.run(SimTime(10_000_000));
        let formed: Vec<_> = rt
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                NegoEvent::Formed { metrics, .. } => Some(metrics.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(formed.len(), 2, "events: {:?}", rt.events());
        assert_eq!(formed[0].started_at, Some(SimTime(1_000_000)));
        assert_eq!(
            formed[0].outcomes.len(),
            1,
            "t=1s starts the 1-task service"
        );
        assert_eq!(formed[1].started_at, Some(SimTime(2_000_000)));
        assert_eq!(
            formed[1].outcomes.len(),
            2,
            "t=2s starts the 2-task service"
        );
    }

    #[test]
    fn direct_dissolution_releases_resources() {
        let mut rt = direct_runtime(&[500.0, 400.0]);
        rt.submit(0, service(1), SimTime(1_000)).unwrap();
        rt.run(SimTime(1_000_000));
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::Formed { .. })));
        let nego = NegoId {
            organizer: 0,
            seq: 0,
        };
        rt.schedule_dissolve(nego, SimTime(1_500_000)).unwrap();
        rt.run(SimTime(3_000_000));
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::Dissolved { .. })));
    }

    #[test]
    fn actor_backend_forms_a_coalition() {
        let mut rt = ActorRuntime::new();
        for (i, cpu) in [12.0f64, 60.0, 500.0].iter().enumerate() {
            let id = i as Pid;
            let mut node = CoalitionNode::new(id).with_provider(provider(id, *cpu));
            if i == 0 {
                node = node.with_organizer(OrganizerEngine::new(id, OrganizerConfig::default()));
            }
            rt.add_node(node).unwrap();
        }
        rt.submit(0, service(1), SimTime(1_000)).unwrap();
        let settled = rt.run_until_settled(1, SimTime(15_000_000));
        assert_eq!(settled, 1, "live coalition should settle within 15 s");
        assert!(rt
            .events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::Formed { .. })));
        assert!(rt.messages_sent() > 0);
        rt.shutdown();
    }
}
