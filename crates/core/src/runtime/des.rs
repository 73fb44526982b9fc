//! The DES backends: [`DesRuntime`] over the sequential `qosc-netsim`
//! simulator and [`DesShardedRuntime`] over its region-partitioned
//! parallel sibling.

use qosc_netsim::{
    FaultPlan, NetStats, NodeId, PartitionPlan, ShardedSimulator, SimDuration, SimTime, Simulator,
};
use qosc_spec::ServiceDef;

use super::host::{Host, OrderKey};
use super::{
    dissolve_token, kickoff_token, CoalitionNode, LoggedEvent, NodeEngine, Runtime, RuntimeError,
};
use crate::organizer::{OrganizerConfig, OrganizerEngine};
use crate::protocol::{Msg, NegoId, Pid};
use crate::provider::ProviderEngine;

/// [`Runtime`] backend over the `qosc-netsim` discrete-event simulator:
/// geometry, latency, loss, mobility and failure injection.
///
/// Construct the [`Simulator`] first (node positions, radio model,
/// mobility, scheduled failures), then register one [`CoalitionNode`] per
/// simulator node id.
pub struct DesRuntime {
    sim: Simulator<Msg>,
    host: Host,
    started: bool,
}

impl DesRuntime {
    /// Wraps a prepared simulator.
    pub fn new(sim: Simulator<Msg>) -> Self {
        Self {
            sim,
            host: Host::default(),
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
}

impl Runtime for DesRuntime {
    fn backend_name(&self) -> &'static str {
        "des"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        self.host.add_node(node, Some(self.sim.node_count()))
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        self.host.queue_service(node, service, at)?;
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(node), delay, kickoff_token(node));
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        self.host.known(nego.organizer)?;
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(nego.organizer), delay, dissolve_token(nego));
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        if !self.started {
            self.started = true;
            let sim = &mut self.sim;
            self.host
                .start_des(sim.now(), |n, d, t| sim.schedule_timer(n, d, t));
        }
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
    /// Every node until the partition freezes; afterwards only the events
    /// `on_start` emitted, before any simulator context existed.
    staged: Host,
    /// One host per shard once frozen.
    hosts: Vec<Host>,
    /// Merged log: start-up events + key-sorted run events; rebuilt after
    /// runs.
    merged: Vec<LoggedEvent>,
    frozen: bool,
}

impl DesShardedRuntime {
    /// Wraps a prepared sharded simulator.
    pub fn new(sim: ShardedSimulator<Msg>) -> Self {
        Self {
            sim,
            staged: Host::default(),
            hosts: Vec::new(),
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
        let sim = &mut self.sim;
        self.staged
            .start_des(sim.now(), |n, d, t| sim.schedule_timer(n, d, t));
        self.hosts = (0..sim.shard_count()).map(|_| Host::keyed()).collect();
        for (pid, node) in std::mem::take(&mut self.staged.nodes) {
            self.hosts[sim.shard_of(NodeId(pid))]
                .nodes
                .insert(pid, node);
        }
    }

    /// Rebuilds the merged event log: start-up events first (they precede
    /// the event loop), then every shard's entries sorted by total-order
    /// key. Equal keys only arise within one handler invocation — one
    /// shard — so the stable sort preserves their emission order.
    fn rebuild_events(&mut self) {
        let mut tagged: Vec<(OrderKey, &LoggedEvent)> =
            self.hosts.iter().flat_map(Host::keyed_events).collect();
        tagged.sort_by_key(|(key, _)| *key);
        self.merged.clear();
        self.merged.extend(self.staged.events.iter().cloned());
        self.merged
            .extend(tagged.into_iter().map(|(_, e)| e.clone()));
    }

    /// The host `id` is (or would be) registered with.
    fn host_of(&mut self, id: Pid) -> &mut Host {
        if self.frozen {
            let q = self.sim.shard_of(NodeId(id));
            &mut self.hosts[q]
        } else {
            &mut self.staged
        }
    }
}

impl Runtime for DesShardedRuntime {
    fn backend_name(&self) -> &'static str {
        "des-sharded"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        let sim_nodes = self.sim.node_count();
        self.host_of(node.id()).add_node(node, Some(sim_nodes))
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        self.host_of(node).queue_service(node, service, at)?;
        let delay = at.since(self.sim.now());
        self.sim
            .schedule_timer(NodeId(node), delay, kickoff_token(node));
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        self.host_of(nego.organizer).known(nego.organizer)?;
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
            .nodes
            .get(&id)
            .or_else(|| self.hosts.iter().find_map(|h| h.nodes.get(&id)))
    }
}
