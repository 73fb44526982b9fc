//! The DES backend: [`DesRuntime`] over the `qosc-netsim` simulator.

use qosc_netsim::{FaultPlan, NetStats, NodeId, PartitionPlan, SimDuration, SimTime, Simulator};
use qosc_spec::ServiceDef;

use super::host::Host;
use super::{dissolve_token, kickoff_token, CoalitionNode, LoggedEvent, Runtime, RuntimeError};
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
            self.host.start_des(&mut self.sim);
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
