//! The one engine host every backend feeds: the node table, the
//! registration/submission checks, timer-token decoding and the event
//! log. [`DesRuntime`](super::DesRuntime) plugs it into the simulator as
//! its [`NetApp`]; [`DirectRuntime`](super::DirectRuntime) drives it from
//! its own queue.

use std::collections::BTreeMap;

use qosc_netsim::{Ctx, NetApp, NodeId, SimTime, Simulator};
use qosc_spec::ServiceDef;

use super::{CoalitionNode, LoggedEvent, NodeEngine, RuntimeError};
use crate::metrics::NegoEvent;
use crate::protocol::{decode_timer, Action, Msg, Pid};

/// Node table and event log of one runtime.
#[derive(Default)]
pub(super) struct Host {
    pub(super) nodes: BTreeMap<Pid, CoalitionNode>,
    pub(super) events: Vec<LoggedEvent>,
}

impl Host {
    /// Registers a node. `sim_nodes` is the simulator's node count on the
    /// backends with geometry: an engine for an id the simulator does not
    /// have could never be reached by a timer or a delivery.
    pub(super) fn add_node(
        &mut self,
        node: CoalitionNode,
        sim_nodes: Option<usize>,
    ) -> Result<(), RuntimeError> {
        let id = node.id();
        if self.nodes.contains_key(&id) {
            return Err(RuntimeError::DuplicateNode(id));
        }
        if sim_nodes.is_some_and(|n| id as usize >= n) {
            return Err(RuntimeError::UnknownNode(id));
        }
        self.nodes.insert(id, node);
        Ok(())
    }

    /// `Ok` when `id` is registered.
    pub(super) fn known(&self, id: Pid) -> Result<(), RuntimeError> {
        if self.nodes.contains_key(&id) {
            Ok(())
        } else {
            Err(RuntimeError::UnknownNode(id))
        }
    }

    /// Queues `service` for the kickoff timer the caller arms for `at`.
    pub(super) fn queue_service(
        &mut self,
        node: Pid,
        service: ServiceDef,
        at: SimTime,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .nodes
            .get_mut(&node)
            .ok_or(RuntimeError::UnknownNode(node))?;
        if slot.organizer().is_none() {
            return Err(RuntimeError::NoOrganizer(node));
        }
        slot.queue_service_at(at, service);
        Ok(())
    }

    /// Starts every node in pid order, returning the non-empty action
    /// lists for the backend to apply.
    pub(super) fn start(&mut self, now: SimTime) -> Vec<(Pid, Vec<Action>)> {
        self.nodes
            .iter_mut()
            .map(|(pid, node)| (*pid, node.on_start(now)))
            .filter(|(_, actions)| !actions.is_empty())
            .collect()
    }

    /// [`Host::start`] for the DES backend, which starts its nodes
    /// outside the event loop: timers go to `sim`, events to the log.
    pub(super) fn start_des(&mut self, sim: &mut Simulator<Msg>) {
        let now = sim.now();
        for (pid, actions) in self.start(now) {
            for action in actions {
                match action {
                    Action::Timer { delay, token } => sim.schedule_timer(NodeId(pid), delay, token),
                    Action::Event(event) => self.log(now, pid, event),
                    // The DES has no delivery context outside the event
                    // loop; an engine that needs to announce itself must
                    // arm a zero-delay timer instead. Failing loudly here
                    // keeps the DES-vs-Direct equivalence contract honest.
                    Action::Broadcast(_) | Action::Send { .. } => unreachable!(
                        "on_start must not emit messages directly; arm a zero-delay timer"
                    ),
                }
            }
        }
    }

    /// Delivers `msg` to `to`; an unregistered target hears nothing.
    pub(super) fn message(&mut self, now: SimTime, to: Pid, from: Pid, msg: &Msg) -> Vec<Action> {
        match self.nodes.get_mut(&to) {
            Some(node) => node.on_message(now, from, msg),
            None => Vec::new(),
        }
    }

    /// Fires `token` at `at`. `None` when the token is not a protocol
    /// timer (the backend skips it uncounted).
    pub(super) fn timer(&mut self, now: SimTime, at: Pid, token: u64) -> Option<Vec<Action>> {
        let (nego, kind) = decode_timer(token)?;
        Some(match self.nodes.get_mut(&at) {
            Some(node) => node.on_timer(now, nego, kind),
            None => Vec::new(),
        })
    }

    /// Appends to the event log.
    pub(super) fn log(&mut self, at: SimTime, node: Pid, event: NegoEvent) {
        self.events.push(LoggedEvent { at, node, event });
    }

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
                Action::Event(event) => self.log(ctx.now, at, event),
            }
        }
    }
}

impl NetApp<Msg> for Host {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, from: NodeId, msg: &Msg) {
        let actions = self.message(ctx.now, at.0, from.0, msg);
        self.apply(ctx, at.0, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, token: u64) {
        if let Some(actions) = self.timer(ctx.now, at.0, token) {
            self.apply(ctx, at.0, actions);
        }
    }
}
