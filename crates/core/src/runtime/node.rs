//! The uniform sans-IO surface the backends drive: [`NodeEngine`] and the
//! per-node composite [`CoalitionNode`].

use qosc_netsim::SimTime;
use qosc_spec::ServiceDef;

use crate::organizer::OrganizerEngine;
use crate::protocol::{Action, Msg, NegoId, Pid, TimerKind};
use crate::provider::ProviderEngine;

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

    /// Mutable provider access (fault injectors, model checking).
    pub fn provider_mut(&mut self) -> Option<&mut ProviderEngine> {
        self.provider.as_mut()
    }

    /// Queues a service to be started by the kickoff timer armed for
    /// `at` (see [`super::kickoff_token`]; [`super::Runtime::submit`] arms
    /// it for you). Entries are kept in kickoff-time order — kickoff
    /// timers all look alike, so the earliest-firing timer must pop the
    /// earliest-`at` service even when submissions arrive out of time
    /// order.
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
