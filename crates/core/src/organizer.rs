//! The Negotiation Organizer engine (paper §4.2).
//!
//! "When a user requests a service, with its specific QoS preferences, on a
//! particular node the QoS Provider starts and guides all the negotiation
//! process. It plays the role of Negotiation Organizer."
//!
//! The engine is sans-IO: every input (message, timer) returns a list of
//! [`Action`]s for the transport to execute. One engine instance lives on
//! every node that originates services; it can run any number of
//! negotiations concurrently, each keyed by [`NegoId`].
//!
//! State machine per negotiation:
//!
//! ```text
//!            start_service
//!                 │ broadcast CFP, arm proposal deadline
//!                 ▼
//!           ┌─ Collecting ─┐ proposal deadline: evaluate (eq. 2–5),
//!           │              │ select winners (§4.2 tie-break), send awards
//!           ▼              │
//!        Awarding ◄────────┘
//!           │ all accepts (or award deadline): unplaced tasks retry in a
//!           │ new round (bounded); otherwise →
//!           ▼
//!        Operating — heartbeat monitoring; a missed member triggers a
//!           │         reconfiguration round for its tasks (Formation
//!           │         phase again, other members keep running)
//!           ▼
//!        Dissolved — host-requested or nothing placed.
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use qosc_netsim::{SimDuration, SimTime};
use qosc_spec::{ServiceDef, SpecError, TaskDef, TaskId};

use crate::compiled::CompiledRequest;
use crate::evaluation::EvalConfig;
use crate::formation::{Candidate, TieBreak};
use crate::metrics::{NegoEvent, NegotiationMetrics, TaskOutcome};
use crate::protocol::{
    encode_timer, Action, Msg, NegoId, Pid, TaskAnnouncement, TaskProposal, TimerKind,
};
use crate::snapshot::{StableHasher, StateDigest};
use crate::strategy::{CandidateContext, OrganizerStrategy, RetryContext};

/// Organizer tunables.
#[derive(Debug, Clone)]
pub struct OrganizerConfig {
    /// How long to collect proposals after a CFP.
    pub proposal_wait: SimDuration,
    /// How long to wait for winners' accepts.
    pub award_wait: SimDuration,
    /// Member heartbeat period expected during operation.
    pub heartbeat_interval: SimDuration,
    /// Consecutive missed heartbeats before a member is declared failed.
    pub miss_threshold: u32,
    /// Maximum formation rounds (initial + retries + reconfigurations).
    pub max_rounds: u32,
    /// Winner-selection tie-break (§4.2).
    pub tiebreak: TieBreak,
    /// Evaluation knobs (eqs. 2–5).
    pub eval: EvalConfig,
    /// Enable operation-phase heartbeat monitoring.
    pub monitor: bool,
    /// Piggy-back [`Msg::LeaseRenew`] unicasts on every heartbeat check so
    /// members with a `commit_ttl` keep their leases alive while the
    /// organizer is reachable. Off by default: leases only matter when the
    /// provider side arms them (see `ProviderConfig::commit_ttl`).
    pub renew_leases: bool,
    /// Pluggable decision chain consulted when filtering candidates,
    /// selecting winners and deciding retry vs give-up; empty = exact
    /// pre-chain behaviour (see [`crate::strategy`]).
    pub chain: OrganizerStrategy,
}

impl Default for OrganizerConfig {
    fn default() -> Self {
        Self {
            proposal_wait: SimDuration::millis(100),
            award_wait: SimDuration::millis(100),
            heartbeat_interval: SimDuration::millis(500),
            miss_threshold: 3,
            max_rounds: 4,
            tiebreak: TieBreak::default(),
            eval: EvalConfig::default(),
            monitor: true,
            renew_leases: false,
            chain: OrganizerStrategy::default(),
        }
    }
}

impl OrganizerConfig {
    /// The canonical tuning for exhaustive model checking (`qosc-mc`).
    ///
    /// The explorer is time-abstract — it visits every ordering of timer
    /// firings and message deliveries no matter what the durations say —
    /// so all waits are pinned to zero: nonzero durations only multiply
    /// path-dependent clock values (armed deadlines, metric timestamps)
    /// into the canonical state digest, exploding behaviourally identical
    /// states apart. Monitoring is off because its heartbeat-check timer
    /// re-arms forever, leaving no quiescent states to judge liveness on,
    /// and the round budget is one: a single CFP round is the checkable
    /// unit (every retry round multiplies the interleaving graph; raise
    /// `max_rounds` deliberately if retry behaviour is what you are
    /// checking).
    pub fn for_model_checking() -> Self {
        Self {
            proposal_wait: SimDuration::ZERO,
            award_wait: SimDuration::ZERO,
            max_rounds: 1,
            monitor: false,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Collecting,
    Awarding,
    Operating,
    Dissolved,
}

/// Externally observable phase of one negotiation — a read-only mirror of
/// the private state machine, exposed for model-checking invariants
/// (liveness-under-quiescence asserts every negotiation settles in
/// `Operating` or `Dissolved`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegoPhase {
    /// Proposals are being collected for the current round's CFP.
    Collecting,
    /// Awards are out, waiting for accepts/declines.
    Awarding,
    /// The coalition formed (possibly partially) and is executing.
    Operating,
    /// Dissolved, or formation failed entirely.
    Dissolved,
}

impl From<State> for NegoPhase {
    fn from(s: State) -> Self {
        match s {
            State::Collecting => NegoPhase::Collecting,
            State::Awarding => NegoPhase::Awarding,
            State::Operating => NegoPhase::Operating,
            State::Dissolved => NegoPhase::Dissolved,
        }
    }
}

/// Snapshot of where every announced task of one negotiation currently
/// lives in its lifecycle. The sets partition the announced tasks (modulo
/// `open ∩ pending = ∅` etc.) — the model checker's task-conservation
/// invariant asserts exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskLifecycle {
    /// Every task the service announced.
    pub announced: BTreeSet<TaskId>,
    /// Tasks still open for (re-)solicitation in the current round.
    pub open: BTreeSet<TaskId>,
    /// Tasks awarded and awaiting an accept, with the awarded node.
    pub pending: BTreeMap<TaskId, Pid>,
    /// Tasks accepted, with the executing node.
    pub assigned: BTreeMap<TaskId, Pid>,
    /// Tasks abandoned after the round budget ran out.
    pub given_up: BTreeSet<TaskId>,
}

#[derive(Clone)]
struct Nego {
    state: State,
    round: u32,
    announcements: BTreeMap<TaskId, TaskAnnouncement>,
    /// Digest of `announcements`, computed once at creation: the map is
    /// immutable for the negotiation's lifetime and hashing its full
    /// content on every snapshot dominates the model checker's profile.
    announcements_digest: u64,
    /// Per-task compiled evaluation tables (weights, normalizers,
    /// Quality-Index positions), built once per distinct `(spec, request)`
    /// when the service starts so every incoming proposal prices without
    /// re-walking the spec.
    compiled: BTreeMap<TaskId, Arc<CompiledRequest>>,
    /// Tasks solicited in the current round.
    open: BTreeSet<TaskId>,
    /// Evaluated admissible candidates per open task.
    candidates: BTreeMap<TaskId, Vec<Candidate>>,
    /// Awards awaiting an accept.
    pending: BTreeMap<TaskId, Pid>,
    /// Accepted assignments (operating members).
    assignments: BTreeMap<TaskId, Pid>,
    /// Last heartbeat per operating task.
    last_heartbeat: HashMap<TaskId, SimTime>,
    /// Tasks that exhausted all rounds.
    given_up: BTreeSet<TaskId>,
    metrics: NegotiationMetrics,
}

/// The sans-IO Negotiation Organizer.
#[derive(Clone)]
pub struct OrganizerEngine {
    id: Pid,
    config: OrganizerConfig,
    negotiations: HashMap<NegoId, Nego>,
    next_seq: u32,
}

impl OrganizerEngine {
    /// Creates an organizer for node `id`.
    pub fn new(id: Pid, config: OrganizerConfig) -> Self {
        Self {
            id,
            config,
            negotiations: HashMap::new(),
            next_seq: 0,
        }
    }

    /// This organizer's node id.
    pub(crate) fn id(&self) -> Pid {
        self.id
    }

    /// Metrics of a negotiation, if known.
    pub fn metrics(&self, nego: NegoId) -> Option<&NegotiationMetrics> {
        self.negotiations.get(&nego).map(|n| &n.metrics)
    }

    /// Observable phase of a negotiation, if known.
    pub fn phase(&self, nego: NegoId) -> Option<NegoPhase> {
        self.negotiations.get(&nego).map(|n| n.state.into())
    }

    /// Every negotiation this organizer has started, sorted.
    pub fn nego_ids(&self) -> Vec<NegoId> {
        let mut v: Vec<NegoId> = self.negotiations.keys().copied().collect();
        v.sort();
        v
    }

    /// Lifecycle partition of a negotiation's tasks, if known.
    pub fn task_lifecycle(&self, nego: NegoId) -> Option<TaskLifecycle> {
        self.negotiations.get(&nego).map(|n| TaskLifecycle {
            announced: n.announcements.keys().copied().collect(),
            open: n.open.clone(),
            pending: n.pending.clone(),
            assigned: n.assignments.clone(),
            given_up: n.given_up.clone(),
        })
    }

    /// Starts the negotiation for `service` (step 1: broadcast the service
    /// description and the user's preferences). Fails fast if any task's
    /// request does not resolve against its spec.
    pub(crate) fn start_service(
        &mut self,
        now: SimTime,
        service: &ServiceDef,
    ) -> Result<(NegoId, Vec<Action>), SpecError> {
        let nego = NegoId {
            organizer: self.id,
            seq: self.next_seq,
        };
        let mut announcements = BTreeMap::new();
        let mut compiled = BTreeMap::new();
        // One resolve + compile per distinct `(spec, request)`: the tasks
        // a service stamps from one template share the tables.
        let mut distinct: Vec<(&TaskDef, Arc<CompiledRequest>)> = Vec::new();
        for (tid, task) in service.iter() {
            let known = distinct
                .iter()
                .find(|(t, _)| t.spec == task.spec && t.request == task.request);
            let shared = match known {
                Some((_, c)) => Arc::clone(c),
                None => {
                    let resolved = task.resolve()?;
                    let c = CompiledRequest::compile(&task.spec, &resolved, self.config.eval);
                    let c = Arc::new(c);
                    distinct.push((task, Arc::clone(&c)));
                    c
                }
            };
            compiled.insert(tid, shared);
            announcements.insert(
                tid,
                TaskAnnouncement {
                    task: tid,
                    spec: task.spec.clone(),
                    request: task.request.clone(),
                    input_bytes: task.input_bytes,
                    output_bytes: task.output_bytes,
                },
            );
        }
        self.next_seq += 1;
        let open: BTreeSet<TaskId> = announcements.keys().copied().collect();
        let announcements_digest = {
            let mut h = StableHasher::new();
            // BTreeMap: deterministic order (and the key is in the value).
            for a in announcements.values() {
                a.digest(&mut h);
            }
            h.finish()
        };
        let mut nego_state = Nego {
            state: State::Collecting,
            round: 0,
            announcements,
            announcements_digest,
            compiled,
            open,
            candidates: BTreeMap::new(),
            pending: BTreeMap::new(),
            assignments: BTreeMap::new(),
            last_heartbeat: HashMap::new(),
            given_up: BTreeSet::new(),
            metrics: NegotiationMetrics {
                started_at: Some(now),
                ..Default::default()
            },
        };
        let actions = Self::issue_cfp(&self.config, nego, &mut nego_state);
        self.negotiations.insert(nego, nego_state);
        Ok((nego, actions))
    }

    /// Builds the CFP broadcast + proposal deadline for the current round.
    fn issue_cfp(config: &OrganizerConfig, nego: NegoId, n: &mut Nego) -> Vec<Action> {
        n.state = State::Collecting;
        n.candidates.clear();
        let tasks: Vec<TaskAnnouncement> =
            n.open.iter().map(|t| n.announcements[t].clone()).collect();
        vec![
            Action::broadcast(Msg::CallForProposals {
                nego,
                tasks,
                round: n.round,
            }),
            Action::Timer {
                delay: config.proposal_wait,
                token: encode_timer(nego, TimerKind::ProposalDeadline),
            },
        ]
    }

    /// Handles an inbound protocol message addressed to this organizer.
    pub fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action> {
        match msg {
            Msg::Proposal {
                nego,
                from: sender,
                proposals,
            } => self.on_proposal(*nego, *sender, proposals),
            Msg::Accept {
                nego,
                task,
                from,
                round,
            } => self.on_accept(now, *nego, *task, *from, *round),
            Msg::Decline {
                nego,
                task,
                from,
                round,
            } => self.on_decline(now, *nego, *task, *from, *round),
            Msg::Heartbeat { nego, task, from } => {
                self.on_heartbeat(now, *nego, *task, *from);
                Vec::new()
            }
            // CFP / Award / Release are provider-side messages.
            _ => {
                let _ = from;
                Vec::new()
            }
        }
    }

    /// Handles a timer previously armed by this organizer.
    pub(crate) fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::ProposalDeadline => self.on_proposal_deadline(now, nego),
            TimerKind::AwardDeadline => self.on_award_deadline(now, nego),
            TimerKind::HeartbeatCheck => self.on_heartbeat_check(now, nego),
            TimerKind::ReAnnounce => self.on_re_announce(nego),
            _ => Vec::new(),
        }
    }

    fn on_proposal(&mut self, nego: NegoId, from: Pid, proposals: &[TaskProposal]) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state != State::Collecting {
            return Vec::new(); // late proposal; round already closed
        }
        n.metrics.proposal_bundles += 1;
        for p in proposals {
            if !n.open.contains(&p.task) {
                continue;
            }
            let Some(compiled) = n.compiled.get(&p.task) else {
                continue;
            };
            let ann = &n.announcements[&p.task];
            // Step 3 precondition + eq. 2 scoring in one fused pass (§6);
            // inadmissible proposals are discarded.
            let Some(distance) = compiled.score(&p.offered) else {
                continue;
            };
            let comm_cost = if from == self.id {
                0.0
            } else if p.link_kbps > 0.0 {
                ((ann.input_bytes + ann.output_bytes) as f64 * 8.0) / (p.link_kbps * 1000.0)
            } else {
                f64::INFINITY
            };
            // Strategy-chain candidate review: components may rescore
            // (reputation weighting) or reject outright. The empty chain
            // keeps the eq. 2 scores untouched.
            let mut candidate = Candidate {
                node: from,
                distance,
                comm_cost,
            };
            let ctx = CandidateContext {
                organizer: self.id,
                task: p.task,
                round: n.round,
            };
            if !self.config.chain.review_candidate(&ctx, &mut candidate) {
                continue;
            }
            n.candidates.entry(p.task).or_default().push(candidate);
        }
        Vec::new()
    }

    fn on_proposal_deadline(&mut self, now: SimTime, nego: NegoId) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state != State::Collecting {
            return Vec::new();
        }
        // Ensure every open task has an entry so unassigned is accurate.
        let mut per_task: BTreeMap<TaskId, Vec<Candidate>> = BTreeMap::new();
        for t in &n.open {
            per_task.insert(*t, n.candidates.get(t).cloned().unwrap_or_default());
        }
        // Winner selection through the chain: the first component with an
        // opinion overrides; otherwise the §4.2 greedy tie-break applies.
        let selection = self.config.chain.select(&per_task, &self.config.tiebreak);
        let mut actions = Vec::new();
        n.pending.clear();
        for (task, node) in &selection.assignments {
            n.pending.insert(*task, *node);
            n.metrics.awards_sent += 1;
            actions.push(Action::send(
                *node,
                Msg::Award {
                    nego,
                    task: *task,
                    round: n.round,
                },
            ));
        }
        // Tasks with no candidates stay open for the next round.
        n.open = selection.unassigned.iter().copied().collect();
        if n.pending.is_empty() {
            // Nothing to award: either retry or give up immediately.
            return self.finish_round(now, nego);
        }
        n.state = State::Awarding;
        actions.push(Action::Timer {
            delay: self.config.award_wait,
            token: encode_timer(nego, TimerKind::AwardDeadline),
        });
        actions
    }

    fn on_accept(
        &mut self,
        now: SimTime,
        nego: NegoId,
        task: TaskId,
        from: Pid,
        round: u32,
    ) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if round != n.round {
            // An answer to a superseded award: the provider has (or will)
            // release that grant on seeing the fresh round's CFP, so
            // recording it would orphan the assignment.
            return Vec::new();
        }
        if n.pending.get(&task) != Some(&from) {
            return Vec::new(); // stale or bogus accept
        }
        n.pending.remove(&task);
        n.assignments.insert(task, from);
        n.last_heartbeat.insert(task, now);
        // Record the outcome from the winning candidate's scores.
        if let Some(c) = n
            .candidates
            .get(&task)
            .and_then(|cs| cs.iter().find(|c| c.node == from))
        {
            n.metrics.outcomes.insert(
                task,
                TaskOutcome {
                    node: from,
                    distance: c.distance,
                    comm_cost: c.comm_cost,
                },
            );
        }
        if n.pending.is_empty() && n.state == State::Awarding {
            return self.finish_round(now, nego);
        }
        Vec::new()
    }

    fn on_decline(
        &mut self,
        now: SimTime,
        nego: NegoId,
        task: TaskId,
        from: Pid,
        round: u32,
    ) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if round != n.round {
            return Vec::new(); // answer to a superseded award
        }
        if n.pending.get(&task) != Some(&from) {
            return Vec::new();
        }
        n.pending.remove(&task);
        n.metrics.declines += 1;
        // Strike the declining node's candidate so the retry round does not
        // re-select it immediately.
        if let Some(cs) = n.candidates.get_mut(&task) {
            cs.retain(|c| c.node != from);
        }
        n.open.insert(task);
        if n.pending.is_empty() && n.state == State::Awarding {
            return self.finish_round(now, nego);
        }
        Vec::new()
    }

    fn on_award_deadline(&mut self, now: SimTime, nego: NegoId) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state != State::Awarding {
            return Vec::new();
        }
        // Silent winners are treated as declined.
        let silent: Vec<(TaskId, Pid)> = n.pending.iter().map(|(t, p)| (*t, *p)).collect();
        for (task, node) in silent {
            n.pending.remove(&task);
            n.metrics.declines += 1;
            if let Some(cs) = n.candidates.get_mut(&task) {
                cs.retain(|c| c.node != node);
            }
            n.open.insert(task);
        }
        self.finish_round(now, nego)
    }

    /// Fires when a backoff delay elapses: issues the already-advanced
    /// round's CFP. Guarded on `Collecting` so a dissolve (or any other
    /// state change) during the backoff window makes the timer inert.
    fn on_re_announce(&mut self, nego: NegoId) -> Vec<Action> {
        let config = self.config.clone();
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state != State::Collecting || n.open.is_empty() {
            return Vec::new();
        }
        Self::issue_cfp(&config, nego, n)
    }

    /// Closes the current round: retries unplaced tasks in a new round if
    /// the budget allows, otherwise settles the negotiation.
    fn finish_round(&mut self, now: SimTime, nego: NegoId) -> Vec<Action> {
        let config = self.config.clone();
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        // Retry vs give-up through the chain; the default fold is the
        // legacy round-budget check.
        let retry = !n.open.is_empty()
            && config.chain.retries(&RetryContext {
                round: n.round,
                max_rounds: config.max_rounds,
                open_tasks: n.open.len(),
            });
        if retry {
            // A backoff-aware chain delays the retry CFP instead of
            // re-announcing immediately — under a network partition an
            // immediate CFP just burns the round budget into the void.
            // The delay is chosen from the *closing* round's context, the
            // round counter advances now, and the CFP itself is issued by
            // the `ReAnnounce` timer (all backends deliver timers even
            // across partitions, so the retry survives the cut).
            let backoff = config.chain.backoff_delay(&RetryContext {
                round: n.round,
                max_rounds: config.max_rounds,
                open_tasks: n.open.len(),
            });
            n.round += 1;
            if let Some(delay) = backoff.filter(|d| *d > SimDuration::ZERO) {
                n.state = State::Collecting;
                n.candidates.clear();
                return vec![Action::Timer {
                    delay,
                    token: encode_timer(nego, TimerKind::ReAnnounce),
                }];
            }
            return Self::issue_cfp(&config, nego, n);
        }
        // Settle: whatever is still open is given up.
        n.given_up.extend(n.open.iter().copied());
        n.open.clear();
        n.metrics.unassigned = n.given_up.iter().copied().collect();
        let mut actions = Vec::new();
        if n.assignments.is_empty() {
            n.state = State::Dissolved;
            actions.push(Action::Event(NegoEvent::FormationIncomplete {
                nego,
                unassigned: n.metrics.unassigned.clone(),
                metrics: n.metrics.clone(),
            }));
            return actions;
        }
        let newly_operating = n.state != State::Operating;
        n.state = State::Operating;
        if n.metrics.formed_at.is_none() {
            n.metrics.formed_at = Some(now);
        }
        if n.given_up.is_empty() {
            actions.push(Action::Event(NegoEvent::Formed {
                nego,
                metrics: n.metrics.clone(),
            }));
        } else {
            actions.push(Action::Event(NegoEvent::FormationIncomplete {
                nego,
                unassigned: n.metrics.unassigned.clone(),
                metrics: n.metrics.clone(),
            }));
        }
        if config.monitor && newly_operating {
            actions.push(Action::Timer {
                delay: config.heartbeat_interval,
                token: encode_timer(nego, TimerKind::HeartbeatCheck),
            });
        }
        actions
    }

    fn on_heartbeat(&mut self, now: SimTime, nego: NegoId, task: TaskId, from: Pid) {
        if let Some(n) = self.negotiations.get_mut(&nego) {
            if n.assignments.get(&task) == Some(&from) {
                n.last_heartbeat.insert(task, now);
            }
        }
    }

    fn on_heartbeat_check(&mut self, now: SimTime, nego: NegoId) -> Vec<Action> {
        let config = self.config.clone();
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state != State::Operating {
            return Vec::new();
        }
        let timeout = SimDuration::micros(
            config.heartbeat_interval.as_micros() * config.miss_threshold as u64,
        );
        // Find failed members (any task whose heartbeat went stale).
        let mut failed_nodes: Vec<Pid> = Vec::new();
        for (task, node) in &n.assignments {
            // The organizer's own tasks never miss heartbeats (local).
            if *node == self.id {
                continue;
            }
            let last = n.last_heartbeat.get(task).copied().unwrap_or(SimTime::ZERO);
            if now.since(last) > timeout && !failed_nodes.contains(node) {
                failed_nodes.push(*node);
            }
        }
        let mut actions = Vec::new();
        // Lease keep-alive piggy-backs on the heartbeat check: every
        // distinct operating member gets one renewal per check period,
        // so commit leases (`ProviderConfig::commit_ttl`) only expire on
        // members the organizer can no longer reach.
        if config.renew_leases {
            let mut members: Vec<Pid> = n.assignments.values().copied().collect();
            members.sort_unstable();
            members.dedup();
            for m in members {
                if m != self.id {
                    actions.push(Action::send(m, Msg::LeaseRenew { nego }));
                }
            }
        }
        // Reconfiguration is a retry decision too: the chain decides
        // whether the lost tasks get re-auctioned or stay down.
        let reconfigure = !failed_nodes.is_empty()
            && config.chain.retries(&RetryContext {
                round: n.round,
                max_rounds: config.max_rounds,
                open_tasks: failed_nodes.len(),
            });
        if reconfigure {
            // Reconfiguration: re-auction every task held by failed nodes.
            let mut lost: Vec<TaskId> = Vec::new();
            for node in &failed_nodes {
                let tasks: Vec<TaskId> = n
                    .assignments
                    .iter()
                    .filter(|(_, p)| *p == node)
                    .map(|(t, _)| *t)
                    .collect();
                for t in &tasks {
                    n.assignments.remove(t);
                    n.metrics.outcomes.remove(t);
                    n.open.insert(*t);
                    lost.push(*t);
                }
                actions.push(Action::Event(NegoEvent::MemberFailed {
                    nego,
                    node: *node,
                    tasks,
                }));
            }
            n.metrics.reconfigurations += 1;
            n.round += 1;
            actions.extend(Self::issue_cfp(&config, nego, n));
            let _ = lost;
        }
        // Keep monitoring (also during reconfiguration, for the survivors).
        actions.push(Action::Timer {
            delay: config.heartbeat_interval,
            token: encode_timer(nego, TimerKind::HeartbeatCheck),
        });
        actions
    }

    /// Dissolves a coalition: members are told to release their resources.
    pub(crate) fn dissolve(&mut self, nego: NegoId) -> Vec<Action> {
        let Some(n) = self.negotiations.get_mut(&nego) else {
            return Vec::new();
        };
        if n.state == State::Dissolved {
            return Vec::new();
        }
        n.state = State::Dissolved;
        let mut members: Vec<Pid> = n.assignments.values().copied().collect();
        members.sort_unstable();
        members.dedup();
        let mut actions: Vec<Action> = members
            .into_iter()
            .map(|m| Action::send(m, Msg::Release { nego }))
            .collect();
        actions.push(Action::Event(NegoEvent::Dissolved { nego }));
        actions
    }
}

impl StateDigest for OrganizerEngine {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.id as u64);
        h.write_u64(self.next_seq as u64);
        let mut ids: Vec<&NegoId> = self.negotiations.keys().collect();
        ids.sort();
        h.write_usize(ids.len());
        for id in ids {
            let n = &self.negotiations[id];
            h.write_u64(id.organizer as u64);
            h.write_u64(id.seq as u64);
            h.write_u64(n.state as u64);
            h.write_u64(n.round as u64);
            // Announcements and compiled tables are a pure function of the
            // submitted service + config, but two negotiations for
            // different services must not collide: the announcement
            // digest (cached at creation; the map is immutable) covers it.
            h.write_u64(n.announcements_digest);
            h.write_usize(n.candidates.len());
            for (t, cs) in &n.candidates {
                h.write_u64(t.0 as u64);
                h.write_usize(cs.len());
                // Vec order preserved: it is the §4.2 tie-break input.
                for c in cs {
                    h.write_u64(c.node as u64);
                    h.write_f64(c.distance);
                    h.write_f64(c.comm_cost);
                }
            }
            for (t, p) in &n.pending {
                h.write_u64(t.0 as u64);
                h.write_u64(*p as u64);
            }
            h.write_usize(n.pending.len());
            for (t, p) in &n.assignments {
                h.write_u64(t.0 as u64);
                h.write_u64(*p as u64);
            }
            h.write_usize(n.assignments.len());
            let mut hb: Vec<(&TaskId, &SimTime)> = n.last_heartbeat.iter().collect();
            hb.sort();
            h.write_usize(hb.len());
            for (t, at) in hb {
                h.write_u64(t.0 as u64);
                h.write_u64(at.0);
            }
            h.write_usize(n.given_up.len());
            for t in &n.given_up {
                h.write_u64(t.0 as u64);
            }
            // Metrics are deliberately excluded: they are write-only
            // reporting counters (no protocol decision or invariant reads
            // them), so hashing them would fork behaviourally identical
            // states — under fault exploration, explosively so.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_spec::catalog;

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

    fn proposal_for(nego: NegoId, from: Pid, task: TaskId, frame_rate: i64, link_kbps: f64) -> Msg {
        use qosc_spec::Value;
        Msg::Proposal {
            nego,
            from,
            proposals: vec![TaskProposal {
                task,
                offered: vec![
                    Value::Int(frame_rate),
                    Value::Int(3),
                    Value::Int(8),
                    Value::Int(8),
                ],
                levels: vec![(10 - frame_rate).max(0) as usize, 0, 0, 0],
                demand: qosc_resources::ResourceVector::ZERO,
                link_kbps,
                reward: 0.0,
            }],
        }
    }

    fn drive_to_award(
        org: &mut OrganizerEngine,
        nego: NegoId,
        proposals: Vec<(Pid, i64, f64)>,
    ) -> Vec<Action> {
        for (pid, fr, link) in proposals {
            let msg = proposal_for(nego, pid, TaskId(0), fr, link);
            org.on_message(SimTime(10), pid, &msg);
        }
        org.on_timer(SimTime(100_000), nego, TimerKind::ProposalDeadline)
    }

    #[test]
    fn start_service_broadcasts_cfp_and_arms_deadline() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, actions) = org.start_service(SimTime::ZERO, &service(2)).unwrap();
        assert_eq!(nego.organizer, 0);
        assert!(matches!(
            actions[0].payload(),
            Some(Msg::CallForProposals { tasks, round: 0, .. }) if tasks.len() == 2
        ));
        assert!(matches!(&actions[0], Action::Broadcast(_)));
        assert!(matches!(&actions[1], Action::Timer { .. }));
    }

    #[test]
    fn best_distance_proposal_wins_award() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // Node 1 offers frame_rate 7 (worse), node 2 offers 10 (preferred).
        let actions = drive_to_award(&mut org, nego, vec![(1, 7, 1000.0), (2, 10, 1000.0)]);
        let award_to: Vec<Pid> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } if matches!(&**msg, Msg::Award { .. }) => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(award_to, vec![2]);
    }

    #[test]
    fn inadmissible_proposals_are_discarded() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // frame_rate 20 is outside the user's acceptable ladder [10..1].
        let actions = drive_to_award(&mut org, nego, vec![(1, 20, 1000.0), (2, 5, 1000.0)]);
        let award_to: Vec<Pid> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } if matches!(&**msg, Msg::Award { .. }) => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(award_to, vec![2]);
    }

    #[test]
    fn accept_completes_formation_and_emits_formed() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(2, 10, 1000.0)]);
        let actions = org.on_message(
            SimTime(150_000),
            2,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 2,
                round: 0,
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Event(NegoEvent::Formed { .. }))));
        assert_eq!(org.phase(nego), Some(NegoPhase::Operating));
        let m = org.metrics(nego).unwrap();
        assert_eq!(m.outcomes[&TaskId(0)].node, 2);
        assert!(m.formed_at.is_some());
        // Heartbeat monitoring armed.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Timer { token, .. }
                if crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::HeartbeatCheck)));
    }

    #[test]
    fn no_proposals_retries_then_gives_up() {
        let config = OrganizerConfig {
            max_rounds: 2,
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // Round 0 deadline, no proposals: expect a round-1 CFP.
        let actions = org.on_timer(SimTime(100_000), nego, TimerKind::ProposalDeadline);
        assert!(actions
            .iter()
            .any(|a| matches!(a.payload(), Some(Msg::CallForProposals { round: 1, .. }))));
        // Round 1 deadline, still nothing: give up.
        let actions = org.on_timer(SimTime(200_000), nego, TimerKind::ProposalDeadline);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Event(NegoEvent::FormationIncomplete { unassigned, .. })
                if unassigned == &vec![TaskId(0)]
        )));
    }

    #[test]
    fn decline_strikes_candidate_and_retries() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(1, 10, 1000.0), (2, 9, 1000.0)]);
        // Winner (node 1) declines: expect a retry CFP round.
        let actions = org.on_message(
            SimTime(150_000),
            1,
            &Msg::Decline {
                nego,
                task: TaskId(0),
                from: 1,
                round: 0,
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a.payload(), Some(Msg::CallForProposals { round: 1, .. }))));
        // In the retry round node 2 proposes again and wins.
        org.on_message(
            SimTime(160_000),
            2,
            &proposal_for(nego, 2, TaskId(0), 9, 1000.0),
        );
        let actions = org.on_timer(SimTime(300_000), nego, TimerKind::ProposalDeadline);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 2, msg } if matches!(&**msg, Msg::Award { .. })
        )));
    }

    #[test]
    fn award_deadline_treats_silence_as_decline() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(1, 10, 1000.0)]);
        // Winner never answers; award deadline fires.
        let actions = org.on_timer(SimTime(250_000), nego, TimerKind::AwardDeadline);
        // Node 1 was the only candidate and is struck: new CFP round.
        assert!(actions
            .iter()
            .any(|a| matches!(a.payload(), Some(Msg::CallForProposals { round: 1, .. }))));
        assert_eq!(org.metrics(nego).unwrap().declines, 1);
    }

    #[test]
    fn heartbeat_miss_triggers_reconfiguration() {
        let config = OrganizerConfig {
            heartbeat_interval: SimDuration::millis(100),
            miss_threshold: 2,
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(2, 10, 1000.0)]);
        org.on_message(
            SimTime(150_000),
            2,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 2,
                round: 0,
            },
        );
        assert_eq!(org.phase(nego), Some(NegoPhase::Operating));
        // No heartbeats arrive; check far past the 200 ms timeout.
        let actions = org.on_timer(SimTime(1_000_000), nego, TimerKind::HeartbeatCheck);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Event(NegoEvent::MemberFailed { node: 2, .. }))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Broadcast(msg) if matches!(&**msg, Msg::CallForProposals { .. })
        )));
        assert_eq!(org.metrics(nego).unwrap().reconfigurations, 1);
    }

    #[test]
    fn heartbeats_prevent_reconfiguration() {
        let config = OrganizerConfig {
            heartbeat_interval: SimDuration::millis(100),
            miss_threshold: 2,
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(2, 10, 1000.0)]);
        org.on_message(
            SimTime(150_000),
            2,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 2,
                round: 0,
            },
        );
        // Fresh heartbeat just before the check.
        org.on_message(
            SimTime(900_000),
            2,
            &Msg::Heartbeat {
                nego,
                task: TaskId(0),
                from: 2,
            },
        );
        let actions = org.on_timer(SimTime(1_000_000), nego, TimerKind::HeartbeatCheck);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::Event(NegoEvent::MemberFailed { .. }))));
        assert_eq!(org.metrics(nego).unwrap().reconfigurations, 0);
    }

    #[test]
    fn backoff_chain_defers_retry_cfp_to_re_announce_timer() {
        use crate::strategy::TimeoutBackoff;
        let config = OrganizerConfig {
            max_rounds: 3,
            chain: OrganizerStrategy::new()
                .with(TimeoutBackoff::doubling(SimDuration::millis(10), 3)),
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // Round 0 deadline with no proposals: instead of an immediate
        // round-1 CFP, the backoff chain arms a ReAnnounce timer.
        let actions = org.on_timer(SimTime(100_000), nego, TimerKind::ProposalDeadline);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a.payload(), Some(Msg::CallForProposals { .. }))),
            "backoff must suppress the immediate retry CFP"
        );
        let re_announce: Vec<SimDuration> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Timer { delay, token }
                    if crate::protocol::decode_timer(*token).unwrap().1
                        == TimerKind::ReAnnounce =>
                {
                    Some(*delay)
                }
                _ => None,
            })
            .collect();
        assert_eq!(re_announce, vec![SimDuration::millis(10)]);
        assert_eq!(org.phase(nego), Some(NegoPhase::Collecting));
        // The timer fires: the round-1 CFP goes out now.
        let actions = org.on_timer(SimTime(110_000), nego, TimerKind::ReAnnounce);
        assert!(actions
            .iter()
            .any(|a| matches!(a.payload(), Some(Msg::CallForProposals { round: 1, .. }))));
        // Second failure backs off twice as long (doubling policy).
        let actions = org.on_timer(SimTime(210_000), nego, TimerKind::ProposalDeadline);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Timer { delay, token }
                if *delay == SimDuration::millis(20)
                    && crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::ReAnnounce
        )));
    }

    #[test]
    fn re_announce_after_dissolve_is_inert() {
        use crate::strategy::TimeoutBackoff;
        let config = OrganizerConfig {
            chain: OrganizerStrategy::new()
                .with(TimeoutBackoff::doubling(SimDuration::millis(10), 4)),
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        org.on_timer(SimTime(100_000), nego, TimerKind::ProposalDeadline);
        org.dissolve(nego);
        // The pending ReAnnounce fires after dissolution: nothing happens.
        assert!(org
            .on_timer(SimTime(110_000), nego, TimerKind::ReAnnounce)
            .is_empty());
    }

    #[test]
    fn heartbeat_check_renews_leases_when_enabled() {
        let config = OrganizerConfig {
            renew_leases: true,
            ..Default::default()
        };
        let mut org = OrganizerEngine::new(0, config);
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(2, 10, 1000.0)]);
        org.on_message(
            SimTime(150_000),
            2,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 2,
                round: 0,
            },
        );
        // Heartbeat arrives so no reconfiguration; the check still renews.
        org.on_message(
            SimTime(450_000),
            2,
            &Msg::Heartbeat {
                nego,
                task: TaskId(0),
                from: 2,
            },
        );
        let actions = org.on_timer(SimTime(500_000), nego, TimerKind::HeartbeatCheck);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 2, msg } if matches!(&**msg, Msg::LeaseRenew { .. })
        )));
    }

    #[test]
    fn dissolve_releases_members() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        drive_to_award(&mut org, nego, vec![(2, 10, 1000.0)]);
        org.on_message(
            SimTime(150_000),
            2,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 2,
                round: 0,
            },
        );
        let actions = org.dissolve(nego);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 2, msg } if matches!(&**msg, Msg::Release { .. })
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Event(NegoEvent::Dissolved { .. }))));
        // Dissolving twice is a no-op.
        assert!(org.dissolve(nego).is_empty());
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // Accept for a task never awarded.
        let actions = org.on_message(
            SimTime(10),
            9,
            &Msg::Accept {
                nego,
                task: TaskId(0),
                from: 9,
                round: 0,
            },
        );
        assert!(actions.is_empty());
        // Proposal for an unknown negotiation.
        let bogus = NegoId {
            organizer: 0,
            seq: 999,
        };
        let actions = org.on_message(SimTime(10), 1, &proposal_for(bogus, 1, TaskId(0), 10, 1.0));
        assert!(actions.is_empty());
    }

    #[test]
    fn local_organizer_proposal_has_zero_comm_cost() {
        let mut org = OrganizerEngine::new(0, OrganizerConfig::default());
        let (nego, _) = org.start_service(SimTime::ZERO, &service(1)).unwrap();
        // Organizer's own node proposes a slightly worse quality but zero
        // comm cost; remote node proposes the same quality.
        org.on_message(SimTime(5), 0, &proposal_for(nego, 0, TaskId(0), 9, 1000.0));
        org.on_message(SimTime(6), 7, &proposal_for(nego, 7, TaskId(0), 9, 1000.0));
        let actions = org.on_timer(SimTime(100_000), nego, TimerKind::ProposalDeadline);
        // Equal distance; comm-cost tie-break favours the local node.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 0, msg } if matches!(&**msg, Msg::Award { .. })
        )));
    }
}
