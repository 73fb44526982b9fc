//! The QoS Provider engine (paper §4.1/§5).
//!
//! "QoS Provider: a server that negotiates access to node's resources.
//! Rather than reserving resources directly it will contact the Resource
//! Managers to grant specific resource amounts to the requesting task."
//!
//! On a Call-for-Proposals the provider resolves the announced requests,
//! runs the §5 formulation heuristic against its *currently available*
//! capacity, places tentative holds through its [`NodeLedger`] (so two
//! concurrent negotiations cannot be promised the same CPU), and replies
//! with a multi-attribute proposal per task. Holds expire if the
//! negotiation dies; an [`Msg::Award`] upgrades them to committed grants
//! and starts the operation-phase heartbeats.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use qosc_netsim::{SimDuration, SimTime};
use qosc_resources::{
    AdmissionControl, DemandModel, NodeLedger, ResourceVector, SchedulingPolicy, VectorHold,
};
use qosc_spec::TaskId;

use crate::formulation::{BundlePlan, Formulator, LinearPenalty, RewardModel};
use crate::protocol::{
    encode_timer, Action, Msg, NegoId, Pid, TaskAnnouncement, TaskProposal, TimerKind,
};
use crate::strategy::{AwardContext, CfpContext, ProviderStrategy, TaskOffer};

/// How the provider prices a multi-task CFP.
///
/// §5 is written over "the set of tasks", i.e. one *joint* formulation
/// degrading the whole set until it is schedulable together. A defensible
/// alternative reading prices tasks one at a time, each against the
/// capacity left after the offers already made in the same bundle. Joint
/// is pessimistic — every offer assumes the node wins *everything*
/// announced — while sequential offers head-of-list tasks near-preferred
/// quality. Experiment F4 quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProposalStrategy {
    /// Paper-literal §5: one joint degradation over the announced set —
    /// every offer assumes the node wins everything announced.
    #[default]
    Joint,
    /// Price tasks one at a time, each against the capacity left after
    /// the holds already placed for this bundle.
    Sequential,
}

/// Provider tunables.
#[derive(Clone)]
pub struct ProviderConfig {
    /// Bandwidth this node can devote to task payloads (kbit/s); declared
    /// in proposals and used by the organizer's comm-cost tie-break.
    pub link_kbps: f64,
    /// Local CPU scheduling policy for the admission test.
    pub policy: SchedulingPolicy,
    /// How long tentative holds survive without an award.
    pub hold_ttl: SimDuration,
    /// Heartbeat period while executing tasks.
    pub heartbeat_interval: SimDuration,
    /// Whether to arm operation-phase heartbeats on award. Disabled by
    /// model-checking scenarios: the periodic self-re-arming timer makes
    /// the reachable state space infinite, and liveness there is judged at
    /// negotiation quiescence instead.
    pub heartbeats: bool,
    /// Committed-grant lease: when set, every accepted award must be
    /// refreshed by [`Msg::LeaseRenew`] (or a fresh award) within this
    /// window or its resources are released. This is the partition
    /// backstop — capacity committed to an organizer that vanished behind
    /// a network cut is eventually returned to the pool instead of being
    /// trapped forever. `None` (the default) keeps commits durable until
    /// an explicit [`Msg::Release`], the exact pre-lease behaviour.
    pub commit_ttl: Option<SimDuration>,
    /// Reward model for the §5 heuristic.
    pub reward: Arc<dyn RewardModel>,
    /// Multi-task pricing strategy.
    pub strategy: ProposalStrategy,
    /// Pluggable decision chain consulted at every CFP/award decision
    /// point; empty = exact pre-chain behaviour (see [`crate::strategy`]).
    pub chain: ProviderStrategy,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        Self {
            link_kbps: 1000.0,
            policy: SchedulingPolicy::Edf,
            hold_ttl: SimDuration::millis(400),
            heartbeat_interval: SimDuration::millis(500),
            heartbeats: true,
            commit_ttl: None,
            reward: Arc::new(LinearPenalty::default()),
            strategy: ProposalStrategy::Joint,
            chain: ProviderStrategy::default(),
        }
    }
}

impl ProviderConfig {
    /// The canonical tuning for exhaustive model checking (`qosc-mc`):
    /// zero hold TTL and no heartbeats. The explorer is time-abstract
    /// (every expiry-vs-award ordering is explored regardless of the
    /// TTL), so a zero TTL only keeps path-dependent expiry timestamps
    /// out of the canonical state digest; heartbeats re-arm their timer
    /// forever, which would leave the explorer no quiescent states.
    pub fn for_model_checking() -> Self {
        Self {
            hold_ttl: SimDuration::ZERO,
            heartbeats: false,
            ..Self::default()
        }
    }
}

impl std::fmt::Debug for ProviderConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Every tunable shows up, so property-test failure output carries
        // the full provider configuration (the `dyn RewardModel` prints
        // its name — trait objects cannot derive `Debug`).
        f.debug_struct("ProviderConfig")
            .field("link_kbps", &self.link_kbps)
            .field("policy", &self.policy)
            .field("hold_ttl", &self.hold_ttl)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("heartbeats", &self.heartbeats)
            .field("commit_ttl", &self.commit_ttl)
            .field("reward", &self.reward.name())
            .field("strategy", &self.strategy)
            .field("chain", &self.chain)
            .finish()
    }
}

/// The sans-IO QoS Provider.
#[derive(Clone)]
pub struct ProviderEngine {
    id: Pid,
    config: ProviderConfig,
    ledger: NodeLedger,
    demand_models: HashMap<String, Arc<dyn DemandModel>>,
    /// The §5 engine; its book of bundle plans may be shared with other
    /// providers ([`ProviderEngine::with_formulator`]).
    formulator: Formulator,
    /// The plans of the bundles priced last, most recent first: valid for
    /// the demand models registered now, so a hit compares handles only.
    memo: [Option<Arc<BundlePlan>>; 4],
    /// Tentative holds per (negotiation, task).
    holds: HashMap<(NegoId, TaskId), VectorHold>,
    /// Committed grants per (negotiation, task).
    committed: HashMap<(NegoId, TaskId), VectorHold>,
    /// Negotiations we execute tasks for (heartbeat targets).
    active: HashMap<NegoId, Vec<TaskId>>,
    /// Heartbeat timers armed per negotiation (avoid duplicates).
    heartbeat_armed: HashSet<NegoId>,
    /// Highest CFP round heard per negotiation (partition recovery: a
    /// fresh round re-announcing a task we committed in an older round
    /// proves the organizer gave that award up).
    latest_round: HashMap<NegoId, u32>,
    /// The CFP round each committed grant was proposed in.
    commit_round: HashMap<(NegoId, TaskId), u32>,
    /// Commit-lease expiry per grant (only populated under `commit_ttl`).
    lease_deadline: HashMap<(NegoId, TaskId), SimTime>,
    /// Lease-check timers armed per negotiation (avoid duplicates).
    lease_armed: HashSet<NegoId>,
}

impl ProviderEngine {
    /// Creates a provider for node `id` with the given capacity.
    pub fn new(id: Pid, capacity: ResourceVector, config: ProviderConfig) -> Self {
        let formulator = Formulator::new(Arc::clone(&config.reward));
        Self {
            id,
            config,
            ledger: NodeLedger::new(capacity),
            demand_models: HashMap::new(),
            formulator,
            memo: Default::default(),
            holds: HashMap::new(),
            committed: HashMap::new(),
            active: HashMap::new(),
            heartbeat_armed: HashSet::new(),
            latest_round: HashMap::new(),
            commit_round: HashMap::new(),
            lease_deadline: HashMap::new(),
            lease_armed: HashSet::new(),
        }
    }

    /// This provider's node id.
    pub(crate) fn id(&self) -> Pid {
        self.id
    }

    /// Prices from `formulator`'s book of bundle plans instead of a
    /// private one: a world hands every provider a clone of one engine, so
    /// a bundle is compiled and its trajectories recorded once per world.
    ///
    /// # Panics
    /// When `formulator` degrades under another reward model than
    /// `ProviderConfig::reward` — its plans would price a different §5.
    pub fn with_formulator(mut self, formulator: Formulator) -> Self {
        assert!(
            std::ptr::addr_eq(
                Arc::as_ptr(&self.config.reward),
                Arc::as_ptr(formulator.reward())
            ),
            "with_formulator: the engine's reward model ({}) is not this provider's \
             ProviderConfig::reward ({}) — share the Arc",
            formulator.reward().name(),
            self.config.reward.name(),
        );
        self.formulator = formulator;
        self
    }

    /// Registers the a-priori demand analysis for an application class
    /// (keyed by the spec name). CFP tasks with unknown specs are skipped —
    /// the node genuinely cannot estimate their resource needs.
    ///
    /// Re-registering a spec's model forgets this provider's memoized
    /// plans (built under the old model); the shared book files plans by
    /// the model's identity, so what other providers see is untouched.
    pub fn register_demand_model(
        &mut self,
        spec_name: impl Into<String>,
        model: Arc<dyn DemandModel>,
    ) {
        self.memo = Default::default();
        self.demand_models.insert(spec_name.into(), model);
    }

    /// Read access to the reservation ledger (tests, metrics).
    pub fn ledger(&self) -> &NodeLedger {
        &self.ledger
    }

    /// Tasks this node currently executes.
    pub fn executing(&self) -> Vec<(NegoId, TaskId)> {
        let mut v: Vec<(NegoId, TaskId)> = self.committed.keys().copied().collect();
        v.sort();
        v
    }

    /// Tasks this node currently executes, with the CFP round each grant
    /// was won in — the model checker's no-split-brain invariant compares
    /// rounds across nodes to prove at most one executor per award.
    pub fn executing_rounds(&self) -> Vec<(NegoId, TaskId, u32)> {
        let mut v: Vec<(NegoId, TaskId, u32)> = self
            .committed
            .keys()
            .map(|k| (k.0, k.1, self.commit_round.get(k).copied().unwrap_or(0)))
            .collect();
        v.sort();
        v
    }

    /// Tasks this node has in-flight tentative holds for (proposed but not
    /// yet awarded/declined), sorted.
    pub fn holding(&self) -> Vec<(NegoId, TaskId)> {
        let mut v: Vec<(NegoId, TaskId)> = self.holds.keys().copied().collect();
        v.sort();
        v
    }

    /// Simulates a crash-restart of the provider process: volatile
    /// negotiation state (tentative holds, armed heartbeat timers) is
    /// lost, while committed grants — durable by the two-phase reservation
    /// contract — survive. The caller (fault injector) is responsible for
    /// discarding this node's pending timers; the engine itself keeps
    /// executing whatever it already accepted.
    pub fn crash_restart(&mut self) {
        for (_, hold) in self.holds.drain() {
            self.ledger.release(hold);
        }
        self.heartbeat_armed.clear();
    }

    /// Handles an inbound protocol message addressed to this provider.
    pub fn on_message(&mut self, now: SimTime, from: Pid, msg: &Msg) -> Vec<Action> {
        match msg {
            Msg::CallForProposals { nego, tasks, round } => self.on_cfp(now, *nego, tasks, *round),
            Msg::Award { nego, task, round } => self.on_award(now, *nego, *task, *round),
            Msg::Release { nego } => self.on_release(*nego),
            Msg::LeaseRenew { nego } => {
                self.on_lease_renew(now, *nego);
                Vec::new()
            }
            _ => {
                let _ = from;
                Vec::new()
            }
        }
    }

    /// Handles a provider-side timer.
    pub(crate) fn on_timer(&mut self, now: SimTime, nego: NegoId, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::HoldExpiry => {
                self.expire_holds(now);
                Vec::new()
            }
            TimerKind::HeartbeatSend => self.on_heartbeat_send(nego),
            TimerKind::LeaseCheck => self.on_lease_check(now, nego),
            _ => Vec::new(),
        }
    }

    /// Drops expired tentative holds (ledger + bookkeeping).
    fn expire_holds(&mut self, now: SimTime) {
        self.ledger.expire(now.as_micros());
        // Bookkeeping entries whose holds expired become stale; committing
        // them later fails gracefully (commit() returns UnknownHold) and is
        // handled by the Decline path, but pruning keeps the map small.
        // We conservatively keep entries; the ledger is the truth.
    }

    fn on_cfp(
        &mut self,
        now: SimTime,
        nego: NegoId,
        tasks: &[TaskAnnouncement],
        round: u32,
    ) -> Vec<Action> {
        if tasks.is_empty() {
            return Vec::new();
        }
        // Partition recovery: the organizer only re-announces tasks it has
        // no live assignment for, so a CFP round fresher than one of our
        // commits that *names that committed task* proves the organizer
        // reopened it (our Accept was lost behind a cut, or it struck us
        // after silence). The grant will never be released explicitly —
        // return its resources to the pool now, before pricing the retry.
        let prev_round = self.latest_round.get(&nego).copied();
        if prev_round.is_none_or(|r| round > r) {
            self.latest_round.insert(nego, round);
        }
        let reopened: Vec<(NegoId, TaskId)> = tasks
            .iter()
            .map(|t| (nego, t.task))
            .filter(|k| {
                self.committed.contains_key(k)
                    && self.commit_round.get(k).copied().unwrap_or(0) < round
            })
            .collect();
        for k in reopened {
            self.release_commit(k);
        }
        // A fresh CFP round for a negotiation supersedes this provider's
        // earlier unanswered offers: the organizer has moved on, so their
        // tentative holds are dead capacity — release them before pricing.
        let stale: Vec<(NegoId, TaskId)> = self
            .holds
            .keys()
            .filter(|(n, _)| *n == nego)
            .copied()
            .collect();
        for k in stale {
            if let Some(h) = self.holds.remove(&k) {
                self.ledger.release(h);
            }
        }
        // Strategy-chain participation gate (battery policies, etc.),
        // evaluated against the capacity actually uncommitted right now.
        let ctx = CfpContext {
            node: self.id,
            round,
            task_count: tasks.len(),
            available: self.ledger.available(),
            capacity: self.ledger.capacity(),
        };
        if !self.config.chain.participates(&ctx) {
            return Vec::new();
        }
        // The bundle's plan: every announced request resolved and compiled
        // (unknown specs or invalid requests exclude the task), shared by
        // every node that hears this bundle.
        let Some(plan) = self.plan_for(tasks) else {
            return Vec::new();
        };
        let bundle = plan.tasks();

        // Per-task pricing: (task, levels, demand, reward).
        let mut priced: Vec<(usize, Vec<usize>, ResourceVector, f64)> = Vec::new();
        match self.config.strategy {
            ProposalStrategy::Joint => {
                // §5: joint formulation over the announced task set against
                // the *available* capacity (capacity minus existing holds /
                // grants). If even fully degraded the whole set does not
                // fit, shed tasks from the tail until a feasible subset
                // remains — proposing for a subset is better than silence.
                // The plan finds that subset from the prefix-summed
                // fully-degraded demands and replays the prefix's recorded
                // degradation trajectory; a node with no room is refused by
                // the trajectory's floor without walking it.
                let admission = AdmissionControl::new(self.config.policy, ctx.available);
                let Some((_, outcome)) = plan.formulate_shedding(&admission) else {
                    return Vec::new();
                };
                for (i, (levels, demand)) in
                    outcome.levels.into_iter().zip(outcome.demands).enumerate()
                {
                    priced.push((i, levels, demand, outcome.reward));
                }
            }
            ProposalStrategy::Sequential => {
                // Price each task alone against what is left after the
                // offers already in this bundle; unpriceable tasks are
                // simply skipped.
                let mut left = ctx.available;
                for (i, task) in bundle.iter().enumerate() {
                    let admission = AdmissionControl::new(self.config.policy, left);
                    if let Ok(out) = self.formulator.formulate(&[task.as_ref()], &admission) {
                        left -= out.demands[0];
                        priced.push((i, out.levels[0].clone(), out.demands[0], out.reward));
                    }
                }
            }
        }
        if priced.is_empty() {
            return Vec::new();
        }

        // Strategy-chain offer review: each priced entry becomes a
        // [`TaskOffer`] components may adjust (degrade, re-price) or
        // withhold before any hold is placed. The empty chain keeps every
        // offer exactly as formulated.
        let mut offers: Vec<(usize, TaskOffer)> = Vec::with_capacity(priced.len());
        for (i, levels, demand, reward) in priced {
            // The plan was compiled under `config.reward`: `new` builds the
            // formulator from it and `with_formulator` asserts it.
            let task_reward = bundle[i].reward(&levels);
            let mut offer = TaskOffer {
                task: tasks[plan.source(i)].task,
                levels,
                ladder: bundle[i].ladder().to_vec(),
                demand,
                reward,
                task_reward,
            };
            if self.config.chain.review_offer(&ctx, &mut offer) {
                offers.push((i, offer));
            }
        }
        if offers.is_empty() {
            return Vec::new();
        }

        // Place tentative holds; roll back everything if any hold fails
        // (the ledger raced with another negotiation's award).
        let expires = (now + self.config.hold_ttl).as_micros();
        let mut placed: Vec<(TaskId, VectorHold)> = Vec::new();
        for (_, offer) in &offers {
            match self.ledger.prepare(&offer.demand, expires) {
                Ok(h) => placed.push((offer.task, h)),
                Err(_) => {
                    for (_, h) in placed {
                        self.ledger.release(h);
                    }
                    return Vec::new();
                }
            }
        }
        for (task, hold) in &placed {
            self.holds.insert((nego, *task), *hold);
        }

        // Build the proposal bundle (levels clamped to each ladder, so a
        // component cannot push an offer off the announced value range).
        let mut proposals = Vec::with_capacity(offers.len());
        for (i, offer) in offers {
            let mut levels = offer.levels;
            for (l, len) in levels.iter_mut().zip(bundle[i].ladder()) {
                *l = (*l).min(len - 1);
            }
            let offered: Vec<qosc_spec::Value> = bundle[i]
                .request()
                .iter_attrs()
                .zip(levels.iter())
                .map(|((_, a), &l)| a.levels[l].clone())
                .collect();
            proposals.push(TaskProposal {
                task: offer.task,
                offered,
                levels,
                demand: offer.demand,
                link_kbps: self.config.link_kbps,
                reward: offer.reward,
            });
        }
        vec![
            Action::send(
                nego.organizer,
                Msg::Proposal {
                    nego,
                    from: self.id,
                    proposals,
                },
            ),
            Action::Timer {
                delay: self.config.hold_ttl,
                token: encode_timer(nego, TimerKind::HoldExpiry),
            },
        ]
    }

    /// The plan of an announced bundle under this provider's demand models:
    /// from the memo when one of the last few bundles priced here, else
    /// from the engine's book. `None` when nothing announced can be priced.
    fn plan_for(&mut self, tasks: &[TaskAnnouncement]) -> Option<Arc<BundlePlan>> {
        let announced = || tasks.iter().map(|t| (&t.spec, &t.request));
        let last = self.memo.len() - 1;
        let hit = self
            .memo
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.announces(announced())));
        if hit.is_none() {
            let models = &self.demand_models;
            self.memo[last] = Some(
                self.formulator
                    .plan_for(announced(), |name| models.get(name))?,
            );
        }
        self.memo[..=hit.unwrap_or(last)].rotate_right(1);
        self.memo[0].clone()
    }

    /// Returns one committed grant's resources to the pool and scrubs
    /// every per-grant record (round stamp, lease, heartbeat target).
    fn release_commit(&mut self, key: (NegoId, TaskId)) {
        if let Some(h) = self.committed.remove(&key) {
            self.ledger.release(h);
        }
        self.commit_round.remove(&key);
        self.lease_deadline.remove(&key);
        if let Some(tasks) = self.active.get_mut(&key.0) {
            tasks.retain(|t| *t != key.1);
            if tasks.is_empty() {
                self.active.remove(&key.0);
            }
        }
    }

    fn on_award(&mut self, now: SimTime, nego: NegoId, task: TaskId, round: u32) -> Vec<Action> {
        let decline = |from: Pid| {
            vec![Action::send(
                nego.organizer,
                Msg::Decline {
                    nego,
                    task,
                    from,
                    round,
                },
            )]
        };
        if self.latest_round.get(&nego).copied().unwrap_or(0) > round {
            // The award belongs to a round we already know is superseded
            // (a fresh CFP re-announced its task): committing now would
            // resurrect exactly the stale grant the re-announce released.
            return decline(self.id);
        }
        let Some(hold) = self.holds.remove(&(nego, task)) else {
            // Hold expired (or we never proposed): we cannot honour the
            // award any more.
            return decline(self.id);
        };
        if !self.config.chain.accepts_award(&AwardContext {
            node: self.id,
            task,
        }) {
            // A strategy component vetoed the award: decline and release
            // the tentative hold rather than letting it expire.
            self.ledger.release(hold);
            return decline(self.id);
        }
        if self.ledger.commit(hold).is_err() {
            // The tentative hold expired between proposal and award.
            return decline(self.id);
        }
        self.committed.insert((nego, task), hold);
        self.commit_round.insert((nego, task), round);
        self.active.entry(nego).or_default().push(task);
        let mut actions = vec![Action::send(
            nego.organizer,
            Msg::Accept {
                nego,
                task,
                from: self.id,
                round,
            },
        )];
        if self.config.heartbeats && self.heartbeat_armed.insert(nego) {
            actions.push(Action::Timer {
                delay: self.config.heartbeat_interval,
                token: encode_timer(nego, TimerKind::HeartbeatSend),
            });
        }
        if let Some(ttl) = self.config.commit_ttl {
            self.lease_deadline.insert((nego, task), now + ttl);
            if self.lease_armed.insert(nego) {
                actions.push(Action::Timer {
                    delay: ttl,
                    token: encode_timer(nego, TimerKind::LeaseCheck),
                });
            }
        }
        actions
    }

    fn on_heartbeat_send(&mut self, nego: NegoId) -> Vec<Action> {
        let Some(tasks) = self.active.get(&nego) else {
            self.heartbeat_armed.remove(&nego);
            return Vec::new();
        };
        if tasks.is_empty() {
            self.heartbeat_armed.remove(&nego);
            return Vec::new();
        }
        let mut actions: Vec<Action> = tasks
            .iter()
            .map(|t| {
                Action::send(
                    nego.organizer,
                    Msg::Heartbeat {
                        nego,
                        task: *t,
                        from: self.id,
                    },
                )
            })
            .collect();
        actions.push(Action::Timer {
            delay: self.config.heartbeat_interval,
            token: encode_timer(nego, TimerKind::HeartbeatSend),
        });
        actions
    }

    /// Lease sweep for one negotiation: expired grants are released; the
    /// timer re-arms for the earliest surviving deadline, and disarms when
    /// nothing leased remains.
    fn on_lease_check(&mut self, now: SimTime, nego: NegoId) -> Vec<Action> {
        let expired: Vec<(NegoId, TaskId)> = self
            .lease_deadline
            .iter()
            .filter(|((n, _), at)| *n == nego && **at <= now)
            .map(|(k, _)| *k)
            .collect();
        for k in expired {
            self.release_commit(k);
        }
        let next = self
            .lease_deadline
            .iter()
            .filter(|((n, _), _)| *n == nego)
            .map(|(_, at)| *at)
            .min();
        let Some(next) = next else {
            self.lease_armed.remove(&nego);
            return Vec::new();
        };
        vec![Action::Timer {
            delay: SimDuration::micros(next.since(now).as_micros().max(1)),
            token: encode_timer(nego, TimerKind::LeaseCheck),
        }]
    }

    /// The organizer refreshed its claim on this negotiation's grants:
    /// every lease extends by a full `commit_ttl` from now.
    fn on_lease_renew(&mut self, now: SimTime, nego: NegoId) {
        let Some(ttl) = self.config.commit_ttl else {
            return;
        };
        for ((n, _), at) in self.lease_deadline.iter_mut() {
            if *n == nego {
                *at = now + ttl;
            }
        }
    }

    fn on_release(&mut self, nego: NegoId) -> Vec<Action> {
        // Release committed grants of this negotiation.
        let keys: Vec<(NegoId, TaskId)> = self
            .committed
            .keys()
            .filter(|(n, _)| *n == nego)
            .copied()
            .collect();
        for k in keys {
            if let Some(h) = self.committed.remove(&k) {
                self.ledger.release(h);
            }
        }
        // Also drop any leftover tentative holds.
        let keys: Vec<(NegoId, TaskId)> = self
            .holds
            .keys()
            .filter(|(n, _)| *n == nego)
            .copied()
            .collect();
        for k in keys {
            if let Some(h) = self.holds.remove(&k) {
                self.ledger.release(h);
            }
        }
        self.active.remove(&nego);
        self.heartbeat_armed.remove(&nego);
        self.latest_round.remove(&nego);
        self.commit_round.retain(|(n, _), _| *n != nego);
        self.lease_deadline.retain(|(n, _), _| *n != nego);
        self.lease_armed.remove(&nego);
        Vec::new()
    }
}

impl crate::snapshot::StateDigest for ProviderEngine {
    fn digest(&self, h: &mut crate::snapshot::StableHasher) {
        // Hold ids are opaque monotonic handles: hash each hold by its
        // allocation *rank* among the manager's live holds, so states
        // that differ only by historical id churn merge (see the
        // `NodeLedger` digest).
        let rank_of = |kind: qosc_resources::ResourceKind, id: qosc_resources::HoldId| {
            self.ledger
                .manager(kind)
                .holds_snapshot()
                .iter()
                .position(|(hid, ..)| *hid == id.0)
                .map_or(0, |r| r as u64 + 1)
        };
        let write_hold = |h: &mut crate::snapshot::StableHasher, hold: &VectorHold| {
            for kind in qosc_resources::ResourceKind::ALL {
                // rank + 1 so `None` (0) is distinct from the first hold.
                h.write_u64(hold.get(kind).map_or(0, |id| rank_of(kind, id)));
            }
        };
        let write_keyed_holds =
            |h: &mut crate::snapshot::StableHasher, map: &HashMap<(NegoId, TaskId), VectorHold>| {
                let mut keys: Vec<&(NegoId, TaskId)> = map.keys().collect();
                keys.sort();
                h.write_usize(keys.len());
                for k in keys {
                    h.write_u64(k.0.organizer as u64);
                    h.write_u64(k.0.seq as u64);
                    h.write_u64(k.1 .0 as u64);
                    write_hold(h, &map[k]);
                }
            };
        h.write_u64(self.id as u64);
        self.ledger.digest(h);
        write_keyed_holds(h, &self.holds);
        write_keyed_holds(h, &self.committed);
        let mut negos: Vec<&NegoId> = self.active.keys().collect();
        negos.sort();
        h.write_usize(negos.len());
        for n in negos {
            h.write_u64(n.organizer as u64);
            h.write_u64(n.seq as u64);
            // Task arrival order within a negotiation only affects
            // heartbeat emission order, not protocol decisions: canonical
            // sorted order lets permuted-but-equivalent states merge.
            let mut tasks = self.active[n].clone();
            tasks.sort();
            h.write_usize(tasks.len());
            for t in tasks {
                h.write_u64(t.0 as u64);
            }
        }
        let mut armed: Vec<&NegoId> = self.heartbeat_armed.iter().collect();
        armed.sort();
        h.write_usize(armed.len());
        for n in armed {
            h.write_u64(n.organizer as u64);
            h.write_u64(n.seq as u64);
            // A constant byte per entry is part of the recorded digest
            // stream (pinned model-check graph counts, the digests in
            // `direct_batching_equivalence`).
            h.write_bool(true);
        }
        // Round bookkeeping drives the stale-commit release decision, so
        // it is protocol state and must be hashed. Lease deadlines are
        // path-dependent timestamps but only exist under `commit_ttl`,
        // which model-checking configs leave off (empty map, no forking).
        let mut rounds: Vec<(&NegoId, &u32)> = self.latest_round.iter().collect();
        rounds.sort();
        h.write_usize(rounds.len());
        for (n, r) in rounds {
            h.write_u64(n.organizer as u64);
            h.write_u64(n.seq as u64);
            h.write_u64(*r as u64);
        }
        let mut commit_rounds: Vec<(&(NegoId, TaskId), &u32)> = self.commit_round.iter().collect();
        commit_rounds.sort();
        h.write_usize(commit_rounds.len());
        for (k, r) in commit_rounds {
            h.write_u64(k.0.organizer as u64);
            h.write_u64(k.0.seq as u64);
            h.write_u64(k.1 .0 as u64);
            h.write_u64(*r as u64);
        }
        let mut leases: Vec<(&(NegoId, TaskId), &SimTime)> = self.lease_deadline.iter().collect();
        leases.sort();
        h.write_usize(leases.len());
        for (k, at) in leases {
            h.write_u64(k.0.organizer as u64);
            h.write_u64(k.0.seq as u64);
            h.write_u64(k.1 .0 as u64);
            h.write_u64(at.0);
        }
        // Config and demand models are immutable after setup and the
        // bundle plans are behaviour-neutral: all excluded by design.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_resources::{av_demand_model, ResourceKind};
    use qosc_spec::catalog;

    #[test]
    fn config_debug_exposes_every_tunable() {
        let dbg = format!("{:?}", ProviderConfig::default());
        for field in [
            "link_kbps",
            "policy",
            "hold_ttl",
            "heartbeat_interval",
            "heartbeats",
            "commit_ttl",
            "reward",
            "strategy",
            "chain",
        ] {
            assert!(dbg.contains(field), "missing {field} in {dbg}");
        }
        assert!(dbg.contains("linear-penalty"), "reward model name: {dbg}");
        let dbg = format!("{:?}", crate::OrganizerConfig::default());
        for field in [
            "tiebreak",
            "max_rounds",
            "eval",
            "monitor",
            "renew_leases",
            "chain",
        ] {
            assert!(dbg.contains(field), "missing {field} in {dbg}");
        }
    }

    fn announcement(task: u32) -> TaskAnnouncement {
        TaskAnnouncement {
            task: TaskId(task),
            spec: catalog::av_spec(),
            request: catalog::surveillance_request(),
            input_bytes: 100_000,
            output_bytes: 10_000,
        }
    }

    fn provider(cpu: f64) -> ProviderEngine {
        let mut p = ProviderEngine::new(
            5,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig::default(),
        );
        let spec = catalog::av_spec();
        p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
        p
    }

    fn nego() -> NegoId {
        NegoId {
            organizer: 0,
            seq: 0,
        }
    }

    fn cfp(tasks: Vec<TaskAnnouncement>) -> Msg {
        Msg::CallForProposals {
            nego: nego(),
            tasks,
            round: 0,
        }
    }

    #[test]
    fn cfp_produces_proposal_and_places_holds() {
        let mut p = provider(500.0);
        let before = p.ledger().available();
        let actions = p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        let proposal = actions.iter().find_map(|a| match a {
            Action::Send { to: 0, msg } => match &**msg {
                Msg::Proposal { proposals, .. } => Some(proposals.clone()),
                _ => None,
            },
            _ => None,
        });
        let proposals = proposal.expect("provider should propose");
        assert_eq!(proposals.len(), 1);
        // Rich node proposes the preferred quality.
        assert_eq!(proposals[0].levels, vec![0, 0, 0, 0]);
        // Resources are tentatively held.
        let after = p.ledger().available();
        assert!(after.get(ResourceKind::Cpu) < before.get(ResourceKind::Cpu));
        // Hold-expiry timer armed.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Timer { token, .. }
            if crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::HoldExpiry)));
    }

    #[test]
    fn scarce_provider_proposes_degraded_quality() {
        // Preferred-level demand is ~18.25 MIPS; 10 MIPS forces degradation.
        let mut p = provider(10.0);
        let actions = p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        let proposals = actions
            .iter()
            .find_map(|a| match a.payload() {
                Some(Msg::Proposal { proposals, .. }) => Some(proposals.clone()),
                _ => None,
            })
            .unwrap();
        assert!(proposals[0].levels.iter().any(|&l| l > 0));
    }

    #[test]
    fn hopeless_provider_stays_silent() {
        let mut p = provider(0.5);
        let actions = p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        assert!(actions.is_empty());
        // Nothing held either.
        assert_eq!(
            p.ledger().available(),
            ResourceVector::new(0.5, 512.0, 10_000.0, 60.0, 10_000.0)
        );
    }

    #[test]
    fn unknown_spec_is_skipped() {
        let mut p = ProviderEngine::new(
            5,
            ResourceVector::new(500.0, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig::default(),
        );
        // No demand model registered.
        let actions = p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        assert!(actions.is_empty());
    }

    #[test]
    fn non_participating_node_is_silent() {
        struct Decline;
        impl crate::strategy::ProviderComponent for Decline {
            fn name(&self) -> &'static str {
                "decline"
            }

            fn participate(&self, _ctx: &CfpContext) -> bool {
                false
            }
        }
        let mut p = ProviderEngine::new(
            5,
            ResourceVector::new(500.0, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig {
                chain: ProviderStrategy::new().with(Decline),
                ..Default::default()
            },
        );
        let spec = catalog::av_spec();
        p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
        let actions = p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        assert!(actions.is_empty());
    }

    #[test]
    fn award_commits_hold_and_accepts() {
        let mut p = provider(500.0);
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        let actions = p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 0, msg } if matches!(&**msg, Msg::Accept { .. })
        )));
        assert_eq!(p.executing(), vec![(nego(), TaskId(0))]);
        // Committed grants survive expiry.
        p.on_timer(SimTime(10_000_000), nego(), TimerKind::HoldExpiry);
        assert_eq!(p.executing(), vec![(nego(), TaskId(0))]);
        // Heartbeat timer armed exactly once.
        let hb_timers = actions
            .iter()
            .filter(|a| {
                matches!(a, Action::Timer { token, .. }
                if crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::HeartbeatSend)
            })
            .count();
        assert_eq!(hb_timers, 1);
    }

    #[test]
    fn award_after_expiry_declines() {
        let mut p = provider(500.0);
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        // Expire tentative holds (TTL default 400 ms).
        p.on_timer(SimTime(10_000_000), nego(), TimerKind::HoldExpiry);
        let actions = p.on_message(
            SimTime(10_000_001),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 0, msg } if matches!(&**msg, Msg::Decline { .. })
        )));
        assert!(p.executing().is_empty());
    }

    #[test]
    fn heartbeats_flow_while_active() {
        let mut p = provider(500.0);
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        let actions = p.on_timer(SimTime(502_000), nego(), TimerKind::HeartbeatSend);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to: 0, msg } if matches!(&**msg, Msg::Heartbeat { .. })
        )));
        // Re-armed.
        assert!(actions.iter().any(|a| matches!(a, Action::Timer { .. })));
    }

    #[test]
    fn release_returns_resources_and_stops_heartbeats() {
        let mut p = provider(500.0);
        let full = p.ledger().available();
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        p.on_message(SimTime(3000), 0, &Msg::Release { nego: nego() });
        assert_eq!(p.ledger().available(), full);
        assert!(p.executing().is_empty());
        let actions = p.on_timer(SimTime(502_000), nego(), TimerKind::HeartbeatSend);
        assert!(actions.is_empty());
    }

    #[test]
    fn overload_sheds_tasks_from_the_tail() {
        // Fully degraded, one task needs ~5.95 MIPS: 13 MIPS fits two
        // tasks at best but never three; provider proposes a prefix subset.
        let mut p = provider(13.0);
        let actions = p.on_message(
            SimTime(1000),
            0,
            &cfp(vec![announcement(0), announcement(1), announcement(2)]),
        );
        let proposals = actions
            .iter()
            .find_map(|a| match a.payload() {
                Some(Msg::Proposal { proposals, .. }) => Some(proposals.clone()),
                _ => None,
            })
            .unwrap();
        assert!(!proposals.is_empty() && proposals.len() < 3);
        assert_eq!(proposals[0].task, TaskId(0));
    }

    #[test]
    fn fresh_round_reannouncing_committed_task_releases_the_grant() {
        let mut p = provider(500.0);
        let full = p.ledger().available();
        // Win task 0 in round 0.
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        assert_eq!(p.executing_rounds(), vec![(nego(), TaskId(0), 0)]);
        // The organizer re-announces task 0 in round 1: our Accept was
        // lost, the award was struck — the old grant must be released
        // (and we re-propose against restored capacity).
        let round1 = Msg::CallForProposals {
            nego: nego(),
            tasks: vec![announcement(0)],
            round: 1,
        };
        let actions = p.on_message(SimTime(3000), 0, &round1);
        assert!(p.executing().is_empty(), "stale commit must be released");
        assert!(actions
            .iter()
            .any(|a| matches!(a.payload(), Some(Msg::Proposal { .. }))));
        // Re-award in round 1: commit stamped with the fresh round, and
        // capacity bounded as if the round-0 grant never existed.
        p.on_message(
            SimTime(4000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 1,
            },
        );
        assert_eq!(p.executing_rounds(), vec![(nego(), TaskId(0), 1)]);
        p.on_message(SimTime(5000), 0, &Msg::Release { nego: nego() });
        assert_eq!(p.ledger().available(), full);
    }

    #[test]
    fn fresh_round_spares_commits_for_other_tasks() {
        let mut p = provider(500.0);
        // Win both tasks in round 0.
        p.on_message(
            SimTime(1000),
            0,
            &cfp(vec![announcement(0), announcement(1)]),
        );
        for t in [0, 1] {
            p.on_message(
                SimTime(2000),
                0,
                &Msg::Award {
                    nego: nego(),
                    task: TaskId(t),
                    round: 0,
                },
            );
        }
        // Round 1 re-announces only task 1: the task-0 grant survives.
        let round1 = Msg::CallForProposals {
            nego: nego(),
            tasks: vec![announcement(1)],
            round: 1,
        };
        p.on_message(SimTime(3000), 0, &round1);
        assert_eq!(p.executing(), vec![(nego(), TaskId(0))]);
    }

    #[test]
    fn commit_lease_expires_without_renewal_and_survives_with_it() {
        let config = ProviderConfig {
            commit_ttl: Some(SimDuration::millis(100)),
            ..Default::default()
        };
        let mut p = ProviderEngine::new(
            5,
            ResourceVector::new(500.0, 512.0, 10_000.0, 60.0, 10_000.0),
            config,
        );
        let spec = catalog::av_spec();
        p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
        let full = p.ledger().available();
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        let actions = p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Timer { token, .. }
                if crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::LeaseCheck)),
            "award under commit_ttl arms a lease check"
        );
        // A renewal inside the window pushes the deadline out...
        p.on_message(SimTime(50_000), 0, &Msg::LeaseRenew { nego: nego() });
        let actions = p.on_timer(SimTime(102_000), nego(), TimerKind::LeaseCheck);
        assert_eq!(p.executing(), vec![(nego(), TaskId(0))]);
        assert!(
            actions.iter().any(|a| matches!(a, Action::Timer { .. })),
            "lease check re-arms while grants remain"
        );
        // ...but silence past the renewed deadline releases the grant.
        let actions = p.on_timer(SimTime(200_000), nego(), TimerKind::LeaseCheck);
        assert!(p.executing().is_empty(), "expired lease releases capacity");
        assert_eq!(p.ledger().available(), full);
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Timer { .. })),
            "nothing leased: the check disarms"
        );
    }

    #[test]
    fn leases_are_off_by_default() {
        let mut p = provider(500.0);
        p.on_message(SimTime(1000), 0, &cfp(vec![announcement(0)]));
        let actions = p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: nego(),
                task: TaskId(0),
                round: 0,
            },
        );
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::Timer { token, .. }
            if crate::protocol::decode_timer(*token).unwrap().1 == TimerKind::LeaseCheck)));
        // A stray LeaseCheck (or renewal) is inert without commit_ttl.
        assert!(p
            .on_timer(SimTime(10_000_000), nego(), TimerKind::LeaseCheck)
            .is_empty());
        assert_eq!(p.executing(), vec![(nego(), TaskId(0))]);
    }

    #[test]
    fn concurrent_negotiations_cannot_double_book() {
        // Node can serve exactly one task at preferred quality; two
        // concurrent CFPs must not both receive full-capacity offers that
        // could both be awarded.
        let mut p = provider(60.0);
        let n1 = NegoId {
            organizer: 0,
            seq: 0,
        };
        let n2 = NegoId {
            organizer: 1,
            seq: 0,
        };
        let mk = |n: NegoId| Msg::CallForProposals {
            nego: n,
            tasks: vec![announcement(0)],
            round: 0,
        };
        let a1 = p.on_message(SimTime(1000), 0, &mk(n1));
        let a2 = p.on_message(SimTime(1100), 1, &mk(n2));
        let demand_of = |actions: &[Action]| {
            actions.iter().find_map(|a| match a.payload() {
                Some(Msg::Proposal { proposals, .. }) => Some(proposals[0].demand),
                _ => None,
            })
        };
        let d1 = demand_of(&a1).expect("first CFP gets an offer");
        // The second offer (if any) must fit in what is left after d1.
        if let Some(d2) = demand_of(&a2) {
            let total = d1 + d2;
            assert!(total.get(ResourceKind::Cpu) <= 60.0 + 1e-9);
        }
        // Award both; accepts must still be resource-consistent.
        p.on_message(
            SimTime(2000),
            0,
            &Msg::Award {
                nego: n1,
                task: TaskId(0),
                round: 0,
            },
        );
        p.on_message(
            SimTime(2100),
            1,
            &Msg::Award {
                nego: n2,
                task: TaskId(0),
                round: 0,
            },
        );
        let committed_cpu = p.ledger().capacity().get(ResourceKind::Cpu)
            - p.ledger().available().get(ResourceKind::Cpu);
        assert!(committed_cpu <= 60.0 + 1e-9);
    }

    /// A provider pricing from a clone of `book` (a private engine when
    /// `None`), with `model` registered for the AV spec.
    fn provider_on(
        book: Option<&Formulator>,
        cpu: f64,
        model: &Arc<dyn DemandModel>,
    ) -> ProviderEngine {
        let mut p = ProviderEngine::new(
            5,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig {
                reward: book
                    .map_or_else(|| ProviderConfig::default().reward, |b| b.reward().clone()),
                ..Default::default()
            },
        );
        if let Some(book) = book {
            p = p.with_formulator(book.clone());
        }
        p.register_demand_model(catalog::av_spec().name(), Arc::clone(model));
        p
    }

    /// The catalog's AV demand model and one demanding thrice its base.
    fn light_and_heavy() -> [Arc<dyn DemandModel>; 2] {
        let light = av_demand_model(&catalog::av_spec());
        let mut heavy = light.clone();
        heavy.base = heavy.base.scale(3.0);
        [Arc::new(light), Arc::new(heavy)]
    }

    /// The `seq`-th negotiation's CFP for `tasks` surveillance tasks.
    fn cfp_of(seq: u32, tasks: u32) -> Msg {
        Msg::CallForProposals {
            nego: NegoId { organizer: 0, seq },
            tasks: (0..tasks).map(announcement).collect(),
            round: 0,
        }
    }

    #[test]
    fn shared_book_keeps_nodes_with_different_models_apart() {
        let [light, heavy] = light_and_heavy();
        let book = Formulator::new(Arc::new(LinearPenalty::default()));
        let mut shared = [&light, &heavy].map(|m| provider_on(Some(&book), 120.0, m));
        let mut private = [&light, &heavy].map(|m| provider_on(None, 120.0, m));
        // Five bundles in rotation overflow the four-entry memo, so every
        // CFP below is answered from the book: one plan per (bundle,
        // model), built on first sight and never evicted by the other
        // node's plan for the same announcement.
        for round in 0..3u32 {
            for tasks in 1..=5u32 {
                let msg = cfp_of(round * 5 + tasks, tasks);
                let now = SimTime(1_000 * u64::from(round * 5 + tasks));
                let [a, b] = [0, 1].map(|i| {
                    let priced = shared[i].on_message(now, 0, &msg);
                    assert_eq!(priced, private[i].on_message(now, 0, &msg));
                    priced
                });
                assert!(a != b || a.is_empty(), "the two models price differently");
                let seen = if round == 0 { tasks as usize } else { 5 };
                assert_eq!(book.cached(), 2 * seen, "round {round}, {tasks} tasks");
            }
        }
    }

    #[test]
    fn reregistering_a_model_leaves_other_providers_untouched() {
        let [light, heavy] = light_and_heavy();
        let book = Formulator::new(Arc::new(LinearPenalty::default()));
        let mut changed = provider_on(Some(&book), 120.0, &light);
        let mut bystander = provider_on(Some(&book), 120.0, &light);
        let mut private = [
            provider_on(None, 120.0, &light),
            provider_on(None, 120.0, &light),
        ];
        for p in [&mut changed, &mut bystander]
            .into_iter()
            .chain(&mut private)
        {
            assert!(!p.on_message(SimTime(1_000), 0, &cfp_of(0, 2)).is_empty());
        }
        changed.register_demand_model(catalog::av_spec().name(), Arc::clone(&heavy));
        private[0].register_demand_model(catalog::av_spec().name(), heavy);
        let msg = cfp_of(1, 2);
        let repriced = changed.on_message(SimTime(2_000), 0, &msg);
        assert_eq!(repriced, private[0].on_message(SimTime(2_000), 0, &msg));
        let untouched = bystander.on_message(SimTime(2_000), 0, &msg);
        assert_eq!(untouched, private[1].on_message(SimTime(2_000), 0, &msg));
        assert_ne!(repriced, untouched);
    }

    #[test]
    #[should_panic(expected = "with_formulator: the engine's reward model (quadratic-penalty)")]
    fn with_formulator_rejects_a_foreign_reward_model() {
        let foreign = Formulator::new(Arc::new(crate::QuadraticPenalty::default()));
        let _ = provider(100.0).with_formulator(foreign);
    }

    #[test]
    fn a_cloned_provider_prices_like_the_original() {
        let mut original = provider(60.0);
        original.on_message(SimTime(1_000), 0, &cfp_of(0, 2));
        let mut clone = original.clone();
        for seq in 1..4 {
            let (now, msg) = (SimTime(1_000 + u64::from(seq)), cfp_of(seq, seq));
            assert_eq!(
                clone.on_message(now, 0, &msg),
                original.on_message(now, 0, &msg)
            );
        }
        assert_eq!(
            crate::snapshot::digest_of(&clone),
            crate::snapshot::digest_of(&original)
        );
    }
}
