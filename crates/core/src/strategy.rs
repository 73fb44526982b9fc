//! Pluggable negotiation strategies: componentized provider/organizer
//! decision logic.
//!
//! The paper fixes one provider behaviour (always volunteer, §5 joint
//! degradation pricing) and one organizer behaviour (eq. 2–5 scoring plus
//! the §4.2 tie-break). Scenario diversity — selfish or priced providers,
//! reserve thresholds, reputation weighting — needs those decisions to be
//! first-class, swappable values instead of code baked into the engines.
//!
//! This module extracts every decision point into two component traits:
//!
//! * [`ProviderComponent`] — reacts to a CFP: volunteer at all
//!   ([`ProviderComponent::participate`])? adjust or withhold a priced
//!   offer ([`ProviderComponent::review_offer`])? honour an award
//!   ([`ProviderComponent::accept_award`])?
//! * [`OrganizerComponent`] — filters/rescores incoming candidates
//!   ([`OrganizerComponent::review_candidate`]), optionally overrides
//!   winner selection ([`OrganizerComponent::select`]) and decides retry
//!   vs give-up ([`OrganizerComponent::retry`]).
//!
//! Components compose via a [`StrategyChain`] that folds responses in
//! order (the `ya-negotiator` chain pattern):
//!
//! * **participate / accept_award** — logical AND: any component can veto.
//! * **review_offer / review_candidate** — sequential transform: each
//!   component sees the offer/candidate as left by its predecessors and
//!   may mutate it; a withhold/reject short-circuits the rest.
//! * **select / retry** — first component with an opinion wins; with no
//!   opinionated component the chain falls back to the engine's legacy
//!   logic ([`select_winners`] / `round + 1 < max_rounds`).
//!
//! The **empty chain is the default** and its fold identities *are* the
//! pre-refactor engine logic, so default-configured engines behave
//! bit-for-bit as before (pinned by the `runtime_equivalence` system test
//! and the `strategy_props` chained-vs-reference property test).
//!
//! # Building a chain
//!
//! ```
//! use qosc_core::strategy::{
//!     BatteryGate, OrganizerStrategy, PatienceLimit, ProviderStrategy, ReputationScorer,
//!     ReservePrice,
//! };
//!
//! // A cautious provider: volunteers only above 30% remaining CPU and
//! // withholds offers degraded below an eq. 1 reward of 3.5.
//! let provider = ProviderStrategy::new()
//!     .with(BatteryGate { min_cpu_fraction: 0.3 })
//!     .with(ReservePrice { min_reward: 3.5 });
//! assert_eq!(format!("{provider:?}"), "[battery-gate, reserve-price]");
//!
//! // An organizer that penalises disreputable nodes and gives up after
//! // two rounds regardless of the engine's round budget.
//! let organizer = OrganizerStrategy::new()
//!     .with(ReputationScorer::uniform(0.9, 0.5))
//!     .with(PatienceLimit { rounds: 2 });
//! assert_eq!(organizer.len(), 2);
//! ```
//!
//! Wire chains through [`ProviderConfig::chain`](crate::ProviderConfig)
//! and [`OrganizerConfig::chain`](crate::OrganizerConfig); the engines,
//! every runtime backend and the offline baselines (`qosc-baselines`
//! `Instance` path) consult them at every decision point. Experiment F8
//! compares chains head-to-head on the T4 push grid.
//!
//! # Adding a component
//!
//! Implement the trait (only the hooks you care about — every hook has a
//! behaviour-preserving default), give it a [`name`](ProviderComponent::name)
//! for `Debug` output, and push it onto a chain. Components must be
//! stateless (`Send + Sync`, shared by `Arc` across cloned configs);
//! anything they need at decision time arrives in the context structs.

use std::collections::BTreeMap;
use std::sync::Arc;

use qosc_netsim::SimDuration;
use qosc_resources::{ResourceKind, ResourceVector};
use qosc_spec::TaskId;

use crate::formation::{select_winners, Candidate, Selection, TieBreak};
use crate::protocol::Pid;

/// What a provider component sees when a Call-for-Proposals arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfpContext {
    /// The provider's node id.
    pub node: Pid,
    /// Formation round of the CFP (0 = initial).
    pub round: u32,
    /// Number of tasks announced in the CFP.
    pub task_count: usize,
    /// Capacity currently uncommitted on this node.
    pub available: ResourceVector,
    /// The node's total capacity.
    pub capacity: ResourceVector,
}

/// One priced offer under chain review, before it is proposed.
///
/// `levels`/`demand`/`reward` arrive as the §5 formulation produced them;
/// components may mutate them (the engine re-derives the offered
/// attribute values from the final `levels`, clamped to each ladder).
/// The tentative hold is placed for the final `demand`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOffer {
    /// The task this offer prices.
    pub task: TaskId,
    /// Ladder level per requested attribute (0 = preferred).
    pub levels: Vec<usize>,
    /// Ladder length per requested attribute (levels are clamped to
    /// `ladder[i] - 1`).
    pub ladder: Vec<usize>,
    /// Resource demand the node will hold for this offer.
    pub demand: ResourceVector,
    /// The reward the proposal will declare (diagnostic; the §5 outcome's
    /// value — bundle-wide under joint pricing).
    pub reward: f64,
    /// This task's own eq. 1 reward at the *formulated* levels — the
    /// per-task value reserve-price policies threshold on. Read-only
    /// input: it is not recomputed between components.
    pub task_reward: f64,
}

impl TaskOffer {
    /// Degrades every attribute by `steps` ladder positions, clamped to
    /// the bottom of each ladder.
    pub(crate) fn degrade(&mut self, steps: usize) {
        for (l, &len) in self.levels.iter_mut().zip(self.ladder.iter()) {
            *l = (*l + steps).min(len.saturating_sub(1));
        }
    }
}

/// A provider component's verdict on a reviewed offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OfferResponse {
    /// Propose the (possibly adjusted) offer.
    #[default]
    Offer,
    /// Do not propose for this task (no hold is placed).
    Withhold,
}

/// What a provider component sees when an award arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwardContext {
    /// The provider's node id.
    pub node: Pid,
    /// The awarded task.
    pub task: TaskId,
}

/// One link of a provider-side strategy chain.
///
/// Every hook defaults to the behaviour-preserving identity, so a
/// component only implements the decisions it cares about.
pub trait ProviderComponent: Send + Sync {
    /// Short identifier shown in `Debug` output of configs and chains.
    fn name(&self) -> &'static str;

    /// Whether this node volunteers for the CFP at all (AND-folded).
    fn participate(&self, _ctx: &CfpContext) -> bool {
        true
    }

    /// Adjusts or withholds one priced offer (sequential transform;
    /// `Withhold` short-circuits later components and drops the offer).
    fn review_offer(&self, _ctx: &CfpContext, _offer: &mut TaskOffer) -> OfferResponse {
        OfferResponse::Offer
    }

    /// Whether to honour an award whose hold is still alive (AND-folded;
    /// a veto declines the award and releases the hold).
    fn accept_award(&self, _ctx: &AwardContext) -> bool {
        true
    }
}

/// What an organizer component sees when reviewing one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateContext {
    /// The organizer's node id.
    pub organizer: Pid,
    /// The task the candidate proposes for.
    pub task: TaskId,
    /// Formation round the proposal answers.
    pub round: u32,
}

/// An organizer component's verdict on a reviewed candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateResponse {
    /// Keep the (possibly rescored) candidate.
    #[default]
    Keep,
    /// Discard the candidate entirely.
    Reject,
}

/// What an organizer component sees when deciding retry vs give-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryContext {
    /// The round that just finished (0-based).
    pub round: u32,
    /// The engine's configured round budget.
    pub max_rounds: u32,
    /// Tasks still without a home.
    pub open_tasks: usize,
}

/// One link of an organizer-side strategy chain.
pub trait OrganizerComponent: Send + Sync {
    /// Short identifier shown in `Debug` output of configs and chains.
    fn name(&self) -> &'static str;

    /// Adjusts or rejects one admissible candidate (sequential transform;
    /// `Reject` short-circuits later components and drops the candidate).
    /// Rescored `distance`/`comm_cost` feed winner selection and the
    /// recorded task outcomes.
    fn review_candidate(
        &self,
        _ctx: &CandidateContext,
        _candidate: &mut Candidate,
    ) -> CandidateResponse {
        CandidateResponse::Keep
    }

    /// Overrides winner selection for the round. The first component
    /// returning `Some` wins; otherwise the chain falls back to
    /// [`select_winners`] under the configured tie-break.
    fn select(
        &self,
        _candidates: &BTreeMap<TaskId, Vec<Candidate>>,
        _tiebreak: &TieBreak,
    ) -> Option<Selection> {
        None
    }

    /// Overrides the retry decision after a round with open tasks. The
    /// first component returning `Some` wins; otherwise the legacy budget
    /// check `round + 1 < max_rounds` applies.
    fn retry(&self, _ctx: &RetryContext) -> Option<bool> {
        None
    }

    /// Delay before the retry round's CFP is re-announced. The first
    /// component returning `Some` wins; with no opinion (or a zero
    /// delay) the engine re-announces immediately, exactly the legacy
    /// behaviour. Only consulted when the chain decided to retry.
    fn backoff(&self, _ctx: &RetryContext) -> Option<SimDuration> {
        None
    }
}

/// An ordered chain of strategy components sharing one trait.
///
/// The chain folds component responses in order (see the module docs for
/// the per-hook fold semantics). The empty chain is `Default` and folds
/// to exactly the pre-refactor engine behaviour.
pub struct StrategyChain<C: ?Sized> {
    components: Vec<Arc<C>>,
}

/// Provider-side chain (see [`ProviderComponent`]).
pub type ProviderStrategy = StrategyChain<dyn ProviderComponent>;

/// Organizer-side chain (see [`OrganizerComponent`]).
pub type OrganizerStrategy = StrategyChain<dyn OrganizerComponent>;

impl<C: ?Sized> Clone for StrategyChain<C> {
    fn clone(&self) -> Self {
        Self {
            components: self.components.clone(),
        }
    }
}

impl<C: ?Sized> Default for StrategyChain<C> {
    fn default() -> Self {
        Self {
            components: Vec::new(),
        }
    }
}

impl<C: ?Sized> StrategyChain<C> {
    /// Number of components in the chain.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True for the default (behaviour-identical) chain.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl ProviderStrategy {
    /// The empty (default-behaviour) chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a component (builder style).
    pub fn with(mut self, component: impl ProviderComponent + 'static) -> Self {
        self.components.push(Arc::new(component));
        self
    }

    /// AND-fold of [`ProviderComponent::participate`].
    pub fn participates(&self, ctx: &CfpContext) -> bool {
        self.components.iter().all(|c| c.participate(ctx))
    }

    /// Sequential-transform fold of [`ProviderComponent::review_offer`];
    /// returns `false` when any component withholds the offer.
    pub fn review_offer(&self, ctx: &CfpContext, offer: &mut TaskOffer) -> bool {
        self.components
            .iter()
            .all(|c| c.review_offer(ctx, offer) == OfferResponse::Offer)
    }

    /// AND-fold of [`ProviderComponent::accept_award`].
    pub fn accepts_award(&self, ctx: &AwardContext) -> bool {
        self.components.iter().all(|c| c.accept_award(ctx))
    }
}

impl OrganizerStrategy {
    /// The empty (default-behaviour) chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a component (builder style).
    pub fn with(mut self, component: impl OrganizerComponent + 'static) -> Self {
        self.components.push(Arc::new(component));
        self
    }

    /// Sequential-transform fold of
    /// [`OrganizerComponent::review_candidate`]; returns `false` when any
    /// component rejects the candidate.
    pub fn review_candidate(&self, ctx: &CandidateContext, candidate: &mut Candidate) -> bool {
        self.components
            .iter()
            .all(|c| c.review_candidate(ctx, candidate) == CandidateResponse::Keep)
    }

    /// First-opinion fold of [`OrganizerComponent::select`], falling back
    /// to [`select_winners`] under `tiebreak`.
    pub fn select(
        &self,
        candidates: &BTreeMap<TaskId, Vec<Candidate>>,
        tiebreak: &TieBreak,
    ) -> Selection {
        self.components
            .iter()
            .find_map(|c| c.select(candidates, tiebreak))
            .unwrap_or_else(|| select_winners(candidates, tiebreak))
    }

    /// First-opinion fold of [`OrganizerComponent::retry`], falling back
    /// to the legacy budget check `round + 1 < max_rounds`.
    pub fn retries(&self, ctx: &RetryContext) -> bool {
        self.components
            .iter()
            .find_map(|c| c.retry(ctx))
            .unwrap_or(ctx.round + 1 < ctx.max_rounds)
    }

    /// First-opinion fold of [`OrganizerComponent::backoff`]: the delay
    /// before the retry CFP, or `None`/zero for the legacy immediate
    /// re-announce.
    pub(crate) fn backoff_delay(&self, ctx: &RetryContext) -> Option<SimDuration> {
        self.components.iter().find_map(|c| c.backoff(ctx))
    }
}

impl std::fmt::Debug for ProviderStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.components.iter().map(|c| Name(c.name())))
            .finish()
    }
}

impl std::fmt::Debug for OrganizerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.components.iter().map(|c| Name(c.name())))
            .finish()
    }
}

/// Renders a component name unquoted inside `Debug` lists.
struct Name(&'static str);

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

// ---------------------------------------------------------------------------
// Shipped components
// ---------------------------------------------------------------------------

/// Provider: withhold offers whose per-task eq. 1 reward fell below a
/// reserve — "don't bother serving a quality this degraded".
///
/// At the preferred levels the eq. 1 reward equals the number of
/// requested attributes (4 for the catalog A/V spec), and every
/// degradation step subtracts its weighted penalty, so a reserve close to
/// the attribute count keeps only near-preferred offers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservePrice {
    /// Minimum acceptable per-task eq. 1 reward.
    pub min_reward: f64,
}

impl ProviderComponent for ReservePrice {
    fn name(&self) -> &'static str {
        "reserve-price"
    }

    fn review_offer(&self, _ctx: &CfpContext, offer: &mut TaskOffer) -> OfferResponse {
        if offer.task_reward < self.min_reward {
            OfferResponse::Withhold
        } else {
            OfferResponse::Offer
        }
    }
}

/// Provider: a battery/participation gate — the node stops volunteering
/// when its uncommitted CPU falls below a fraction of total capacity
/// (a stand-in for "battery below threshold: stop accepting work").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryGate {
    /// Volunteer only while `available CPU / capacity CPU` ≥ this.
    pub min_cpu_fraction: f64,
}

impl ProviderComponent for BatteryGate {
    fn name(&self) -> &'static str {
        "battery-gate"
    }

    fn participate(&self, ctx: &CfpContext) -> bool {
        let capacity = ctx.capacity.get(ResourceKind::Cpu);
        if capacity <= 0.0 {
            return false;
        }
        ctx.available.get(ResourceKind::Cpu) / capacity >= self.min_cpu_fraction
    }
}

/// Provider: a priced/selfish provider — offers `degrade_steps` ladder
/// positions below what it formulated (withholding quality it could
/// deliver) and marks the declared reward up by `markup`.
///
/// The hold still covers the formulated demand; the markup only affects
/// the proposal's diagnostic reward field (selection never reads it), so
/// the observable effect is the degraded offered quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfishMarkup {
    /// Ladder steps to degrade every offered attribute by.
    pub degrade_steps: usize,
    /// Factor applied to the declared reward.
    pub markup: f64,
}

impl ProviderComponent for SelfishMarkup {
    fn name(&self) -> &'static str {
        "selfish-markup"
    }

    fn review_offer(&self, _ctx: &CfpContext, offer: &mut TaskOffer) -> OfferResponse {
        offer.degrade(self.degrade_steps);
        offer.reward *= self.markup;
        OfferResponse::Offer
    }
}

/// Organizer: reputation-weighted scoring — adds a distance penalty to
/// candidates from disreputable nodes, so equal offers resolve toward
/// trusted providers (and bad enough reputations lose even to slightly
/// worse offers).
///
/// Reputations are supplied as a static map (this engine has no opinion
/// on how trust is earned); unknown nodes get `default_reputation`. The
/// penalty is additive — `distance += weight · (1 − reputation)` — so it
/// still bites when every offer scores a perfect 0 distance.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationScorer {
    /// Reputation per node in `[0, 1]` (1 = fully trusted).
    pub reputations: BTreeMap<Pid, f64>,
    /// Reputation assumed for nodes missing from the map.
    pub default_reputation: f64,
    /// Distance penalty per unit of missing reputation.
    pub weight: f64,
}

impl ReputationScorer {
    /// A scorer with no per-node entries: every node gets
    /// `default_reputation`.
    pub fn uniform(default_reputation: f64, weight: f64) -> Self {
        Self {
            reputations: BTreeMap::new(),
            default_reputation,
            weight,
        }
    }
}

impl OrganizerComponent for ReputationScorer {
    fn name(&self) -> &'static str {
        "reputation-scorer"
    }

    fn review_candidate(
        &self,
        _ctx: &CandidateContext,
        candidate: &mut Candidate,
    ) -> CandidateResponse {
        let rep = self
            .reputations
            .get(&candidate.node)
            .copied()
            .unwrap_or(self.default_reputation);
        candidate.distance += self.weight * (1.0 - rep).max(0.0);
        CandidateResponse::Keep
    }
}

/// Organizer: gives up after a fixed number of rounds, regardless of the
/// engine's configured budget (an impatient requester).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatienceLimit {
    /// Total rounds to attempt (1 = never retry).
    pub rounds: u32,
}

impl OrganizerComponent for PatienceLimit {
    fn name(&self) -> &'static str {
        "patience-limit"
    }

    fn retry(&self, ctx: &RetryContext) -> Option<bool> {
        Some(ctx.round + 1 < self.rounds.min(ctx.max_rounds))
    }
}

/// Organizer: timeout + exponential-backoff re-announce — the
/// partition-tolerant retry policy. After a round ends with open tasks,
/// the organizer waits `base · factor^round` (capped at `max_delay`)
/// before re-announcing them, instead of the legacy immediate retry, so
/// re-announcements thin out while a partition persists and the first
/// CFP after a heal finds providers with capacity to offer.
///
/// `max_attempts` caps total rounds like [`PatienceLimit`] (the engine's
/// `max_rounds` budget still applies on top). Timer-driven via
/// `TimerKind::ReAnnounce`, so it works unmodified on every backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutBackoff {
    /// Delay before the first retry round.
    pub base: SimDuration,
    /// Multiplier applied per completed round.
    pub factor: f64,
    /// Ceiling on the computed delay.
    pub max_delay: SimDuration,
    /// Total rounds to attempt (1 = never retry).
    pub max_attempts: u32,
}

impl TimeoutBackoff {
    /// A conventional doubling policy: `base`, ×2 per round, capped at
    /// 16×`base`, up to `max_attempts` rounds.
    pub fn doubling(base: SimDuration, max_attempts: u32) -> Self {
        Self {
            base,
            factor: 2.0,
            max_delay: SimDuration::micros(base.as_micros().saturating_mul(16)),
            max_attempts,
        }
    }
}

impl OrganizerComponent for TimeoutBackoff {
    fn name(&self) -> &'static str {
        "timeout-backoff"
    }

    fn retry(&self, ctx: &RetryContext) -> Option<bool> {
        Some(ctx.round + 1 < self.max_attempts.min(ctx.max_rounds))
    }

    fn backoff(&self, ctx: &RetryContext) -> Option<SimDuration> {
        let scaled = self.base.as_micros() as f64 * self.factor.powi(ctx.round as i32);
        Some(SimDuration::micros(
            (scaled as u64).min(self.max_delay.as_micros()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfp_ctx(available_cpu: f64, capacity_cpu: f64) -> CfpContext {
        CfpContext {
            node: 3,
            round: 0,
            task_count: 2,
            available: ResourceVector::new(available_cpu, 256.0, 1000.0, 10.0, 1000.0),
            capacity: ResourceVector::new(capacity_cpu, 256.0, 1000.0, 10.0, 1000.0),
        }
    }

    fn offer(levels: Vec<usize>, task_reward: f64) -> TaskOffer {
        let ladder = vec![10; levels.len()];
        TaskOffer {
            task: TaskId(0),
            levels,
            ladder,
            demand: ResourceVector::ZERO,
            reward: task_reward,
            task_reward,
        }
    }

    #[test]
    fn empty_chain_folds_to_legacy_behaviour() {
        let p = ProviderStrategy::new();
        assert!(p.participates(&cfp_ctx(0.0, 100.0)));
        let mut o = offer(vec![1, 2], 3.0);
        let before = o.clone();
        assert!(p.review_offer(&cfp_ctx(50.0, 100.0), &mut o));
        assert_eq!(o, before);
        assert!(p.accepts_award(&AwardContext {
            node: 3,
            task: TaskId(0)
        }));

        let org = OrganizerStrategy::new();
        let mut cands = BTreeMap::new();
        cands.insert(
            TaskId(0),
            vec![Candidate {
                node: 7,
                distance: 0.25,
                comm_cost: 1.0,
            }],
        );
        let tb = TieBreak::default();
        assert_eq!(org.select(&cands, &tb), select_winners(&cands, &tb));
        assert!(org.retries(&RetryContext {
            round: 0,
            max_rounds: 4,
            open_tasks: 1
        }));
        assert!(!org.retries(&RetryContext {
            round: 3,
            max_rounds: 4,
            open_tasks: 1
        }));
    }

    #[test]
    fn reserve_price_withholds_below_threshold() {
        let chain = ProviderStrategy::new().with(ReservePrice { min_reward: 3.5 });
        let ctx = cfp_ctx(100.0, 100.0);
        let mut cheap = offer(vec![5, 5], 2.0);
        assert!(!chain.review_offer(&ctx, &mut cheap));
        let mut rich = offer(vec![0, 0], 4.0);
        assert!(chain.review_offer(&ctx, &mut rich));
    }

    #[test]
    fn battery_gate_vetoes_participation() {
        let chain = ProviderStrategy::new().with(BatteryGate {
            min_cpu_fraction: 0.5,
        });
        assert!(chain.participates(&cfp_ctx(60.0, 100.0)));
        assert!(!chain.participates(&cfp_ctx(40.0, 100.0)));
        // A zero-capacity node never participates (no division by zero).
        assert!(!chain.participates(&cfp_ctx(0.0, 0.0)));
    }

    #[test]
    fn selfish_markup_degrades_and_marks_up() {
        let chain = ProviderStrategy::new().with(SelfishMarkup {
            degrade_steps: 2,
            markup: 1.5,
        });
        let mut o = offer(vec![0, 9], 4.0);
        assert!(chain.review_offer(&cfp_ctx(100.0, 100.0), &mut o));
        // Degraded by 2, clamped at the ladder bottom (len 10 → max 9).
        assert_eq!(o.levels, vec![2, 9]);
        assert!((o.reward - 6.0).abs() < 1e-12);
        // task_reward stays the formulated-levels value.
        assert!((o.task_reward - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reputation_scorer_penalises_untrusted_nodes() {
        let mut reputations = BTreeMap::new();
        reputations.insert(7u32, 0.0);
        let chain = OrganizerStrategy::new().with(ReputationScorer {
            reputations,
            default_reputation: 1.0,
            weight: 0.4,
        });
        let ctx = CandidateContext {
            organizer: 0,
            task: TaskId(0),
            round: 0,
        };
        let mut untrusted = Candidate {
            node: 7,
            distance: 0.0,
            comm_cost: 1.0,
        };
        assert!(chain.review_candidate(&ctx, &mut untrusted));
        assert!((untrusted.distance - 0.4).abs() < 1e-12);
        let mut trusted = Candidate {
            node: 9,
            distance: 0.0,
            comm_cost: 1.0,
        };
        assert!(chain.review_candidate(&ctx, &mut trusted));
        assert_eq!(trusted.distance, 0.0);
    }

    #[test]
    fn patience_limit_overrides_round_budget() {
        let chain = OrganizerStrategy::new().with(PatienceLimit { rounds: 2 });
        let ctx = |round| RetryContext {
            round,
            max_rounds: 8,
            open_tasks: 1,
        };
        assert!(chain.retries(&ctx(0)));
        assert!(!chain.retries(&ctx(1)));
    }

    #[test]
    fn timeout_backoff_grows_and_caps() {
        let chain = OrganizerStrategy::new().with(TimeoutBackoff {
            base: SimDuration::millis(10),
            factor: 2.0,
            max_delay: SimDuration::millis(35),
            max_attempts: 4,
        });
        let ctx = |round| RetryContext {
            round,
            max_rounds: 8,
            open_tasks: 1,
        };
        assert_eq!(chain.backoff_delay(&ctx(0)), Some(SimDuration::millis(10)));
        assert_eq!(chain.backoff_delay(&ctx(1)), Some(SimDuration::millis(20)));
        // 40 ms exceeds the cap.
        assert_eq!(chain.backoff_delay(&ctx(2)), Some(SimDuration::millis(35)));
        // Attempt budget: 4 total rounds.
        assert!(chain.retries(&ctx(2)));
        assert!(!chain.retries(&ctx(3)));
        // The empty chain has no backoff opinion (legacy immediate retry).
        assert_eq!(OrganizerStrategy::new().backoff_delay(&ctx(0)), None);
    }

    #[test]
    fn chain_folds_in_order_and_short_circuits() {
        // Markup first degrades; a later reserve on task_reward still sees
        // the formulated value (documented read-only semantics), while a
        // reserve on the declared reward would see the marked-up one.
        let chain = ProviderStrategy::new()
            .with(SelfishMarkup {
                degrade_steps: 1,
                markup: 2.0,
            })
            .with(ReservePrice { min_reward: 3.5 });
        let mut o = offer(vec![0], 4.0);
        assert!(chain.review_offer(&cfp_ctx(100.0, 100.0), &mut o));
        assert_eq!(o.levels, vec![1]);

        // Withhold short-circuits: the markup after the reserve never runs.
        let chain = ProviderStrategy::new()
            .with(ReservePrice { min_reward: 5.0 })
            .with(SelfishMarkup {
                degrade_steps: 1,
                markup: 2.0,
            });
        let mut o = offer(vec![0], 4.0);
        assert!(!chain.review_offer(&cfp_ctx(100.0, 100.0), &mut o));
        assert_eq!(o.levels, vec![0], "later components must not run");
    }

    #[test]
    fn debug_lists_component_names() {
        let p = ProviderStrategy::new()
            .with(BatteryGate {
                min_cpu_fraction: 0.1,
            })
            .with(SelfishMarkup {
                degrade_steps: 1,
                markup: 1.0,
            });
        assert_eq!(format!("{p:?}"), "[battery-gate, selfish-markup]");
        let o = OrganizerStrategy::new().with(PatienceLimit { rounds: 1 });
        assert_eq!(format!("{o:?}"), "[patience-limit]");
        assert_eq!(format!("{:?}", OrganizerStrategy::new()), "[]");
    }
}
