//! The fault vocabulary shared by every backend.
//!
//! Two declarative plans cover the full adversity vocabulary:
//!
//! * a [`FaultPlan`] names the **message- and node-level** faults a run
//!   may experience — message drop, message duplication, message reorder
//!   (extra delivery latency), and provider crash-restart mid-CFP;
//! * a [`PartitionPlan`] names the **link-level** faults: timed
//!   [`PartitionEvent::Partition`] / [`PartitionEvent::Heal`] events that
//!   split the node population into groups with no connectivity between
//!   them, either scripted explicitly or sampled (random bisections with
//!   exponentially distributed partition/heal durations drawn from the
//!   plan's dedicated RNG).
//!
//! The same plans drive two very different consumers:
//!
//! * the **model checker** (`qosc-mc`) treats the `max_*` budgets as
//!   branching bounds — at every deliverable message it forks the
//!   exploration into deliver / drop / duplicate branches while budget
//!   remains (reorder needs no budget there: the explorer already visits
//!   every delivery order), and branches partition/heal transitions under
//!   the [`FaultPlan::max_partitions`] budget;
//! * the **sampled backends** (DES simulator, sharded DES, direct
//!   runtime) draw message faults probabilistically through a
//!   [`FaultSampler`], seeded separately from the radio RNG so that
//!   enabling faults perturbs nothing else, and enforce partitions at
//!   delivery time through a pre-expanded [`PartitionTimeline`] — a pure
//!   timestamp lookup that consumes no randomness, so a plan that cuts
//!   nothing is bit-identical to no plan at all.
//!
//! Keeping one vocabulary means a schedule the checker proves safe on a
//! small instance and a seeded 200-node run inject the *same kind* of
//! adversity, differing only in exhaustiveness.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};

/// Declarative description of the faults a run may inject.
///
/// Budgets (`max_*`) cap the *total* number of faults of each kind over
/// the whole run; probabilities govern how eagerly the sampled backends
/// spend those budgets (a probability above 1 reads as 1; NaN, zero and
/// negative ones as never). The model checker ignores the probabilities
/// and branches over every way of spending the budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Maximum number of message drops.
    pub max_drops: u32,
    /// Maximum number of message duplications.
    pub max_duplicates: u32,
    /// Maximum number of provider crash-restarts.
    pub max_crash_restarts: u32,
    /// Per-delivery drop probability on sampled backends.
    pub drop_prob: f64,
    /// Per-delivery duplication probability on sampled backends.
    pub duplicate_prob: f64,
    /// Maximum number of message reorders.
    pub max_reorders: u32,
    /// Maximum number of partition/heal cycles the model checker may
    /// branch over. Sampled backends ignore this: they take their link
    /// cuts from a [`PartitionPlan`] instead.
    pub max_partitions: u32,
    /// Per-delivery reorder probability on sampled backends.
    pub reorder_prob: f64,
    /// Extra latency added to a reordered delivery (uniform in
    /// `0..=reorder_jitter`).
    pub reorder_jitter: SimDuration,
    /// Seed for the dedicated fault RNG; independent of the radio seed.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind.
    pub fn none() -> Self {
        Self {
            max_drops: 0,
            max_duplicates: 0,
            max_crash_restarts: 0,
            max_reorders: 0,
            max_partitions: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_jitter: SimDuration::ZERO,
            seed: 0,
        }
    }

    /// Budget-only plan for exhaustive exploration: up to `drops` message
    /// drops and `duplicates` duplications, no probabilistic sampling.
    pub fn exhaustive(drops: u32, duplicates: u32) -> Self {
        Self {
            max_drops: drops,
            max_duplicates: duplicates,
            ..Self::none()
        }
    }

    /// Probability-driven plan for sampled backends with unlimited
    /// budgets. Combine with [`FaultPlan::with_drop`],
    /// [`FaultPlan::with_duplicate`] and [`FaultPlan::with_reorder`].
    pub fn sampled(seed: u64) -> Self {
        Self {
            max_drops: u32::MAX,
            max_duplicates: u32::MAX,
            max_crash_restarts: 0,
            max_reorders: u32::MAX,
            seed,
            ..Self::none()
        }
    }

    /// Sets the per-delivery drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the per-delivery duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Sets the per-delivery reorder probability and jitter bound.
    ///
    /// A zero `jitter` with a positive `p` is a no-op: the sampler never
    /// draws for reorder (no randomness is consumed) and
    /// [`FaultPlan::samples_anything`] ignores the reorder term, so the
    /// plan behaves exactly as if `p` were zero. Debug builds assert
    /// against the combination since it almost certainly means the caller
    /// forgot the jitter bound.
    pub fn with_reorder(mut self, p: f64, jitter: SimDuration) -> Self {
        debug_assert!(
            p <= 0.0 || jitter > SimDuration::ZERO,
            "with_reorder: positive reorder_prob with zero jitter never reorders"
        );
        self.reorder_prob = p;
        self.reorder_jitter = jitter;
        self
    }

    /// Sets the crash-restart budget (explored by the model checker).
    pub fn with_crash_restarts(mut self, n: u32) -> Self {
        self.max_crash_restarts = n;
        self
    }

    /// Sets the partition/heal budget (explored by the model checker).
    pub fn with_partitions(mut self, n: u32) -> Self {
        self.max_partitions = n;
        self
    }

    /// Whether this plan names no faults at all — no budgets for the
    /// model checker to branch over, no probabilities for a sampler.
    pub fn is_none(&self) -> bool {
        self.max_drops == 0
            && self.max_duplicates == 0
            && self.max_crash_restarts == 0
            && self.max_reorders == 0
            && self.max_partitions == 0
            && self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
    }

    /// Whether the plan is meaningful for a *sampled* backend: at least
    /// one probability is positive with budget to spend. Reorder
    /// additionally needs a positive jitter bound — zero jitter cannot
    /// displace a delivery, so it counts as sampling nothing.
    pub fn samples_anything(&self) -> bool {
        (self.drop_prob > 0.0 && self.max_drops > 0)
            || (self.duplicate_prob > 0.0 && self.max_duplicates > 0)
            || (self.reorder_prob > 0.0
                && self.max_reorders > 0
                && self.reorder_jitter > SimDuration::ZERO)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Outcome of one sampled delivery decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeliveryFault {
    /// Deliver the message normally.
    None,
    /// Drop the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
}

/// Draws faults for a sampled backend according to a [`FaultPlan`].
///
/// Owns a dedicated `ChaCha8Rng` seeded from `plan.seed`, so fault draws
/// never perturb the backend's own randomness: two runs with the same
/// seeds are bit-identical whether or not a plan is installed, and a plan
/// that samples nothing consumes no randomness at all.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    drops_done: u32,
    duplicates_done: u32,
    reorders_done: u32,
}

impl FaultSampler {
    /// Creates a sampler for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: ChaCha8Rng::seed_from_u64(plan.seed),
            drops_done: 0,
            duplicates_done: 0,
            reorders_done: 0,
        }
    }

    /// Creates the per-node sampler stream for `node`: seeded from
    /// `(plan.seed, node)` so each node draws an independent fault
    /// stream regardless of how deliveries interleave across nodes.
    /// Budgets (`max_*`) apply per stream. The simulator keeps one per
    /// node so fault sampling is deterministic per node.
    pub(crate) fn for_node(plan: FaultPlan, node: u32) -> Self {
        Self {
            plan,
            rng: ChaCha8Rng::seed_from_u64(crate::sim::node_stream_seed(plan.seed, node)),
            drops_done: 0,
            duplicates_done: 0,
            reorders_done: 0,
        }
    }

    /// Decides the fate of one delivery: drop, duplicate, or deliver.
    /// Budgets are enforced; exhausted kinds are never drawn again.
    pub(crate) fn on_delivery(&mut self) -> DeliveryFault {
        if self.plan.drop_prob > 0.0
            && self.drops_done < self.plan.max_drops
            && self.rng.gen_bool(self.plan.drop_prob.min(1.0))
        {
            self.drops_done += 1;
            return DeliveryFault::Drop;
        }
        if self.plan.duplicate_prob > 0.0
            && self.duplicates_done < self.plan.max_duplicates
            && self.rng.gen_bool(self.plan.duplicate_prob.min(1.0))
        {
            self.duplicates_done += 1;
            return DeliveryFault::Duplicate;
        }
        DeliveryFault::None
    }

    /// Draws reorder jitter for one delivery copy: `Some(extra_latency)`
    /// with probability `reorder_prob`, `None` otherwise. Enforces
    /// `max_reorders`; a zero jitter bound is a no-op that consumes no
    /// randomness (see [`FaultPlan::with_reorder`]).
    pub(crate) fn reorder(&mut self) -> Option<SimDuration> {
        let span = self.plan.reorder_jitter.as_micros();
        if span == 0
            || self.plan.reorder_prob <= 0.0
            || self.reorders_done >= self.plan.max_reorders
        {
            return None;
        }
        if self.rng.gen_bool(self.plan.reorder_prob.min(1.0)) {
            self.reorders_done += 1;
            return Some(SimDuration::micros(self.rng.gen_range(1..=span)));
        }
        None
    }

    /// Expands one nominal delivery at `base_at` into its post-fault
    /// copies: `[None, None]` when dropped, one time normally, two on
    /// duplication, each possibly jittered by reordering; every fault
    /// taken is counted in `stats`. The one expansion every sampled
    /// backend calls, so they inject the same vocabulary on the same
    /// draws.
    pub fn delivery_times(
        &mut self,
        base_at: SimTime,
        stats: &mut NetStats,
    ) -> [Option<SimTime>; 2] {
        let mut times = match self.on_delivery() {
            DeliveryFault::Drop => {
                stats.faults_dropped += 1;
                [None, None]
            }
            DeliveryFault::None => [Some(base_at), None],
            DeliveryFault::Duplicate => {
                stats.faults_duplicated += 1;
                [Some(base_at), Some(base_at)]
            }
        };
        for slot in times.iter_mut().flatten() {
            if let Some(jitter) = self.reorder() {
                stats.faults_reordered += 1;
                *slot += jitter;
            }
        }
        times
    }
}

/// One timed change of network connectivity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionEvent {
    /// At `at`, split the network into `groups`: nodes in different
    /// groups cannot exchange messages until the next event. Nodes not
    /// named by any group stay reachable from everyone.
    Partition {
        /// Time the partition takes effect.
        at: SimTime,
        /// Disjoint node groups; links inside a group stay up.
        groups: Vec<Vec<u32>>,
    },
    /// At `at`, restore full connectivity.
    Heal {
        /// Time the heal takes effect.
        at: SimTime,
    },
}

impl PartitionEvent {
    fn at(&self) -> SimTime {
        match self {
            PartitionEvent::Partition { at, .. } | PartitionEvent::Heal { at } => *at,
        }
    }
}

/// Declarative schedule of link-level partitions.
///
/// Two sources of events, freely combined:
///
/// * **scripted** — explicit [`PartitionEvent`]s added with
///   [`PartitionPlan::partition_at`] / [`PartitionPlan::heal_at`];
/// * **sampled** — [`PartitionPlan::sampled`] draws `cycles` random
///   bisections with exponentially distributed partition and heal
///   durations from a dedicated RNG seeded by the plan (independent of
///   the radio and message-fault seeds).
///
/// A plan is expanded once, against a fixed node count, into a
/// [`PartitionTimeline`] that every backend consults at delivery time.
/// Because the expansion happens up front and the per-delivery check is
/// a pure timestamp lookup, installing a plan consumes no randomness
/// during the run: the sequential DES, the sharded DES, and the direct
/// runtime cut exactly the same links on the same draws.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionPlan {
    /// Explicitly scripted events.
    pub events: Vec<PartitionEvent>,
    /// Sampled-bisection spec, if any.
    pub sampled: Option<SampledPartitions>,
}

/// Spec for randomly sampled partition/heal cycles: repeated random
/// bisections with exponential durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledPartitions {
    /// Seed for the dedicated partition RNG.
    pub seed: u64,
    /// Mean partition duration (exponentially distributed).
    pub mean_partition: SimDuration,
    /// Mean healed gap before and between partitions (exponentially
    /// distributed).
    pub mean_heal: SimDuration,
    /// Number of partition/heal cycles to draw.
    pub cycles: u32,
}

impl PartitionPlan {
    /// The empty plan: the network never partitions.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no connectivity changes at all.
    pub fn is_none(&self) -> bool {
        self.events.is_empty() && self.sampled.is_none_or(|s| s.cycles == 0)
    }

    /// Adds a scripted partition into `groups` at `at`.
    pub fn partition_at(mut self, at: SimTime, groups: Vec<Vec<u32>>) -> Self {
        self.events.push(PartitionEvent::Partition { at, groups });
        self
    }

    /// Adds a scripted heal at `at`.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.events.push(PartitionEvent::Heal { at });
        self
    }

    /// A purely sampled plan: starting healed, draw a healed gap
    /// (exponential with mean `mean_heal`), then a random bisection held
    /// for an exponential duration with mean `mean_partition`, repeated
    /// for `cycles` partitions.
    pub fn sampled(
        seed: u64,
        mean_partition: SimDuration,
        mean_heal: SimDuration,
        cycles: u32,
    ) -> Self {
        Self {
            events: Vec::new(),
            sampled: Some(SampledPartitions {
                seed,
                mean_partition,
                mean_heal,
                cycles,
            }),
        }
    }

    /// Expands the plan against a fixed population of `node_count` nodes
    /// into the timeline the backends consult at delivery time. The
    /// expansion is deterministic in `(plan, node_count)`; install the
    /// plan only after every node has been added so all backends expand
    /// against the same count.
    pub fn expand(&self, node_count: usize) -> PartitionTimeline {
        let width = self
            .events
            .iter()
            .filter_map(|e| match e {
                PartitionEvent::Partition { groups, .. } => {
                    groups.iter().flatten().max().map(|&n| n as usize + 1)
                }
                PartitionEvent::Heal { .. } => None,
            })
            .max()
            .unwrap_or(0)
            .max(node_count);
        let mut changes: Vec<(SimTime, Option<Vec<Option<u32>>>)> = Vec::new();
        for ev in &self.events {
            let entry = match ev {
                PartitionEvent::Heal { .. } => None,
                PartitionEvent::Partition { groups, .. } => {
                    let mut per_node = vec![None; width];
                    for (g, members) in groups.iter().enumerate() {
                        for &n in members {
                            per_node[n as usize] = Some(g as u32);
                        }
                    }
                    Some(per_node)
                }
            };
            changes.push((ev.at(), entry));
        }
        if let Some(spec) = self.sampled {
            let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
            // Inverse-CDF exponential sampling, floored at 1 µs so every
            // drawn interval advances time.
            let exp = |rng: &mut ChaCha8Rng, mean: SimDuration| {
                let u: f64 = rng.gen_range(0.0..1.0);
                let d = -(mean.as_micros() as f64) * (1.0 - u).ln();
                SimDuration::micros((d as u64).max(1))
            };
            let mut t = SimTime(0);
            for _ in 0..spec.cycles {
                t += exp(&mut rng, spec.mean_heal);
                let mut ids: Vec<u32> = (0..width as u32).collect();
                ids.shuffle(&mut rng);
                let mut per_node = vec![None; width];
                for (i, &n) in ids.iter().enumerate() {
                    per_node[n as usize] = Some(u32::from(i >= width / 2));
                }
                changes.push((t, Some(per_node)));
                t += exp(&mut rng, spec.mean_partition);
                changes.push((t, None));
            }
        }
        changes.sort_by_key(|(at, _)| *at);
        PartitionTimeline { changes }
    }
}

/// A [`PartitionPlan`] expanded against a fixed node count: the
/// time-sorted sequence of connectivity states every backend consults.
///
/// [`PartitionTimeline::cuts_at`] is a pure function of `(time, src,
/// dst)` — no RNG, no interior state — which is what lets the sequential
/// and sharded DES engines agree link-for-link without routing partition
/// events through the event heaps (heap traffic would perturb the
/// `(time, shard, seq)` tie-break keys and break bit-equality pins).
/// Timestamp-keyed lookup is equivalent to delivering the partition
/// events through the conservative horizon protocol: both orders every
/// connectivity change against every delivery by simulation time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionTimeline {
    /// Time-sorted connectivity changes: `None` = fully healed,
    /// `Some(groups)` = per-node group id (`None` inside = unaffected,
    /// reachable from everyone).
    changes: Vec<(SimTime, Option<Vec<Option<u32>>>)>,
}

impl PartitionTimeline {
    /// Whether the timeline never changes connectivity.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Whether the link `a ↔ b` is cut at time `at`: true iff the last
    /// change at or before `at` is a partition that places both nodes in
    /// distinct groups. Nodes no partition names are connected to
    /// everyone.
    pub fn cuts_at(&self, at: SimTime, a: u32, b: u32) -> bool {
        let idx = self.changes.partition_point(|(t, _)| *t <= at);
        let Some((_, Some(groups))) = idx.checked_sub(1).map(|i| &self.changes[i]) else {
            return false;
        };
        match (
            groups.get(a as usize).copied().flatten(),
            groups.get(b as usize).copied().flatten(),
        ) {
            (Some(ga), Some(gb)) => ga != gb,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().samples_anything());
        assert!(!FaultPlan::exhaustive(1, 1).samples_anything());
    }

    #[test]
    fn sampled_plan_samples() {
        let p = FaultPlan::sampled(7).with_drop(0.5);
        assert!(p.samples_anything());
        assert!(!p.is_none());
    }

    #[test]
    fn sampler_is_deterministic() {
        let plan = FaultPlan::sampled(42)
            .with_drop(0.3)
            .with_duplicate(0.3)
            .with_reorder(0.3, SimDuration::millis(5));
        let draw = |mut s: FaultSampler| {
            (0..200)
                .map(|_| (s.on_delivery(), s.reorder()))
                .collect::<Vec<_>>()
        };
        let a = draw(FaultSampler::new(plan));
        let b = draw(FaultSampler::new(plan));
        assert_eq!(a, b);
        assert!(a.iter().any(|(f, _)| *f == DeliveryFault::Drop));
        assert!(a.iter().any(|(f, _)| *f == DeliveryFault::Duplicate));
        assert!(a.iter().any(|(_, r)| r.is_some()));
    }

    /// A probability above 1 (finite or not) reads as 1: the fault
    /// always fires instead of panicking in `gen_bool`.
    #[test]
    fn out_of_range_probabilities_always_fire() {
        for p in [1.5, f64::INFINITY] {
            let mut drop = FaultSampler::new(FaultPlan::sampled(1).with_drop(p));
            assert!((0..50).all(|_| drop.on_delivery() == DeliveryFault::Drop));
            let mut dup = FaultSampler::new(FaultPlan::sampled(1).with_duplicate(p));
            assert!((0..50).all(|_| dup.on_delivery() == DeliveryFault::Duplicate));
            let plan = FaultPlan::sampled(1).with_reorder(p, SimDuration::millis(1));
            let mut reorder = FaultSampler::new(plan);
            assert!((0..50).all(|_| reorder.reorder().is_some()));
        }
    }

    #[test]
    fn reorder_budget_is_enforced() {
        let plan = FaultPlan {
            max_reorders: 4,
            reorder_prob: 1.0,
            reorder_jitter: SimDuration::millis(1),
            ..FaultPlan::none()
        };
        let mut s = FaultSampler::new(plan);
        let hits = (0..20).filter(|_| s.reorder().is_some()).count();
        assert_eq!(hits, 4, "max_reorders must cap reordered deliveries");
        let budget_only = FaultPlan {
            max_reorders: 1,
            ..FaultPlan::none()
        };
        assert!(!budget_only.is_none());
        assert!(plan.samples_anything());
        let exhausted = FaultPlan {
            max_reorders: 0,
            ..plan
        };
        assert!(
            !exhausted.samples_anything(),
            "no budget left, nothing to sample"
        );
    }

    #[test]
    fn zero_jitter_reorder_samples_nothing() {
        // Built directly (the with_reorder builder debug-asserts against
        // this combination): positive probability, zero jitter.
        let plan = FaultPlan {
            reorder_prob: 0.9,
            reorder_jitter: SimDuration::ZERO,
            max_reorders: u32::MAX,
            ..FaultPlan::none()
        };
        assert!(!plan.samples_anything());
        let mut s = FaultSampler::new(plan);
        assert!((0..50).all(|_| s.reorder().is_none()));
        // No randomness consumed: the underlying stream is untouched, so
        // a drop draw afterwards matches a fresh sampler's first draw.
        let mut fresh = FaultSampler::new(FaultPlan {
            drop_prob: 0.5,
            ..plan
        });
        let mut used = FaultSampler::new(FaultPlan {
            drop_prob: 0.5,
            ..plan
        });
        for _ in 0..50 {
            let _ = used.reorder();
        }
        assert_eq!(fresh.on_delivery(), used.on_delivery());
    }

    #[test]
    fn budgets_cap_sampled_faults() {
        let plan = FaultPlan {
            max_drops: 3,
            max_duplicates: 2,
            drop_prob: 1.0,
            duplicate_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut s = FaultSampler::new(plan);
        let faults: Vec<_> = (0..10).map(|_| s.on_delivery()).collect();
        let drops = faults.iter().filter(|f| **f == DeliveryFault::Drop).count();
        let dups = faults
            .iter()
            .filter(|f| **f == DeliveryFault::Duplicate)
            .count();
        assert_eq!(drops, 3);
        assert_eq!(dups, 2);
        assert!(faults[5..].iter().all(|f| *f == DeliveryFault::None));
    }

    #[test]
    fn scripted_partition_cuts_and_heals() {
        let plan = PartitionPlan::none()
            .partition_at(SimTime(100), vec![vec![0, 1], vec![2, 3]])
            .heal_at(SimTime(200));
        assert!(!plan.is_none());
        let tl = plan.expand(4);
        assert!(!tl.is_empty());
        // Before the partition: fully connected.
        assert!(!tl.cuts_at(SimTime(99), 0, 2));
        // During: cross-group links cut, in-group links up.
        assert!(tl.cuts_at(SimTime(100), 0, 2));
        assert!(tl.cuts_at(SimTime(150), 1, 3));
        assert!(!tl.cuts_at(SimTime(150), 0, 1));
        assert!(!tl.cuts_at(SimTime(150), 2, 3));
        // After the heal: fully connected again.
        assert!(!tl.cuts_at(SimTime(200), 0, 2));
        assert!(!tl.cuts_at(SimTime(1_000), 1, 3));
    }

    #[test]
    fn unlisted_nodes_stay_connected() {
        let plan = PartitionPlan::none().partition_at(SimTime(0), vec![vec![0], vec![1]]);
        let tl = plan.expand(3);
        assert!(tl.cuts_at(SimTime(5), 0, 1));
        assert!(!tl.cuts_at(SimTime(5), 0, 2));
        assert!(!tl.cuts_at(SimTime(5), 1, 2));
        // Out-of-range nodes are connected too.
        assert!(!tl.cuts_at(SimTime(5), 0, 99));
    }

    #[test]
    fn sampled_partitions_are_deterministic_bisections() {
        let plan = PartitionPlan::sampled(7, SimDuration::millis(50), SimDuration::millis(20), 3);
        let a = plan.expand(8);
        let b = plan.expand(8);
        assert_eq!(a, b, "expansion must be deterministic in (plan, count)");
        // Each cycle contributes a partition and a heal.
        assert_eq!(a.changes.len(), 6);
        for w in a.changes.windows(2) {
            assert!(w[0].0 <= w[1].0, "changes must be time-sorted");
        }
        for (i, (_, change)) in a.changes.iter().enumerate() {
            if i % 2 == 0 {
                let groups = change.as_ref().expect("even changes partition");
                let side0 = groups.iter().filter(|g| **g == Some(0)).count();
                let side1 = groups.iter().filter(|g| **g == Some(1)).count();
                assert_eq!(side0 + side1, 8, "bisection covers every node");
                assert_eq!(side0, 4, "bisection splits in half");
            } else {
                assert!(change.is_none(), "odd changes heal");
            }
        }
    }

    #[test]
    fn empty_plan_never_cuts() {
        let tl = PartitionPlan::none().expand(16);
        assert!(tl.is_empty());
        assert!(!tl.cuts_at(SimTime(0), 0, 1));
        assert!(PartitionPlan::none().is_none());
        assert!(
            PartitionPlan::sampled(0, SimDuration::millis(1), SimDuration::millis(1), 0).is_none()
        );
    }
}
