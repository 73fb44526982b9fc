//! Local proposal formulation (paper §5).
//!
//! When a Call-for-Proposals arrives, the QoS Provider runs "a local QoS
//! optimization heuristic" (after Abdelzaher et al. [1]):
//!
//! 1. start with the user's preferred values for every QoS dimension;
//! 2. while the set of tasks is not schedulable: for each task receiving
//!    service at level `Q_kj < Q_kn`, determine the decrease in *local
//!    reward* from degrading attribute `j` to `j+1`, then degrade the
//!    task/attribute whose decrease is minimal.
//!
//! The local reward is eq. 1:
//!
//! ```text
//! r = n                      if every attribute is served at Q_k1
//!   = n − Σ_j penalty_j      otherwise
//! ```
//!
//! "penalty … can be defined according to user's own criteria and its value
//! increases with the distance from user's preferred value" — so the
//! penalty is a pluggable [`RewardModel`]; [`LinearPenalty`] (default)
//! makes the penalty the rank-weighted normalised ladder distance, and
//! [`QuadraticPenalty`] penalises deep degradation superlinearly (an
//! ablation point: quadratic penalties spread degradation across
//! attributes instead of sacrificing one).
//!
//! Beyond the paper's letter we also enforce the spec's inter-attribute
//! dependencies (§3's `Deps`, which §4.2 requires the negotiation to
//! honour): a configuration is acceptable only if it is schedulable *and*
//! dependency-consistent.
//!
//! # The formulation engine
//!
//! The heuristic runs thousands of times per sweep — once per CFP round,
//! per provider, per negotiation — so this module is built around a
//! reusable [`Formulator`] engine with three exact-equivalent
//! optimisations over the naive loop (retained as the
//! `qosc_baselines::formulate_reference` oracle, to which the
//! `formulation_props` property tests pin it):
//!
//! * **Heap-driven degradation** — each step pops the cheapest
//!   `(decrease, task, attr)` candidate from a lazy min-heap in O(log A)
//!   instead of rescanning all tasks×attrs, with `f64::total_cmp`
//!   ordering (NaN-robust) and `(task, attr)` tie-breaking that
//!   reproduces the reference scan's first-minimum pick bit-for-bit.
//!   The served quality vector and demand are maintained incrementally:
//!   a step mutates the one changed attribute instead of rebuilding the
//!   whole vector.
//! * **Prefix-feasibility shedding** ([`Formulator::formulate_shedding`])
//!   — instead of re-running the entire degradation once per shed task,
//!   each task's fully-degraded demand and dependency status are
//!   prefix-summed to find the largest feasible prefix *before* a single
//!   degradation pass runs. Exact because a prefix is infeasible iff its fully
//!   degraded configuration is unacceptable (demand models are monotone:
//!   degrading a level never increases demand — see
//!   `qosc_resources::LinearDemandModel`); prefixes whose *dependencies*
//!   fail at full degradation are the one case decided by an actual
//!   degradation run.
//! * **Bundle plans** ([`BundlePlan`], [`Formulator::plan_for`]) — §4.2
//!   broadcasts one CFP to every node in range and the §5 step *sequence*
//!   is independent of the capacity that prices it: the heap orders
//!   candidate steps purely by penalty-table decreases, and capacity only
//!   decides where along the sequence the loop stops. So everything a
//!   bundle costs to price is computed once per *world*, in an immutable
//!   plan held in a book the world's nodes share: the announcements
//!   resolved and compiled (one [`PreparedTask`] per distinct `(spec,
//!   request, demand model)`), the shedding pre-check's dependency split
//!   and fully-degraded prefix sums, and per prefix — on first probe —
//!   the complete recorded trajectory (with the exact floating-point
//!   demand accumulations the cold loop would hold), which every later
//!   pricing by any node replays as an array walk: no demand-model call,
//!   no heap. Each trajectory carries its **floor**, the NaN-ignoring
//!   componentwise minimum of its recorded totals: the admission test
//!   rejects a total as soon as one component is NaN or exceeds its
//!   bound, and every recorded total is, per component, NaN or at least
//!   the floor — so a floor the capacity rejects proves every recorded
//!   state is rejected, and a node with no room is refused in O(1). The
//!   argument never compares one state's demand with another's, so it
//!   needs no monotone demand model, and results are bit-identical to
//!   [`Formulator::formulate`]. Entries are keyed by the announced
//!   handles' content hashes and each demand model's address, verified by
//!   handle equality plus model identity on every hit (nodes with
//!   different models for one spec name coexist), and bounded by
//!   [`Formulator::WARM_CAP`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock};

use qosc_resources::{AdmissionControl, DemandModel, ResourceKind, ResourceVector};
use qosc_spec::{QosSpec, QualityVector, ResolvedRequest, ServiceRequest};

use crate::evaluation::WeightScheme;

/// Pluggable penalty of eq. 1.
pub trait RewardModel: Send + Sync {
    /// Penalty of serving one attribute at ladder level `level` (0 =
    /// preferred) out of `ladder_len` levels, where the attribute has
    /// 0-based rank `attr_rank` of `attr_count` inside a dimension of
    /// 0-based rank `dim_rank` of `dim_count`.
    fn penalty(
        &self,
        dim_rank: usize,
        dim_count: usize,
        attr_rank: usize,
        attr_count: usize,
        level: usize,
        ladder_len: usize,
    ) -> f64;

    /// Short identifier for `Debug` output of configs holding a
    /// `dyn RewardModel` (trait objects cannot derive `Debug`).
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Penalty = `w_k · w_i · level/(len−1)` — linear in ladder distance,
/// discounted by the user's importance ranks so degrading what the user
/// cares least about costs least reward.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearPenalty {
    /// Rank weighting (shared with the evaluator for symmetry).
    pub weights: WeightScheme,
}

impl RewardModel for LinearPenalty {
    fn name(&self) -> &'static str {
        "linear-penalty"
    }

    fn penalty(
        &self,
        dim_rank: usize,
        dim_count: usize,
        attr_rank: usize,
        attr_count: usize,
        level: usize,
        ladder_len: usize,
    ) -> f64 {
        if ladder_len <= 1 {
            return 0.0;
        }
        let frac = level as f64 / (ladder_len - 1) as f64;
        self.weights.weight(dim_rank, dim_count) * self.weights.weight(attr_rank, attr_count) * frac
    }
}

/// Penalty = `w_k · w_i · (level/(len−1))²` — shallow degradation is nearly
/// free, deep degradation expensive, so the heuristic spreads cuts.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadraticPenalty {
    /// Rank weighting.
    pub weights: WeightScheme,
}

impl RewardModel for QuadraticPenalty {
    fn name(&self) -> &'static str {
        "quadratic-penalty"
    }

    fn penalty(
        &self,
        dim_rank: usize,
        dim_count: usize,
        attr_rank: usize,
        attr_count: usize,
        level: usize,
        ladder_len: usize,
    ) -> f64 {
        if ladder_len <= 1 {
            return 0.0;
        }
        let frac = level as f64 / (ladder_len - 1) as f64;
        self.weights.weight(dim_rank, dim_count)
            * self.weights.weight(attr_rank, attr_count)
            * frac
            * frac
    }
}

/// Per-task compiled penalty ladders: `rows[flat][lvl]` caches
/// [`RewardModel::penalty`] for every requested attribute and ladder
/// level. The degradation loop probes candidate steps thousands of times
/// over the same `(rank, level)` grid; compiling the grid once per task
/// shares the rank-weight products with the whole run (and, through the
/// plan book, with every later run over the same request) instead of
/// re-deriving them per probed candidate.
struct PenaltyTable {
    /// `rows[flat][lvl]` = penalty of serving attribute `flat` at `lvl`.
    rows: Vec<Vec<f64>>,
    /// Number of requested attributes (eq. 1's `n`).
    attr_count: usize,
}

impl PenaltyTable {
    /// Compiles the penalty grid of one resolved request under `model`.
    fn new(request: &ResolvedRequest, model: &dyn RewardModel) -> Self {
        let dim_count = request.dim_count();
        let rows = request
            .iter_attrs()
            .map(|((k, i), pref)| {
                let attr_count = request.dimensions[k].attributes.len();
                let len = pref.levels.len();
                (0..len)
                    .map(|lvl| model.penalty(k, dim_count, i, attr_count, lvl, len))
                    .collect()
            })
            .collect();
        Self {
            rows,
            attr_count: request.attr_count(),
        }
    }

    /// Eq. 1 over the cached grid: `n − Σ penalty` over the attributes
    /// served below their preferred level, so `r = n` exactly when
    /// everything sits at the preferred level.
    fn reward(&self, levels: &[usize]) -> f64 {
        let mut penalty_sum = 0.0;
        for (row, &lvl) in self.rows.iter().zip(levels.iter()) {
            if lvl > 0 {
                penalty_sum += row[lvl];
            }
        }
        self.attr_count as f64 - penalty_sum
    }
}

/// Successful formulation: per-task ladder levels, per-task demands, and
/// the total local reward (Σ eq. 1 over tasks).
#[derive(Debug, Clone, PartialEq)]
pub struct Formulated {
    /// Level index per requested attribute, per task.
    pub levels: Vec<Vec<usize>>,
    /// Resource demand per task at the chosen levels.
    pub demands: Vec<ResourceVector>,
    /// Total local reward.
    pub reward: f64,
    /// Number of degradation steps taken.
    pub degradations: u32,
}

/// Why formulation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormulationError {
    /// Even with every attribute at its least-preferred acceptable level
    /// the task set is not schedulable (or dependency-consistent) here.
    Infeasible,
}

impl std::fmt::Display for FormulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormulationError::Infeasible => {
                write!(f, "no acceptable quality level fits this node's resources")
            }
        }
    }
}

impl std::error::Error for FormulationError {}

/// A task compiled for repeated formulation: the resolved request, its
/// penalty table under one reward model, the spec-flat index of every
/// requested attribute, and the fully-degraded profile (levels, quality
/// vector, demand, dependency status) the prefix-shedding pre-check reads.
///
/// Compiled against **one** `(reward model, demand model)` pair — the
/// demand model is owned so a prepared task can never be priced with a
/// model other than the one its fully-degraded demand was computed from.
pub struct PreparedTask {
    spec: QosSpec,
    request: Arc<ResolvedRequest>,
    demand: Arc<dyn DemandModel>,
    table: PenaltyTable,
    /// Spec flat index per requested attribute, in `iter_attrs` order.
    flat_spec: Vec<usize>,
    /// Ladder length per requested attribute, in `iter_attrs` order.
    ladder: Vec<usize>,
    /// Demand with every attribute fully degraded, under `demand`.
    full_demand: ResourceVector,
    /// Dependency consistency at full degradation.
    full_deps_ok: bool,
}

/// Spec-flat index of every requested attribute, in `iter_attrs` order —
/// the layout the degradation engine mutates quality vectors through.
fn flat_spec_indexes(spec: &QosSpec, request: &ResolvedRequest) -> Vec<usize> {
    request
        .iter_attrs()
        .map(|(_, a)| {
            spec.flat_index(a.path)
                .expect("resolved request paths exist in the spec")
        })
        .collect()
}

impl PreparedTask {
    /// Compiles one task. `spec`/`request` must belong together (the
    /// request was resolved against this spec).
    pub fn compile(
        spec: QosSpec,
        request: Arc<ResolvedRequest>,
        reward: &dyn RewardModel,
        demand: Arc<dyn DemandModel>,
    ) -> Self {
        let table = PenaltyTable::new(&request, reward);
        let flat_spec = flat_spec_indexes(&spec, &request);
        let ladder = request.ladder_lengths();
        let full_levels: Vec<usize> = ladder.iter().map(|l| l - 1).collect();
        let full_qv = request
            .quality_vector(&spec, &full_levels)
            .expect("full-degradation levels are within ladder bounds");
        let full_demand = demand.demand(&spec, &full_qv);
        let full_deps_ok = full_qv.satisfies_dependencies(&spec);
        Self {
            spec,
            request,
            demand,
            table,
            flat_spec,
            ladder,
            full_demand,
            full_deps_ok,
        }
    }

    /// The spec this task was compiled against.
    pub fn spec(&self) -> &QosSpec {
        &self.spec
    }

    /// The resolved request.
    pub fn request(&self) -> &Arc<ResolvedRequest> {
        &self.request
    }

    /// The demand model this task was compiled against.
    pub fn demand_model(&self) -> &Arc<dyn DemandModel> {
        &self.demand
    }

    /// Number of levels in each requested attribute's ladder, in
    /// `iter_attrs` order.
    pub fn ladder(&self) -> &[usize] {
        &self.ladder
    }

    /// Eq. 1 of this task served at `levels`, under the reward model it
    /// was compiled against.
    pub(crate) fn reward(&self, levels: &[usize]) -> f64 {
        self.table.reward(levels)
    }
}

/// One degradation candidate: degrade `task`'s attribute `flat` from
/// `level` to `level + 1`, losing `decrease` reward.
///
/// Ordered as a **min**-heap key under `BinaryHeap`'s max-heap semantics:
/// the reversed comparison pops the smallest `decrease` first
/// ([`f64::total_cmp`], so NaN-emitting reward models order totally
/// instead of corrupting the search), tie-broken by smallest `(task,
/// flat)` — exactly the reference scan's first-minimum pick.
struct Step {
    decrease: f64,
    task: u32,
    flat: u32,
    level: u32,
}

impl PartialEq for Step {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Step {}

impl PartialOrd for Step {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Step {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .decrease
            .total_cmp(&self.decrease)
            .then_with(|| other.task.cmp(&self.task))
            .then_with(|| other.flat.cmp(&self.flat))
    }
}

/// The state one §5 degradation run steps through: per-task levels,
/// quality vectors, demands and dependency flags, plus the running total
/// and the count of dependency-violating tasks. The candidate heap lives
/// outside (a reused scratch for [`degrade`], a local of [`Trajectory::record`])
/// and the tasks are handed in per call, so the cold loop and the
/// recording are the same arithmetic in the same order.
struct Stepper {
    levels: Vec<Vec<usize>>,
    qvs: Vec<QualityVector>,
    demands: Vec<ResourceVector>,
    deps_ok_v: Vec<bool>,
    deps_bad: usize,
    total: ResourceVector,
}

impl Stepper {
    /// Step 1 — preferred values everywhere — and the heap seeding: one
    /// live entry per degradable attribute; popping an entry pushes its
    /// successor, so the heap never exceeds tasks × attrs.
    fn new<T: Deref<Target = PreparedTask>>(tasks: &[T], heap: &mut BinaryHeap<Step>) -> Self {
        heap.clear();
        let n = tasks.len();
        let mut levels = Vec::with_capacity(n);
        let mut qvs = Vec::with_capacity(n);
        let mut demands = Vec::with_capacity(n);
        let mut deps_ok_v = Vec::with_capacity(n);
        let mut deps_bad = 0usize;
        let mut total = ResourceVector::ZERO;
        for (ti, t) in tasks.iter().enumerate() {
            let lv = vec![0usize; t.request.attr_count()];
            let qv = t
                .request
                .quality_vector(&t.spec, &lv)
                .expect("levels are kept within ladder bounds");
            let d = t.demand.demand(&t.spec, &qv);
            let ok = qv.satisfies_dependencies(&t.spec);
            total += d;
            levels.push(lv);
            qvs.push(qv);
            demands.push(d);
            deps_ok_v.push(ok);
            deps_bad += usize::from(!ok);
            for (flat, row) in t.table.rows.iter().enumerate() {
                if row.len() > 1 {
                    heap.push(Step {
                        decrease: row[1] - row[0],
                        task: ti as u32,
                        flat: flat as u32,
                        level: 0,
                    });
                }
            }
        }
        Self {
            levels,
            qvs,
            demands,
            deps_ok_v,
            deps_bad,
            total,
        }
    }

    fn acceptable(&self, admission: &AdmissionControl) -> bool {
        acceptable(admission, &self.total, self.deps_bad, self.levels.len())
    }

    /// Step 2: takes the cheapest degradation, returning the `(task,
    /// attribute)` it degraded, or `None` when the heap is dry. Entries
    /// whose recorded level no longer matches are stale (their live
    /// successor is elsewhere in the heap) and are dropped on pop.
    fn advance<T: Deref<Target = PreparedTask>>(
        &mut self,
        heap: &mut BinaryHeap<Step>,
        tasks: &[T],
    ) -> Option<(usize, usize)> {
        let (ti, flat) = loop {
            let step = heap.pop()?;
            let (ti, flat) = (step.task as usize, step.flat as usize);
            if self.levels[ti][flat] == step.level as usize {
                break (ti, flat);
            }
        };
        let t = &*tasks[ti];
        let lvl = self.levels[ti][flat] + 1;
        self.levels[ti][flat] = lvl;
        let row = &t.table.rows[flat];
        if lvl + 1 < row.len() {
            heap.push(Step {
                decrease: row[lvl + 1] - row[lvl],
                task: ti as u32,
                flat: flat as u32,
                level: lvl as u32,
            });
        }
        let pref = t
            .request
            .iter_attrs()
            .nth(flat)
            .expect("flat index enumerates requested attributes")
            .1;
        // Incremental update: only the degraded attribute changed. The
        // write can only miss if a prepared task was compiled against a
        // spec other than the one its request resolved on — fail at the
        // fault, not downstream.
        let wrote = self.qvs[ti].set_flat_unchecked(t.flat_spec[flat], pref.levels[lvl].clone());
        debug_assert!(wrote, "flat index out of range for the quality vector");
        self.total -= self.demands[ti];
        let d = t.demand.demand(&t.spec, &self.qvs[ti]);
        let ok = self.qvs[ti].satisfies_dependencies(&t.spec);
        self.total += d;
        self.demands[ti] = d;
        if ok != self.deps_ok_v[ti] {
            self.deps_ok_v[ti] = ok;
            if ok {
                self.deps_bad -= 1;
            } else {
                self.deps_bad += 1;
            }
        }
        Some((ti, flat))
    }
}

/// The §5 acceptance test over `n` tasks demanding `total`, `deps_bad` of
/// them dependency-inconsistent: schedulable AND dependency-consistent.
fn acceptable(
    admission: &AdmissionControl,
    total: &ResourceVector,
    deps_bad: usize,
    n: usize,
) -> bool {
    deps_bad == 0 && admission.schedulable_total(total, n)
}

/// Sum of the tasks' rewards at `levels`.
fn total_reward<T: Deref<Target = PreparedTask>>(tasks: &[T], levels: &[Vec<usize>]) -> f64 {
    tasks.iter().zip(levels).map(|(t, lv)| t.reward(lv)).sum()
}

/// Heap-driven §5 degradation over `tasks`. Exact-equivalent to the
/// `qosc_baselines::formulate_reference` oracle's per-step argmin scan
/// (pinned by the `formulation_props` property tests) but each step
/// costs O(log A) instead of O(tasks × attrs), and the per-task quality
/// vector and demand are maintained incrementally instead of rebuilt per
/// step.
fn degrade(
    tasks: &[&PreparedTask],
    admission: &AdmissionControl,
    heap: &mut BinaryHeap<Step>,
) -> Result<Formulated, FormulationError> {
    let mut state = Stepper::new(tasks, heap);
    let mut degradations = 0u32;
    while !state.acceptable(admission) {
        state
            .advance(heap, tasks)
            .ok_or(FormulationError::Infeasible)?;
        degradations += 1;
    }
    Ok(Formulated {
        reward: total_reward(tasks, &state.levels),
        levels: state.levels,
        demands: state.demands,
        degradations,
    })
}

/// What [`shed`] reads of a bundle before any degradation runs.
struct ShedIndex {
    /// Prefixes `[..c]` with `c ≤ k` are dependency-consistent at full
    /// degradation; longer ones are not and get the exact (slow) check.
    k: usize,
    /// `sums[c]` = Σ fully-degraded demand of `tasks[..c]`, for `c ≤ k`.
    sums: Vec<ResourceVector>,
}

impl ShedIndex {
    fn of<T: Deref<Target = PreparedTask>>(tasks: &[T]) -> Self {
        let k = tasks
            .iter()
            .position(|t| !t.full_deps_ok)
            .unwrap_or(tasks.len());
        let mut sums = Vec::with_capacity(k + 1);
        let mut running = ResourceVector::ZERO;
        sums.push(running);
        for t in &tasks[..k] {
            running += t.full_demand;
            sums.push(running);
        }
        Self { k, sums }
    }
}

/// Prefix-feasibility shedding over `n` prepared tasks: returns the longest
/// feasible prefix's length and its formulation, or `None` when not even
/// a single-task prefix fits. `formulate_prefix(c)` formulates `tasks[..c]`
/// — a cold [`degrade`] run or a [`BundlePlan`]'s recorded trajectory.
///
/// Equivalent to the naive loop "formulate the whole set, drop the last
/// task on `Infeasible`, repeat" — a prefix is infeasible exactly when
/// its fully-degraded configuration is unacceptable, so the fully
/// degraded demands (cached per task) are prefix-summed and tested
/// directly: one O(1) admission test per candidate prefix and a single
/// degradation pass for the winner, instead of one full degradation per
/// shed task. Prefixes containing a task whose *dependencies* fail at
/// full degradation are the one case where early acceptance could still
/// occur mid-trajectory; those prefixes are decided by a real degradation
/// run, keeping the outcome identical in all cases.
fn shed(
    n: usize,
    index: &ShedIndex,
    admission: &AdmissionControl,
    mut formulate_prefix: impl FnMut(usize) -> Result<Formulated, FormulationError>,
) -> Option<(usize, Formulated)> {
    let (k, sums) = (index.k, &index.sums);
    for c in ((k + 1)..=n).rev() {
        if let Ok(f) = formulate_prefix(c) {
            return Some((c, f));
        }
    }
    // The prefix-sum test and the degradation loop's incrementally
    // maintained total are different floating-point accumulations of the
    // same demands, so within the admission test's 1e-9 slack they can
    // disagree in either direction. The degradation run *is* the old
    // loop's verdict, so it always has the last word; the sum test only
    // decides which prefixes are worth running.
    let c0 = (1..=k)
        .rev()
        .find(|&c| admission.schedulable_total(&sums[c], c));
    // Boundary probe: the *smallest* sum-rejected prefix may still pass
    // the real run within drift range; every larger rejected prefix
    // exceeds the bound by at least one whole task's demand on top, far
    // outside drift, and is never probed — that is the pre-check's win.
    let boundary = c0.map_or(1, |c| c + 1);
    if boundary <= k {
        if let Ok(f) = formulate_prefix(boundary) {
            return Some((boundary, f));
        }
    }
    // Accept the sum-approved prefix — or, if the run narrowly disagrees
    // (drift the other way), shed further on the run's verdict alone.
    let mut c = c0?;
    loop {
        if let Ok(f) = formulate_prefix(c) {
            return Some((c, f));
        }
        if c == 1 {
            return None;
        }
        c -= 1;
    }
}

/// Cold shedding: every probed prefix is a [`degrade`] run over `heap`.
fn shed_cold(
    tasks: &[&PreparedTask],
    admission: &AdmissionControl,
    heap: &mut BinaryHeap<Step>,
) -> Option<(usize, Formulated)> {
    shed(tasks.len(), &ShedIndex::of(tasks), admission, |c| {
        degrade(&tasks[..c], admission, heap)
    })
}

/// One recorded step of a [`Trajectory`]: which attribute was degraded,
/// plus the engine state *after* the step — the degraded task's new
/// demand, the running total (the exact floating-point accumulation the
/// cold loop holds at this point) and the count of dependency-violating
/// tasks. Recording post-step state makes replay a pure array walk.
struct TrajStep {
    task: u32,
    flat: u32,
    demand: ResourceVector,
    total: ResourceVector,
    deps_bad: usize,
}

/// The complete degradation trajectory of one bundle prefix, recorded by
/// the one [`Stepper`] from the all-preferred start to the dry heap.
///
/// [`degrade`]'s step sequence is a function of the penalty tables alone:
/// the heap orders candidates by reward decrease, never by capacity, so
/// the admission control only chooses *where along the sequence* the loop
/// stops — at the first state that is dependency-consistent and
/// schedulable. Replay scans the recorded `(total, deps_bad)` states with
/// the same [`acceptable`] test and, because the recorded totals are the
/// very accumulations the cold loop computes, returns results
/// bit-identical to [`degrade`].
struct Trajectory {
    /// Initial (all-preferred) per-task demands, their sum and the count
    /// of dependency-violating tasks.
    demands0: Vec<ResourceVector>,
    total0: ResourceVector,
    deps_bad0: usize,
    /// Every step, in degradation order.
    steps: Vec<TrajStep>,
    /// Componentwise minimum of every recorded total (`f64::min` skips a
    /// NaN, so a component is NaN only when it is NaN in all of them) and
    /// the minimum `deps_bad`: a capacity that rejects these rejects every
    /// recorded state.
    floor: ResourceVector,
    deps_floor: usize,
}

impl Trajectory {
    fn record(tasks: &[Arc<PreparedTask>]) -> Self {
        let mut heap = BinaryHeap::new();
        let mut state = Stepper::new(tasks, &mut heap);
        let mut t = Self {
            demands0: state.demands.clone(),
            total0: state.total,
            deps_bad0: state.deps_bad,
            steps: Vec::new(),
            floor: state.total,
            deps_floor: state.deps_bad,
        };
        while let Some((ti, flat)) = state.advance(&mut heap, tasks) {
            for kind in ResourceKind::ALL {
                t.floor[kind] = t.floor[kind].min(state.total[kind]);
            }
            t.deps_floor = t.deps_floor.min(state.deps_bad);
            t.steps.push(TrajStep {
                task: ti as u32,
                flat: flat as u32,
                demand: state.demands[ti],
                total: state.total,
                deps_bad: state.deps_bad,
            });
        }
        t
    }

    /// Whether the floor already proves every recorded state rejected.
    fn refused(&self, n: usize, admission: &AdmissionControl) -> bool {
        !acceptable(admission, &self.floor, self.deps_floor, n)
    }

    /// Walks the recorded states to the first acceptable one — the same
    /// stopping rule as [`degrade`] — and rebuilds the [`Formulated`] the
    /// cold loop returns when it stops there.
    fn walk(
        &self,
        tasks: &[Arc<PreparedTask>],
        admission: &AdmissionControl,
    ) -> Result<Formulated, FormulationError> {
        let k = std::iter::once((&self.total0, self.deps_bad0))
            .chain(self.steps.iter().map(|s| (&s.total, s.deps_bad)))
            .position(|(total, deps_bad)| acceptable(admission, total, deps_bad, tasks.len()))
            .ok_or(FormulationError::Infeasible)?;
        let mut levels: Vec<Vec<usize>> = tasks.iter().map(|t| vec![0; t.ladder.len()]).collect();
        let mut demands = self.demands0.clone();
        for s in &self.steps[..k] {
            levels[s.task as usize][s.flat as usize] += 1;
            demands[s.task as usize] = s.demand;
        }
        Ok(Formulated {
            reward: total_reward(tasks, &levels),
            levels,
            demands,
            degradations: k as u32,
        })
    }
}

/// One announcement as a node asks for it to be priced: the announced
/// handles and the node's demand model for the spec (`None`: it has none).
type Asked<'a> = (
    &'a QosSpec,
    &'a ServiceRequest,
    Option<&'a Arc<dyn DemandModel>>,
);

fn same_model(a: &Arc<dyn DemandModel>, b: &Arc<dyn DemandModel>) -> bool {
    std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
}

/// One announcement of a [`BundlePlan`]: the handles, and the demand
/// model the plan was built under (`None`: the asker had none).
struct Announced {
    spec: QosSpec,
    request: ServiceRequest,
    model: Option<Arc<dyn DemandModel>>,
}

/// Everything pricing one announced bundle needs that does not depend on
/// the capacity pricing it, computed once and shared, immutable, by every
/// node that hears the bundle with the same demand models (see the module
/// docs, "Bundle plans").
pub struct BundlePlan {
    /// The bundle as announced. An entry no task's `source` names was
    /// skipped: no model, or (with one) a request that does not resolve.
    announced: Vec<Announced>,
    /// The priceable announcements, compiled, in announcement order.
    tasks: Vec<Arc<PreparedTask>>,
    /// `source[i]` = index in the announcement of `tasks[i]`.
    source: Vec<usize>,
    index: ShedIndex,
    /// `prefixes[c]` = the trajectory of `tasks[..c]`, recorded by the
    /// first node to probe that prefix.
    prefixes: Vec<OnceLock<Trajectory>>,
}

impl BundlePlan {
    /// Resolves and compiles `asked`; `None` when nothing in it can be
    /// priced. Equal announcements under one model share a compilation.
    fn build(asked: &[Asked<'_>], reward: &dyn RewardModel) -> Option<Self> {
        let mut tasks: Vec<Arc<PreparedTask>> = Vec::with_capacity(asked.len());
        let mut source: Vec<usize> = Vec::with_capacity(asked.len());
        for (i, &(spec, request, model)) in asked.iter().enumerate() {
            let Some(model) = model else { continue };
            let twin = source.iter().position(|&j| {
                let (s, r, m) = asked[j];
                s == spec && r == request && m.is_some_and(|m| same_model(m, model))
            });
            let task = match twin {
                Some(t) => Arc::clone(&tasks[t]),
                None => match request.resolve(spec) {
                    Ok(resolved) => Arc::new(PreparedTask::compile(
                        spec.clone(),
                        Arc::new(resolved),
                        reward,
                        Arc::clone(model),
                    )),
                    Err(_) => continue,
                },
            };
            tasks.push(task);
            source.push(i);
        }
        if tasks.is_empty() {
            return None;
        }
        Some(Self {
            announced: asked
                .iter()
                .map(|&(spec, request, model)| Announced {
                    spec: spec.clone(),
                    request: request.clone(),
                    model: model.cloned(),
                })
                .collect(),
            index: ShedIndex::of(&tasks),
            prefixes: (0..=tasks.len()).map(|_| OnceLock::new()).collect(),
            tasks,
            source,
        })
    }

    /// Whether this plan was built for exactly `asked`: equal handles
    /// (a pointer compare for the one instance a world shares) under the
    /// identical demand models.
    fn answers(&self, asked: &[Asked<'_>]) -> bool {
        self.announces(asked.iter().map(|&(s, r, _)| (s, r)))
            && self.announced.iter().zip(asked).all(|(mine, theirs)| {
                match (&mine.model, theirs.2) {
                    (Some(a), Some(b)) => same_model(a, b),
                    (None, None) => true,
                    _ => false,
                }
            })
    }

    /// Whether this plan's bundle is `announced`, handle for handle. The
    /// demand models are not compared: that is for a caller whose models
    /// are the ones it obtained the plan under.
    pub(crate) fn announces<'a>(
        &self,
        announced: impl ExactSizeIterator<Item = (&'a QosSpec, &'a ServiceRequest)>,
    ) -> bool {
        self.announced.len() == announced.len()
            && self
                .announced
                .iter()
                .zip(announced)
                .all(|(mine, (spec, request))| mine.spec == *spec && mine.request == *request)
    }

    /// The priceable announcements, compiled, in announcement order.
    pub fn tasks(&self) -> &[Arc<PreparedTask>] {
        &self.tasks
    }

    /// Index in the announced bundle of `tasks()[i]`.
    pub(crate) fn source(&self, i: usize) -> usize {
        self.source[i]
    }

    /// §5 formulation of `tasks()[..c]`, bit-identical to
    /// [`Formulator::formulate`] over them: the prefix's trajectory is
    /// recorded on first use and walked — or refused outright by its
    /// floor — on every call.
    pub fn formulate_prefix(
        &self,
        c: usize,
        admission: &AdmissionControl,
    ) -> Result<Formulated, FormulationError> {
        let tasks = &self.tasks[..c];
        let trajectory = self.prefixes[c].get_or_init(|| Trajectory::record(tasks));
        if trajectory.refused(c, admission) {
            debug_assert!(trajectory.walk(tasks, admission).is_err());
            return Err(FormulationError::Infeasible);
        }
        trajectory.walk(tasks, admission)
    }

    /// Prefix-feasibility shedding over `tasks()`, bit-identical to
    /// [`Formulator::formulate_shedding`] over them.
    pub fn formulate_shedding(&self, admission: &AdmissionControl) -> Option<(usize, Formulated)> {
        shed(self.tasks.len(), &self.index, admission, |c| {
            self.formulate_prefix(c, admission)
        })
    }
}

/// The reusable formulation engine: one reward model, a book of
/// [`BundlePlan`]s shared with every clone of the engine, and the scratch
/// heap the cold degradation loop reuses across calls. The heap is the
/// only reusable buffer by design: the per-task levels and demands are
/// moved out to the caller inside [`Formulated`], so pooling them would
/// require an API that takes them back.
pub struct Formulator {
    reward: Arc<dyn RewardModel>,
    /// Plans by [`Formulator::plan_for`]'s key. Readers take the lock only
    /// to fetch an `Arc`; pricing from a plan takes none.
    book: Arc<RwLock<HashMap<u64, Arc<BundlePlan>>>>,
    heap: BinaryHeap<Step>,
}

impl Clone for Formulator {
    /// The clone shares the book (two refcount bumps, no allocation) and
    /// starts with an empty scratch heap.
    fn clone(&self) -> Self {
        Self {
            reward: Arc::clone(&self.reward),
            book: Arc::clone(&self.book),
            heap: BinaryHeap::new(),
        }
    }
}

impl Formulator {
    /// Bound on the plans a book retains. A plan is behaviour-neutral (a
    /// rebuild costs one compile and one recording), so hitting the cap
    /// simply clears the book instead of tracking recency.
    pub const WARM_CAP: usize = 1024;

    /// Creates an engine degrading under `reward`, with a book of its own.
    pub fn new(reward: Arc<dyn RewardModel>) -> Self {
        Self {
            reward,
            book: Arc::default(),
            heap: BinaryHeap::new(),
        }
    }

    /// The engine's reward model.
    pub fn reward(&self) -> &Arc<dyn RewardModel> {
        &self.reward
    }

    /// Number of plans in the book (tests, metrics).
    pub fn cached(&self) -> usize {
        self.book.read().expect(BOOK_POISONED).len()
    }

    /// The shared plan of an announced bundle under the asker's demand
    /// models (`model_of(spec name)`), built and filed in the book when no
    /// clone of this engine has priced the bundle under those models
    /// before. `None` when nothing announced can be priced — no model, or
    /// a request that does not resolve; such bundles are not filed.
    pub fn plan_for<'a>(
        &self,
        announced: impl Iterator<Item = (&'a QosSpec, &'a ServiceRequest)>,
        model_of: impl Fn(&str) -> Option<&'a Arc<dyn DemandModel>>,
    ) -> Option<Arc<BundlePlan>> {
        let asked: Vec<Asked<'a>> = announced
            .map(|(spec, request)| (spec, request, model_of(spec.name())))
            .collect();
        self.plan_of(&asked)
    }

    fn plan_of(&self, asked: &[Asked<'_>]) -> Option<Arc<BundlePlan>> {
        // The models' addresses are part of the key: a plan holds its
        // models' `Arc`s, so while it is filed no other model can take
        // those addresses, and a colliding key only costs a rebuild —
        // `answers` verifies identity before any plan is served.
        let key = asked.iter().fold(asked.len() as u64, |h, &(s, r, m)| {
            let model = m.map_or(0, |m| Arc::as_ptr(m).cast::<()>() as usize as u64);
            [s.content_hash(), r.content_hash(), model]
                .iter()
                .fold(h, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
        });
        if let Some(plan) = self.book.read().expect(BOOK_POISONED).get(&key) {
            if plan.answers(asked) {
                return Some(Arc::clone(plan));
            }
        }
        let plan = Arc::new(BundlePlan::build(asked, self.reward.as_ref())?);
        let mut book = self.book.write().expect(BOOK_POISONED);
        if book.len() >= Self::WARM_CAP {
            book.clear();
        }
        book.insert(key, Arc::clone(&plan));
        Some(plan)
    }

    /// Resolves `request` against `spec` and compiles it for repeated
    /// formulation — the one task of the single-announcement bundle's
    /// plan, so the same `(spec, request, demand model)` is served the
    /// same compilation from then on. Returns `None` when the request
    /// does not resolve (the caller cannot price such a task at all);
    /// resolution failures are not cached.
    pub fn prepare(
        &mut self,
        spec: &QosSpec,
        request: &ServiceRequest,
        demand: &Arc<dyn DemandModel>,
    ) -> Option<Arc<PreparedTask>> {
        let plan = self.plan_of(&[(spec, request, Some(demand))])?;
        Some(Arc::clone(&plan.tasks[0]))
    }

    /// Heap-driven §5 formulation over prepared tasks, reusing the
    /// engine's scratch heap.
    pub fn formulate(
        &mut self,
        tasks: &[&PreparedTask],
        admission: &AdmissionControl,
    ) -> Result<Formulated, FormulationError> {
        degrade(tasks, admission, &mut self.heap)
    }

    /// Prefix-feasibility shedding over prepared tasks, reusing the
    /// engine's scratch heap: the longest feasible prefix's length and
    /// formulation, or `None` when not even one task fits.
    pub fn formulate_shedding(
        &mut self,
        tasks: &[&PreparedTask],
        admission: &AdmissionControl,
    ) -> Option<(usize, Formulated)> {
        shed_cold(tasks, admission, &mut self.heap)
    }
}

/// The book's map is only ever inserted into or cleared, under
/// the write lock, by code that cannot panic half-way.
const BOOK_POISONED: &str = "a thread panicked while holding the plan book";

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_resources::{av_demand_model, ResourceKind, SchedulingPolicy};
    use qosc_spec::catalog;

    fn admission(cpu: f64) -> AdmissionControl {
        AdmissionControl::new(
            SchedulingPolicy::Edf,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        )
    }

    /// `request` over the AV spec and its demand model, compiled under
    /// `reward`.
    fn prepared(request: &ServiceRequest, reward: &dyn RewardModel) -> PreparedTask {
        let spec = catalog::av_spec();
        let resolved = request.resolve(&spec).unwrap();
        let demand = Arc::new(av_demand_model(&spec));
        PreparedTask::compile(spec, Arc::new(resolved), reward, demand)
    }

    fn video_conference() -> PreparedTask {
        prepared(
            &catalog::video_conference_request(),
            &LinearPenalty::default(),
        )
    }

    /// The cold §5 loop over `tasks` on a node of `cpu` MIPS.
    fn price(tasks: &[&PreparedTask], cpu: f64) -> Result<Formulated, FormulationError> {
        degrade(tasks, &admission(cpu), &mut BinaryHeap::new())
    }

    #[test]
    fn reward_is_n_at_preferred_levels() {
        assert_eq!(video_conference().reward(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn reward_decreases_monotonically_with_degradation() {
        let p = video_conference();
        let mut prev = p.reward(&[0, 0, 0, 0]);
        for lvl in 1..p.ladder()[0] {
            let r = p.reward(&[lvl, 0, 0, 0]);
            assert!(r < prev);
            prev = r;
        }
    }

    /// The compiled eq. 1 against the formula written out: for every
    /// level vector of two catalog requests, under both shipped
    /// penalties, a prepared task's reward is `n − Σ_{lvl>0} penalty`,
    /// bit for bit.
    #[test]
    fn compiled_reward_is_eq1_bit_for_bit() {
        let models: [&dyn RewardModel; 2] =
            [&LinearPenalty::default(), &QuadraticPenalty::default()];
        for request in [
            catalog::video_conference_request(),
            catalog::surveillance_request(),
        ] {
            for model in models {
                let p = prepared(&request, model);
                let req = p.request();
                let mut levels = vec![0usize; req.attr_count()];
                let mut seen = 0usize;
                loop {
                    let mut penalty = 0.0;
                    for (((k, i), pref), &lvl) in req.iter_attrs().zip(&levels) {
                        if lvl > 0 {
                            let attrs = req.dimensions[k].attributes.len();
                            let len = pref.levels.len();
                            penalty += model.penalty(k, req.dim_count(), i, attrs, lvl, len);
                        }
                    }
                    let eq1 = req.attr_count() as f64 - penalty;
                    assert_eq!(p.reward(&levels).to_bits(), eq1.to_bits(), "{levels:?}");
                    seen += 1;
                    // Next level vector, odometer order.
                    let Some(a) = (0..levels.len()).find(|&a| levels[a] + 1 < p.ladder()[a]) else {
                        break;
                    };
                    levels[a] += 1;
                    levels[..a].fill(0);
                }
                assert_eq!(seen, p.ladder().iter().product::<usize>());
            }
        }
    }

    #[test]
    fn rich_node_serves_preferred_levels() {
        let out = price(&[&video_conference()], 1000.0).unwrap();
        assert_eq!(out.levels, vec![vec![0, 0, 0, 0]]);
        assert_eq!(out.degradations, 0);
        assert_eq!(out.reward, 4.0);
    }

    #[test]
    fn scarce_node_degrades_minimally_and_stays_feasible() {
        let p = video_conference();
        let out = price(&[&p], 45.0).unwrap();
        assert!(out.degradations > 0);
        // The outcome must actually be schedulable.
        assert!(admission(45.0).schedulable(&out.demands));
        assert!(out.reward < 4.0);
        // Levels stay within ladders.
        for (lv, len) in out.levels[0].iter().zip(p.ladder()) {
            assert!(lv < len);
        }
    }

    #[test]
    fn degradation_prefers_least_important_attribute_first() {
        let p = video_conference();
        // Find the smallest capacity that forces exactly one degradation.
        let mut cpu = 120.0;
        let out = loop {
            let o = price(&[&p], cpu).unwrap();
            if o.degradations >= 1 {
                break o;
            }
            cpu -= 2.0;
        };
        // With LinearPenalty, the cheapest first step is the attribute with
        // the longest ladder in the least important position. frame_rate
        // (k=0,i=0, 21 levels): step cost 1*1*(1/20) = 0.05;
        // color_depth (k=0,i=1,3 levels): 1*0.5*0.5 = 0.25;
        // sampling_rate (k=1,i=0,3): 0.5*1*0.5=0.25; sample_bits
        // (k=1,i=1,2): 0.5*0.5*1 = 0.25. So frame_rate degrades first.
        assert!(out.levels[0][0] >= 1);
        assert_eq!(&out.levels[0][1..], &[0, 0, 0]);
    }

    #[test]
    fn impossible_demand_is_infeasible() {
        let err = price(&[&video_conference()], 0.5).unwrap_err();
        assert_eq!(err, FormulationError::Infeasible);
    }

    #[test]
    fn multi_task_formulation_shares_capacity() {
        let p = video_conference();
        let one = price(&[&p], 80.0).unwrap();
        let two = price(&[&p, &p], 80.0).unwrap();
        // Two tasks on the same node must degrade more than one.
        assert!(two.degradations > one.degradations);
        let total: f64 = two.demands.iter().map(|d| d.get(ResourceKind::Cpu)).sum();
        assert!(total <= 80.0 + 1e-9);
    }

    #[test]
    fn quadratic_penalty_spreads_degradation() {
        let request = catalog::video_conference_request();
        let lin = price(&[&prepared(&request, &LinearPenalty::default())], 35.0).unwrap();
        let quad = price(&[&prepared(&request, &QuadraticPenalty::default())], 35.0).unwrap();
        // Count attributes touched: quadratic should touch at least as many.
        let touched = |o: &Formulated| o.levels[0].iter().filter(|&&l| l > 0).count();
        assert!(touched(&quad) >= touched(&lin));
    }

    #[test]
    fn dependencies_are_honoured() {
        // transcode spec has a linear budget coupling chunk_rate & bitrate;
        // craft a tight node and confirm the outcome satisfies deps.
        let spec = catalog::transcode_spec();
        let req = catalog::transcode_request().resolve(&spec).unwrap();
        use qosc_resources::{DemandTerm, Feature, LinearDemandModel};
        let chunk = spec.path("Throughput", "chunk_rate").unwrap();
        let model = LinearDemandModel::new(
            ResourceVector::new(1.0, 4.0, 8.0, 0.1, 5.0),
            vec![DemandTerm {
                path: chunk,
                feature: Feature::Numeric,
                kind: ResourceKind::Cpu,
                coeff: 2.0,
            }],
        );
        let p = PreparedTask::compile(
            spec.clone(),
            Arc::new(req.clone()),
            &LinearPenalty::default(),
            Arc::new(model),
        );
        let out = price(&[&p], 100.0).unwrap();
        let qv = req.quality_vector(&spec, &out.levels[0]).unwrap();
        assert!(qv.satisfies_dependencies(&spec));
    }

    #[test]
    fn empty_task_list_is_trivially_formulated() {
        let out = price(&[], 1.0).unwrap();
        assert!(out.levels.is_empty());
        assert_eq!(out.reward, 0.0);
    }

    /// The `formulate_reference` oracle over `count` copies of `p`.
    fn reference(
        p: &PreparedTask,
        count: usize,
        cpu: f64,
        reward: &dyn RewardModel,
    ) -> Result<Formulated, FormulationError> {
        let task = (&p.spec, &*p.request, p.demand.as_ref());
        crate::oracle::formulate_reference(&vec![task; count], &admission(cpu), reward)
    }

    #[test]
    fn heap_engine_matches_reference_on_the_catalog() {
        let p = video_conference();
        for cpu in [0.5, 10.0, 35.0, 45.0, 80.0, 500.0] {
            for tasks in 1usize..=3 {
                let a = price(&vec![&p; tasks], cpu);
                let b = reference(&p, tasks, cpu, &LinearPenalty::default());
                assert_eq!(a, b, "cpu {cpu} tasks {tasks}");
            }
        }
    }

    /// A reward model that reports NaN penalties for one attribute — the
    /// regression case for the old `decrease < d - 1e-15` comparison,
    /// which silently skipped or retained candidates under NaN.
    struct NanReward;

    impl RewardModel for NanReward {
        fn penalty(
            &self,
            _dim_rank: usize,
            _dim_count: usize,
            attr_rank: usize,
            _attr_count: usize,
            level: usize,
            ladder_len: usize,
        ) -> f64 {
            if attr_rank == 0 && level > 0 {
                f64::NAN
            } else if ladder_len <= 1 {
                0.0
            } else {
                level as f64 / (ladder_len - 1) as f64
            }
        }
    }

    #[test]
    fn nan_reward_model_degrades_deterministically() {
        let p = prepared(&catalog::video_conference_request(), &NanReward);
        for cpu in [0.5, 10.0, 30.0, 45.0] {
            // Terminates (no infinite loop / panic) and both paths agree:
            // total_cmp sorts the NaN steps after every finite decrease,
            // so they are taken last — deterministically. Rewards are
            // compared bitwise because a degradation into a NaN penalty
            // level legitimately makes the summed reward NaN (in both).
            let a = price(&[&p], cpu);
            let b = reference(&p, 1, cpu, &NanReward);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.levels, y.levels, "cpu {cpu}");
                    assert_eq!(x.demands, y.demands, "cpu {cpu}");
                    assert_eq!(x.degradations, y.degradations, "cpu {cpu}");
                    assert_eq!(x.reward.to_bits(), y.reward.to_bits(), "cpu {cpu}");
                    assert!(admission(cpu).schedulable(&x.demands));
                }
                (Err(x), Err(y)) => assert_eq!(x, y, "cpu {cpu}"),
                (x, y) => panic!("cpu {cpu}: heap {x:?} vs scan {y:?}"),
            }
        }
    }

    #[test]
    fn shedding_matches_iterative_reference_loop() {
        let p = video_conference();
        let refs = vec![&p; 4];
        for cpu in [0.5, 7.0, 14.0, 30.0, 60.0, 200.0, 1000.0] {
            // The naive loop: shed from the tail on Infeasible.
            let mut count = refs.len();
            let old = loop {
                if count == 0 {
                    break None;
                }
                match reference(&p, count, cpu, &LinearPenalty::default()) {
                    Ok(f) => break Some((count, f)),
                    Err(FormulationError::Infeasible) => count -= 1,
                }
            };
            let new = shed_cold(&refs, &admission(cpu), &mut BinaryHeap::new());
            assert_eq!(new, old, "cpu {cpu}");
        }
    }

    #[test]
    fn formulator_cache_hits_and_invalidates() {
        let spec = catalog::av_spec();
        let request = catalog::surveillance_request();
        let model: Arc<dyn DemandModel> = Arc::new(av_demand_model(&spec));
        let mut f = Formulator::new(Arc::new(LinearPenalty::default()));
        let a = f.prepare(&spec, &request, &model).unwrap();
        let b = f.prepare(&spec, &request, &model).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second prepare must be a cache hit");
        assert_eq!(f.cached(), 1);
        // Same names, different ladder content: must recompile.
        let renamed = ServiceRequest::builder(request.name())
            .dimension("Video Quality")
            .attribute("frame_rate", vec![qosc_spec::LevelSpec::int_range(30, 10)])
            .build();
        let c = f.prepare(&spec, &renamed, &model).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "changed content must recompile");
        // Another demand model: pointer identity differs, and the two
        // compilations coexist instead of evicting each other.
        let model2: Arc<dyn DemandModel> = Arc::new(av_demand_model(&spec));
        let d = f.prepare(&spec, &renamed, &model2).unwrap();
        assert!(!Arc::ptr_eq(&c, &d), "new demand model must recompile");
        let again = f.prepare(&spec, &renamed, &model).unwrap();
        assert!(Arc::ptr_eq(&c, &again), "the first model's entry survives");
        assert_eq!(f.cached(), 3);
    }
}
