//! Offline allocation instances.
//!
//! Baselines and the exhaustive optimum operate on a *snapshot* of the
//! system — nodes with capacities and the task set — rather than through
//! the message protocol, so that allocation policies can be compared on
//! identical inputs without protocol noise (experiments F1, F2, F4, T3).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use qosc_core::{
    local_reward, CompiledRequest, EvalConfig, LinearPenalty, OrganizerStrategy, PreparedTask,
    ProviderStrategy, RewardModel,
};
use qosc_resources::{AdmissionControl, DemandModel, ResourceVector, SchedulingPolicy};
use qosc_spec::{QosSpec, ResolvedRequest, ServiceRequest, SpecError, TaskId};

/// The shared default reward model (`reward: None` nodes). One static
/// `Arc` so every such node keys the same per-task compile cache entry.
pub(crate) fn default_reward() -> &'static Arc<dyn RewardModel> {
    static DEFAULT: OnceLock<Arc<dyn RewardModel>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(LinearPenalty::default()))
}

/// Identity of an `Arc<dyn _>` by data pointer (vtable-address-agnostic).
fn data_ptr<T: ?Sized>(a: &Arc<T>) -> *const u8 {
    Arc::as_ptr(a) as *const u8
}

/// Node id type shared with `qosc-core`.
pub type Pid = qosc_core::Pid;

/// One node of an offline instance.
pub struct OfflineNode {
    /// Node id.
    pub id: Pid,
    /// Total capacity (the snapshot assumes it is all available).
    pub capacity: ResourceVector,
    /// Declared payload bandwidth (kbit/s) for comm-cost estimation.
    pub link_kbps: f64,
    /// CPU scheduling policy.
    pub policy: SchedulingPolicy,
    /// Demand models by spec name.
    pub models: HashMap<String, Arc<dyn DemandModel>>,
    /// The node's local reward model for the §5 heuristic (nodes may run
    /// different degradation policies; `None` = linear default).
    pub reward: Option<Arc<dyn RewardModel>>,
    /// Provider-side strategy chain (participation gates, offer review);
    /// the default empty chain reproduces the unconditioned provider.
    pub chain: ProviderStrategy,
}

impl OfflineNode {
    /// The reward model this node formulates and prices with.
    pub fn reward_model(&self) -> &dyn RewardModel {
        match self.reward.as_deref() {
            Some(r) => r,
            None => default_reward().as_ref(),
        }
    }
}

impl OfflineNode {
    /// Looks up the demand model for a spec.
    pub fn model_for(&self, spec: &QosSpec) -> Option<&Arc<dyn DemandModel>> {
        self.models.get(spec.name())
    }
}

/// One task of an offline instance (request already resolved).
pub struct OfflineTask {
    /// Task id.
    pub id: TaskId,
    /// Application spec.
    pub spec: QosSpec,
    /// The user's request as stated — what the engines announce.
    pub source: ServiceRequest,
    /// `source` resolved against `spec`.
    pub request: ResolvedRequest,
    /// Input payload bytes.
    pub input_bytes: u64,
    /// Output payload bytes.
    pub output_bytes: u64,
    /// Lazily-compiled evaluation tables, keyed by the [`EvalConfig`]
    /// they were compiled under (one compile per task per config, shared
    /// by every policy and round that prices this task).
    compiled: Mutex<Option<(EvalConfig, Arc<CompiledRequest>)>>,
    /// Lazily-compiled formulation tables ([`PreparedTask`]), keyed by
    /// `(reward model, demand model)` identity — multi-round policies
    /// (the F-series protocol emulation) re-formulate this task on every
    /// node every round, and recompiling penalty grids per round was a
    /// dominant cost.
    prepared: Mutex<Vec<PreparedEntry>>,
}

/// One cached formulation compile of a task (see [`OfflineTask::prepared`]).
struct PreparedEntry {
    reward: Arc<dyn RewardModel>,
    prepared: Arc<PreparedTask>,
}

impl OfflineTask {
    /// Creates a task, resolving `source` against `spec` (the compiled
    /// evaluator is built on first use).
    pub fn new(
        id: TaskId,
        spec: QosSpec,
        source: ServiceRequest,
        input_bytes: u64,
        output_bytes: u64,
    ) -> Result<Self, SpecError> {
        Ok(Self {
            id,
            request: source.resolve(&spec)?,
            spec,
            source,
            input_bytes,
            output_bytes,
            compiled: Mutex::new(None),
            prepared: Mutex::new(Vec::new()),
        })
    }

    /// The task compiled for repeated formulation under `(reward, model)`.
    /// Compiles on first use per distinct pair (matched by `Arc` data
    /// pointer; the stored clones keep the pointers stable) and serves the
    /// cached tables from then on.
    pub fn prepared(
        &self,
        reward: &Arc<dyn RewardModel>,
        model: &Arc<dyn DemandModel>,
    ) -> Arc<PreparedTask> {
        let mut guard = self.prepared.lock().expect("prepare cache poisoned");
        if let Some(e) = guard.iter().find(|e| {
            std::ptr::eq(data_ptr(&e.reward), data_ptr(reward))
                && std::ptr::eq(data_ptr(e.prepared.demand_model()), data_ptr(model))
        }) {
            return Arc::clone(&e.prepared);
        }
        let prepared = Arc::new(PreparedTask::compile(
            self.spec.clone(),
            Arc::new(self.request.clone()),
            reward.as_ref(),
            Arc::clone(model),
        ));
        guard.push(PreparedEntry {
            reward: Arc::clone(reward),
            prepared: Arc::clone(&prepared),
        });
        prepared
    }

    /// The task's compiled evaluation tables under `eval`. Compiles on
    /// first use and whenever the config differs from the cached one —
    /// ablations (T2) legitimately re-price the same instance under
    /// several [`EvalConfig`]s, so the cache is keyed, not write-once.
    pub fn compiled(&self, eval: EvalConfig) -> Arc<CompiledRequest> {
        let mut guard = self.compiled.lock().expect("compile cache poisoned");
        match guard.as_ref() {
            Some((cached, compiled)) if *cached == eval => Arc::clone(compiled),
            _ => {
                let compiled = Arc::new(CompiledRequest::compile(&self.spec, &self.request, eval));
                *guard = Some((eval, Arc::clone(&compiled)));
                compiled
            }
        }
    }
}

/// A complete allocation problem snapshot.
pub struct Instance {
    /// The node where the user requested the service (comm cost 0 there).
    pub requester: Pid,
    /// Available nodes (must include the requester to allow local wins).
    pub nodes: Vec<OfflineNode>,
    /// The service's independent tasks.
    pub tasks: Vec<OfflineTask>,
    /// Evaluation knobs shared by all policies.
    pub eval: EvalConfig,
    /// Organizer-side strategy chain (candidate review, winner selection,
    /// retry); the default empty chain reproduces the §4.2 organizer.
    pub chain: OrganizerStrategy,
}

/// One task's placement in an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Executing node.
    pub node: Pid,
    /// Ladder level per requested attribute.
    pub levels: Vec<usize>,
    /// Eq. 2 distance of the served quality.
    pub distance: f64,
    /// Payload shipping cost (seconds; 0 when local).
    pub comm_cost: f64,
    /// Resource demand of the placed task at the served quality.
    pub demand: ResourceVector,
    /// Per-task eq. 1 reward at the served levels, under the serving
    /// node's reward model (what reserve-price components threshold).
    pub reward: f64,
}

/// Result of an allocation policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// Placement per task.
    pub placements: BTreeMap<TaskId, Placement>,
    /// Tasks no policy candidate could serve.
    pub unassigned: Vec<TaskId>,
}

impl Allocation {
    /// Σ distance over placed tasks.
    pub fn total_distance(&self) -> f64 {
        self.placements.values().map(|p| p.distance).sum()
    }

    /// Mean distance over placed tasks (0 when none).
    pub fn mean_distance(&self) -> f64 {
        if self.placements.is_empty() {
            0.0
        } else {
            self.total_distance() / self.placements.len() as f64
        }
    }

    /// Σ comm cost over placed tasks.
    pub fn total_comm_cost(&self) -> f64 {
        self.placements.values().map(|p| p.comm_cost).sum()
    }

    /// Number of distinct executing nodes.
    pub fn distinct_members(&self) -> usize {
        let mut v: Vec<Pid> = self.placements.values().map(|p| p.node).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// True when every task was placed.
    pub fn complete(&self) -> bool {
        self.unassigned.is_empty()
    }

    /// Fraction of tasks placed.
    pub fn acceptance_ratio(&self, total_tasks: usize) -> f64 {
        if total_tasks == 0 {
            1.0
        } else {
            self.placements.len() as f64 / total_tasks as f64
        }
    }
}

/// Jointly formulates the given tasks on `node` (§5 heuristic) and prices
/// the outcome: returns per-task `(levels, distance, comm_cost, demand)`,
/// or `None` if even fully degraded the set does not fit.
pub fn formulate_on_node(
    instance: &Instance,
    node: &OfflineNode,
    task_ids: &[TaskId],
) -> Option<Vec<(TaskId, Placement)>> {
    formulate_on_node_with_capacity(instance, node, &node.capacity, task_ids)
}

/// [`formulate_on_node`] against an explicit remaining capacity — used by
/// multi-round policies that track what earlier rounds already committed.
pub fn formulate_on_node_with_capacity(
    instance: &Instance,
    node: &OfflineNode,
    capacity: &ResourceVector,
    task_ids: &[TaskId],
) -> Option<Vec<(TaskId, Placement)>> {
    if task_ids.is_empty() {
        return Some(Vec::new());
    }
    let tasks = lookup_tasks(instance, task_ids)?;
    let prepared = prepare_tasks(node, &tasks)?;
    if prepared.len() < tasks.len() {
        return None; // some task's demand model is unknown on this node
    }
    let refs: Vec<&PreparedTask> = prepared.iter().map(|p| p.as_ref()).collect();
    let admission = AdmissionControl::new(node.policy, *capacity);
    let out = qosc_core::formulate_prepared(&refs, &admission).ok()?;
    Some(price_outcome(instance, node, &tasks, &out))
}

/// Joint formulation with prefix-feasibility shedding: formulates the
/// largest feasible prefix of `task_ids` on `node` (unknown task ids and
/// tasks whose demand model the node lacks truncate the prefix, exactly
/// like the old shed-one-retry loop did). Returns the priced placements
/// of that prefix — empty when not even one task fits. This is the
/// offline mirror of the joint provider's CFP path (F-series emulation).
pub fn formulate_subset_on_node(
    instance: &Instance,
    node: &OfflineNode,
    capacity: &ResourceVector,
    task_ids: &[TaskId],
) -> Vec<(TaskId, Placement)> {
    if task_ids.is_empty() {
        return Vec::new();
    }
    // Truncate (not bail) at the first unknown id: the old loop shed its
    // way down to the prefix before it.
    let by_id = task_index(instance);
    let tasks: Vec<&OfflineTask> = task_ids
        .iter()
        .map_while(|id| by_id.get(id).copied())
        .collect();
    if tasks.is_empty() {
        return Vec::new();
    }
    let Some(prepared) = prepare_tasks(node, &tasks) else {
        return Vec::new();
    };
    let refs: Vec<&PreparedTask> = prepared.iter().map(|p| p.as_ref()).collect();
    let admission = AdmissionControl::new(node.policy, *capacity);
    let Some((count, out)) = qosc_core::formulate_shedding(&refs, &admission) else {
        return Vec::new();
    };
    price_outcome(instance, node, &tasks[..count], &out)
}

/// One id→task index pass instead of a linear scan per id: joint
/// formulation over large open sets (256-node sweeps announce every
/// task to every node, every round) would otherwise go quadratic.
fn task_index(instance: &Instance) -> HashMap<TaskId, &OfflineTask> {
    instance.tasks.iter().map(|t| (t.id, t)).collect()
}

/// All of `task_ids` resolved against the instance, or `None` if any is
/// unknown.
fn lookup_tasks<'a>(instance: &'a Instance, task_ids: &[TaskId]) -> Option<Vec<&'a OfflineTask>> {
    let by_id = task_index(instance);
    task_ids
        .iter()
        .map(|id| by_id.get(id).copied())
        .collect::<Option<Vec<_>>>()
}

/// Compiles (or serves from each task's cache) the prefix of `tasks` the
/// node can price: stops at the first task whose spec has no demand model
/// here. `None` when the very first task is already unknown.
fn prepare_tasks(node: &OfflineNode, tasks: &[&OfflineTask]) -> Option<Vec<Arc<PreparedTask>>> {
    let reward = match node.reward.as_ref() {
        Some(r) => r,
        None => default_reward(),
    };
    let mut out = Vec::with_capacity(tasks.len());
    for t in tasks {
        let Some(model) = node.model_for(&t.spec) else {
            break;
        };
        out.push(t.prepared(reward, model));
    }
    if out.is_empty() {
        return None;
    }
    Some(out)
}

/// Prices a formulation outcome into per-task placements.
fn price_outcome(
    instance: &Instance,
    node: &OfflineNode,
    tasks: &[&OfflineTask],
    out: &qosc_core::Formulated,
) -> Vec<(TaskId, Placement)> {
    let mut placements = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let distance = t
            .compiled(instance.eval)
            .distance_of_levels(&out.levels[i])
            .expect("formulated levels are in range");
        let comm_cost = if node.id == instance.requester {
            0.0
        } else if node.link_kbps > 0.0 {
            (t.input_bytes + t.output_bytes) as f64 * 8.0 / (node.link_kbps * 1000.0)
        } else {
            f64::INFINITY
        };
        let reward = local_reward(&t.request, &out.levels[i], node.reward_model());
        placements.push((
            t.id,
            Placement {
                node: node.id,
                levels: out.levels[i].clone(),
                distance,
                comm_cost,
                demand: out.demands[i],
                reward,
            },
        ));
    }
    placements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::small_instance;

    #[test]
    fn formulate_on_rich_node_places_all_preferred() {
        let inst = small_instance(&[1000.0, 1000.0], 2);
        let ids: Vec<TaskId> = inst.tasks.iter().map(|t| t.id).collect();
        let placements = formulate_on_node(&inst, &inst.nodes[1], &ids).unwrap();
        assert_eq!(placements.len(), 2);
        for (_, p) in &placements {
            assert_eq!(p.distance, 0.0);
            assert!(p.comm_cost > 0.0); // node 1 is remote
        }
    }

    #[test]
    fn requester_has_zero_comm_cost() {
        let inst = small_instance(&[1000.0, 1000.0], 1);
        let ids = vec![TaskId(0)];
        let placements = formulate_on_node(&inst, &inst.nodes[0], &ids).unwrap();
        assert_eq!(placements[0].1.comm_cost, 0.0);
    }

    #[test]
    fn infeasible_node_returns_none() {
        let inst = small_instance(&[0.5, 1000.0], 1);
        let ids = vec![TaskId(0)];
        assert!(formulate_on_node(&inst, &inst.nodes[0], &ids).is_none());
    }

    #[test]
    fn compiled_cache_tracks_eval_config_changes() {
        // T2 re-prices one instance under several EvalConfigs by mutating
        // `instance.eval`; the per-task compile cache must follow suit
        // rather than serve the first config's tables forever.
        use qosc_core::{DifMode, WeightScheme};
        let inst = small_instance(&[1000.0], 1);
        let t = &inst.tasks[0];
        // Degrade frame_rate to level 5 (value 5, preferred 10).
        let absolute = t
            .compiled(EvalConfig::default())
            .distance_of_levels(&[5, 0, 0, 0])
            .unwrap();
        let signed = t
            .compiled(EvalConfig {
                weights: WeightScheme::PaperLinear,
                dif: DifMode::SignedPaperLiteral,
            })
            .distance_of_levels(&[5, 0, 0, 0])
            .unwrap();
        assert!(absolute > 0.0, "absolute dif penalises undershoot");
        assert!(signed < 0.0, "signed dif rewards undershoot");
        // Switching back recompiles again (keyed cache, not write-once).
        let absolute2 = t
            .compiled(EvalConfig::default())
            .distance_of_levels(&[5, 0, 0, 0])
            .unwrap();
        assert_eq!(absolute, absolute2);
    }

    #[test]
    fn allocation_summaries() {
        let mut a = Allocation::default();
        a.placements.insert(
            TaskId(0),
            Placement {
                node: 1,
                levels: vec![0],
                distance: 0.2,
                comm_cost: 1.0,
                demand: ResourceVector::ZERO,
                reward: 0.0,
            },
        );
        a.placements.insert(
            TaskId(1),
            Placement {
                node: 1,
                levels: vec![0],
                distance: 0.4,
                comm_cost: 0.5,
                demand: ResourceVector::ZERO,
                reward: 0.0,
            },
        );
        a.unassigned.push(TaskId(2));
        assert!((a.total_distance() - 0.6).abs() < 1e-12);
        assert!((a.mean_distance() - 0.3).abs() < 1e-12);
        assert!((a.total_comm_cost() - 1.5).abs() < 1e-12);
        assert_eq!(a.distinct_members(), 1);
        assert!(!a.complete());
        assert!((a.acceptance_ratio(3) - 2.0 / 3.0).abs() < 1e-12);
    }
}
