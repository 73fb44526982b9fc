//! Offline allocation instances.
//!
//! Every policy operates on a *snapshot* of the system — nodes with
//! capacities and the task set — so that policies can be compared on
//! identical inputs (experiments F1, F2, F4, T3). The baselines and the
//! optimum price it directly; the protocol runs the engines on it.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use qosc_core::{
    CompiledRequest, EvalConfig, Formulator, LinearPenalty, OrganizerStrategy, PreparedTask,
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
    /// `(reward model, demand model)` identity — the placement policies
    /// re-formulate this task on every node they try it on, and
    /// recompiling penalty grids per attempt was a dominant cost.
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
    pub(crate) fn prepared(
        &self,
        reward: &Arc<dyn RewardModel>,
        model: &Arc<dyn DemandModel>,
    ) -> Arc<PreparedTask> {
        let mut guard = self.prepared.lock().expect("prepare cache poisoned");
        if let Some(e) = guard.iter().find(|e| {
            std::ptr::addr_eq(Arc::as_ptr(&e.reward), Arc::as_ptr(reward))
                && std::ptr::addr_eq(Arc::as_ptr(e.prepared.demand_model()), Arc::as_ptr(model))
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
    pub(crate) fn compiled(&self, eval: EvalConfig) -> Arc<CompiledRequest> {
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
/// or `None` if even fully degraded the set does not fit, a task id is
/// unknown, or the node has no demand model for a task's spec.
pub(crate) fn formulate_on_node(
    instance: &Instance,
    node: &OfflineNode,
    task_ids: &[TaskId],
) -> Option<Vec<(TaskId, Placement)>> {
    if task_ids.is_empty() {
        return Some(Vec::new());
    }
    let reward = node.reward.as_ref().unwrap_or_else(|| default_reward());
    let lookup = |id: &TaskId| instance.tasks.iter().find(|t| t.id == *id);
    let tasks: Vec<&OfflineTask> = task_ids.iter().map(lookup).collect::<Option<_>>()?;
    let prepare = |t: &&OfflineTask| Some(t.prepared(reward, node.models.get(t.spec.name())?));
    let prepared: Vec<Arc<PreparedTask>> = tasks.iter().map(prepare).collect::<Option<_>>()?;
    let refs: Vec<&PreparedTask> = prepared.iter().map(|p| p.as_ref()).collect();
    let admission = AdmissionControl::new(node.policy, node.capacity);
    let out = Formulator::new(Arc::clone(reward))
        .formulate(&refs, &admission)
        .ok()?;
    let priced = tasks.iter().zip(out.levels).zip(out.demands);
    let placements = priced.map(|((t, levels), demand)| {
        let distance = t
            .compiled(instance.eval)
            .distance_of_levels(&levels)
            .expect("formulated levels are in range");
        let comm_cost = if node.id == instance.requester {
            0.0
        } else if node.link_kbps > 0.0 {
            (t.input_bytes + t.output_bytes) as f64 * 8.0 / (node.link_kbps * 1000.0)
        } else {
            f64::INFINITY
        };
        let placement = Placement {
            node: node.id,
            levels,
            distance,
            comm_cost,
            demand,
        };
        (t.id, placement)
    });
    Some(placements.collect())
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
