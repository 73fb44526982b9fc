//! Comparator allocation policies.
//!
//! * [`single_node`] — everything on the requester (what happens without
//!   coalitions; the paper's implicit baseline in §1/§7).
//! * [`random_alloc`] — each task on a uniformly random capable node.
//! * [`greedy_least_loaded`] — classic load balancing: tasks go to the
//!   node with the most remaining CPU, ignoring QoS preferences.
//! * [`protocol_emulation`] — the paper's negotiation itself, the
//!   engines on `DirectRuntime`, unbounded rounds: nodes formulate (§5),
//!   the organizer evaluates (§6) and applies the §4.2 tie-break.
//!
//! All policies degrade quality via the same §5 heuristic, so differences
//! in outcome are attributable purely to *placement*.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use qosc_core::{ProposalStrategy, TieBreak};
use qosc_spec::TaskId;

use crate::engines::run_on_engines;
use crate::instance::{formulate_on_node, Allocation, Instance, OfflineNode, Pid};

/// Everything runs on the requester node; if the full set does not fit
/// even degraded, tasks are shed from the tail (mirroring the provider
/// engine's behaviour).
pub fn single_node(instance: &Instance) -> Allocation {
    let Some(node) = instance.nodes.iter().find(|n| n.id == instance.requester) else {
        return Allocation {
            unassigned: instance.tasks.iter().map(|t| t.id).collect(),
            ..Default::default()
        };
    };
    let all: Vec<TaskId> = instance.tasks.iter().map(|t| t.id).collect();
    let mut count = all.len();
    while count > 0 {
        if let Some(placements) = formulate_on_node(instance, node, &all[..count]) {
            let mut alloc = Allocation::default();
            for (id, p) in placements {
                alloc.placements.insert(id, p);
            }
            alloc.unassigned = all[count..].to_vec();
            return alloc;
        }
        count -= 1;
    }
    Allocation {
        unassigned: all,
        ..Default::default()
    }
}

/// Sequential assignment helper shared by random and greedy policies:
/// tries to place `task` on `node` given what that node already carries,
/// by re-formulating the node's whole set jointly.
fn try_place(
    instance: &Instance,
    node: &OfflineNode,
    carried: &[TaskId],
    task: TaskId,
) -> Option<Vec<(TaskId, crate::instance::Placement)>> {
    let mut set = carried.to_vec();
    set.push(task);
    formulate_on_node(instance, node, &set)
}

/// Each task goes to a uniformly random node able to serve it (after
/// degradation); unplaceable tasks stay unassigned.
pub fn random_alloc(instance: &Instance, rng: &mut impl Rng) -> Allocation {
    let mut carried: BTreeMap<Pid, Vec<TaskId>> = BTreeMap::new();
    let mut alloc = Allocation::default();
    for task in &instance.tasks {
        let mut order: Vec<usize> = (0..instance.nodes.len()).collect();
        order.shuffle(rng);
        let mut placed = false;
        for idx in order {
            let node = &instance.nodes[idx];
            let set = carried.entry(node.id).or_default();
            if let Some(placements) = try_place(instance, node, set, task.id) {
                set.push(task.id);
                // Re-formulation may have re-levelled earlier tasks on this
                // node; refresh all of them.
                for (id, p) in placements {
                    alloc.placements.insert(id, p);
                }
                placed = true;
                break;
            }
        }
        if !placed {
            alloc.unassigned.push(task.id);
        }
    }
    alloc
}

/// Tasks go to the node with the most remaining CPU (capacity minus the
/// demands it already carries), re-formulating jointly per node.
pub fn greedy_least_loaded(instance: &Instance) -> Allocation {
    let mut carried: BTreeMap<Pid, Vec<TaskId>> = BTreeMap::new();
    let mut remaining_cpu: BTreeMap<Pid, f64> = instance
        .nodes
        .iter()
        .map(|n| (n.id, n.capacity.get(qosc_resources::ResourceKind::Cpu)))
        .collect();
    let mut alloc = Allocation::default();
    for task in &instance.tasks {
        // Highest remaining CPU first; stable on id for determinism.
        // total_cmp keeps the sort total even if a node advertises a NaN
        // capacity (NaN sorts ahead, fails formulation, and is skipped).
        let mut order: Vec<&OfflineNode> = instance.nodes.iter().collect();
        order.sort_by(|a, b| {
            remaining_cpu[&b.id]
                .total_cmp(&remaining_cpu[&a.id])
                .then(a.id.cmp(&b.id))
        });
        let mut placed = false;
        for node in order {
            let set = carried.entry(node.id).or_default();
            if let Some(placements) = try_place(instance, node, set, task.id) {
                set.push(task.id);
                // Track CPU actually consumed on this node. Each placement
                // already carries its demand at the served quality — no
                // need to re-derive it from the demand model per task.
                let used: f64 = placements
                    .iter()
                    .map(|(_, p)| p.demand.get(qosc_resources::ResourceKind::Cpu))
                    .sum();
                remaining_cpu.insert(
                    node.id,
                    node.capacity.get(qosc_resources::ResourceKind::Cpu) - used,
                );
                for (id, p) in placements {
                    alloc.placements.insert(id, p);
                }
                placed = true;
                break;
            }
        }
        if !placed {
            alloc.unassigned.push(task.id);
        }
    }
    alloc
}

/// The paper's protocol with the default joint (§5-literal) strategy.
pub fn protocol_emulation(instance: &Instance, tiebreak: &TieBreak) -> Allocation {
    protocol_emulation_with(instance, tiebreak, ProposalStrategy::Joint)
}

/// The paper's protocol on the snapshot: the engines negotiate on a
/// zero-latency `DirectRuntime` under the nodes' and the instance's
/// chains, providers pricing bundles by `strategy`, re-announcing what is
/// still open until every task is placed or a round makes no progress.
pub fn protocol_emulation_with(
    instance: &Instance,
    tiebreak: &TieBreak,
    strategy: ProposalStrategy,
) -> Allocation {
    run_on_engines(instance, tiebreak, strategy).0
}

/// The exhaustive optimum: minimises `(Σ distance, Σ comm, distinct
/// members)` lexicographically over *all* task→node assignments, with
/// per-node joint formulation deciding feasibility and quality. Returns
/// `None` when the state space exceeds `max_states` (it grows as n^t).
pub fn exhaustive_optimal(instance: &Instance, max_states: u64) -> Option<Allocation> {
    let n = instance.nodes.len();
    let t = instance.tasks.len();
    if n == 0 {
        return Some(Allocation {
            unassigned: instance.tasks.iter().map(|x| x.id).collect(),
            ..Default::default()
        });
    }
    let states = (n as u64).checked_pow(t as u32)?;
    if states > max_states {
        return None;
    }
    let all: Vec<TaskId> = instance.tasks.iter().map(|x| x.id).collect();
    let mut best: Option<(f64, f64, usize, Allocation)> = None;
    let mut assignment = vec![0usize; t];
    loop {
        // Evaluate this assignment: group tasks by node, formulate jointly.
        let mut by_node: BTreeMap<Pid, Vec<TaskId>> = BTreeMap::new();
        for (ti, &ni) in assignment.iter().enumerate() {
            by_node
                .entry(instance.nodes[ni].id)
                .or_default()
                .push(all[ti]);
        }
        let mut feasible = true;
        let mut alloc = Allocation::default();
        for (pid, tasks) in &by_node {
            let Some(node) = instance.nodes.iter().find(|x| x.id == *pid) else {
                feasible = false;
                break;
            };
            match formulate_on_node(instance, node, tasks) {
                Some(placements) => {
                    for (id, p) in placements {
                        alloc.placements.insert(id, p);
                    }
                }
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible {
            let key = (
                alloc.total_distance(),
                alloc.total_comm_cost(),
                alloc.distinct_members(),
            );
            let better = match &best {
                None => true,
                Some((d, c, m, _)) => {
                    key.0 < d - 1e-12
                        || ((key.0 - d).abs() <= 1e-12
                            && (key.1 < c - 1e-12 || ((key.1 - c).abs() <= 1e-12 && key.2 < *m)))
                }
            };
            if better {
                best = Some((key.0, key.1, key.2, alloc));
            }
        }
        // Next assignment (odometer).
        let mut i = 0;
        loop {
            if i == t {
                return best.map(|(_, _, _, a)| a).or(Some(Allocation {
                    unassigned: all.clone(),
                    ..Default::default()
                }));
            }
            assignment[i] += 1;
            if assignment[i] < n {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// CPU capacity summed over all nodes — handy when normalising load sweeps.
pub fn aggregate_cpu(instance: &Instance) -> f64 {
    instance
        .nodes
        .iter()
        .map(|n| n.capacity.get(qosc_resources::ResourceKind::Cpu))
        .sum::<f64>()
        .max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{conference_instance, small_instance};
    use qosc_resources::ResourceVector;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_node_places_all_when_capacity_allows() {
        let inst = small_instance(&[1000.0, 10.0], 3);
        let a = single_node(&inst);
        assert!(a.complete());
        assert_eq!(a.distinct_members(), 1);
        assert_eq!(a.total_comm_cost(), 0.0);
    }

    #[test]
    fn single_node_sheds_when_overloaded() {
        // Fully-degraded surveillance ≈ 5.95 MIPS; 10 MIPS fits one task,
        // never three.
        let inst = small_instance(&[10.0, 1000.0], 3);
        let a = single_node(&inst);
        assert!(!a.complete());
        assert!(!a.placements.is_empty());
    }

    #[test]
    fn protocol_beats_single_node_under_load() {
        // Requester too weak for preferred quality; remote nodes rich.
        let inst = conference_instance(&[30.0, 1000.0, 1000.0], 2);
        let single = single_node(&inst);
        let proto = protocol_emulation(&inst, &TieBreak::default());
        assert!(proto.complete());
        // The coalition serves strictly closer to preferences.
        assert!(proto.total_distance() < single.total_distance());
    }

    #[test]
    fn protocol_prefers_local_when_equal() {
        // Everyone rich: distances all 0; comm-cost tie-break keeps tasks
        // at the requester.
        let inst = small_instance(&[1000.0, 1000.0, 1000.0], 2);
        let a = protocol_emulation(&inst, &TieBreak::default());
        assert!(a.complete());
        assert!(a.placements.values().all(|p| p.node == 0));
        assert_eq!(a.total_comm_cost(), 0.0);
    }

    #[test]
    fn greedy_ignores_preferences_but_balances() {
        let inst = small_instance(&[500.0, 1000.0, 800.0], 2);
        let a = greedy_least_loaded(&inst);
        assert!(a.complete());
        // First task lands on node 1 (most CPU).
        assert_eq!(a.placements[&qosc_spec::TaskId(0)].node, 1);
    }

    #[test]
    fn greedy_survives_nan_capacity() {
        // A node advertising a NaN CPU capacity used to panic the sort
        // (partial_cmp().unwrap()); it must instead be skipped.
        let mut inst = small_instance(&[500.0, 1000.0, 800.0], 2);
        inst.nodes[2].capacity = ResourceVector::new(f64::NAN, 512.0, 10_000.0, 60.0, 10_000.0);
        let a = greedy_least_loaded(&inst);
        assert!(a.complete());
        assert!(a.placements.values().all(|p| p.node != 2));
    }

    #[test]
    fn greedy_matches_formulated_demand_accounting() {
        // The balance decision must reflect the demand of what each node
        // actually carries: with two equal nodes, two tasks split 1/1.
        let inst = small_instance(&[0.5, 400.0, 400.0], 2);
        let a = greedy_least_loaded(&inst);
        assert!(a.complete());
        let nodes: Vec<u32> = a.placements.values().map(|p| p.node).collect();
        assert_ne!(nodes[0], nodes[1], "load balancing must spread tasks");
    }

    #[test]
    fn random_alloc_is_seed_deterministic_and_complete_when_feasible() {
        let inst = small_instance(&[500.0, 500.0, 500.0], 3);
        let a1 = random_alloc(&inst, &mut ChaCha8Rng::seed_from_u64(7));
        let a2 = random_alloc(&inst, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a1, a2);
        assert!(a1.complete());
    }

    #[test]
    fn exhaustive_matches_or_beats_protocol() {
        let inst = conference_instance(&[40.0, 120.0, 60.0], 2);
        let proto = protocol_emulation(&inst, &TieBreak::default());
        let opt = exhaustive_optimal(&inst, 1_000_000).unwrap();
        assert!(opt.complete());
        assert!(opt.total_distance() <= proto.total_distance() + 1e-9);
    }

    #[test]
    fn exhaustive_respects_state_budget() {
        let inst = small_instance(&[100.0; 10], 10); // 10^10 states
        assert!(exhaustive_optimal(&inst, 1_000_000).is_none());
    }

    #[test]
    fn infeasible_everywhere_leaves_all_unassigned() {
        let inst = small_instance(&[0.5, 0.5], 2);
        for a in [
            single_node(&inst),
            greedy_least_loaded(&inst),
            protocol_emulation(&inst, &TieBreak::default()),
            random_alloc(&inst, &mut ChaCha8Rng::seed_from_u64(1)),
            exhaustive_optimal(&inst, 1_000_000).unwrap(),
        ] {
            assert_eq!(a.placements.len(), 0);
            assert_eq!(a.unassigned.len(), 2);
        }
    }
}
