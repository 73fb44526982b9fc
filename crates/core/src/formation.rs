//! Winner selection and the paper's three-level tie-break (§4.2).
//!
//! "The coalition is formed based on the set of proposals that presents:
//! lowest evaluation value … lowest communication cost … lowest number of
//! distinct nodes in coalition."
//!
//! The first two criteria are per-task; the third couples tasks (it is a
//! property of the whole assignment). The protocol's selection is the
//! greedy sequential reading: tasks are processed in submission order, each
//! filtered through the criteria in [`TieBreak::order`]; the member-count
//! criterion prefers candidates already chosen for an earlier task.
//! Experiment F6 compares this greedy against an exact distinct-member
//! minimiser (in `qosc-baselines`), and T3 ablates the criterion order.

use std::collections::BTreeMap;

use qosc_spec::TaskId;

use crate::protocol::Pid;

/// One admissible, evaluated proposal for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Proposing node.
    pub node: Pid,
    /// Eq. 2 distance (lower = closer to the user's preferences).
    pub distance: f64,
    /// Estimated payload-shipping cost in seconds (0 for local execution).
    pub comm_cost: f64,
}

/// The three §4.2 criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Lowest evaluation value (eq. 2 distance).
    Distance,
    /// Lowest communication cost.
    CommCost,
    /// Fewest distinct coalition members ("coalition operation's
    /// complexity increases with the number of distinct members").
    Members,
}

/// Ordered tie-break configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieBreak {
    /// Criteria applied lexicographically. The paper's order is
    /// `[Distance, CommCost, Members]`.
    pub order: [Criterion; 3],
    /// Two scores within `epsilon` are considered tied.
    pub epsilon: f64,
}

impl Default for TieBreak {
    fn default() -> Self {
        Self {
            order: [Criterion::Distance, Criterion::CommCost, Criterion::Members],
            epsilon: 1e-9,
        }
    }
}

impl TieBreak {
    /// All six permutations of the criteria (for the T3 ablation).
    pub fn permutations() -> Vec<TieBreak> {
        use Criterion::*;
        [
            [Distance, CommCost, Members],
            [Distance, Members, CommCost],
            [CommCost, Distance, Members],
            [CommCost, Members, Distance],
            [Members, Distance, CommCost],
            [Members, CommCost, Distance],
        ]
        .into_iter()
        .map(|order| TieBreak {
            order,
            epsilon: 1e-9,
        })
        .collect()
    }
}

/// Outcome of winner selection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    /// Winning node per task.
    pub assignments: BTreeMap<TaskId, Pid>,
    /// Tasks with no admissible proposal at all.
    pub unassigned: Vec<TaskId>,
    /// Total eq. 2 distance over assigned tasks.
    pub total_distance: f64,
    /// Total communication cost over assigned tasks (seconds).
    pub total_comm_cost: f64,
}

impl Selection {
    /// Number of distinct coalition members.
    pub fn distinct_members(&self) -> usize {
        let mut nodes: Vec<Pid> = self.assignments.values().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// True when every task found a home.
    pub fn complete(&self) -> bool {
        self.unassigned.is_empty()
    }
}

/// Greedy sequential winner selection over per-task candidate lists.
///
/// `candidates` maps each task to its admissible proposals (any order).
/// Tasks appear in the output in `BTreeMap` (submission) order; the final
/// deterministic tie-break is the lowest node id.
pub fn select_winners(
    candidates: &BTreeMap<TaskId, Vec<Candidate>>,
    tiebreak: &TieBreak,
) -> Selection {
    let mut sel = Selection::default();
    let mut chosen_nodes: Vec<Pid> = Vec::new();
    for (&task, cands) in candidates {
        if cands.is_empty() {
            sel.unassigned.push(task);
            continue;
        }
        let mut pool: Vec<&Candidate> = cands.iter().collect();
        for crit in tiebreak.order {
            if pool.len() <= 1 {
                break;
            }
            match crit {
                Criterion::Distance => {
                    let best = pool
                        .iter()
                        .map(|c| c.distance)
                        .fold(f64::INFINITY, f64::min);
                    pool.retain(|c| c.distance <= best + tiebreak.epsilon);
                }
                Criterion::CommCost => {
                    let best = pool
                        .iter()
                        .map(|c| c.comm_cost)
                        .fold(f64::INFINITY, f64::min);
                    pool.retain(|c| c.comm_cost <= best + tiebreak.epsilon);
                }
                Criterion::Members => {
                    if pool.iter().any(|c| chosen_nodes.contains(&c.node)) {
                        pool.retain(|c| chosen_nodes.contains(&c.node));
                    }
                }
            }
        }
        let winner = pool
            .into_iter()
            .min_by_key(|c| c.node)
            .expect("pool retained at least one candidate");
        sel.assignments.insert(task, winner.node);
        sel.total_distance += winner.distance;
        sel.total_comm_cost += winner.comm_cost;
        if !chosen_nodes.contains(&winner.node) {
            chosen_nodes.push(winner.node);
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(node: Pid, distance: f64, comm: f64) -> Candidate {
        Candidate {
            node,
            distance,
            comm_cost: comm,
        }
    }

    fn one_task(cands: Vec<Candidate>) -> BTreeMap<TaskId, Vec<Candidate>> {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), cands);
        m
    }

    #[test]
    fn lowest_distance_wins() {
        let sel = select_winners(
            &one_task(vec![
                cand(1, 0.5, 0.0),
                cand(2, 0.2, 9.0),
                cand(3, 0.9, 0.0),
            ]),
            &TieBreak::default(),
        );
        assert_eq!(sel.assignments[&TaskId(0)], 2);
        assert!((sel.total_distance - 0.2).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_breaks_distance_ties() {
        let sel = select_winners(
            &one_task(vec![cand(1, 0.5, 3.0), cand(2, 0.5, 1.0)]),
            &TieBreak::default(),
        );
        assert_eq!(sel.assignments[&TaskId(0)], 2);
    }

    #[test]
    fn member_criterion_prefers_existing_members() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), vec![cand(5, 0.1, 1.0)]);
        // Task 1: node 5 (already member) ties with node 9 on both scores.
        m.insert(TaskId(1), vec![cand(9, 0.3, 1.0), cand(5, 0.3, 1.0)]);
        let sel = select_winners(&m, &TieBreak::default());
        assert_eq!(sel.assignments[&TaskId(1)], 5);
        assert_eq!(sel.distinct_members(), 1);
    }

    #[test]
    fn member_criterion_never_overrides_distance_in_paper_order() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), vec![cand(5, 0.1, 1.0)]);
        // Node 9 is strictly better on distance; member preference must not
        // override it under the paper's order.
        m.insert(TaskId(1), vec![cand(9, 0.2, 1.0), cand(5, 0.3, 1.0)]);
        let sel = select_winners(&m, &TieBreak::default());
        assert_eq!(sel.assignments[&TaskId(1)], 9);
        assert_eq!(sel.distinct_members(), 2);
    }

    #[test]
    fn members_first_order_consolidates() {
        use Criterion::*;
        let tb = TieBreak {
            order: [Members, Distance, CommCost],
            epsilon: 1e-9,
        };
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), vec![cand(5, 0.1, 1.0)]);
        m.insert(TaskId(1), vec![cand(9, 0.2, 1.0), cand(5, 0.3, 1.0)]);
        let sel = select_winners(&m, &tb);
        // Members-first keeps node 5 even at worse distance.
        assert_eq!(sel.assignments[&TaskId(1)], 5);
        assert_eq!(sel.distinct_members(), 1);
    }

    #[test]
    fn empty_candidate_list_leaves_task_unassigned() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), vec![cand(1, 0.1, 0.0)]);
        m.insert(TaskId(1), vec![]);
        let sel = select_winners(&m, &TieBreak::default());
        assert_eq!(sel.unassigned, vec![TaskId(1)]);
        assert!(!sel.complete());
        assert_eq!(sel.assignments.len(), 1);
    }

    #[test]
    fn final_tie_break_is_lowest_node_id() {
        let sel = select_winners(
            &one_task(vec![
                cand(9, 0.5, 1.0),
                cand(3, 0.5, 1.0),
                cand(7, 0.5, 1.0),
            ]),
            &TieBreak::default(),
        );
        assert_eq!(sel.assignments[&TaskId(0)], 3);
    }

    #[test]
    fn totals_accumulate_over_tasks() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), vec![cand(1, 0.25, 2.0)]);
        m.insert(TaskId(1), vec![cand(2, 0.50, 3.0)]);
        let sel = select_winners(&m, &TieBreak::default());
        assert!((sel.total_distance - 0.75).abs() < 1e-12);
        assert!((sel.total_comm_cost - 5.0).abs() < 1e-12);
        assert_eq!(sel.distinct_members(), 2);
        assert!(sel.complete());
    }

    #[test]
    fn permutations_cover_all_orders() {
        let perms = TieBreak::permutations();
        assert_eq!(perms.len(), 6);
        let mut seen: Vec<_> = perms.iter().map(|p| p.order).collect();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }
}
