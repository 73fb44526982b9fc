//! Checkable protocol properties.
//!
//! An [`Invariant`] is a plain closure over a [`SystemView`] — the
//! engines of every node plus a quiescence flag. The checker evaluates
//! every invariant at every explored state; the sampled backends can
//! evaluate the same closures at settle time through
//! [`verify_runtime`]. Shipped properties:
//!
//! * `capacity_conservation` — no Resource Manager's outstanding holds
//!   exceed its capacity (the two-phase reservation never overbooks);
//! * `no_orphaned_winner` — an organizer never records an assignment
//!   that the winning provider has not backed with a committed grant;
//! * `task_conservation` — every announced task is in exactly one
//!   lifecycle bucket (open / awarded / assigned / given-up) at every
//!   instant: tasks are neither lost nor duplicated across rounds;
//! * `liveness_at_quiescence` — once no message or timer remains, every
//!   negotiation has settled (Operating or Dissolved): no schedule strands
//!   a negotiation mid-round.
//!
//! Two partition-tolerance properties ship alongside (bundled by
//! [`partition_invariants`], meant for fault plans that license
//! partition branches):
//!
//! * `no_split_brain_double_award` — at most one provider executes any
//!   (negotiation, task, round) at every instant, and at most one
//!   executes any (negotiation, task) once the system settles;
//! * `liveness_after_heal` — after the network heals and goes
//!   quiescent, no task is stranded open or pending: everything ends
//!   assigned or explicitly given up.

use std::collections::BTreeMap;
use std::sync::Arc;

use qosc_core::{CoalitionNode, NegoId, NegoPhase, Pid};
use qosc_resources::ResourceKind;
use qosc_spec::TaskId;

/// A failed invariant: which property, and a human-readable account of
/// the offending state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// What was wrong, with the offending ids.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.message
        )
    }
}

/// Read-only view of the whole system at one instant.
pub struct SystemView<'a> {
    nodes: BTreeMap<Pid, &'a CoalitionNode>,
    quiescent: bool,
    partitioned: bool,
}

impl<'a> SystemView<'a> {
    /// Builds a view over borrowed nodes. `quiescent` marks states with
    /// no deliverable event left (liveness properties key on it).
    pub(crate) fn new(nodes: impl IntoIterator<Item = &'a CoalitionNode>, quiescent: bool) -> Self {
        Self {
            nodes: nodes
                .into_iter()
                .map(|n| (qosc_core::runtime::NodeEngine::id(n), n))
                .collect(),
            quiescent,
            partitioned: false,
        }
    }

    /// Marks the view as taken while a network partition is active.
    /// Partition-aware invariants weaken their end-state clauses on such
    /// views (a partitioned state is also never quiescent).
    pub(crate) fn with_partitioned(mut self, partitioned: bool) -> Self {
        self.partitioned = partitioned;
        self
    }

    /// The node hosting `pid`, if present.
    pub fn node(&self, pid: Pid) -> Option<&CoalitionNode> {
        self.nodes.get(&pid).copied()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (Pid, &CoalitionNode)> {
        self.nodes.iter().map(|(p, n)| (*p, *n))
    }

    /// Whether the system has no deliverable event left.
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// Whether a network partition was active when the view was taken.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }
}

/// A checkable property: `Ok(())` when the state is fine, a [`Violation`]
/// when it is not. An invariant must be a pure function of its view — no
/// captured counters, clocks or randomness — and must not read what a
/// node's state digest leaves out (metrics, caches, raw hold ids): the
/// model checker computes each verdict once per walk and reuses it for
/// every view with the same node digests and flags. Plain closures work:
///
/// ```
/// use qosc_mc::{Invariant, Violation};
/// use std::sync::Arc;
/// let at_most_four_nodes: Invariant = Arc::new(|view| {
///     if view.nodes().count() <= 4 {
///         Ok(())
///     } else {
///         Err(Violation { invariant: "at-most-four-nodes", message: "too many".into() })
///     }
/// });
/// ```
pub type Invariant = Arc<dyn Fn(&SystemView<'_>) -> Result<(), Violation>>;

/// Evaluates invariants in order; the first failure wins.
pub(crate) fn check_all(view: &SystemView<'_>, invariants: &[Invariant]) -> Result<(), Violation> {
    for inv in invariants {
        inv(view)?;
    }
    Ok(())
}

/// Checks `invariants` against live nodes of a runtime backend (DES,
/// Direct): pass the node ids the scenario registered; ids the backend
/// does not host are skipped. `quiescent` should be
/// `true` only when the caller knows no protocol event remains in flight
/// (e.g. after `run_until_settled` plus a drained horizon).
pub fn verify_runtime<R: qosc_core::Runtime + ?Sized>(
    rt: &R,
    ids: &[Pid],
    invariants: &[Invariant],
    quiescent: bool,
) -> Result<(), Violation> {
    let nodes: Vec<&CoalitionNode> = ids.iter().filter_map(|id| rt.node(*id)).collect();
    check_all(&SystemView::new(nodes, quiescent), invariants)
}

/// Σ holds ≤ capacity on every Resource Manager of every provider.
pub(crate) fn capacity_conservation() -> Invariant {
    Arc::new(|view| {
        for (pid, node) in view.nodes() {
            let Some(p) = node.provider() else { continue };
            for kind in ResourceKind::ALL {
                let m = p.ledger().manager(kind);
                if m.held() > m.capacity() + 1e-6 {
                    return Err(Violation {
                        invariant: "capacity-conservation",
                        message: format!(
                            "node {pid} {kind:?}: holds {:.3} exceed capacity {:.3}",
                            m.held(),
                            m.capacity()
                        ),
                    });
                }
            }
        }
        Ok(())
    })
}

/// Every assignment an organizer records (while the negotiation is live)
/// is backed by a committed grant at the winning provider.
pub(crate) fn no_orphaned_winner() -> Invariant {
    Arc::new(|view| {
        for (pid, node) in view.nodes() {
            let Some(org) = node.organizer() else {
                continue;
            };
            for nego in org.nego_ids() {
                if !matches!(
                    org.phase(nego),
                    Some(NegoPhase::Awarding | NegoPhase::Operating)
                ) {
                    // A dissolved negotiation keeps its assignment record
                    // but has told members to release — not an orphan.
                    continue;
                }
                let Some(lc) = org.task_lifecycle(nego) else {
                    continue;
                };
                for (task, winner) in &lc.assigned {
                    let Some(p) = view.node(*winner).and_then(|n| n.provider()) else {
                        return Err(Violation {
                            invariant: "no-orphaned-winner",
                            message: format!(
                                "organizer {pid}: {nego} task {task:?} assigned to node \
                                 {winner} which hosts no provider"
                            ),
                        });
                    };
                    if !p.executing().contains(&(nego, *task)) {
                        return Err(Violation {
                            invariant: "no-orphaned-winner",
                            message: format!(
                                "organizer {pid}: {nego} task {task:?} assigned to node \
                                 {winner} without a backing committed grant"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    })
}

/// Announced tasks partition exactly into open ∪ awarded ∪ assigned ∪
/// given-up: no task is lost or double-tracked, in any phase.
pub(crate) fn task_conservation() -> Invariant {
    Arc::new(|view| {
        for (pid, node) in view.nodes() {
            let Some(org) = node.organizer() else {
                continue;
            };
            for nego in org.nego_ids() {
                let Some(lc) = org.task_lifecycle(nego) else {
                    continue;
                };
                for task in &lc.announced {
                    let buckets = usize::from(lc.open.contains(task))
                        + usize::from(lc.pending.contains_key(task))
                        + usize::from(lc.assigned.contains_key(task))
                        + usize::from(lc.given_up.contains(task));
                    if buckets != 1 {
                        return Err(Violation {
                            invariant: "task-conservation",
                            message: format!(
                                "organizer {pid}: {nego} task {task:?} lives in {buckets} \
                                 lifecycle buckets (expected exactly 1)"
                            ),
                        });
                    }
                }
                let phantom = lc
                    .open
                    .iter()
                    .chain(lc.pending.keys())
                    .chain(lc.assigned.keys())
                    .chain(lc.given_up.iter())
                    .find(|t| !lc.announced.contains(t));
                if let Some(task) = phantom {
                    return Err(Violation {
                        invariant: "task-conservation",
                        message: format!(
                            "organizer {pid}: {nego} tracks task {task:?} that was never \
                             announced"
                        ),
                    });
                }
            }
        }
        Ok(())
    })
}

/// At quiescence every negotiation has settled: phase is Operating or
/// Dissolved and no task is still awaiting solicitation or an award
/// answer. Vacuously true while events remain deliverable.
pub(crate) fn liveness_at_quiescence() -> Invariant {
    Arc::new(|view| {
        if !view.is_quiescent() {
            return Ok(());
        }
        for (pid, node) in view.nodes() {
            let Some(org) = node.organizer() else {
                continue;
            };
            for nego in org.nego_ids() {
                let phase = org.phase(nego);
                if !matches!(phase, Some(NegoPhase::Operating | NegoPhase::Dissolved)) {
                    return Err(Violation {
                        invariant: "liveness-at-quiescence",
                        message: format!(
                            "organizer {pid}: {nego} stranded in {phase:?} with no \
                             deliverable event left"
                        ),
                    });
                }
            }
        }
        Ok(())
    })
}

/// At most one provider executes any (negotiation, task, round) triple
/// at every instant, and at most one provider executes any (negotiation,
/// task) pair once the system settles (quiescent and healed). The round
/// dimension matters mid-run: while a partition blocks an `Accept`, a
/// backoff re-announce can legitimately award the same task again in a
/// later round — two grants for the same task may coexist *transiently*,
/// but never for the same round, and the stale one must be released
/// (via the fresh-round CFP) before the system can go quiescent.
pub(crate) fn no_split_brain_double_award() -> Invariant {
    Arc::new(|view| {
        let settled = view.is_quiescent() && !view.is_partitioned();
        let mut by_round: BTreeMap<(NegoId, TaskId, u32), Pid> = BTreeMap::new();
        let mut by_task: BTreeMap<(NegoId, TaskId), Pid> = BTreeMap::new();
        for (pid, node) in view.nodes() {
            let Some(p) = node.provider() else { continue };
            for (nego, task, round) in p.executing_rounds() {
                if let Some(prev) = by_round.insert((nego, task, round), pid) {
                    return Err(Violation {
                        invariant: "no-split-brain-double-award",
                        message: format!(
                            "{nego} task {task:?} round {round} executed by both node \
                             {prev} and node {pid}"
                        ),
                    });
                }
                if settled {
                    if let Some(prev) = by_task.insert((nego, task), pid) {
                        return Err(Violation {
                            invariant: "no-split-brain-double-award",
                            message: format!(
                                "{nego} task {task:?} still executed by both node {prev} \
                                 and node {pid} after the system settled"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    })
}

/// Once quiescent *and healed*, every negotiation has settled with no
/// task still open or awaiting an award answer: the retry/backoff layer
/// recovered everything a partition stranded. Vacuously true while
/// events remain deliverable or a cut is active (a partitioned state is
/// never quiescent, so the partition guard is defensive).
pub(crate) fn liveness_after_heal() -> Invariant {
    Arc::new(|view| {
        if !view.is_quiescent() || view.is_partitioned() {
            return Ok(());
        }
        for (pid, node) in view.nodes() {
            let Some(org) = node.organizer() else {
                continue;
            };
            for nego in org.nego_ids() {
                let phase = org.phase(nego);
                if !matches!(phase, Some(NegoPhase::Operating | NegoPhase::Dissolved)) {
                    return Err(Violation {
                        invariant: "liveness-after-heal",
                        message: format!(
                            "organizer {pid}: {nego} stranded in {phase:?} after the \
                             network healed and went quiescent"
                        ),
                    });
                }
                let Some(lc) = org.task_lifecycle(nego) else {
                    continue;
                };
                if !lc.open.is_empty() || !lc.pending.is_empty() {
                    return Err(Violation {
                        invariant: "liveness-after-heal",
                        message: format!(
                            "organizer {pid}: {nego} settled with {} open and {} pending \
                             task(s) — every announced task must end assigned or given up",
                            lc.open.len(),
                            lc.pending.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    })
}

/// The four shipped properties, in checking order.
pub fn default_invariants() -> Vec<Invariant> {
    vec![
        capacity_conservation(),
        no_orphaned_winner(),
        task_conservation(),
        liveness_at_quiescence(),
    ]
}

/// [`default_invariants`] plus the two partition-tolerance properties:
/// `no_split_brain_double_award` and `liveness_after_heal`. Use with
/// a [`FaultPlan`](qosc_netsim::FaultPlan) that licenses partition
/// branches (`with_partitions`).
pub fn partition_invariants() -> Vec<Invariant> {
    let mut v = default_invariants();
    v.push(no_split_brain_double_award());
    v.push(liveness_after_heal());
    v
}
