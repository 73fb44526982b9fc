//! Negotiation outcome records and host-visible events.

use std::collections::BTreeMap;

use qosc_netsim::SimTime;
use qosc_spec::TaskId;

use crate::protocol::{NegoId, Pid};

/// Outcome of one task's allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// Winning node.
    pub node: Pid,
    /// Eq. 2 distance of the winning proposal.
    pub distance: f64,
    /// Communication cost of the winning proposal (seconds).
    pub comm_cost: f64,
}

/// Running metrics of one negotiation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NegotiationMetrics {
    /// When the first CFP went out.
    pub started_at: Option<SimTime>,
    /// When the coalition entered operation (all accepts received).
    pub formed_at: Option<SimTime>,
    /// Distinct proposal bundles received (all rounds).
    pub proposal_bundles: u32,
    /// Awards sent (all rounds).
    pub awards_sent: u32,
    /// Declines received.
    pub declines: u32,
    /// Reconfiguration rounds triggered by member failure.
    pub reconfigurations: u32,
    /// Final per-task outcomes.
    pub outcomes: BTreeMap<TaskId, TaskOutcome>,
    /// Tasks that could not be placed.
    pub unassigned: Vec<TaskId>,
}

impl NegotiationMetrics {
    /// Mean distance over placed tasks (0 when none placed).
    pub fn mean_distance(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.outcomes.values().map(|o| o.distance).sum::<f64>() / self.outcomes.len() as f64
        }
    }

    /// Distinct member count of the formed coalition.
    pub fn distinct_members(&self) -> usize {
        let mut nodes: Vec<Pid> = self.outcomes.values().map(|o| o.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Formation latency, if the coalition formed.
    pub fn formation_latency(&self) -> Option<qosc_netsim::SimDuration> {
        match (self.started_at, self.formed_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }
}

/// Events engines surface to their host (experiment harness, tests).
#[derive(Debug, Clone, PartialEq)]
pub enum NegoEvent {
    /// Every task accepted; the coalition is operating.
    Formed {
        /// Negotiation.
        nego: NegoId,
        /// Final metrics snapshot.
        metrics: NegotiationMetrics,
    },
    /// Formation (or a reconfiguration round) left tasks unassigned.
    FormationIncomplete {
        /// Negotiation.
        nego: NegoId,
        /// Tasks without a home.
        unassigned: Vec<TaskId>,
        /// Metrics snapshot.
        metrics: NegotiationMetrics,
    },
    /// A member was declared failed; a reconfiguration round started.
    MemberFailed {
        /// Negotiation.
        nego: NegoId,
        /// The failed member.
        node: Pid,
        /// Tasks being re-auctioned.
        tasks: Vec<TaskId>,
    },
    /// The coalition was dissolved (normal termination).
    Dissolved {
        /// Negotiation.
        nego: NegoId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_distance_and_members() {
        let mut m = NegotiationMetrics::default();
        m.outcomes.insert(
            TaskId(0),
            TaskOutcome {
                node: 1,
                distance: 0.2,
                comm_cost: 0.0,
            },
        );
        m.outcomes.insert(
            TaskId(1),
            TaskOutcome {
                node: 1,
                distance: 0.4,
                comm_cost: 1.0,
            },
        );
        assert!((m.mean_distance() - 0.3).abs() < 1e-12);
        assert_eq!(m.distinct_members(), 1);
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = NegotiationMetrics::default();
        assert_eq!(m.mean_distance(), 0.0);
        assert_eq!(m.distinct_members(), 0);
        assert!(m.formation_latency().is_none());
    }

    #[test]
    fn formation_latency() {
        let m = NegotiationMetrics {
            started_at: Some(SimTime(1_000)),
            formed_at: Some(SimTime(5_000)),
            ..Default::default()
        };
        assert_eq!(
            m.formation_latency(),
            Some(qosc_netsim::SimDuration::micros(4_000))
        );
    }
}
