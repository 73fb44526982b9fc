//! The negotiation wire protocol (paper §4.2).
//!
//! The paper's algorithm:
//!
//! 1. the Negotiation Organizer broadcasts the description of each service
//!    and the user's preferences — [`Msg::CallForProposals`];
//! 2. each QoS Provider contacts its Resource Managers and replies with a
//!    multi-attribute proposal — [`Msg::Proposal`];
//! 3. the Organizer evaluates all proposals and selects the best utility —
//!    [`Msg::Award`] / [`Msg::Accept`] / [`Msg::Decline`];
//! 4. relevant data for task execution is sent to the winning node —
//!    modelled by the task's payload sizes, which drive the
//!    communication-cost tie-break.
//!
//! Operation-phase monitoring ([`Msg::Heartbeat`]) and dissolution
//! ([`Msg::Release`]) extend the formation protocol to the full coalition
//! life cycle of §4.
//!
//! Engines are sans-IO: they consume [`Msg`]s and emit [`Action`]s; the
//! [`runtime`](crate::runtime) backends translate actions into their
//! transports.

use std::sync::Arc;

use qosc_netsim::SimDuration;
use qosc_resources::ResourceVector;
use qosc_spec::{QosSpec, ServiceRequest, TaskId, Value};

/// Node identifier shared by every backend (maps 1:1 onto
/// `qosc_netsim::NodeId`).
pub type Pid = u32;

/// Globally unique negotiation identifier: the organizer node plus its
/// per-organizer sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NegoId {
    /// Organizer node.
    pub organizer: Pid,
    /// Per-organizer sequence number.
    pub seq: u32,
}

impl std::fmt::Display for NegoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nego({}/{})", self.organizer, self.seq)
    }
}

/// One task inside a Call-for-Proposals: the full application spec and the
/// user's preference-ordered request, plus payload sizes (the "relevant
/// data for task execution" whose shipping cost the tie-break weighs).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAnnouncement {
    /// Task being solicited.
    pub task: TaskId,
    /// The application's QoS spec (§3).
    pub spec: QosSpec,
    /// The user's request (§3.1).
    pub request: ServiceRequest,
    /// Input payload the winner must receive.
    pub input_bytes: u64,
    /// Output payload the winner must ship back.
    pub output_bytes: u64,
}

/// One provider's offer for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProposal {
    /// Task the offer is for.
    pub task: TaskId,
    /// Offered value per requested attribute, in the request's
    /// `iter_attrs` order — the multi-attribute proposal of §4.2.
    pub offered: Vec<Value>,
    /// Same offer as ladder level indexes (saves the organizer a lookup).
    pub levels: Vec<usize>,
    /// Resources the provider has tentatively reserved for this offer.
    pub demand: ResourceVector,
    /// Bandwidth the provider can devote to shipping this task's payloads
    /// (kbit/s); the organizer derives the communication cost from it.
    pub link_kbps: f64,
    /// The provider's local reward (eq. 1) at the offered levels —
    /// diagnostic, not used for selection (selection is user-utility side).
    pub reward: f64,
}

/// Protocol messages. Delivery is zero-copy: engines emit messages into
/// [`Action`]s as `Arc<Msg>`, and every backend fans a broadcast out by
/// cloning the pointer — one payload allocation regardless of recipient
/// count. (`Clone` is kept for building fixtures and re-announcing tasks,
/// never used on a delivery path.)
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Step 1: organizer broadcasts service description + preferences.
    CallForProposals {
        /// Negotiation this CFP belongs to.
        nego: NegoId,
        /// Tasks being solicited (a reconfiguration round re-announces
        /// only the affected tasks).
        tasks: Vec<TaskAnnouncement>,
        /// Formation round: 0 for the initial CFP, >0 for reconfigurations.
        round: u32,
    },
    /// Step 2: a provider's multi-attribute proposals.
    Proposal {
        /// Negotiation.
        nego: NegoId,
        /// Proposing node.
        from: Pid,
        /// One entry per task the provider can serve.
        proposals: Vec<TaskProposal>,
    },
    /// Step 3: the organizer awards a task to the best proposal.
    Award {
        /// Negotiation.
        nego: NegoId,
        /// Task awarded.
        task: TaskId,
        /// Round the award was struck in; the winner echoes it so the
        /// organizer can discard answers to superseded awards (a
        /// partition can strand a round-`r` accept in flight while a
        /// re-announce has already moved the negotiation to round `r+1`).
        round: u32,
    },
    /// Winner confirms it committed its reservation.
    Accept {
        /// Negotiation.
        nego: NegoId,
        /// Task accepted.
        task: TaskId,
        /// Accepting node.
        from: Pid,
        /// Round of the award being answered.
        round: u32,
    },
    /// Winner could no longer honour the offer (e.g. holds expired).
    Decline {
        /// Negotiation.
        nego: NegoId,
        /// Task declined.
        task: TaskId,
        /// Declining node.
        from: Pid,
        /// Round of the award being answered.
        round: u32,
    },
    /// Operation phase: periodic liveness signal from a member.
    Heartbeat {
        /// Negotiation.
        nego: NegoId,
        /// Task the member executes.
        task: TaskId,
        /// Member node.
        from: Pid,
    },
    /// Dissolution: members release their committed resources.
    Release {
        /// Negotiation being dissolved.
        nego: NegoId,
    },
    /// Operation phase: the organizer renews its members' commit leases
    /// (only sent when lease renewal is enabled; see
    /// `OrganizerConfig::renew_leases`). Providers running with a commit
    /// TTL release commitments whose lease lapses — the backstop that
    /// frees capacity trapped behind a partition that never heals.
    LeaseRenew {
        /// Negotiation whose leases are renewed.
        nego: NegoId,
    },
}

impl Msg {
    /// Rough wire size, used by the latency model. Derived from the
    /// structural size of what a compact binary encoding would ship; the
    /// absolute constants only need to be consistent across experiments.
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            Msg::CallForProposals { tasks, .. } => {
                // Spec + request dominate; ~300 B per task announcement.
                64 + 300 * tasks.len() as u64
            }
            Msg::Proposal { proposals, .. } => 48 + 64 * proposals.len() as u64,
            Msg::Award { .. } => 36,
            Msg::Accept { .. } | Msg::Decline { .. } => 36,
            Msg::Heartbeat { .. } => 24,
            Msg::Release { .. } => 24,
            Msg::LeaseRenew { .. } => 24,
        }
    }
}

/// Timer kinds multiplexed over the transports' integer timer tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Organizer: stop collecting proposals and evaluate.
    ProposalDeadline,
    /// Organizer: winners that have not accepted are treated as declined.
    AwardDeadline,
    /// Organizer: check member heartbeats.
    HeartbeatCheck,
    /// Provider: send the next heartbeat.
    HeartbeatSend,
    /// Provider: garbage-collect expired tentative holds.
    HoldExpiry,
    /// Host bootstrap: start the next queued service at this node.
    Kickoff,
    /// Host request: dissolve the identified negotiation (organizer side).
    Dissolve,
    /// Organizer: backed-off re-announce of the still-open tasks fires
    /// (armed by the `TimeoutBackoff` strategy component after a round
    /// settles with open tasks).
    ReAnnounce,
    /// Provider: check committed-reservation leases and release the
    /// expired ones (armed while a commit TTL is configured).
    LeaseCheck,
}

impl TimerKind {
    const fn code(self) -> u64 {
        match self {
            TimerKind::ProposalDeadline => 0,
            TimerKind::AwardDeadline => 1,
            TimerKind::HeartbeatCheck => 2,
            TimerKind::HeartbeatSend => 3,
            TimerKind::HoldExpiry => 4,
            TimerKind::Kickoff => 5,
            TimerKind::Dissolve => 6,
            TimerKind::ReAnnounce => 7,
            TimerKind::LeaseCheck => 8,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        Some(match c {
            0 => TimerKind::ProposalDeadline,
            1 => TimerKind::AwardDeadline,
            2 => TimerKind::HeartbeatCheck,
            3 => TimerKind::HeartbeatSend,
            4 => TimerKind::HoldExpiry,
            5 => TimerKind::Kickoff,
            6 => TimerKind::Dissolve,
            7 => TimerKind::ReAnnounce,
            8 => TimerKind::LeaseCheck,
            _ => return None,
        })
    }
}

/// Encodes `(nego, kind)` into the transports' `u64` timer token:
/// organizer pid in bits 40.., sequence in bits 8..40, kind in bits 0..8.
/// Organizer pids must fit 24 bits (≤ 16M nodes — far beyond any run).
pub(crate) fn encode_timer(nego: NegoId, kind: TimerKind) -> u64 {
    debug_assert!(nego.organizer < (1 << 24));
    ((nego.organizer as u64) << 40) | ((nego.seq as u64) << 8) | kind.code()
}

/// Decodes an engine timer token; `None` when its low byte names no [`TimerKind`].
pub fn decode_timer(token: u64) -> Option<(NegoId, TimerKind)> {
    let kind = TimerKind::from_code(token & 0xFF)?;
    let seq = ((token >> 8) & 0xFFFF_FFFF) as u32;
    let organizer = (token >> 40) as u32;
    Some((NegoId { organizer, seq }, kind))
}

/// What an engine wants its transport to do.
///
/// Message-bearing actions hold their payload behind [`Arc`] so the
/// backends can route and fan it out without ever cloning the [`Msg`]
/// itself; construct them with [`Action::broadcast`] / [`Action::send`].
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// One-hop broadcast from this node.
    Broadcast(Arc<Msg>),
    /// Unicast to a peer.
    Send {
        /// Destination node.
        to: Pid,
        /// Payload.
        msg: Arc<Msg>,
    },
    /// Arm a one-shot timer at this node.
    Timer {
        /// Delay from now.
        delay: SimDuration,
        /// Encoded `(nego, kind)` token.
        token: u64,
    },
    /// Surface a negotiation event to the host (metrics, assertions).
    Event(crate::metrics::NegoEvent),
}

impl Action {
    /// Wraps `msg` for a one-hop broadcast (the payload's single
    /// allocation — every recipient shares it).
    pub fn broadcast(msg: Msg) -> Self {
        Action::Broadcast(Arc::new(msg))
    }

    /// Wraps `msg` for a unicast to `to`.
    pub fn send(to: Pid, msg: Msg) -> Self {
        Action::Send {
            to,
            msg: Arc::new(msg),
        }
    }

    /// The wire payload this action carries, if any.
    pub fn payload(&self) -> Option<&Msg> {
        match self {
            Action::Broadcast(msg) => Some(msg),
            Action::Send { msg, .. } => Some(msg),
            Action::Timer { .. } | Action::Event(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_token_roundtrip() {
        let nego = NegoId {
            organizer: 7,
            seq: 123_456,
        };
        for kind in [
            TimerKind::ProposalDeadline,
            TimerKind::AwardDeadline,
            TimerKind::HeartbeatCheck,
            TimerKind::HeartbeatSend,
            TimerKind::HoldExpiry,
            TimerKind::Kickoff,
            TimerKind::Dissolve,
            TimerKind::ReAnnounce,
            TimerKind::LeaseCheck,
        ] {
            let token = encode_timer(nego, kind);
            assert_eq!(decode_timer(token), Some((nego, kind)));
        }
    }

    #[test]
    fn timer_tokens_are_distinct_across_negotiations() {
        let a = encode_timer(
            NegoId {
                organizer: 1,
                seq: 0,
            },
            TimerKind::ProposalDeadline,
        );
        let b = encode_timer(
            NegoId {
                organizer: 2,
                seq: 0,
            },
            TimerKind::ProposalDeadline,
        );
        let c = encode_timer(
            NegoId {
                organizer: 1,
                seq: 1,
            },
            TimerKind::ProposalDeadline,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        assert_eq!(decode_timer(0xFE), None);
    }

    #[test]
    fn message_sizes_scale_with_content() {
        let nego = NegoId {
            organizer: 0,
            seq: 0,
        };
        let cfp1 = Msg::CallForProposals {
            nego,
            tasks: vec![announcement(0)],
            round: 0,
        };
        let cfp2 = Msg::CallForProposals {
            nego,
            tasks: vec![announcement(0), announcement(1)],
            round: 0,
        };
        assert!(cfp2.estimated_bytes() > cfp1.estimated_bytes());
        assert!(
            Msg::Heartbeat {
                nego,
                task: TaskId(0),
                from: 0
            }
            .estimated_bytes()
                < cfp1.estimated_bytes()
        );
    }

    fn announcement(i: u32) -> TaskAnnouncement {
        TaskAnnouncement {
            task: TaskId(i),
            spec: qosc_spec::catalog::av_spec(),
            request: qosc_spec::catalog::surveillance_request(),
            input_bytes: 1000,
            output_bytes: 100,
        }
    }
}
