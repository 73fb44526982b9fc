//! Counterexample traces: schedules the explorer found and how to read
//! (and re-run) them.
//!
//! A [`TraceStep`] names one transition of the interleaving graph in
//! replayable terms: messages are identified by content (sender,
//! receiver, payload), not by internal queue ids, so a schedule can be
//! re-executed against a fresh initial state with
//! [`ModelCheckedRuntime::replay`](crate::ModelCheckedRuntime::replay)
//! and must deterministically reproduce the same violation.

use std::sync::Arc;

use qosc_core::{decode_timer, Msg, Pid};
use qosc_netsim::SimTime;

use crate::invariants::Violation;

/// One transition of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// `msg` travelled from `from` to `to` and was handled.
    Deliver {
        /// Sender node.
        from: Pid,
        /// Receiver node.
        to: Pid,
        /// The payload.
        msg: Arc<Msg>,
    },
    /// The fault layer discarded this copy of `msg`.
    Drop {
        /// Sender node.
        from: Pid,
        /// Intended receiver.
        to: Pid,
        /// The payload.
        msg: Arc<Msg>,
    },
    /// `msg` was delivered AND a second copy stayed in flight.
    Duplicate {
        /// Sender node.
        from: Pid,
        /// Receiver node.
        to: Pid,
        /// The payload.
        msg: Arc<Msg>,
    },
    /// `node`'s earliest pending timer fired, advancing its clock.
    Fire {
        /// The node whose timer fired.
        node: Pid,
        /// The deadline the clock advanced to.
        fire_at: SimTime,
        /// The raw timer token (decode with [`qosc_core::decode_timer`]).
        token: u64,
    },
    /// `node`'s provider process crash-restarted: tentative holds and
    /// armed timers lost, committed grants retained.
    Crash {
        /// The crashed node.
        node: Pid,
    },
    /// The network split in two: nodes whose bit in `mask` differs can
    /// no longer exchange messages until a [`TraceStep::Heal`].
    Partition {
        /// Bit `i` set ⇔ the node of rank `i` in id order (the `i`-th
        /// smallest pid, so node `i` itself when pids are `0..n`) is in
        /// the second group. Ranks, not raw pids: a pid ≥ 64 has no bit.
        mask: u64,
    },
    /// The partition healed: all links restored, blocked in-flight
    /// messages become deliverable again.
    Heal,
}

/// Compact single-line rendering of a message for trace output (the full
/// `Debug` form of a CFP embeds whole QoS specs — far too loud).
pub(crate) fn summarize(msg: &Msg) -> String {
    match msg {
        Msg::CallForProposals { nego, tasks, round } => {
            format!(
                "CallForProposals {nego} round {round} ({} task(s))",
                tasks.len()
            )
        }
        Msg::Proposal {
            nego,
            from,
            proposals,
        } => format!("Proposal {nego} from {from} ({} offer(s))", proposals.len()),
        Msg::Award { nego, task, round } => format!("Award {nego} {task:?} round {round}"),
        Msg::Accept {
            nego,
            task,
            from,
            round,
        } => format!("Accept {nego} {task:?} round {round} from {from}"),
        Msg::Decline {
            nego,
            task,
            from,
            round,
        } => format!("Decline {nego} {task:?} round {round} from {from}"),
        Msg::Heartbeat { nego, task, from } => {
            format!("Heartbeat {nego} {task:?} from {from}")
        }
        Msg::Release { nego } => format!("Release {nego}"),
        Msg::LeaseRenew { nego } => format!("LeaseRenew {nego}"),
    }
}

impl std::fmt::Display for TraceStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStep::Deliver { from, to, msg } => {
                write!(f, "deliver   {from}→{to}  {}", summarize(msg))
            }
            TraceStep::Drop { from, to, msg } => {
                write!(f, "drop      {from}→{to}  {}", summarize(msg))
            }
            TraceStep::Duplicate { from, to, msg } => {
                write!(f, "duplicate {from}→{to}  {}", summarize(msg))
            }
            TraceStep::Fire {
                node,
                fire_at,
                token,
            } => match decode_timer(*token) {
                Some((nego, kind)) => {
                    write!(f, "timer     n{node}    {kind:?} {nego} @{}µs", fire_at.0)
                }
                None => write!(f, "timer     n{node}    token {token:#x} @{}µs", fire_at.0),
            },
            TraceStep::Crash { node } => write!(f, "crash     n{node}    provider restart"),
            TraceStep::Partition { mask } => {
                write!(f, "partition       groups split by mask {mask:#b}")
            }
            TraceStep::Heal => write!(f, "heal            all links restored"),
        }
    }
}

/// A violating schedule: the invariant that failed, the exact event
/// order that reached the bad state, and exploration statistics.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What failed.
    pub violation: Violation,
    /// The schedule from the initial state to the violating state.
    pub schedule: Vec<TraceStep>,
    /// Transitions applied before the violation surfaced.
    pub states_explored: u64,
}

impl Counterexample {
    /// Renders the counterexample as a numbered, replayable event log.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} (after {} step(s), {} state(s) explored)",
            self.violation,
            self.schedule.len(),
            self.states_explored
        );
        let _ = writeln!(out, "schedule:");
        for (i, step) in self.schedule.iter().enumerate() {
            let _ = writeln!(out, "  {:>3}. {step}", i + 1);
        }
        let _ = write!(
            out,
            "replay: ModelCheckedRuntime::replay(&counterexample.schedule)"
        );
        out
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}
