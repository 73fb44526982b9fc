//! The Direct backend: a zero-latency in-memory FIFO + timer wheel.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use qosc_netsim::{FaultPlan, FaultSampler, NetStats, PartitionPlan, PartitionTimeline, SimTime};
use qosc_spec::ServiceDef;

use super::host::Host;
use super::NodeEngine as _;
use super::{dissolve_token, kickoff_token, CoalitionNode, LoggedEvent, Runtime, RuntimeError};
use crate::protocol::{Action, Msg, NegoId, Pid};

enum DirectKind {
    Deliver {
        from: Pid,
        to: Pid,
        /// Shared payload: a broadcast's deliveries all point at one
        /// allocation.
        msg: Arc<Msg>,
    },
    /// Stands in the queue for every CFP delivery filed under
    /// `(event.at, to)` in [`DirectRuntime::cfp_batches`], at the position
    /// of the first one filed.
    CfpBatch {
        to: Pid,
    },
    Timer {
        node: Pid,
        token: u64,
    },
}

/// The `(sender, payload)` deliveries of one coalesced CFP batch.
type CfpMembers = Vec<(Pid, Arc<Msg>)>;

struct DirectEvent {
    at: SimTime,
    seq: u64,
    kind: DirectKind,
}

impl PartialEq for DirectEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DirectEvent {}
impl PartialOrd for DirectEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DirectEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// [`Runtime`] backend with no network at all: messages are delivered at
/// their send timestamp (FIFO among simultaneous events), timers drive the
/// clock, every node hears every broadcast.
///
/// This is the fast path for tests, property checks and benches — and the
/// reference semantics for the DES at zero latency: for fully connected,
/// static, lossless scenarios the two produce identical event logs (the
/// `runtime_equivalence` system test pins this).
#[derive(Default)]
pub struct DirectRuntime {
    host: Host,
    heap: BinaryHeap<DirectEvent>,
    seq: u64,
    now: SimTime,
    started: bool,
    /// Messages sent, faults injected and deliveries cut so far (the
    /// delivery-side counters stay zero: there is no medium to lose in).
    stats: NetStats,
    /// Reused broadcast fan-out buffer (the same per-delivery allocation
    /// `Simulator` avoids with its scratch vec).
    bcast_scratch: Vec<Pid>,
    /// Installed when a [`FaultPlan`] with sampling content is set;
    /// `None` keeps the no-fault path allocation- and RNG-free.
    fault: Option<FaultSampler>,
    /// Partition schedule as installed; expanded against the registered
    /// node set on the first `run` (sampled plans bisect `0..node_count`,
    /// so expansion must wait until every node is known).
    partition_plan: Option<PartitionPlan>,
    /// Expanded schedule consulted per delivery; `None` = never cuts.
    partition: Option<PartitionTimeline>,
    /// Coalesce same-instant CFP deliveries per target node (see
    /// [`DirectRuntime::set_cfp_batching`]).
    cfp_batching: bool,
    /// CFP deliveries coalesced at enqueue time, in send order, keyed by
    /// `(arrival instant, target)`; each entry has exactly one
    /// [`DirectKind::CfpBatch`] marker in the heap. Looked up by key only,
    /// never iterated, so the hash order cannot leak into a run.
    cfp_batches: HashMap<(SimTime, Pid), CfpMembers>,
}

impl DirectRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enables (or disables) coalescing of same-instant CFP deliveries to
    /// one node into a single queue event — the open-loop load path: when
    /// many negotiations kick off in the same instant, every provider
    /// hears all their CFPs back-to-back, and batching makes them one
    /// event instead of one per negotiation.
    ///
    /// Coalescing happens when a delivery is enqueued: the first CFP for
    /// an `(arrival instant, node)` pair takes a place in the event queue
    /// and later ones are filed behind it, so a batch fires at the queue
    /// position of its earliest member and holds every CFP to that node
    /// and instant sent before it fires; CFPs sent after that start a new
    /// batch. Fault draws and the partition cut check still happen per
    /// delivery, and [`Runtime::run`] counts every coalesced delivery.
    ///
    /// Off by default. Batching preserves each node's own delivery order
    /// but regroups same-timestamp deliveries across nodes, so the
    /// event-for-event `runtime_equivalence` pin only applies with
    /// batching off.
    ///
    /// The switch governs deliveries enqueued from now on. Mid-run,
    /// batches already filed are still delivered as batches after
    /// switching off, and CFP deliveries queued before switching on are
    /// delivered one by one; neither joins the other.
    pub fn set_cfp_batching(&mut self, on: bool) {
        self.cfp_batching = on;
    }

    fn push(&mut self, at: SimTime, kind: DirectKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(DirectEvent { at, seq, kind });
    }

    /// Queues one delivery (already past the fault draws and the cut
    /// check) for `when`. With batching on, a CFP joins the batch filed
    /// for its `(when, to)`, or opens one and queues its marker.
    fn push_delivery(&mut self, when: SimTime, from: Pid, to: Pid, msg: &Arc<Msg>) {
        let msg = Arc::clone(msg);
        if self.cfp_batching && matches!(&*msg, Msg::CallForProposals { .. }) {
            match self.cfp_batches.entry((when, to)) {
                Entry::Occupied(mut batch) => batch.get_mut().push((from, msg)),
                Entry::Vacant(slot) => {
                    slot.insert(vec![(from, msg)]);
                    self.push(when, DirectKind::CfpBatch { to });
                }
            }
        } else {
            self.push(when, DirectKind::Deliver { from, to, msg });
        }
    }

    /// Sends one copy of `msg` from `from` to `to`: the fault draws
    /// first, then the partition cut on each surviving copy's arrival
    /// timestamp — the same discipline as the DES `Medium`, so RNG
    /// streams stay aligned.
    fn send(&mut self, from: Pid, to: Pid, msg: &Arc<Msg>) {
        let times = match self.fault.as_mut() {
            Some(f) => f.delivery_times(self.now, &mut self.stats),
            None => [Some(self.now), None],
        };
        for when in times.into_iter().flatten() {
            let cut = self
                .partition
                .as_ref()
                .is_some_and(|tl| tl.cuts_at(when, from, to));
            if cut {
                self.stats.partition_cuts += 1;
            } else {
                self.push_delivery(when, from, to, msg);
            }
        }
    }

    pub(super) fn apply(&mut self, at: Pid, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    self.stats.broadcasts_sent += 1;
                    // Ascending-pid fan-out mirrors the DES's node order;
                    // each delivery clones the Arc, never the payload.
                    let mut targets = std::mem::take(&mut self.bcast_scratch);
                    targets.clear();
                    targets.extend(self.host.nodes.keys().copied().filter(|p| *p != at));
                    for &to in &targets {
                        self.send(at, to, &msg);
                    }
                    self.bcast_scratch = targets;
                }
                Action::Send { to, msg } => {
                    self.stats.unicasts_sent += 1;
                    if self.host.nodes.contains_key(&to) {
                        self.send(at, to, &msg);
                    }
                }
                Action::Timer { delay, token } => {
                    self.push(self.now + delay, DirectKind::Timer { node: at, token });
                }
                Action::Event(event) => self.host.log(self.now, at, event),
            }
        }
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if let Some(plan) = self.partition_plan.take() {
            let last = self.host.nodes.keys().next_back();
            let tl = plan.expand(last.map_or(0, |p| *p as usize + 1));
            self.partition = (!tl.is_empty()).then_some(tl);
        }
        for (pid, actions) in self.host.start(self.now) {
            self.apply(pid, actions);
        }
    }
}

impl Runtime for DirectRuntime {
    fn backend_name(&self) -> &'static str {
        "direct"
    }

    fn add_node(&mut self, node: CoalitionNode) -> Result<(), RuntimeError> {
        self.host.add_node(node, None)
    }

    fn submit(&mut self, node: Pid, service: ServiceDef, at: SimTime) -> Result<(), RuntimeError> {
        let at = at.max(self.now);
        self.host.queue_service(node, service, at)?;
        let token = kickoff_token(node);
        self.push(at, DirectKind::Timer { node, token });
        Ok(())
    }

    fn schedule_dissolve(&mut self, nego: NegoId, at: SimTime) -> Result<(), RuntimeError> {
        let node = nego.organizer;
        self.host.known(node)?;
        let token = dissolve_token(nego);
        self.push(at.max(self.now), DirectKind::Timer { node, token });
        Ok(())
    }

    fn run(&mut self, deadline: SimTime) -> u64 {
        self.start_nodes();
        let mut n = 0;
        while let Some(head) = self.heap.peek() {
            if head.at > deadline {
                self.now = deadline;
                break;
            }
            let ev = self.heap.pop().expect("peeked");
            self.now = ev.at;
            // `n` counts deliveries and timers, not queue entries: a batch
            // marker stands for every CFP filed behind it.
            let (at, actions) = match ev.kind {
                DirectKind::Deliver { from, to, msg } => {
                    n += 1;
                    (to, self.host.message(ev.at, to, from, &msg))
                }
                DirectKind::CfpBatch { to } => {
                    let batch = self.cfp_batches.remove(&(ev.at, to)).unwrap_or_default();
                    n += batch.len() as u64;
                    // One lookup per batch, then each member in filing order.
                    let actions = match self.host.nodes.get_mut(&to) {
                        Some(node) => batch
                            .iter()
                            .flat_map(|(from, msg)| node.on_message(ev.at, *from, msg))
                            .collect(),
                        None => Vec::new(),
                    };
                    (to, actions)
                }
                DirectKind::Timer { node, token } => {
                    let Some(actions) = self.host.timer(ev.at, node, token) else {
                        continue;
                    };
                    n += 1;
                    (node, actions)
                }
            };
            self.apply(at, actions);
        }
        n
    }

    fn events(&self) -> &[LoggedEvent] {
        &self.host.events
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) -> bool {
        self.fault = plan.samples_anything().then(|| FaultSampler::new(plan));
        true
    }

    fn set_partition_plan(&mut self, plan: &PartitionPlan) -> bool {
        self.partition_plan = (!plan.is_none()).then(|| plan.clone());
        true
    }

    fn messages_sent(&self) -> u64 {
        self.stats.messages_sent()
    }

    fn node(&self, id: Pid) -> Option<&CoalitionNode> {
        self.host.nodes.get(&id)
    }
}

/// Queue inspection for the batching unit tests.
#[cfg(test)]
impl DirectRuntime {
    /// `(batch markers, plain deliveries)` waiting in the queue.
    pub(super) fn queued_cfps(&self) -> (usize, usize) {
        let kinds = || self.heap.iter().map(|e| &e.kind);
        (
            kinds()
                .filter(|k| matches!(k, DirectKind::CfpBatch { .. }))
                .count(),
            kinds()
                .filter(|k| matches!(k, DirectKind::Deliver { .. }))
                .count(),
        )
    }

    /// Senders filed in the batch for `(at, to)`, in filing order.
    pub(super) fn batch_senders(&self, at: SimTime, to: Pid) -> Vec<Pid> {
        self.cfp_batches[&(at, to)]
            .iter()
            .map(|(from, _)| *from)
            .collect()
    }

    /// True when neither a queue entry nor a filed batch is left.
    pub(super) fn is_drained(&self) -> bool {
        self.cfp_batches.is_empty() && self.heap.is_empty()
    }
}
