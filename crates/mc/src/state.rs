//! The explorer's system state and its transition function.
//!
//! A [`McState`] is one vertex of the interleaving graph: the engines of
//! every node, one virtual clock per node, the multiset of in-flight
//! messages, the per-node pending-timer queues, and the fault budgets
//! spent so far. Transitions ([`Choice`]) are exactly the events a real
//! backend would process — deliver a message, fire a node's next timer —
//! plus the fault branches a [`FaultPlan`] licenses: drop or duplicate a
//! delivery, crash-restart a provider node, or split the network into
//! two groups (and heal it again).
//!
//! Partitions are modelled as *blocking*, not dropping: a message whose
//! endpoints sit on opposite sides of the active cut simply is not
//! deliverable (nor droppable nor duplicable) until a heal — it stays in
//! flight, exactly like a frame parked in a radio's retransmit queue.
//! Because a heal transition is always enabled while partitioned, a
//! partitioned state is never quiescent, which keeps the liveness
//! invariant honest: quiescence implies the network healed and every
//! blocked message had its delivery explored.
//!
//! Two modelling decisions keep the graph finite and honest:
//!
//! * **Clocks advance only on timers.** Message delivery is asynchronous
//!   and unordered, so a delivery happens "now" at the receiver; only a
//!   timer firing moves a node's clock (to the timer's deadline). Every
//!   ordering of deliveries relative to deadlines is therefore explored,
//!   which subsumes message reordering — the explorer needs no reorder
//!   budget.
//! * **Per-node timers fire in deadline order.** A node's own timers
//!   share one local clock, so the earliest-armed deadline is the only
//!   enabled timer event for that node; timers of *different* nodes
//!   interleave freely.
//!
//! Two representation decisions keep a million-state search affordable,
//! both resting on the one assumption the dedup set already makes
//! (`qosc_core::snapshot`: equal digest ⇒ identical future behaviour):
//!
//! * **Node states are interned, node transitions memoized.** A walk
//!   reaches millions of system states but only a few hundred distinct
//!   *node* states, so every engine call goes through
//!   [`McState::step_node`], which in a walk consults a [`NodeTable`]:
//!   one shared [`Arc`] per distinct node digest, and one stored
//!   [`Transition`] — successor, its digest, the messages and timers it
//!   emitted with the [`ActionTap`] applied and every payload digested —
//!   per `(node digest, local clock, stimulus)`. A hit is two field
//!   writes and a replay of the stored effects; only a miss clones a
//!   node, runs a callback and digests the result. Nothing about the
//!   *system* state is cached: every successor is still digested,
//!   deduplicated and put through every invariant.
//! * **A state is three flat vectors.** Nodes with their cached digest
//!   and clock sit in one id-ordered `Vec`, timers in one `Vec` ordered
//!   by `(node, deadline, arming order)`, in-flight messages in arrival
//!   order, so the clone every transition starts with is three `memcpy`s
//!   and a handful of refcount bumps. Its digest is a [`WordHasher`]
//!   pass over a few dozen words: one multiply per word.
//!
//! A [`Choice`] names its transition by content — a message by sender,
//! receiver and payload digest, a timer or crash by node, a cut by its
//! mask — so the same choice is recognisable in every state that enables
//! it, however the in-flight list has shifted. That is what the walk's
//! sleep sets compare, under [`Choice::independent`]: a conservative
//! relation (choices on different nodes, messages and fault budgets,
//! neither touching the cut) that the tests check against the real
//! engines, state by state, on a faulted crash-restarting round.
//!
//! An interned node also carries the fields no digest covers (metrics,
//! formulator caches, raw hold ids) as left by whichever path reached
//! that state first. They cannot change behaviour, but a caller can read
//! them, so everything a caller reads — `replay`, the root state and the
//! reference path behind `Runtime::{events, node, messages_sent}` — is
//! stepped [`Stepper::Plain`]: same `step_node`, no table, every
//! callback run on the path's own nodes.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use qosc_core::runtime::NodeEngine;
use qosc_core::snapshot::digest_of;
use qosc_core::{decode_timer, Action, CoalitionNode, LoggedEvent, Msg, Pid};
use qosc_netsim::{FaultPlan, SimDuration, SimTime};

use crate::trace::TraceStep;

/// The explorer's own hasher: one folded 64×64→128-bit multiply per
/// word, finished with murmur3's `fmix64`. Everything it hashes is
/// already a handful of 64-bit words (digests, pids, clocks), so it
/// costs a multiply where byte-wise FNV-1a costs eight. Its values never
/// leave one process — the dedup set, the node table and the verdict
/// memo all live and die inside one walk — so unlike
/// `qosc_core::snapshot::StableHasher` it carries no stability promise.
#[derive(Clone, Copy)]
pub(crate) struct WordHasher(u64);

/// The hasher for maps keyed by the explorer's own words.
pub(crate) type WordBuild = BuildHasherDefault<WordHasher>;

impl Default for WordHasher {
    fn default() -> Self {
        Self(0x243f_6a88_85a3_08d3) // the first 64 fraction bits of π
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut tail = [0; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        // The length keeps a short tail distinct from its zero padding.
        self.write_u64(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    fn write_u64(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(0x9e37_79b9_7f4a_7c15u64);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hook applied to every action batch an engine emits, before the batch
/// is executed. Exists for mutation self-tests: a tap that rewrites a
/// `Decline` into an `Accept` plants a protocol bug the checker must then
/// catch with a counterexample.
pub type ActionTap = Arc<dyn Fn(Pid, &mut Vec<Action>)>;

/// One undelivered message. `digest` is computed once, when the engine
/// call that sent it is first executed: it keys state hashing, the memo
/// and the canonical-choice dedup (two identical in-flight copies yield
/// one delivery branch, not two).
#[derive(Clone)]
pub(crate) struct InFlight {
    pub from: Pid,
    pub to: Pid,
    pub msg: Arc<Msg>,
    pub digest: u64,
}

impl InFlight {
    pub(crate) fn key(&self) -> MsgKey {
        MsgKey {
            from: self.from,
            to: self.to,
            digest: self.digest,
        }
    }
}

/// One armed timer. `seq` breaks deadline ties in arming order, exactly
/// like the DES and Direct backends' `(time, sequence)` total order.
#[derive(Clone, Copy)]
pub(crate) struct PendingTimer {
    pub node: Pid,
    pub fire_at: SimTime,
    pub seq: u64,
    pub token: u64,
}

/// A message named by content: sender, receiver and payload digest.
/// Identical copies in flight share one key, and a key names the same
/// message in every state that holds it, however the in-flight list
/// has shifted around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MsgKey {
    pub from: Pid,
    pub to: Pid,
    pub digest: u64,
}

/// One enabled transition out of a state, named by content so that the
/// same choice can be recognised in a sibling or descendant state (the
/// sleep sets of the walk compare choices across states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Choice {
    Deliver(MsgKey),
    Drop(MsgKey),
    Duplicate(MsgKey),
    Fire(Pid),
    Crash(Pid),
    /// Split the network: bit `i` of the mask names the side of the node
    /// of rank `i` in id order.
    Partition(u64),
    /// Restore all links.
    Heal,
}

impl Choice {
    /// The in-flight message this choice consumes, if any.
    fn message(self) -> Option<MsgKey> {
        match self {
            Choice::Deliver(m) | Choice::Drop(m) | Choice::Duplicate(m) => Some(m),
            _ => None,
        }
    }

    /// The node whose engine this choice steps (a drop steps none).
    fn stepped(self) -> Option<Pid> {
        match self {
            Choice::Deliver(m) | Choice::Duplicate(m) => Some(m.to),
            Choice::Fire(pid) | Choice::Crash(pid) => Some(pid),
            _ => None,
        }
    }

    /// Conservative independence: `true` only when, from any state where
    /// both are enabled, each stays enabled after the other and both
    /// orders reach the same state. Choices that cut or heal the network
    /// change what every delivery may do; two choices that consume the
    /// same message, step the same engine or spend the same fault budget
    /// can disable or reorder each other. Anything else touches disjoint
    /// parts of the state: different nodes (with their own clocks and
    /// timer queues), different in-flight messages, and additions to a
    /// multiset whose order the digest does not see.
    pub(crate) fn independent(self, other: Choice) -> bool {
        fn same<T: PartialEq>(a: Option<T>, b: Option<T>) -> bool {
            a.is_some() && a == b
        }
        let global = |c| matches!(c, Choice::Partition(_) | Choice::Heal);
        let budget = |c| match c {
            Choice::Drop(_) => Some(0),
            Choice::Duplicate(_) => Some(1),
            Choice::Crash(_) => Some(2),
            _ => None,
        };
        !(global(self)
            || global(other)
            || same(self.message(), other.message())
            || same(self.stepped(), other.stepped())
            || same(budget(self), budget(other)))
    }
}

/// What a plainly stepped path produced besides the state change: the
/// engine-reported events and how many messages hit the transport.
/// History cannot influence behaviour, so the walk itself keeps none.
#[derive(Default)]
pub(crate) struct StepLog {
    pub events: Vec<LoggedEvent>,
    pub sent: u64,
}

/// What an engine call is a response to; with the node's digest and
/// local clock, everything its outcome depends on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Stimulus {
    Start,
    Message { from: Pid, digest: u64 },
    Timer { token: u64 },
    Crash,
}

/// The outcome of one engine call: the node it leaves behind and what it
/// asks of the transport, broadcasts expanded and inert sends elided.
struct Transition {
    node: Arc<CoalitionNode>,
    digest: u64,
    sends: Vec<InFlight>,
    timers: Vec<(SimDuration, u64)>,
}

/// One walk's node states and node transitions (see the module docs).
/// Lives and dies inside one exploration, so a tap or scenario change
/// between two checks can never meet the other's entries.
#[derive(Default)]
pub(crate) struct NodeTable {
    nodes: HashMap<u64, Arc<CoalitionNode>, WordBuild>,
    memo: HashMap<(u64, SimTime, Stimulus), Transition, WordBuild>,
}

impl NodeTable {
    /// Distinct node states interned (successors only: the root's nodes
    /// are stepped before the walk starts).
    pub(crate) fn node_states(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Engine callbacks actually executed, i.e. memo misses.
    pub(crate) fn engine_calls(&self) -> u64 {
        self.memo.len() as u64
    }
}

/// How [`McState::step_node`] obtains a transition.
pub(crate) enum Stepper<'a> {
    /// The exhaustive walk: look the transition up, compute on a miss.
    Walk(&'a mut NodeTable),
    /// Root, replay and reference path: run every callback, keep history.
    Plain(&'a mut StepLog),
}

/// One node of a state: the shared engines, their cached digest, and
/// the node's virtual clock.
#[derive(Clone)]
struct Slot {
    pid: Pid,
    node: Arc<CoalitionNode>,
    digest: u64,
    clock: SimTime,
}

/// One vertex of the interleaving graph.
#[derive(Clone, Default)]
pub(crate) struct McState {
    /// Ordered by `pid`; a node's index here is its *rank*.
    slots: Vec<Slot>,
    /// In arrival order, which fixes the order [`McState::enabled`]
    /// lists choices in; the digest hashes them as a multiset.
    in_flight: Vec<InFlight>,
    /// Ordered by `(node, fire_at, seq)`: each node's firing order.
    timers: Vec<PendingTimer>,
    drops_used: u32,
    duplicates_used: u32,
    crashes_used: u32,
    /// Active cut, if any: bit `i` names the side of the node of rank
    /// `i`. `None` when the network is whole.
    partition: Option<u64>,
    partitions_used: u32,
    next_timer_seq: u64,
}

/// A message `node` provably ignores: routing in
/// `CoalitionNode::on_message` is static by message kind (CFP / Award /
/// Release / LeaseRenew go to the provider engine, the rest to the
/// organizer), so a message addressed to a node without the matching
/// engine is a no-op on every schedule. Eliding it at send time removes
/// an interleaving dimension — every reachable engine state is
/// unchanged, but e.g. a CFP broadcast no longer parks a dead letter at
/// each organizer-only node, doubling the frontier until it drains.
fn is_inert(node: &CoalitionNode, msg: &Msg) -> bool {
    match msg {
        Msg::CallForProposals { .. }
        | Msg::Award { .. }
        | Msg::Release { .. }
        | Msg::LeaseRenew { .. } => node.provider().is_none(),
        Msg::Proposal { .. } | Msg::Accept { .. } | Msg::Decline { .. } | Msg::Heartbeat { .. } => {
            node.organizer().is_none()
        }
    }
}

impl McState {
    /// True while a partition choice is in effect (cleared by heal).
    pub(crate) fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    fn rank(&self, pid: Pid) -> Option<usize> {
        self.slots.binary_search_by_key(&pid, |s| s.pid).ok()
    }

    /// True iff the active cut (if any) separates `a` from `b`.
    fn cuts(&self, a: Pid, b: Pid) -> bool {
        let side = |m: u64, pid| self.rank(pid).map(|rank| (m >> rank) & 1);
        self.partition.is_some_and(|m| side(m, a) != side(m, b))
    }

    pub(crate) fn insert_node(&mut self, node: CoalitionNode) {
        let pid = NodeEngine::id(&node);
        let rank = self.slots.partition_point(|s| s.pid < pid);
        let slot = Slot {
            pid,
            digest: digest_of(&node),
            node: Arc::new(node),
            clock: SimTime::ZERO,
        };
        self.slots.insert(rank, slot);
    }

    pub(crate) fn node_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn node(&self, pid: Pid) -> Option<&CoalitionNode> {
        self.rank(pid).map(|rank| &*self.slots[rank].node)
    }

    pub(crate) fn nodes(&self) -> impl Iterator<Item = &CoalitionNode> {
        self.slots.iter().map(|s| &*s.node)
    }

    pub(crate) fn node_ids(&self) -> Vec<Pid> {
        self.slots.iter().map(|s| s.pid).collect()
    }

    /// Mutates one node in place and refreshes its cached digest.
    /// Scenario set-up only: once exploration starts, engines change
    /// through [`McState::step_node`] alone.
    pub(crate) fn with_node_mut<R>(
        &mut self,
        pid: Pid,
        f: impl FnOnce(&mut CoalitionNode) -> R,
    ) -> Option<R> {
        let rank = self.rank(pid)?;
        let slot = &mut self.slots[rank];
        let out = f(Arc::make_mut(&mut slot.node));
        slot.digest = digest_of(&*slot.node);
        Some(out)
    }

    /// Arms a timer on `node` at absolute deadline `fire_at` (used for
    /// kickoff and dissolve scheduling before exploration starts).
    pub(crate) fn arm_timer_at(&mut self, node: Pid, fire_at: SimTime, token: u64) {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        let idx = self
            .timers
            .partition_point(|q| (q.node, q.fire_at, q.seq) <= (node, fire_at, seq));
        let timer = PendingTimer {
            node,
            fire_at,
            seq,
            token,
        };
        self.timers.insert(idx, timer);
    }

    /// No messages to deliver and no timers to fire: the protocol can
    /// make no further progress on its own. A partitioned state is never
    /// quiescent — a heal transition is always enabled, and declaring
    /// quiescence mid-partition would let the liveness invariant judge
    /// negotiations whose messages are merely blocked, not lost.
    pub(crate) fn quiescent(&self) -> bool {
        self.partition.is_none() && self.in_flight.is_empty() && self.timers.is_empty()
    }

    /// Canonical 64-bit digest for the dedup set. Node digests come from
    /// the per-node cache; the in-flight list is hashed as a sorted
    /// multiset (arrival order of undelivered messages is not
    /// observable); each node's timer queue is hashed in firing order;
    /// history lives outside the state entirely (it does not constrain
    /// future behaviour).
    pub(crate) fn digest(&self) -> u64 {
        let mut h = WordHasher::default();
        h.write_usize(self.slots.len());
        for slot in &self.slots {
            h.write_u64(slot.pid as u64);
            h.write_u64(slot.digest);
        }
        for slot in &self.slots {
            h.write_u64(slot.pid as u64);
            h.write_u64(slot.clock.0);
        }
        // Sorted on the stack: a round rarely has more than a handful of
        // messages in flight at once.
        let (mut stack, mut heap) = ([(0, 0, 0); 16], Vec::new());
        let msgs: &mut [(Pid, Pid, u64)] = match stack.get_mut(..self.in_flight.len()) {
            Some(buf) => buf,
            None => {
                heap.resize(self.in_flight.len(), (0, 0, 0));
                &mut heap
            }
        };
        for (key, m) in msgs.iter_mut().zip(&self.in_flight) {
            *key = (m.from, m.to, m.digest);
        }
        msgs.sort_unstable();
        h.write_usize(msgs.len());
        for (from, to, d) in msgs {
            h.write_u64(*from as u64);
            h.write_u64(*to as u64);
            h.write_u64(*d);
        }
        for queue in self.timers.chunk_by(|a, b| a.node == b.node) {
            h.write_u64(queue[0].node as u64);
            h.write_usize(queue.len());
            for t in queue {
                h.write_u64(t.fire_at.0);
                h.write_u64(t.token);
            }
        }
        h.write_u32(self.drops_used);
        h.write_u32(self.duplicates_used);
        h.write_u32(self.crashes_used);
        // Valid cut masks are nonzero (both groups nonempty), so 0 is a
        // safe encoding for "no partition".
        h.write_u64(self.partition.unwrap_or(0));
        h.write_u32(self.partitions_used);
        h.finish()
    }

    /// Writes everything a `SystemView` of this state exposes into `key`
    /// as words: each node's pid and digest in id order, then the
    /// quiescent and partitioned flags. Equal keys mean equal verdicts
    /// from any invariant that is a function of its view.
    pub(crate) fn view_key(&self, quiescent: bool, key: &mut Vec<u64>) {
        key.clear();
        for slot in &self.slots {
            key.extend([u64::from(slot.pid), slot.digest]);
        }
        key.push(u64::from(quiescent) | (u64::from(self.partitioned()) << 1));
    }

    /// Enumerates every transition enabled in this state under `plan`'s
    /// remaining fault budgets. Deterministic: iteration follows the
    /// in-flight list and the node id order.
    pub(crate) fn enabled(&self, plan: &FaultPlan) -> Vec<Choice> {
        let mut choices = Vec::with_capacity(3 * self.in_flight.len() + self.slots.len() + 1);
        for (i, m) in self.in_flight.iter().enumerate() {
            if self.cuts(m.from, m.to) {
                continue; // blocked behind the cut until a heal
            }
            let key = m.key();
            if self.in_flight[..i].iter().any(|e| e.key() == key) {
                continue; // identical copy: same successor states
            }
            choices.push(Choice::Deliver(key));
            if self.drops_used < plan.max_drops {
                choices.push(Choice::Drop(key));
            }
            if self.duplicates_used < plan.max_duplicates {
                choices.push(Choice::Duplicate(key));
            }
        }
        for queue in self.timers.chunk_by(|a, b| a.node == b.node) {
            choices.push(Choice::Fire(queue[0].node));
        }
        if self.crashes_used < plan.max_crash_restarts {
            for slot in &self.slots {
                // Crash-restart models a provider process bounce; nodes
                // hosting an organizer are out of scope (the engine has no
                // organizer recovery story to model).
                if slot.node.organizer().is_none() && slot.node.provider().is_some() {
                    choices.push(Choice::Crash(slot.pid));
                }
            }
        }
        match self.partition {
            Some(_) => choices.push(Choice::Heal),
            None if self.partitions_used < plan.max_partitions && self.slots.len() >= 2 => {
                // Every canonical bisection: the lowest pid (rank 0) is
                // pinned to group 0 (bit unset), the remaining ranks
                // enumerate both sides, and `sel` starting at 1 keeps
                // group 1 nonempty — so each unordered {A, B} split
                // appears exactly once.
                for sel in 1..(1u64 << (self.slots.len() - 1)) {
                    choices.push(Choice::Partition(sel << 1));
                }
            }
            None => {}
        }
        choices
    }

    /// Applies one transition in place and returns the trace step that
    /// describes it. Choices must come from [`McState::enabled`] on this
    /// exact state.
    pub(crate) fn apply(
        &mut self,
        choice: Choice,
        tap: Option<&ActionTap>,
        stepper: &mut Stepper<'_>,
    ) -> TraceStep {
        match choice {
            Choice::Deliver(key) => {
                let m = self.take(key);
                self.deliver(&m, tap, stepper);
                TraceStep::Deliver {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Drop(key) => {
                let m = self.take(key);
                self.drops_used += 1;
                TraceStep::Drop {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Duplicate(key) => {
                // Deliver one copy now, leave a second in flight: the
                // duplicate's own delivery point is explored on later
                // transitions, covering "duplicate arrives late" too.
                let m = self.take(key);
                self.duplicates_used += 1;
                self.in_flight.push(m.clone());
                self.deliver(&m, tap, stepper);
                TraceStep::Duplicate {
                    from: m.from,
                    to: m.to,
                    msg: m.msg,
                }
            }
            Choice::Fire(pid) => {
                let next = self.timers.iter().position(|t| t.node == pid);
                let timer = self.timers.remove(next.expect("Fire needs an armed timer"));
                // The local clock jumps to the deadline (never backwards:
                // an earlier-armed later-deadline timer cannot have fired
                // yet by the in-order rule).
                if let Some(rank) = self.rank(pid) {
                    let clock = &mut self.slots[rank].clock;
                    *clock = (*clock).max(timer.fire_at);
                }
                let token = timer.token;
                self.step_node(pid, Stimulus::Timer { token }, None, tap, stepper);
                TraceStep::Fire {
                    node: pid,
                    fire_at: timer.fire_at,
                    token,
                }
            }
            Choice::Partition(mask) => {
                self.partition = Some(mask);
                self.partitions_used += 1;
                TraceStep::Partition { mask }
            }
            Choice::Heal => {
                self.partition = None;
                TraceStep::Heal
            }
            Choice::Crash(pid) => {
                self.crashes_used += 1;
                self.step_node(pid, Stimulus::Crash, None, tap, stepper);
                // A restarted process has lost its armed timers.
                self.timers.retain(|t| t.node != pid);
                TraceStep::Crash { node: pid }
            }
        }
    }

    /// Removes the first in-flight copy of `key` (any copy would do:
    /// identical copies are indistinguishable).
    fn take(&mut self, key: MsgKey) -> InFlight {
        let i = self.in_flight.iter().position(|m| m.key() == key);
        self.in_flight
            .remove(i.expect("a message choice names an in-flight message"))
    }

    fn deliver(&mut self, m: &InFlight, tap: Option<&ActionTap>, stepper: &mut Stepper<'_>) {
        let stimulus = Stimulus::Message {
            from: m.from,
            digest: m.digest,
        };
        self.step_node(m.to, stimulus, Some(&m.msg), tap, stepper);
    }

    /// The one way a node is stepped: hands `stimulus` (with its payload,
    /// for a message) to node `pid` at its local clock and executes what
    /// the engines ask for — through the table in a walk, by running the
    /// callback otherwise.
    pub(crate) fn step_node(
        &mut self,
        pid: Pid,
        stimulus: Stimulus,
        msg: Option<&Msg>,
        tap: Option<&ActionTap>,
        stepper: &mut Stepper<'_>,
    ) {
        let Some(rank) = self.rank(pid) else {
            return;
        };
        let now = self.slots[rank].clock;
        let computed;
        let t: &Transition = match stepper {
            Stepper::Plain(log) => {
                computed = self.run_engine(rank, stimulus, msg, tap, Some(log));
                &computed
            }
            Stepper::Walk(NodeTable { nodes, memo }) => {
                match memo.entry((self.slots[rank].digest, now, stimulus)) {
                    Entry::Occupied(hit) => {
                        let t = hit.into_mut();
                        #[cfg(debug_assertions)]
                        t.assert_agrees(&self.run_engine(rank, stimulus, msg, tap, None));
                        t
                    }
                    Entry::Vacant(miss) => {
                        let mut t = self.run_engine(rank, stimulus, msg, tap, None);
                        t.node = Arc::clone(nodes.entry(t.digest).or_insert(t.node));
                        miss.insert(t)
                    }
                }
            }
        };
        let slot = &mut self.slots[rank];
        slot.node = Arc::clone(&t.node);
        slot.digest = t.digest;
        self.in_flight.extend(t.sends.iter().cloned());
        for &(delay, token) in &t.timers {
            self.arm_timer_at(pid, now + delay, token);
        }
    }

    /// Runs the engine callback `stimulus` names on a copy of the node at
    /// `rank`, applies the tap, and digests the successor and every
    /// payload. Events and the transport count go to `log` when there is
    /// one; the state itself is not touched.
    fn run_engine(
        &self,
        rank: usize,
        stimulus: Stimulus,
        msg: Option<&Msg>,
        tap: Option<&ActionTap>,
        mut log: Option<&mut StepLog>,
    ) -> Transition {
        let Slot {
            pid, node, clock, ..
        } = &self.slots[rank];
        let (pid, now) = (*pid, *clock);
        let mut node = CoalitionNode::clone(node);
        let mut actions = match (stimulus, msg) {
            (Stimulus::Start, _) => node.on_start(now),
            (Stimulus::Message { from, .. }, Some(msg)) => node.on_message(now, from, msg),
            (Stimulus::Timer { token }, _) => match decode_timer(token) {
                Some((nego, kind)) => node.on_timer(now, nego, kind),
                None => Vec::new(),
            },
            (Stimulus::Crash, _) => {
                if let Some(p) = node.provider_mut() {
                    p.crash_restart();
                }
                Vec::new()
            }
            (Stimulus::Message { .. }, None) => unreachable!("a delivery carries its payload"),
        };
        // A crash is not an action batch: the tap never sees it.
        if let Some(tap) = tap.filter(|_| stimulus != Stimulus::Crash) {
            tap(pid, &mut actions);
        }
        let mut t = Transition {
            digest: digest_of(&node),
            node: Arc::new(node),
            sends: Vec::new(),
            timers: Vec::new(),
        };
        let mut send = |to: &Slot, msg: &Arc<Msg>, digest: u64| {
            if !is_inert(&to.node, msg) {
                t.sends.push(InFlight {
                    from: pid,
                    to: to.pid,
                    msg: Arc::clone(msg),
                    digest,
                });
            }
        };
        for action in actions {
            if let (Some(log), Some(_)) = (log.as_deref_mut(), action.payload()) {
                log.sent += 1;
            }
            match action {
                Action::Broadcast(msg) => {
                    let digest = digest_of(&*msg);
                    for to in self.slots.iter().filter(|s| s.pid != pid) {
                        send(to, &msg, digest);
                    }
                }
                Action::Send { to, msg } => {
                    if let Some(rank) = self.rank(to) {
                        send(&self.slots[rank], &msg, digest_of(&*msg));
                    }
                }
                Action::Timer { delay, token } => t.timers.push((delay, token)),
                Action::Event(event) => {
                    if let Some(log) = log.as_deref_mut() {
                        log.events.push(LoggedEvent {
                            at: now,
                            node: pid,
                            event,
                        });
                    }
                }
            }
        }
        t
    }
}

#[cfg(debug_assertions)]
impl Transition {
    /// The table's self-check, free where it matters: debug builds (the
    /// tier-1 suite) recompute every memo hit and require the stored
    /// transition to match; release builds trust the digest.
    fn assert_agrees(&self, fresh: &Transition) {
        let sends = |t: &Transition| -> Vec<(Pid, u64)> {
            t.sends.iter().map(|m| (m.to, m.digest)).collect()
        };
        assert_eq!(self.digest, fresh.digest, "memoized successor diverged");
        assert_eq!(sends(self), sends(fresh), "memoized sends diverged");
        assert_eq!(self.timers, fresh.timers, "memoized timers diverged");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use qosc_core::{
        kickoff_token, OrganizerConfig, OrganizerEngine, ProviderConfig, ProviderEngine,
    };
    use qosc_resources::{av_demand_model, ResourceVector};
    use qosc_spec::{catalog, ServiceDef, TaskDef};

    fn provider(id: Pid, cpu: f64) -> CoalitionNode {
        let spec = catalog::av_spec();
        let mut provider = ProviderEngine::new(
            id,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig::for_model_checking(),
        );
        provider.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
        CoalitionNode::new(id).with_provider(provider)
    }

    /// An organizer with one single-task service queued, and the state
    /// holding it and `providers` with its kickoff armed.
    fn scenario(organizer: Pid, providers: impl IntoIterator<Item = CoalitionNode>) -> McState {
        let engine = OrganizerEngine::new(organizer, OrganizerConfig::for_model_checking());
        let mut origin = CoalitionNode::new(organizer).with_organizer(engine);
        let task = TaskDef {
            name: "sense".into(),
            spec: catalog::av_spec(),
            request: catalog::surveillance_request(),
            input_bytes: 50_000,
            output_bytes: 5_000,
        };
        origin.queue_service_at(SimTime::ZERO, ServiceDef::new("svc", vec![task]));
        let mut state = McState::default();
        providers.into_iter().for_each(|p| state.insert_node(p));
        state.insert_node(origin);
        state.arm_timer_at(organizer, SimTime::ZERO, kickoff_token(organizer));
        state
    }

    /// Every dependent case of the relation, both ways round, against
    /// independent pairs that differ from them in one respect only.
    #[test]
    fn independence_is_refused_on_cuts_shared_nodes_messages_and_budgets() {
        let key = |from, to, digest| MsgKey { from, to, digest };
        let (to_1, to_2, also_to_1) = (key(0, 1, 7), key(0, 2, 8), key(2, 1, 9));
        let every = [
            Choice::Deliver(to_1),
            Choice::Drop(to_1),
            Choice::Duplicate(to_1),
            Choice::Fire(1),
            Choice::Crash(1),
            Choice::Partition(0b10),
            Choice::Heal,
        ];
        let check = |a: Choice, b: Choice, independent: bool| {
            assert_eq!(a.independent(b), independent, "{a:?} vs {b:?}");
            assert_eq!(b.independent(a), independent, "{b:?} vs {a:?}");
        };
        for c in every {
            check(c, Choice::Partition(0b110), false);
            check(c, Choice::Heal, false);
        }
        // The same node.
        check(Choice::Deliver(to_1), Choice::Deliver(also_to_1), false);
        check(Choice::Deliver(to_1), Choice::Fire(1), false);
        check(Choice::Duplicate(to_1), Choice::Crash(1), false);
        check(Choice::Fire(1), Choice::Crash(1), false);
        // The same message.
        check(Choice::Deliver(to_1), Choice::Drop(to_1), false);
        check(Choice::Drop(to_1), Choice::Duplicate(to_1), false);
        check(Choice::Deliver(to_1), Choice::Duplicate(to_1), false);
        // The same budget.
        check(Choice::Drop(to_1), Choice::Drop(to_2), false);
        check(Choice::Duplicate(to_1), Choice::Duplicate(to_2), false);
        check(Choice::Crash(1), Choice::Crash(2), false);
        // Independent: other nodes, other messages, other budgets, and a
        // drop, which steps no node.
        check(Choice::Deliver(to_1), Choice::Deliver(to_2), true);
        check(Choice::Deliver(to_1), Choice::Fire(2), true);
        check(Choice::Duplicate(to_1), Choice::Crash(2), true);
        check(Choice::Drop(to_1), Choice::Duplicate(to_2), true);
        check(Choice::Drop(to_1), Choice::Deliver(also_to_1), true);
        check(Choice::Drop(to_1), Choice::Fire(1), true);
        check(Choice::Drop(to_1), Choice::Crash(1), true);
    }

    /// The relation holds on the real engines: at every state of the
    /// faulted, crash-restarting 1-organizer × 2-provider round, every
    /// pair of enabled choices it calls independent stays enabled in
    /// either order and both orders reach the same digest.
    #[test]
    fn independent_choices_commute_on_the_engines() {
        let plan = FaultPlan::exhaustive(1, 1).with_crash_restarts(1);
        let mut root = scenario(0, [provider(1, 400.0), provider(2, 300.0)]);
        let mut log = StepLog::default();
        for pid in root.node_ids() {
            root.step_node(
                pid,
                Stimulus::Start,
                None,
                None,
                &mut Stepper::Plain(&mut log),
            );
        }
        let mut table = NodeTable::default();
        let mut then = |state: &McState, choice| {
            let mut next = state.clone();
            next.apply(choice, None, &mut Stepper::Walk(&mut table));
            next
        };
        let mut seen = HashSet::from([root.digest()]);
        let (mut todo, mut pairs) = (vec![root], 0);
        while let Some(state) = todo.pop() {
            let choices = state.enabled(&plan);
            let successors: Vec<McState> = choices.iter().map(|&c| then(&state, c)).collect();
            for (i, (&a, after_a)) in choices.iter().zip(&successors).enumerate() {
                for (&b, after_b) in choices.iter().zip(&successors).skip(i + 1) {
                    if !a.independent(b) {
                        continue;
                    }
                    assert!(after_a.enabled(&plan).contains(&b), "{a:?} disables {b:?}");
                    assert!(after_b.enabled(&plan).contains(&a), "{b:?} disables {a:?}");
                    let (ab, ba) = (then(after_a, b), then(after_b, a));
                    assert_eq!(ab.digest(), ba.digest(), "{a:?} and {b:?} do not commute");
                    pairs += 1;
                }
            }
            for next in successors {
                if seen.insert(next.digest()) {
                    todo.push(next);
                }
            }
        }
        assert!(pairs > 100_000, "only {pairs} independent pairs checked");
    }

    /// Cut masks address nodes by rank in id order, not by raw pid: with
    /// pids {3, 70} — 70 used to wrap a 64-bit shift — setting bit 1
    /// isolates node 70, which blocks the CFP 3→70 until the heal.
    #[test]
    fn a_cut_between_pids_3_and_70_blocks_the_cfp_until_the_heal() {
        let mut state = scenario(3, [provider(70, 400.0)]);
        let plan = FaultPlan::none().with_partitions(1);
        assert_eq!(
            state.enabled(&plan),
            [Choice::Fire(3), Choice::Partition(0b10)]
        );

        let mut log = StepLog::default();
        let mut plain = Stepper::Plain(&mut log);
        state.apply(Choice::Partition(0b10), None, &mut plain);
        state.apply(Choice::Fire(3), None, &mut plain);
        let cfp = &state.in_flight[0];
        assert!(matches!(*cfp.msg, Msg::CallForProposals { .. }));
        assert_eq!((cfp.from, cfp.to, state.in_flight.len()), (3, 70, 1));
        let cfp = cfp.key();
        // Blocked: only the organizer's deadline and the heal are enabled.
        assert_eq!(state.enabled(&plan), [Choice::Fire(3), Choice::Heal]);
        state.apply(Choice::Heal, None, &mut plain);
        assert_eq!(
            state.enabled(&plan),
            [Choice::Deliver(cfp), Choice::Fire(3)]
        );
    }
}
