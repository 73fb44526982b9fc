//! Region-partitioned conservative parallel DES.
//!
//! [`ShardedSimulator`] splits the node population into `S` spatially
//! contiguous shards (nodes sorted by position, chunked evenly) and
//! gives each shard its own event heap, RNG streams and worker thread.
//! Shards synchronize with the classic conservative (Chandy–Misra–
//! Bryant-style) discipline: the **lookahead** `L` is the radio's
//! zero-byte latency, the minimum delay any cross-shard effect can
//! have, so a shard may safely execute every event strictly earlier
//! than the earliest instant at which any other shard could still send
//! it something.
//!
//! # Horizon protocol
//!
//! There are no null messages and no barriers. Each shard `s`
//! publishes a single atomic **clock** — a promise that every message
//! it will *ever* send from now on is delivered no earlier than the
//! published value. The promise is computed as
//! `min(head_s, min_{p≠s} clock_p) + L`: shard `s` can only produce a
//! send by executing either its own earliest pending event (`head_s`)
//! or some future arrival (which, by the other shards' promises,
//! arrives no earlier than `min clock_p`), and either way the send is
//! delivered at least `L` later. Clocks are monotone, so the fixed
//! point is approached from below and every published value is sound.
//! A shard executes its head event at time `t` iff `t` is strictly
//! below every other shard's clock (strictness is what keeps
//! same-timestamp cross-shard races impossible) and `t` is within the
//! run deadline; with `L > 0` the globally earliest pending event is
//! always eventually executable, so the protocol is deadlock-free.
//!
//! Message visibility rides on a release/acquire pair: a worker
//! enqueues its cross-shard sends into the target's channel *before*
//! release-publishing its clock, and a worker always acquire-loads the
//! other clocks *before* draining its inbox — so once a shard observes
//! `clock_p > t`, every message from `p` with delivery time `≤ t` is
//! already in its inbox. That same ordering makes run termination
//! exact: a shard leaves the run loop only once both its own head and
//! every other clock are beyond the deadline.
//!
//! # Determinism
//!
//! Determinism does not come from the schedule — it comes from making
//! every draw independent of the schedule. Each node owns a private
//! RNG stream and fault sampler seeded from `(run seed, node id)` (the
//! same derivation the sequential [`Simulator`] uses), and every event
//! carries a total-order key `(time, origin shard, origin sequence)`
//! assigned by the *sending* shard at send time — never by arrival
//! order. Two same-run-shape executions therefore produce identical
//! per-node event sequences, identical draws, and identical merged
//! stats, regardless of how worker threads interleave. Two pins tie
//! the engine down: at `workers = 1` the engine is **bit-equal** to
//! [`Simulator`] (one shard, one heap, the identical shared
//! delivery-planner code and key order), and at `workers > 1` runs are
//! outcome-pinned (same winner maps, formation counts and conserved
//! capacity) by the system-level equivalence suites.
//!
//! # When the engine falls back to one thread
//!
//! Parallel execution requires an immutable node table for the whole
//! run. Whenever that cannot be guaranteed — mobility is armed, a
//! `Down`/`Up` event is pending, the radio has zero latency (no
//! lookahead), or there is only one shard or worker — the engine runs
//! the same sharded data structures on the calling thread, executing
//! the globally smallest key each step. The merged path and the
//! parallel path assign identical keys and make identical draws, so
//! eligibility never changes outcomes, only parallelism.
//!
//! [`Simulator`]: crate::Simulator

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::utils::CachePadded;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::fault::{FaultPlan, FaultSampler, PartitionPlan, PartitionTimeline};
use crate::geometry::Point;
use crate::grid::NeighbourIndex;
use crate::mobility::{Mobility, MobilityState};
use crate::sim::{
    node_stream_seed, Command, Ctx, Draws, EventKind, Medium, NetApp, NodeId, NodeSlot, Scheduled,
    SendKind, SimConfig,
};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};

/// The frozen node→shard assignment, fixed at the first run.
struct Partition {
    /// Number of shards (= `min(workers, nodes)`, at least 1).
    shards: usize,
    /// `NodeId → shard`.
    shard_of: Vec<u32>,
    /// `NodeId → index into its shard's member-parallel tables`.
    local_of: Vec<u32>,
    /// Member node ids per shard (spatial order).
    members: Vec<Vec<NodeId>>,
    /// Conservative lookahead: the radio's zero-byte latency.
    lookahead: SimDuration,
}

impl Partition {
    /// Shard that anchors (and therefore executes) `kind`. Events with
    /// no node anchor and events naming unknown nodes go to shard 0,
    /// whose executor skips them like the sequential engine does.
    fn anchor_shard<M>(&self, kind: &EventKind<M>) -> usize {
        anchor_node(kind).map_or(0, |n| {
            self.shard_of.get(n.0 as usize).map_or(0, |&s| s as usize)
        })
    }
}

/// The node an event is anchored at: the node whose RNG stream backs
/// its handler and whose shard owns it.
fn anchor_node<M>(kind: &EventKind<M>) -> Option<NodeId> {
    match kind {
        EventKind::Deliver { dst, .. } => Some(*dst),
        EventKind::Timer { node, .. } => Some(*node),
        EventKind::Down(n) | EventKind::Up(n) => Some(*n),
        EventKind::MobilityTick | EventKind::Fanout { .. } => None,
    }
}

/// One shard's mutable state: its event heap, sequence counter, the
/// RNG streams and fault samplers of its member nodes, its own stats
/// block, and reused scratch buffers so the hot loop stays alloc-free
/// exactly like the sequential engine.
struct ShardState<M> {
    heap: BinaryHeap<Scheduled<M>>,
    seq: u64,
    now: SimTime,
    /// Member-parallel per-node RNG streams.
    streams: Vec<ChaCha8Rng>,
    /// Member-parallel fault samplers (empty when no plan samples).
    fault: Vec<FaultSampler>,
    stats: NetStats,
    bcast: Vec<(NodeId, f64)>,
    cands: Vec<NodeId>,
    cmds: Vec<Command<M>>,
}

impl<M> ShardState<M> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            streams: Vec::new(),
            fault: Vec::new(),
            stats: NetStats::default(),
            bcast: Vec::new(),
            cands: Vec::new(),
            cmds: Vec::new(),
        }
    }
}

/// Immutable state shared by every worker for the duration of a run.
#[derive(Clone, Copy)]
struct Fabric<'a> {
    nodes: &'a [NodeSlot],
    index: &'a NeighbourIndex,
    radio: &'a crate::radio::RadioModel,
    part: &'a Partition,
    /// Expanded partition schedule (a read-only timestamp lookup, so it
    /// is safely shared by every worker).
    cuts: Option<&'a PartitionTimeline>,
}

/// Executes one Deliver/Timer/Down/Up event against shard `q`'s state.
/// Newly scheduled events are all keyed `(at, q, seq)` by this shard;
/// same-shard events go straight onto this shard's heap (the common
/// case — and the whole event population at one worker, which keeps
/// the serial path's per-event cost at the sequential engine's level),
/// while cross-shard events are appended to `out` for the caller to
/// route. For Down/Up the caller has already flipped the liveness flag
/// (the node table is immutable here); this only runs callbacks.
fn execute_event<M, A: NetApp<M>>(
    fabric: &Fabric<'_>,
    q: u32,
    st: &mut ShardState<M>,
    app: &mut A,
    ev: Scheduled<M>,
    out: &mut Vec<Scheduled<M>>,
) {
    let now = ev.at;
    let key = ev.key();
    st.now = now;
    let is_up = |n: NodeId| -> bool { fabric.nodes.get(n.0 as usize).is_some_and(|slot| slot.up) };
    macro_rules! with_ctx {
        ($anchor:expr, |$ctx:ident| $call:expr) => {{
            let anchor: NodeId = $anchor;
            let local = fabric.part.local_of[anchor.0 as usize] as usize;
            let cmds = std::mem::take(&mut st.cmds);
            let mut $ctx = Ctx {
                now,
                rng: &mut st.streams[local],
                cmds,
                nodes: fabric.nodes,
                index: fabric.index,
                radio: fabric.radio,
                key,
            };
            $call;
            let mut cmds = $ctx.cmds;
            apply_commands(fabric, q, now, anchor, st, &mut cmds, out);
            st.cmds = cmds;
        }};
    }
    match ev.kind {
        EventKind::Deliver {
            kind,
            src,
            dst,
            bytes,
            sent_at,
            msg,
        } => {
            if is_up(dst) {
                match kind {
                    SendKind::Unicast => st.stats.unicasts_delivered += 1,
                    SendKind::Broadcast => st.stats.broadcast_deliveries += 1,
                }
                st.stats.record_delivery(now.since(sent_at), bytes);
                with_ctx!(dst, |ctx| app.on_message(&mut ctx, dst, src, &msg));
            } else {
                match kind {
                    SendKind::Unicast => st.stats.unicasts_unreachable += 1,
                    SendKind::Broadcast => st.stats.broadcasts_undelivered += 1,
                }
            }
        }
        EventKind::Timer { node, token } => {
            if is_up(node) {
                with_ctx!(node, |ctx| app.on_timer(&mut ctx, node, token));
            }
        }
        EventKind::Down(node) => {
            with_ctx!(node, |ctx| app.on_node_down(&mut ctx, node));
        }
        EventKind::Up(node) => {
            with_ctx!(node, |ctx| app.on_node_up(&mut ctx, node));
        }
        EventKind::MobilityTick => unreachable!("mobility ticks are handled by the merged loop"),
        EventKind::Fanout { .. } => unreachable!("this engine schedules one event per copy"),
    }
}

/// Applies the commands a handler anchored at `anchor` emitted,
/// drawing from the anchor's RNG stream and fault sampler — the same
/// shared planner code ([`Medium`]) the sequential engine uses, so the
/// draw sequences are identical instruction for instruction.
fn apply_commands<M>(
    fabric: &Fabric<'_>,
    q: u32,
    now: SimTime,
    anchor: NodeId,
    st: &mut ShardState<M>,
    cmds: &mut Vec<Command<M>>,
    out: &mut Vec<Scheduled<M>>,
) {
    let medium = Medium {
        radio: fabric.radio,
        nodes: fabric.nodes,
        index: fabric.index,
        cuts: fabric.cuts,
    };
    let local = fabric.part.local_of[anchor.0 as usize] as usize;
    // Assigns the next `(at, q, seq)` key and routes: events anchored
    // in this shard skip `out` and land directly on the heap.
    macro_rules! emit {
        ($at:expr, $target:expr, $kind:expr) => {{
            let target: NodeId = $target;
            let seq = st.seq;
            st.seq += 1;
            let ev = Scheduled {
                at: $at,
                shard: q,
                seq,
                kind: $kind,
            };
            if fabric.part.shard_of[target.0 as usize] == q {
                st.heap.push(ev);
            } else {
                out.push(ev);
            }
        }};
    }
    for cmd in cmds.drain(..) {
        match cmd {
            Command::Unicast {
                src,
                dst,
                bytes,
                msg,
            } => {
                let times = medium.plan_unicast(
                    &mut Draws {
                        rng: &mut st.streams[local],
                        fault: st.fault.get_mut(local),
                        stats: &mut st.stats,
                    },
                    src,
                    dst,
                    now,
                    bytes,
                );
                for at in times.into_iter().flatten() {
                    emit!(
                        at,
                        dst,
                        EventKind::Deliver {
                            kind: SendKind::Unicast,
                            src,
                            dst,
                            bytes,
                            sent_at: now,
                            msg: std::sync::Arc::clone(&msg),
                        }
                    );
                }
            }
            Command::Broadcast { src, bytes, msg } => {
                let mut cands = std::mem::take(&mut st.cands);
                let mut targets = std::mem::take(&mut st.bcast);
                medium.collect_broadcast_targets(&mut st.stats, src, &mut cands, &mut targets);
                st.cands = cands;
                let latency = fabric.radio.latency(bytes);
                for &(dst, dist) in &targets {
                    let times = medium.plan_broadcast_copy(
                        &mut Draws {
                            rng: &mut st.streams[local],
                            fault: st.fault.get_mut(local),
                            stats: &mut st.stats,
                        },
                        src,
                        dst,
                        dist,
                        now + latency,
                    );
                    for at in times.into_iter().flatten() {
                        emit!(
                            at,
                            dst,
                            EventKind::Deliver {
                                kind: SendKind::Broadcast,
                                src,
                                dst,
                                bytes,
                                sent_at: now,
                                msg: std::sync::Arc::clone(&msg),
                            }
                        );
                    }
                }
                st.bcast = targets;
            }
            Command::Timer { node, delay, token } => {
                emit!(now + delay, node, EventKind::Timer { node, token });
            }
        }
    }
}

/// Everything one parallel worker needs besides its own shard state.
struct Worker<'a, M> {
    q: usize,
    rx: Receiver<Scheduled<M>>,
    txs: Vec<Sender<Scheduled<M>>>,
    clocks: &'a [CachePadded<AtomicU64>],
    fabric: Fabric<'a>,
    /// Lookahead in µs (strictly positive in parallel mode).
    lookahead: u64,
    deadline: SimTime,
}

impl<M: Send + Sync> Worker<'_, M> {
    /// The conservative run loop for one shard. Returns the number of
    /// events executed.
    fn run<A: NetApp<M>>(&self, st: &mut ShardState<M>, app: &mut A) -> u64 {
        let q = self.q;
        let mut processed = 0u64;
        let mut out: Vec<Scheduled<M>> = Vec::new();
        loop {
            // (a) Acquire-load every other shard's promise FIRST: any
            // message counted on below was enqueued before its sender
            // release-published the clock value we are about to read.
            let mut min_other = u64::MAX;
            for (p, c) in self.clocks.iter().enumerate() {
                if p != q {
                    min_other = min_other.min(c.load(Ordering::Acquire));
                }
            }
            // (b) Drain the inbox AFTER the clock loads (see above).
            while let Ok(ev) = self.rx.try_recv() {
                st.heap.push(ev);
            }
            // (c) Own head, (d) publish the new promise — monotone, and
            // published before the exit check so the final value every
            // shard leaves behind is itself beyond the deadline.
            let head = st.heap.peek().map_or(u64::MAX, |e| e.at.0);
            let bound = head.min(min_other).saturating_add(self.lookahead);
            self.clocks[q].fetch_max(bound, Ordering::Release);
            // (e) Done: nothing of ours and nothing inbound can still
            // land inside this run's deadline.
            if head.min(min_other) > self.deadline.0 {
                break;
            }
            // (f) Execute every event strictly below the horizon.
            let mut executed_any = false;
            while let Some(h) = st.heap.peek() {
                if h.at.0 > self.deadline.0 || h.at.0 >= min_other {
                    break;
                }
                let Some(ev) = st.heap.pop() else { break };
                execute_event(&self.fabric, q as u32, st, app, ev, &mut out);
                processed += 1;
                executed_any = true;
                // `out` holds only cross-shard events (same-shard ones
                // went straight onto the heap inside `execute_event`).
                for ev in out.drain(..) {
                    let target = self.fabric.part.anchor_shard(&ev.kind);
                    debug_assert_ne!(target, q, "same-shard event routed via out");
                    // Conservative soundness: a cross-shard effect
                    // may never land inside the lookahead window.
                    // Deliveries can't (latency >= lookahead by
                    // construction); this catches apps arming
                    // sub-lookahead timers on *other* nodes.
                    assert!(
                        ev.at.0 >= st.now.0.saturating_add(self.lookahead),
                        "cross-shard event within the lookahead window \
                         (scheduled {} at t={}, lookahead {} us)",
                        ev.at.0,
                        st.now.0,
                        self.lookahead,
                    );
                    // Send failures are impossible while the scope
                    // is alive: receivers outlive the run.
                    let _ = self.txs[target].send(ev);
                }
            }
            if !executed_any {
                std::thread::yield_now();
            }
        }
        processed
    }
}

/// The region-partitioned parallel discrete-event simulator.
///
/// Mirrors the [`Simulator`](crate::Simulator) API with two
/// differences: construction takes a worker count, and
/// [`run_until`](ShardedSimulator::run_until) takes **one app per
/// shard** (call [`shard_count`](ShardedSimulator::shard_count) /
/// [`shard_of`](ShardedSimulator::shard_of) after adding nodes to
/// split application state along shard lines). The partition freezes
/// at the first run; nodes added later join the last shard.
pub struct ShardedSimulator<M> {
    config: SimConfig,
    workers: usize,
    nodes: Vec<NodeSlot>,
    index: NeighbourIndex,
    /// Control RNG: placement and mobility, like the sequential engine.
    rng: ChaCha8Rng,
    mobility_armed: bool,
    fault_plan: Option<FaultPlan>,
    /// Expanded link-partition schedule (distinct from the node→shard
    /// `part`itioning below); shared read-only with every worker.
    partition: Option<PartitionTimeline>,
    /// Events scheduled before the partition froze, in call order.
    staged: Vec<(SimTime, EventKind<M>)>,
    part: Option<Partition>,
    shards: Vec<ShardState<M>>,
    now: SimTime,
}

impl<M> ShardedSimulator<M> {
    /// Creates an empty sharded simulation that will run on up to
    /// `workers` threads (clamped to at least 1; the shard count is
    /// additionally clamped to the node count at freeze time).
    pub fn new(config: SimConfig, workers: usize) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let index = NeighbourIndex::new(&config.area, config.radio.range_m);
        Self {
            config,
            workers: workers.max(1),
            nodes: Vec::new(),
            index,
            rng,
            mobility_armed: false,
            fault_plan: None,
            partition: None,
            staged: Vec::new(),
            part: None,
            shards: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Adds a node at `pos` with the given mobility; returns its id.
    pub fn add_node(&mut self, pos: Point, mobility: Mobility) -> NodeId {
        let pos = self.config.area.clamp(pos);
        let id = NodeId(self.nodes.len() as u32);
        let mobile = !matches!(mobility, Mobility::Static);
        self.nodes.push(NodeSlot {
            pos,
            mobility: MobilityState::new(mobility, pos),
            up: true,
        });
        self.index.insert(id, pos);
        if let Some(part) = self.part.as_mut() {
            // Post-freeze: join the last shard (partition stays fixed).
            let q = part.shards - 1;
            part.shard_of.push(q as u32);
            part.local_of.push(part.members[q].len() as u32);
            part.members[q].push(id);
            let st = &mut self.shards[q];
            st.streams.push(ChaCha8Rng::seed_from_u64(node_stream_seed(
                self.config.seed,
                id.0,
            )));
            if let Some(p) = self.fault_plan {
                st.fault.push(FaultSampler::for_node(p, id.0));
            }
        }
        if mobile && !self.mobility_armed {
            self.mobility_armed = true;
            let at = self.now + self.config.mobility_tick;
            self.schedule_event(at, EventKind::MobilityTick);
        }
        id
    }

    /// Adds a node at a uniformly random position (control RNG — the
    /// same draw sequence as the sequential engine's).
    pub fn add_node_random(&mut self, mobility: Mobility) -> NodeId {
        let p = self.config.area.sample(&mut self.rng);
        self.add_node(p, mobility)
    }

    /// Installs a [`FaultPlan`]; per-node samplers are (re)seeded from
    /// `(plan.seed, node)` exactly like the sequential engine's.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.samples_anything().then_some(plan);
        if let Some(part) = self.part.as_ref() {
            for (q, st) in self.shards.iter_mut().enumerate() {
                st.fault = match self.fault_plan {
                    Some(p) => part.members[q]
                        .iter()
                        .map(|n| FaultSampler::for_node(p, n.0))
                        .collect(),
                    None => Vec::new(),
                };
            }
        }
    }

    /// Installs a [`PartitionPlan`], expanded against the current node
    /// count exactly like the sequential engine's
    /// [`Simulator::set_partition_plan`](crate::Simulator::set_partition_plan):
    /// same expansion, same per-delivery lookup, so both engines cut
    /// exactly the same links. Install after every node has been added.
    pub fn set_partition_plan(&mut self, plan: &PartitionPlan) {
        let tl = plan.expand(self.nodes.len());
        self.partition = (!tl.is_empty()).then_some(tl);
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Option<Point> {
        self.nodes.get(n.0 as usize).map(|s| s.pos)
    }

    /// Liveness of a node.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.nodes.get(n.0 as usize).is_some_and(|s| s.up)
    }

    /// The radio model in force.
    pub fn radio(&self) -> &crate::radio::RadioModel {
        &self.config.radio
    }

    /// Network counters so far, merged across shards. Counter merging
    /// is pure addition, so this equals what an equivalent sequential
    /// run accumulates.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for st in &self.shards {
            total.merge(&st.stats);
        }
        total
    }

    /// Schedules a timer for the application (e.g. to bootstrap it).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.schedule_event(at, EventKind::Timer { node, token });
    }

    /// Schedules a failure: `node` goes down at `now + delay`.
    pub fn schedule_down(&mut self, node: NodeId, delay: SimDuration) {
        let at = self.now + delay;
        self.schedule_event(at, EventKind::Down(node));
    }

    /// Schedules a recovery: `node` comes back at `now + delay`.
    pub fn schedule_up(&mut self, node: NodeId, delay: SimDuration) {
        let at = self.now + delay;
        self.schedule_event(at, EventKind::Up(node));
    }

    /// Live single-hop neighbours of `node`, ascending id order.
    pub fn neighbours(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbours_into(node, &mut out);
        out
    }

    /// Buffer-reusing variant of [`ShardedSimulator::neighbours`].
    pub fn neighbours_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        Medium {
            radio: &self.config.radio,
            nodes: &self.nodes,
            index: &self.index,
            cuts: None,
        }
        .live_neighbours_into(node, out);
    }

    /// Freezes the node→shard partition (idempotent; implied by the
    /// first run). Nodes are sorted by `(x, y, id)` and chunked into
    /// `min(workers, nodes)` near-equal contiguous groups, so shards
    /// are spatially coherent and cross-shard traffic tracks the radio
    /// range rather than the node id layout.
    pub fn freeze(&mut self) {
        if self.part.is_some() {
            return;
        }
        let n = self.nodes.len();
        let shards = self.workers.min(n).max(1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let pa = self.nodes[a as usize].pos;
            let pb = self.nodes[b as usize].pos;
            pa.x.total_cmp(&pb.x)
                .then(pa.y.total_cmp(&pb.y))
                .then(a.cmp(&b))
        });
        let mut shard_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let base = n / shards;
        let rem = n % shards;
        let mut cursor = 0usize;
        for (q, group) in members.iter_mut().enumerate() {
            let len = base + usize::from(q < rem);
            for &id in &order[cursor..cursor + len] {
                shard_of[id as usize] = q as u32;
                local_of[id as usize] = group.len() as u32;
                group.push(NodeId(id));
            }
            cursor += len;
        }
        let mut states: Vec<ShardState<M>> = (0..shards).map(|_| ShardState::new()).collect();
        for (q, st) in states.iter_mut().enumerate() {
            st.now = self.now;
            st.streams = members[q]
                .iter()
                .map(|id| ChaCha8Rng::seed_from_u64(node_stream_seed(self.config.seed, id.0)))
                .collect();
            if let Some(p) = self.fault_plan {
                st.fault = members[q]
                    .iter()
                    .map(|id| FaultSampler::for_node(p, id.0))
                    .collect();
            }
        }
        self.part = Some(Partition {
            shards,
            shard_of,
            local_of,
            members,
            lookahead: self.config.radio.latency(0),
        });
        self.shards = states;
        // Distribute pre-freeze schedules in call order: with one
        // shard this reproduces the sequential engine's global
        // sequence numbers exactly.
        for (at, kind) in std::mem::take(&mut self.staged) {
            self.schedule_event(at, kind);
        }
    }

    /// Number of shards (freezes the partition if needed) — the length
    /// [`run_until`](ShardedSimulator::run_until) expects `apps` to be.
    pub fn shard_count(&mut self) -> usize {
        self.freeze();
        self.shards.len()
    }

    /// The shard owning `node` (freezes the partition if needed).
    pub fn shard_of(&mut self, node: NodeId) -> usize {
        self.freeze();
        self.part.as_ref().map_or(0, |p| {
            p.shard_of.get(node.0 as usize).map_or(0, |&s| s as usize)
        })
    }

    /// Routes one event: staged before the freeze, pushed into its
    /// anchor shard's heap (keyed by that shard) afterwards.
    fn schedule_event(&mut self, at: SimTime, kind: EventKind<M>) {
        match self.part.as_ref() {
            None => self.staged.push((at, kind)),
            Some(part) => {
                let q = part.anchor_shard(&kind);
                let st = &mut self.shards[q];
                let seq = st.seq;
                st.seq += 1;
                st.heap.push(Scheduled {
                    at,
                    shard: q as u32,
                    seq,
                    kind,
                });
            }
        }
    }

    /// Whether this run can execute in parallel: more than one worker
    /// and shard, positive lookahead, and a node table guaranteed
    /// immutable for the whole run (no mobility, no pending liveness
    /// events). Otherwise the merged single-thread path runs — with
    /// identical keys and draws, so eligibility never changes results.
    fn parallel_eligible(&self) -> bool {
        let Some(part) = self.part.as_ref() else {
            return false;
        };
        self.workers > 1
            && part.shards > 1
            && part.lookahead > SimDuration::ZERO
            && !self.mobility_armed
            && !self.shards.iter().any(|st| {
                st.heap
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::Down(_) | EventKind::Up(_)))
            })
    }

    /// Runs until every shard drains or `deadline` passes, whichever
    /// comes first; returns the number of events processed. `apps`
    /// must hold exactly one application per shard
    /// ([`shard_count`](ShardedSimulator::shard_count)); worker `q`
    /// only ever touches `apps[q]`, which is what makes handler state
    /// thread-safe without locks.
    pub fn run_until<A>(&mut self, apps: &mut [A], deadline: SimTime) -> u64
    where
        M: Send + Sync,
        A: NetApp<M> + Send,
    {
        self.freeze();
        assert_eq!(
            apps.len(),
            self.shards.len(),
            "run_until needs exactly one app per shard"
        );
        if self.parallel_eligible() {
            self.run_parallel(apps, deadline)
        } else {
            self.run_merged(apps, deadline)
        }
    }

    /// Single-thread fallback: execute the globally smallest event key
    /// across all shard heaps, exactly as the parallel path would have
    /// ordered them. Handles the cases the parallel path excludes
    /// (mobility ticks, liveness flips, zero lookahead).
    fn run_merged<A: NetApp<M>>(&mut self, apps: &mut [A], deadline: SimTime) -> u64 {
        let mut processed = 0u64;
        let mut out: Vec<Scheduled<M>> = Vec::new();
        loop {
            let mut best: Option<(usize, (SimTime, u32, u64))> = None;
            for (i, st) in self.shards.iter().enumerate() {
                if let Some(head) = st.heap.peek() {
                    let k = head.key();
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k));
                    }
                }
            }
            let Some((qi, key)) = best else {
                break;
            };
            if key.0 > deadline {
                self.now = deadline;
                break;
            }
            let Some(ev) = self.shards[qi].heap.pop() else {
                break;
            };
            self.now = ev.at;
            processed += 1;
            match ev.kind {
                EventKind::MobilityTick => {
                    let dt = self.config.mobility_tick;
                    let area = self.config.area;
                    for slot in &mut self.nodes {
                        slot.pos = slot.mobility.advance(slot.pos, dt, &area, &mut self.rng);
                    }
                    self.index.rebuild(self.nodes.iter().map(|s| s.pos));
                    let at = self.now + dt;
                    self.schedule_event(at, EventKind::MobilityTick);
                    continue;
                }
                EventKind::Down(node) => {
                    let Some(slot) = self.nodes.get_mut(node.0 as usize) else {
                        continue;
                    };
                    slot.up = false;
                }
                EventKind::Up(node) => {
                    let Some(slot) = self.nodes.get_mut(node.0 as usize) else {
                        continue;
                    };
                    slot.up = true;
                }
                _ => {}
            }
            let Some(part) = self.part.as_ref() else {
                break;
            };
            let fabric = Fabric {
                nodes: &self.nodes,
                index: &self.index,
                radio: &self.config.radio,
                part,
                cuts: self.partition.as_ref(),
            };
            execute_event(
                &fabric,
                qi as u32,
                &mut self.shards[qi],
                &mut apps[qi],
                ev,
                &mut out,
            );
            // Only cross-shard events reach `out`; same-shard ones were
            // pushed directly inside `execute_event`.
            for ev in out.drain(..) {
                let target = part.anchor_shard(&ev.kind);
                self.shards[target].heap.push(ev);
            }
        }
        processed
    }

    /// The conservative parallel path: one scoped worker thread per
    /// shard, horizon clocks in a cache-padded atomic array, cross-
    /// shard events over channels, leftover in-flight events drained
    /// back into their heaps after the join.
    fn run_parallel<A>(&mut self, apps: &mut [A], deadline: SimTime) -> u64
    where
        M: Send + Sync,
        A: NetApp<M> + Send,
    {
        let Some(part) = self.part.take() else {
            return 0;
        };
        let start_now = self.now;
        let mut states = std::mem::take(&mut self.shards);
        for st in &mut states {
            st.now = start_now;
        }
        let s = part.shards;
        let clocks: Vec<CachePadded<AtomicU64>> = (0..s)
            .map(|_| CachePadded::new(AtomicU64::new(start_now.0)))
            .collect();
        let mut txs: Vec<Sender<Scheduled<M>>> = Vec::with_capacity(s);
        let mut rxs: Vec<Receiver<Scheduled<M>>> = Vec::with_capacity(s);
        for _ in 0..s {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let nodes = &self.nodes;
        let index = &self.index;
        let radio = &self.config.radio;
        let cuts = self.partition.as_ref();
        let part_ref = &part;
        let clocks_ref = &clocks;
        let lookahead = part.lookahead.as_micros();
        let scope_result = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(s);
            for (q, ((mut st, rx), app)) in
                states.into_iter().zip(rxs).zip(apps.iter_mut()).enumerate()
            {
                let worker = Worker {
                    q,
                    rx,
                    txs: txs.clone(),
                    clocks: clocks_ref,
                    fabric: Fabric {
                        nodes,
                        index,
                        radio,
                        part: part_ref,
                        cuts,
                    },
                    lookahead,
                    deadline,
                };
                handles.push(scope.spawn(move |_| {
                    let n = worker.run(&mut st, app);
                    (st, worker.rx, n)
                }));
            }
            let mut joined = Vec::with_capacity(s);
            for h in handles {
                match h.join() {
                    Ok(t) => joined.push(t),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            joined
        });
        let joined = match scope_result {
            Ok(j) => j,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        drop(txs);
        let mut total = 0u64;
        let mut max_now = start_now;
        self.shards = joined
            .into_iter()
            .map(|(mut st, rx, n)| {
                // Beyond-deadline stragglers stay scheduled for the
                // next run; every sender has exited, so the drain is
                // exhaustive.
                while let Ok(ev) = rx.try_recv() {
                    st.heap.push(ev);
                }
                total += n;
                max_now = max_now.max(st.now);
                st
            })
            .collect();
        self.part = Some(part);
        let pending = self.shards.iter().any(|st| !st.heap.is_empty());
        self.now = if pending { deadline } else { max_now };
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Area;
    use crate::radio::RadioModel;
    use crate::sim::{NetApp, SimConfig, Simulator};

    /// Receipt of one delivered message: total-order key, receiver,
    /// sender, payload, arrival time.
    type Receipt = ((SimTime, u32, u64), NodeId, NodeId, u32, SimTime);

    /// A TTL-bounded flood: the timer broadcasts 0, every receipt below
    /// the TTL rebroadcasts `msg + 1`. Generates heavy cross-shard
    /// traffic on a line topology.
    #[derive(Clone, Default)]
    struct Flood {
        ttl: u32,
        received: Vec<Receipt>,
    }

    impl NetApp<u32> for Flood {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, from: NodeId, msg: &u32) {
            self.received
                .push((ctx.order_key(), at, from, *msg, ctx.now));
            if *msg < self.ttl {
                ctx.broadcast(at, 64, *msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, _token: u64) {
            ctx.broadcast(at, 64, 0);
        }
    }

    fn line_config(seed: u64) -> SimConfig {
        SimConfig {
            area: Area::new(2000.0, 200.0),
            radio: RadioModel::default(),
            seed,
            ..Default::default()
        }
    }

    const N: usize = 16;
    const DEADLINE: SimTime = SimTime(1_000_000);

    /// Line of N static nodes, 30 m apart (range 50 m → each node hears
    /// its immediate neighbours only), flood kicked off in the middle.
    fn seq_run(seed: u64, ttl: u32) -> (Simulator<u32>, Flood, u64) {
        let mut sim = Simulator::new(line_config(seed));
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut app = Flood {
            ttl,
            ..Default::default()
        };
        let n = sim.run_until(&mut app, DEADLINE);
        (sim, app, n)
    }

    fn sharded_run(
        seed: u64,
        ttl: u32,
        workers: usize,
    ) -> (ShardedSimulator<u32>, Vec<Flood>, u64) {
        let mut sim = ShardedSimulator::new(line_config(seed), workers);
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut apps = vec![
            Flood {
                ttl,
                ..Default::default()
            };
            sim.shard_count()
        ];
        let n = sim.run_until(&mut apps, DEADLINE);
        (sim, apps, n)
    }

    fn merged_receipts(apps: &[Flood]) -> Vec<Receipt> {
        let mut all: Vec<Receipt> = apps.iter().flat_map(|a| a.received.clone()).collect();
        all.sort();
        all
    }

    /// Receipts stripped of the partition-dependent key, in a canonical
    /// order — comparable across different shard counts.
    fn keyless(receipts: &[Receipt]) -> Vec<(SimTime, NodeId, NodeId, u32)> {
        let mut out: Vec<_> = receipts
            .iter()
            .map(|&(_, at, from, msg, now)| (now, at, from, msg))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn one_worker_is_bit_equal_to_sequential() {
        let (seq_sim, seq_app, seq_n) = seq_run(7, 3);
        let (mut sh_sim, sh_apps, sh_n) = sharded_run(7, 3, 1);
        assert_eq!(sh_apps.len(), 1);
        // Same events, same keys, same order, same draws, same clock.
        assert_eq!(seq_app.received, sh_apps[0].received);
        assert_eq!(seq_n, sh_n);
        assert_eq!(seq_sim.now(), sh_sim.now());
        assert_eq!(*seq_sim.stats(), sh_sim.stats());
        for i in 0..N as u32 {
            assert_eq!(sh_sim.shard_of(NodeId(i)), 0);
        }
    }

    #[test]
    fn multi_worker_parallel_matches_sequential_outcome() {
        let (seq_sim, seq_app, seq_n) = seq_run(11, 3);
        for workers in [2, 4] {
            let (sh_sim, sh_apps, sh_n) = sharded_run(11, 3, workers);
            assert_eq!(sh_apps.len(), workers);
            assert_eq!(
                keyless(&seq_app.received),
                keyless(&merged_receipts(&sh_apps))
            );
            assert_eq!(seq_n, sh_n, "workers={workers}");
            assert_eq!(seq_sim.now(), sh_sim.now());
            assert_eq!(*seq_sim.stats(), sh_sim.stats());
        }
    }

    #[test]
    fn parallel_runs_are_reproducible() {
        let (_, apps_a, n_a) = sharded_run(23, 3, 4);
        let (_, apps_b, n_b) = sharded_run(23, 3, 4);
        // Same partition → keys comparable: full bit-equality.
        assert_eq!(merged_receipts(&apps_a), merged_receipts(&apps_b));
        assert_eq!(n_a, n_b);
    }

    #[test]
    fn partition_is_spatially_contiguous() {
        let (mut sim, _, _) = sharded_run(1, 0, 4);
        assert_eq!(sim.shard_count(), 4);
        // On a line sorted by x, shard ids must be monotone in x.
        let shards: Vec<usize> = (0..N as u32).map(|i| sim.shard_of(NodeId(i))).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted);
        assert_eq!(shards[0], 0);
        assert_eq!(shards[N - 1], 3);
    }

    #[test]
    fn chunked_runs_match_one_shot_run() {
        // Split the same flood across several deadlines: stragglers
        // drained after a parallel run must stay scheduled.
        let (_, one_shot, n_one) = sharded_run(31, 3, 4);
        let mut sim = ShardedSimulator::new(line_config(31), 4);
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
        let mut apps = vec![
            Flood {
                ttl: 3,
                ..Default::default()
            };
            sim.shard_count()
        ];
        let mut n_chunked = 0;
        for stop_ms in [2, 4, 5, 7, 1000] {
            n_chunked += sim.run_until(&mut apps, SimTime(stop_ms * 1000));
        }
        assert_eq!(merged_receipts(&one_shot), merged_receipts(&apps));
        assert_eq!(n_one, n_chunked);
    }

    #[test]
    fn pending_down_events_run_on_the_merged_path_and_match_sequential() {
        let build = |seed| {
            let mut sim = Simulator::new(line_config(seed));
            for i in 0..N {
                sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
            }
            sim
        };
        let mut seq = build(5);
        seq.schedule_down(NodeId(6), SimDuration::micros(2_500));
        seq.schedule_up(NodeId(6), SimDuration::millis(20));
        seq.schedule_timer(NodeId(8), SimDuration::millis(1), 1);
        let mut seq_app = Flood {
            ttl: 4,
            ..Default::default()
        };
        let seq_n = seq.run_until(&mut seq_app, DEADLINE);

        let mut sh = ShardedSimulator::new(line_config(5), 4);
        for i in 0..N {
            sh.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sh.schedule_down(NodeId(6), SimDuration::micros(2_500));
        sh.schedule_up(NodeId(6), SimDuration::millis(20));
        sh.schedule_timer(NodeId(8), SimDuration::millis(1), 1);
        let mut apps = vec![
            Flood {
                ttl: 4,
                ..Default::default()
            };
            sh.shard_count()
        ];
        let sh_n = sh.run_until(&mut apps, DEADLINE);
        assert_eq!(keyless(&seq_app.received), keyless(&merged_receipts(&apps)));
        assert_eq!(seq_n, sh_n);
        assert_eq!(*seq.stats(), sh.stats());
    }

    #[test]
    fn fault_plan_outcome_is_worker_count_independent() {
        let plan = FaultPlan {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            ..FaultPlan::sampled(99)
        };
        let run = |workers: usize| {
            let mut sim = ShardedSimulator::new(line_config(13), workers);
            for i in 0..N {
                sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
            }
            sim.set_fault_plan(plan);
            sim.schedule_timer(NodeId(N as u32 / 2), SimDuration::millis(1), 1);
            let mut apps = vec![
                Flood {
                    ttl: 3,
                    ..Default::default()
                };
                sim.shard_count()
            ];
            let n = sim.run_until(&mut apps, DEADLINE);
            (keyless(&merged_receipts(&apps)), n, sim.stats())
        };
        // Per-node fault samplers make the fault pattern a function of
        // (plan seed, node id) — identical at any worker count.
        let (r1, n1, s1) = run(1);
        let (r4, n4, s4) = run(4);
        assert_eq!(r1, r4);
        assert_eq!(n1, n4);
        assert_eq!(s1, s4);
        assert!(s1.faults_dropped > 0 || s1.faults_duplicated > 0);
    }

    #[test]
    fn zero_lookahead_falls_back_to_merged_path() {
        let cfg = SimConfig {
            area: Area::new(2000.0, 200.0),
            radio: RadioModel::instant(),
            seed: 3,
            ..Default::default()
        };
        let mut sim = ShardedSimulator::new(cfg, 4);
        for i in 0..N {
            sim.add_node(Point::new(30.0 * i as f64, 100.0), Mobility::Static);
        }
        sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
        assert!(!sim.parallel_eligible() || sim.part.is_none());
        let mut apps = vec![
            Flood {
                ttl: 2,
                ..Default::default()
            };
            sim.shard_count()
        ];
        let n = sim.run_until(&mut apps, DEADLINE);
        assert!(n > 0);
        assert!(!sim.parallel_eligible());
    }

    #[test]
    fn mobility_falls_back_to_merged_path_and_matches_sequential() {
        let run_seq = |seed| {
            let mut sim = Simulator::new(line_config(seed));
            for _ in 0..N {
                sim.add_node_random(Mobility::RandomWaypoint {
                    min_speed: 1.0,
                    max_speed: 2.0,
                    pause: SimDuration::millis(50),
                });
            }
            sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
            let mut app = Flood {
                ttl: 2,
                ..Default::default()
            };
            let n = sim.run_until(&mut app, SimTime(400_000));
            (keyless(&app.received), n, sim.stats().clone())
        };
        let run_sh = |seed| {
            let mut sim = ShardedSimulator::new(line_config(seed), 4);
            for _ in 0..N {
                sim.add_node_random(Mobility::RandomWaypoint {
                    min_speed: 1.0,
                    max_speed: 2.0,
                    pause: SimDuration::millis(50),
                });
            }
            sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
            let mut apps = vec![
                Flood {
                    ttl: 2,
                    ..Default::default()
                };
                sim.shard_count()
            ];
            let n = sim.run_until(&mut apps, SimTime(400_000));
            (keyless(&merged_receipts(&apps)), n, sim.stats())
        };
        let (ra, na, sa) = run_seq(17);
        let (rb, nb, sb) = run_sh(17);
        assert_eq!(ra, rb);
        assert_eq!(na, nb);
        assert_eq!(sa, sb);
    }
}
