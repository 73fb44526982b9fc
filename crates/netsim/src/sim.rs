//! The discrete-event simulator core.
//!
//! [`Simulator`] owns the node table (positions, mobility, liveness), the
//! radio model, a seeded RNG and a totally ordered event heap. Application
//! logic — the negotiation protocol — lives *outside* the simulator behind
//! the sans-IO [`NetApp`] trait: handlers receive events plus a [`Ctx`]
//! through which they emit unicast/broadcast/timer commands. The simulator
//! applies the commands after each handler returns, which keeps handlers
//! free of borrow entanglement and makes every run bit-reproducible for a
//! given seed. Events are totally ordered by `(time, sequence number)`,
//! the sequence number assigned when the event is scheduled.
//!
//! Randomness is split into **per-node streams**: every node owns a
//! `ChaCha8Rng` seeded from `(run seed, node id)`, and all draws made
//! while handling an event anchored at node *n* — the handler's
//! `ctx.rng`, radio loss draws for the messages it sends, fault-plan
//! sampling — come from node *n*'s stream. A node's randomness therefore
//! depends only on the sequence of events it handles, not on how events
//! at *other* nodes interleave. A separate control RNG (seeded from the
//! run seed) drives placement ([`Simulator::add_node_random`]) and
//! mobility ticks.
//!
//! # The delivery plane: one entry per transmission
//!
//! The medium is a shared radio: a broadcast is *one* transmission heard
//! by everyone in range, and the queue holds it as one entry per run of
//! copies that share a delivery instant (normally the whole fan-out; a
//! fault-delayed or duplicated copy breaks the run and is an entry of its
//! own). The entry reserves one sequence number per copy at send time, so
//! popping it and handing copy `i` to its receiver under `seq + i` is
//! exactly the order one entry per copy would give. The per-copy
//! reference, [`Simulator::per_copy`], is the oracle for that, bit for
//! bit: it queues every copy as an entry of its own and queries the grid
//! on every send. Every copy borrows the entry's one `Arc<M>` payload
//! (`M` needs no `Clone` bound at all); receiver lists live beside the
//! heap, so an entry is 56 bytes whatever it carries.
//!
//! Fan-out targets come from a **remembered neighbourhood**: the ids in
//! range of the sender, computed from the [`NeighbourIndex`] grid (3×3
//! cells around the sender, not the whole node table) on the node's first
//! broadcast after the topology changed, and reused until it changes
//! again — `add_node` and the mobility tick are the only things that move
//! a position, and both bump the epoch that invalidates every list.
//! Liveness is deliberately not part of the list: `Down`/`Up` events are
//! frequent and cheap to test per target at send time, so failure
//! injection never costs a refill. Handlers see borrowed views
//! throughout: `&M` payloads and a [`Ctx`] that reads the live node table
//! directly instead of copying positions per event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::fault::{FaultPlan, FaultSampler, PartitionPlan, PartitionTimeline};
use crate::geometry::{Area, Point};
use crate::grid::NeighbourIndex;
use crate::mobility::{Mobility, MobilityState};
use crate::radio::RadioModel;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Derives the seed of a node's private RNG stream from the run seed.
/// Splitmix-style odd multiplier keeps neighbouring node ids far apart
/// in seed space; `node + 1` keeps node 0 off the raw run seed.
pub(crate) fn node_stream_seed(seed: u64, node: u32) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node) + 1)
}

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The plane nodes live on.
    pub area: Area,
    /// Radio/link model shared by all nodes.
    pub radio: RadioModel,
    /// Interval at which node positions are advanced. Mobility between
    /// ticks is piecewise linear; 100 ms is plenty for pedestrian speeds.
    pub mobility_tick: SimDuration,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            area: Area::new(200.0, 200.0),
            radio: RadioModel::default(),
            mobility_tick: SimDuration::millis(100),
            seed: 0,
        }
    }
}

/// Application protocol plugged into the simulator (sans-IO).
pub trait NetApp<M> {
    /// A message from `from` arrived at `at`.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, at: NodeId, from: NodeId, msg: &M);
    /// A timer armed by `at` (token chosen by the app) fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, at: NodeId, token: u64);
    /// `node` was killed (failure injection).
    fn on_node_down(&mut self, _ctx: &mut Ctx<'_, M>, _node: NodeId) {}
    /// `node` came back up.
    fn on_node_up(&mut self, _ctx: &mut Ctx<'_, M>, _node: NodeId) {}
}

/// Whether a delivery event originated as a unicast or as one copy of a
/// broadcast fan-out; drives which [`NetStats`] counters it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendKind {
    Unicast,
    Broadcast,
}

enum EventKind<M> {
    Deliver {
        kind: SendKind,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        sent_at: SimTime,
        /// Shared payload: all deliveries of one broadcast point at the
        /// same allocation.
        msg: Arc<M>,
    },
    /// One radio transmission on the sequential engine: the run of
    /// broadcast copies that share a delivery instant. The entry's own
    /// `seq` is copy 0's; copy `i` goes to the `i`-th id of receiver
    /// list `targets` of `Simulator::fanout` under `seq + i`.
    Fanout {
        src: NodeId,
        targets: u32,
        bytes: u64,
        sent_at: SimTime,
        msg: Arc<M>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    MobilityTick,
    Down(NodeId),
    Up(NodeId),
}

/// A heap entry. Events are totally ordered by `(at, seq)`: `seq` is
/// the sequence number assigned at push time, so the order is a pure
/// function of what was scheduled, never of heap internals.
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> Scheduled<M> {
    /// The event's total-order key.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key().cmp(&self.key())
    }
}

struct NodeSlot {
    pos: Point,
    mobility: MobilityState,
    up: bool,
}

/// A node's remembered neighbourhood: the ids within radio range of its
/// position, valid while `epoch` equals the simulator's topology epoch.
#[derive(Default)]
struct Hood {
    epoch: u64,
    ids: Vec<NodeId>,
}

/// Commands an application handler may emit through [`Ctx`].
enum Command<M> {
    Unicast {
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        msg: Arc<M>,
    },
    Broadcast {
        src: NodeId,
        bytes: u64,
        msg: Arc<M>,
    },
    Timer {
        node: NodeId,
        delay: SimDuration,
        token: u64,
    },
}

/// Handler-side view of the simulation: current time, RNG, connectivity
/// queries, and the command sink. Borrows the live node table — nothing
/// is copied per event.
pub struct Ctx<'a, M> {
    /// Current simulated time.
    pub now: SimTime,
    /// The *anchor node's* deterministic RNG stream: the private
    /// `ChaCha8Rng` of the node this event is anchored at (delivery
    /// destination, timer owner, …), seeded from `(run seed, node id)`.
    /// Draws here depend only on this node's own event sequence.
    pub rng: &'a mut ChaCha8Rng,
    cmds: Vec<Command<M>>,
    nodes: &'a [NodeSlot],
    index: &'a NeighbourIndex,
    radio: &'a RadioModel,
    /// Total-order key of the event being handled.
    key: (SimTime, u64),
}

impl<'a, M> Ctx<'a, M> {
    /// Total-order key `(time, sequence)` of the event currently being
    /// handled. Identical seeds give identical keys, so an application
    /// can tag what it receives with it and compare or merge logs in one
    /// deterministic order.
    pub fn order_key(&self) -> (SimTime, u64) {
        self.key
    }
    /// Sends `msg` from `src` to `dst` (single hop). Delivery, loss and
    /// latency are decided by the simulator from the topology at *send*
    /// time. Accepts an owned payload or an already-shared `Arc<M>`.
    pub fn unicast(&mut self, src: NodeId, dst: NodeId, bytes: u64, msg: impl Into<Arc<M>>) {
        self.cmds.push(Command::Unicast {
            src,
            dst,
            bytes,
            msg: msg.into(),
        });
    }

    /// Broadcasts `msg` from `src` to every in-range, live neighbour.
    /// The payload is allocated (or shared) once; no delivery copies the
    /// message.
    pub fn broadcast(&mut self, src: NodeId, bytes: u64, msg: impl Into<Arc<M>>) {
        self.cmds.push(Command::Broadcast {
            src,
            bytes,
            msg: msg.into(),
        });
    }

    /// Arms a one-shot timer at `node` after `delay`.
    pub fn timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.cmds.push(Command::Timer { node, delay, token });
    }

    /// Live single-hop neighbours of `node` under the current topology,
    /// in ascending id order (answered from the spatial index).
    pub fn neighbours(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        Medium {
            radio: self.radio,
            nodes: self.nodes,
            index: self.index,
            cuts: None,
        }
        .live_neighbours_into(node, &mut out);
        out
    }
}

/// The deterministic discrete-event network simulator.
pub struct Simulator<M> {
    config: SimConfig,
    nodes: Vec<NodeSlot>,
    heap: BinaryHeap<Scheduled<M>>,
    seq: u64,
    now: SimTime,
    /// Control RNG: node placement and mobility advancement only. All
    /// event-handling draws come from the per-node `streams`.
    rng: ChaCha8Rng,
    /// Per-node RNG streams, indexed by `NodeId`; see the module docs.
    streams: Vec<ChaCha8Rng>,
    stats: NetStats,
    mobility_armed: bool,
    /// Spatial grid over the node positions; rebuilt on every mobility
    /// tick, extended in place by `add_node`. Queries filter liveness
    /// against `nodes`, so up/down events never touch the index.
    index: NeighbourIndex,
    /// Per-node remembered neighbourhoods (parallel to `nodes`), filled
    /// on a node's first broadcast after `topo_epoch` moved.
    hoods: Vec<Hood>,
    /// Where a neighbourhood is computed (the grid hands back ~3× the
    /// ids that stay) before an exact-size copy is remembered.
    hood_scratch: Vec<NodeId>,
    /// The per-copy reference ([`Simulator::per_copy`]): every broadcast
    /// queries the grid and queues each copy as an entry of its own.
    per_copy: bool,
    /// Bumped whenever a position appears or changes: `add_node` and the
    /// mobility tick. Starts at 1 so a default `Hood` is stale.
    topo_epoch: u64,
    /// Receiver lists of the in-flight [`EventKind::Fanout`] entries,
    /// kept beside the heap so a heap entry stays 64 bytes. A delivered
    /// list is emptied and its slot pushed on `fanout_free`.
    fanout: Vec<Vec<NodeId>>,
    fanout_free: Vec<u32>,
    /// Reused handler command buffer (one per event otherwise).
    cmd_scratch: Vec<Command<M>>,
    /// The installed fault plan, if it samples anything; kept so nodes
    /// added after [`Simulator::set_fault_plan`] get samplers too.
    fault_plan: Option<FaultPlan>,
    /// Per-node fault samplers (parallel to `nodes` when a plan is
    /// installed, empty otherwise); each seeded from `(plan.seed, node)`
    /// so fault draws, like all other draws, are independent of how
    /// events at different nodes interleave. An empty table keeps the
    /// delivery path bit-identical to a simulator without a fault layer.
    fault: Vec<FaultSampler>,
    /// Expanded partition schedule, if one cuts anything; consulted at
    /// delivery-planning time as a pure timestamp lookup.
    partition: Option<PartitionTimeline>,
}

impl<M> Simulator<M> {
    /// Bytes one queue entry occupies for this payload type; pinned by
    /// tests so the unicast path does not pay for the fan-out variant.
    #[doc(hidden)]
    pub const QUEUE_ENTRY_BYTES: usize = std::mem::size_of::<Scheduled<M>>();

    /// Creates an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let index = NeighbourIndex::new(&config.area, config.radio.range_m);
        Self {
            config,
            nodes: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng,
            streams: Vec::new(),
            stats: NetStats::default(),
            mobility_armed: false,
            index,
            hoods: Vec::new(),
            hood_scratch: Vec::new(),
            per_copy: false,
            topo_epoch: 1,
            fanout: Vec::new(),
            fanout_free: Vec::new(),
            cmd_scratch: Vec::new(),
            fault_plan: None,
            fault: Vec::new(),
            partition: None,
        }
    }

    /// The per-copy reference engine: the same simulator with its two
    /// delivery-plane shortcuts switched off. Every broadcast queries the
    /// grid instead of the remembered neighbourhood, and every copy is a
    /// queue entry of its own under the sequence number it reserves
    /// instead of one entry per run of same-instant copies. Runs are bit
    /// for bit those of [`Simulator::new`]; tests use it as the oracle
    /// for both shortcuts.
    #[doc(hidden)]
    pub fn per_copy(config: SimConfig) -> Self {
        Self {
            per_copy: true,
            ..Self::new(config)
        }
    }

    /// Installs a [`FaultPlan`] whose drop/duplicate/reorder faults are
    /// sampled on every subsequent delivery, from per-node sampler
    /// streams seeded by `(plan.seed, node)`. A plan that samples
    /// nothing uninstalls the layer, restoring the exact no-fault event
    /// stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.samples_anything().then_some(plan);
        self.fault = match self.fault_plan {
            Some(p) => (0..self.nodes.len() as u32)
                .map(|n| FaultSampler::for_node(p, n))
                .collect(),
            None => Vec::new(),
        };
    }

    /// Installs a [`PartitionPlan`], expanded against the current node
    /// count: deliveries whose timestamp falls while the link is cut are
    /// discarded. Install after every node has been added. A plan whose
    /// timeline never changes connectivity uninstalls the layer,
    /// restoring the exact no-partition event stream.
    pub fn set_partition_plan(&mut self, plan: &PartitionPlan) {
        let tl = plan.expand(self.nodes.len());
        self.partition = (!tl.is_empty()).then_some(tl);
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
        self.streams
            .push(ChaCha8Rng::seed_from_u64(node_stream_seed(
                self.config.seed,
                id.0,
            )));
        if let Some(p) = self.fault_plan {
            self.fault.push(FaultSampler::for_node(p, id.0));
        }
        self.index.insert(id, pos);
        self.hoods.push(Hood::default());
        self.topo_epoch += 1;
        if mobile && !self.mobility_armed {
            self.mobility_armed = true;
            let at = self.now + self.config.mobility_tick;
            self.push(at, EventKind::MobilityTick);
        }
        id
    }

    /// Adds a node at a uniformly random position.
    pub fn add_node_random(&mut self, mobility: Mobility) -> NodeId {
        let p = self.config.area.sample(&mut self.rng);
        self.add_node(p, mobility)
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
        self.nodes.get(n.0 as usize).map(|s| s.up).unwrap_or(false)
    }

    /// Network counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The radio model in force.
    pub fn radio(&self) -> &RadioModel {
        &self.config.radio
    }

    /// Schedules a timer for the application (e.g. to bootstrap it).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { node, token });
    }

    /// Schedules a failure: `node` goes down at `now + delay`.
    pub fn schedule_down(&mut self, node: NodeId, delay: SimDuration) {
        let at = self.now + delay;
        self.push(at, EventKind::Down(node));
    }

    /// Schedules a recovery: `node` comes back at `now + delay`.
    pub fn schedule_up(&mut self, node: NodeId, delay: SimDuration) {
        let at = self.now + delay;
        self.push(at, EventKind::Up(node));
    }

    /// Live single-hop neighbours of `node`.
    pub fn neighbours(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbours_into(node, &mut out);
        out
    }

    /// Buffer-reusing variant of [`Simulator::neighbours`]: clears `out`
    /// and appends the live single-hop neighbours of `node` in ascending
    /// id order. Answered from the [`NeighbourIndex`] — only the 3×3 cell
    /// block around the node is scanned; callers on hot paths keep one
    /// scratch `Vec` alive across queries instead of allocating per call.
    pub fn neighbours_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        Medium {
            radio: &self.config.radio,
            nodes: &self.nodes,
            index: &self.index,
            cuts: None,
        }
        .live_neighbours_into(node, out);
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, kind });
    }

    /// Applies the commands a handler emitted. `anchor` is the node the
    /// handled event was anchored at: its RNG stream and fault sampler
    /// make every draw the sends below need.
    fn apply_commands(&mut self, anchor: NodeId, cmds: &mut Vec<Command<M>>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Unicast {
                    src,
                    dst,
                    bytes,
                    msg,
                } => self.submit_unicast(anchor, src, dst, bytes, msg),
                Command::Broadcast { src, bytes, msg } => {
                    self.submit_broadcast(anchor, src, bytes, msg);
                }
                Command::Timer { node, delay, token } => {
                    let at = self.now + delay;
                    self.push(at, EventKind::Timer { node, token });
                }
            }
        }
    }

    fn submit_unicast(
        &mut self,
        anchor: NodeId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        msg: Arc<M>,
    ) {
        let times = Medium {
            radio: &self.config.radio,
            nodes: &self.nodes,
            index: &self.index,
            cuts: self.partition.as_ref(),
        }
        .plan_unicast(
            &mut Draws {
                rng: &mut self.streams[anchor.0 as usize],
                fault: self.fault.get_mut(anchor.0 as usize),
                stats: &mut self.stats,
            },
            src,
            dst,
            self.now,
            bytes,
        );
        let sent_at = self.now;
        for at in times.into_iter().flatten() {
            self.push(
                at,
                EventKind::Deliver {
                    kind: SendKind::Unicast,
                    src,
                    dst,
                    bytes,
                    sent_at,
                    msg: Arc::clone(&msg),
                },
            );
        }
    }

    /// One transmission: walks `src`'s remembered neighbourhood in
    /// ascending id order — the order the loss/fault draws and sequence
    /// numbers are consumed in — and schedules each maximal run of
    /// copies that share a delivery instant as one [`EventKind::Fanout`]
    /// entry holding the run's reserved range of sequence numbers. The
    /// per-copy reference refills the neighbourhood on every send and
    /// queues each copy as its own [`EventKind::Deliver`].
    fn submit_broadcast(&mut self, anchor: NodeId, src: NodeId, bytes: u64, msg: Arc<M>) {
        self.stats.broadcasts_sent += 1;
        let Some(src_pos) = self
            .nodes
            .get(src.0 as usize)
            .filter(|s| s.up)
            .map(|s| s.pos)
        else {
            return;
        };
        let medium = Medium {
            radio: &self.config.radio,
            nodes: &self.nodes,
            index: &self.index,
            cuts: self.partition.as_ref(),
        };
        let hood = &mut self.hoods[src.0 as usize];
        if self.per_copy || hood.epoch != self.topo_epoch {
            medium.in_range_ids(src, &mut self.hood_scratch);
            hood.ids.clear();
            hood.ids.extend_from_slice(&self.hood_scratch);
            hood.epoch = self.topo_epoch;
        }
        let ids = std::mem::take(&mut hood.ids);
        let sent_at = self.now;
        let base_at = sent_at + self.config.radio.latency(bytes);
        // The open run: its delivery instant and receiver list.
        let mut run: Option<(SimTime, u32)> = None;
        for &dst in &ids {
            // The list is positions only; liveness is today's.
            let d = &self.nodes[dst.0 as usize];
            if !d.up {
                continue;
            }
            let times = medium.plan_broadcast_copy(
                &mut Draws {
                    rng: &mut self.streams[anchor.0 as usize],
                    fault: self.fault.get_mut(anchor.0 as usize),
                    stats: &mut self.stats,
                },
                src,
                dst,
                src_pos.distance(&d.pos),
                base_at,
            );
            for at in times.into_iter().flatten() {
                let seq = self.seq;
                self.seq += 1;
                if self.per_copy {
                    let kind = EventKind::Deliver {
                        kind: SendKind::Broadcast,
                        src,
                        dst,
                        bytes,
                        sent_at,
                        msg: Arc::clone(&msg),
                    };
                    self.heap.push(Scheduled { at, seq, kind });
                    continue;
                }
                let targets = match run {
                    Some((run_at, targets)) if run_at == at => targets,
                    _ => {
                        // The entry only names the list, so it can be
                        // queued now and the run's later copies appended.
                        let targets = self.fanout_free.pop().unwrap_or_else(|| {
                            self.fanout.push(Vec::new());
                            self.fanout.len() as u32 - 1
                        });
                        self.heap.push(Scheduled {
                            at,
                            seq,
                            kind: EventKind::Fanout {
                                src,
                                targets,
                                bytes,
                                sent_at,
                                msg: Arc::clone(&msg),
                            },
                        });
                        run = Some((at, targets));
                        targets
                    }
                };
                self.fanout[targets as usize].push(dst);
            }
        }
        self.hoods[src.0 as usize].ids = ids;
    }

    /// Runs `call` against a borrowed [`Ctx`] view of the node table,
    /// then applies the commands it emitted. `anchor` is the node the
    /// event is anchored at: its RNG stream backs `ctx.rng` and every
    /// draw the emitted commands need. The command buffer is reused.
    fn with_ctx(
        &mut self,
        key: (SimTime, u64),
        anchor: NodeId,
        call: impl FnOnce(&mut Ctx<'_, M>),
    ) {
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.streams[anchor.0 as usize],
            cmds: std::mem::take(&mut self.cmd_scratch),
            nodes: &self.nodes,
            index: &self.index,
            radio: &self.config.radio,
            key,
        };
        call(&mut ctx);
        let mut cmds = ctx.cmds;
        self.apply_commands(anchor, &mut cmds);
        self.cmd_scratch = cmds;
    }

    /// Hands one delivery, handled under `key`, to `app`.
    #[allow(clippy::too_many_arguments)]
    fn deliver<A: NetApp<M>>(
        &mut self,
        app: &mut A,
        key: (SimTime, u64),
        kind: SendKind,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        sent_at: SimTime,
        msg: &M,
    ) {
        // The destination may have died in flight.
        if self.is_up(dst) {
            match kind {
                SendKind::Unicast => self.stats.unicasts_delivered += 1,
                SendKind::Broadcast => self.stats.broadcast_deliveries += 1,
            }
            let latency = self.now.since(sent_at);
            self.stats.record_delivery(latency, bytes);
            self.with_ctx(key, dst, |ctx| app.on_message(ctx, dst, src, msg));
        } else {
            match kind {
                SendKind::Unicast => self.stats.unicasts_unreachable += 1,
                SendKind::Broadcast => self.stats.broadcasts_undelivered += 1,
            }
        }
    }

    /// Takes the next queue entry and processes one event of it, or —
    /// `whole` — every copy a fan-out entry still holds. Returns the
    /// number of events processed, `None` when nothing is pending.
    fn advance<A: NetApp<M>>(&mut self, app: &mut A, whole: bool) -> Option<u64> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        let key = ev.key();
        match ev.kind {
            EventKind::Fanout {
                src,
                targets,
                bytes,
                sent_at,
                ref msg,
            } => {
                // Nothing else holds a key inside the entry's reserved
                // range and whatever a handler schedules sorts after it,
                // so the copies run back to back off the one payload.
                let mut list = std::mem::take(&mut self.fanout[targets as usize]);
                let n = if whole { list.len() } else { 1 };
                for (i, &dst) in list[..n].iter().enumerate() {
                    let key = (key.0, key.1 + i as u64);
                    self.deliver(app, key, SendKind::Broadcast, src, dst, bytes, sent_at, msg);
                }
                list.drain(..n);
                if list.is_empty() {
                    self.fanout_free.push(targets);
                } else {
                    // Stepped into: the rest goes back under its next key,
                    // still ahead of everything else queued.
                    let seq = ev.seq + n as u64;
                    self.heap.push(Scheduled { seq, ..ev });
                }
                self.fanout[targets as usize] = list;
                return Some(n as u64);
            }
            EventKind::MobilityTick => {
                let dt = self.config.mobility_tick;
                let area = self.config.area;
                for slot in &mut self.nodes {
                    slot.pos = slot.mobility.advance(slot.pos, dt, &area, &mut self.rng);
                }
                // Positions changed: re-bin the spatial index and let
                // every remembered neighbourhood go stale.
                self.index.rebuild(self.nodes.iter().map(|s| s.pos));
                self.topo_epoch += 1;
                let at = self.now + dt;
                self.push(at, EventKind::MobilityTick);
            }
            EventKind::Deliver {
                kind,
                src,
                dst,
                bytes,
                sent_at,
                msg,
            } => self.deliver(app, key, kind, src, dst, bytes, sent_at, &msg),
            EventKind::Timer { node, token } => {
                if self.is_up(node) {
                    self.with_ctx(key, node, |ctx| app.on_timer(ctx, node, token));
                }
            }
            EventKind::Down(node) => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = false;
                    self.with_ctx(key, node, |ctx| app.on_node_down(ctx, node));
                }
            }
            EventKind::Up(node) => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = true;
                    self.with_ctx(key, node, |ctx| app.on_node_up(ctx, node));
                }
            }
        }
        Some(1)
    }

    /// Processes the next event through `app` — one delivered copy when
    /// it is part of a fan-out. Returns the new time, or `None` when
    /// nothing is pending.
    pub fn step<A: NetApp<M>>(&mut self, app: &mut A) -> Option<SimTime> {
        self.advance(app, false).map(|_| self.now)
    }

    /// Runs until the queue drains or `deadline` passes. Returns the number
    /// of events processed, one per delivered copy. The perpetual mobility
    /// tick does not count as progress, so a simulation with only mobile
    /// nodes and no protocol activity still terminates at the deadline.
    pub fn run_until<A: NetApp<M>>(&mut self, app: &mut A, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.heap.peek().map(|ev| ev.at) {
            if at > deadline {
                self.now = deadline;
                break;
            }
            n += self.advance(app, true).unwrap_or(0);
        }
        n
    }
}

/// Immutable view of the transmission medium — radio model, node table,
/// spatial index — behind the unicast and broadcast send paths and the
/// neighbour queries. The per-copy reference plans its sends through the
/// same loss / fault / partition decisions, so its bit-equality pin
/// checks the delivery plane alone.
struct Medium<'a> {
    radio: &'a RadioModel,
    nodes: &'a [NodeSlot],
    index: &'a NeighbourIndex,
    /// Expanded partition schedule, if one is installed. Consulted as a
    /// pure timestamp lookup *after* all loss/fault draws, so installing
    /// a schedule that never cuts is bit-identical to none at all.
    cuts: Option<&'a PartitionTimeline>,
}

/// Mutable draw state of the node anchoring the current event: its RNG
/// stream, its fault sampler (if a plan is installed), and the stats
/// block the engine is accumulating into.
struct Draws<'a> {
    rng: &'a mut ChaCha8Rng,
    fault: Option<&'a mut FaultSampler>,
    stats: &'a mut NetStats,
}

impl Draws<'_> {
    /// Post-fault delivery times of one nominal delivery. No sampler
    /// installed means exactly one on-time copy and zero randomness
    /// consumed.
    fn fault_times(&mut self, base_at: SimTime) -> [Option<SimTime>; 2] {
        match self.fault.as_deref_mut() {
            Some(f) => f.delivery_times(base_at, self.stats),
            None => [Some(base_at), None],
        }
    }
}

impl Medium<'_> {
    /// Decides one unicast send at `now`: bumps the sent/unreachable/
    /// lost counters, draws loss and faults from `draws`, and returns
    /// the delivery times to schedule (none when the message dies).
    fn plan_unicast(
        &self,
        draws: &mut Draws<'_>,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        bytes: u64,
    ) -> [Option<SimTime>; 2] {
        draws.stats.unicasts_sent += 1;
        let (Some(s), Some(d)) = (
            self.nodes.get(src.0 as usize),
            self.nodes.get(dst.0 as usize),
        ) else {
            draws.stats.unicasts_unreachable += 1;
            return [None, None];
        };
        if !s.up || !d.up {
            draws.stats.unicasts_unreachable += 1;
            return [None, None];
        }
        let dist = s.pos.distance(&d.pos);
        if !self.radio.in_range(dist) {
            draws.stats.unicasts_unreachable += 1;
            return [None, None];
        }
        if self.radio.drops(dist, draws.rng) {
            draws.stats.unicasts_lost += 1;
            return [None, None];
        }
        let times = draws.fault_times(now + self.radio.latency(bytes));
        self.cut_partitioned(times, src, dst, draws.stats)
    }

    /// The one in-range query: clears `out` and fills it with every node
    /// within radio range of `node`'s position, ascending, `node` itself
    /// excluded. Positions only — liveness is the caller's to test, which
    /// is what lets the answer be remembered across `Down`/`Up` events.
    /// Scans the 3×3 cell block around the node; empty for an unknown id.
    fn in_range_ids(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let Some(pos) = self.nodes.get(node.0 as usize).map(|s| s.pos) else {
            return;
        };
        self.index.candidates_into(pos, out);
        out.retain(|&c| {
            c != node
                && self
                    .radio
                    .in_range(pos.distance(&self.nodes[c.0 as usize].pos))
        });
        out.sort_unstable();
    }

    /// Clears `out` and fills it with the live single-hop neighbours of
    /// `node` in ascending id order; empty when `node` is down or unknown.
    fn live_neighbours_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if self.nodes.get(node.0 as usize).is_some_and(|s| s.up) {
            self.in_range_ids(node, out);
            out.retain(|&c| self.nodes[c.0 as usize].up);
        }
    }

    /// Decides one broadcast copy from `src` to `dst` at distance `dist`:
    /// draws loss (a lost copy counts as `broadcasts_lost`) and faults,
    /// returning the delivery times to schedule.
    fn plan_broadcast_copy(
        &self,
        draws: &mut Draws<'_>,
        src: NodeId,
        dst: NodeId,
        dist: f64,
        base_at: SimTime,
    ) -> [Option<SimTime>; 2] {
        if self.radio.drops(dist, draws.rng) {
            draws.stats.broadcasts_lost += 1;
            return [None, None];
        }
        let times = draws.fault_times(base_at);
        self.cut_partitioned(times, src, dst, draws.stats)
    }

    /// Applies the partition schedule to planned delivery copies: any
    /// copy whose *delivery* timestamp falls while `src ↔ dst` is cut is
    /// discarded (counted in `partition_cuts`). Runs after every random
    /// draw and consumes none itself, so the DES and the direct runtime
    /// cut exactly the same links on the same draws.
    fn cut_partitioned(
        &self,
        mut times: [Option<SimTime>; 2],
        src: NodeId,
        dst: NodeId,
        stats: &mut NetStats,
    ) -> [Option<SimTime>; 2] {
        let Some(cuts) = self.cuts else {
            return times;
        };
        for slot in &mut times {
            if slot.is_some_and(|at| cuts.cuts_at(at, src.0, dst.0)) {
                *slot = None;
                stats.partition_cuts += 1;
            }
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An app that floods a counter message one hop and records receipts.
    struct Echo {
        received: Vec<(NodeId, NodeId, u32)>,
        reply: bool,
    }

    impl NetApp<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, from: NodeId, msg: &u32) {
            self.received.push((at, from, *msg));
            if self.reply && *msg < 10 {
                ctx.unicast(at, from, 100, *msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, token: u64) {
            if token == 1 {
                ctx.broadcast(at, 100, 0);
            }
        }
    }

    /// An app that does nothing: time (and mobility) just passes.
    struct Noop;
    impl NetApp<u32> for Noop {
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: NodeId, _: &u32) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u64) {}
    }

    fn two_node_sim(distance: f64) -> (Simulator<u32>, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig {
            area: Area::new(1000.0, 1000.0),
            ..Default::default()
        });
        let a = sim.add_node(Point::new(0.0, 0.0), Mobility::Static);
        let b = sim.add_node(Point::new(distance, 0.0), Mobility::Static);
        (sim, a, b)
    }

    #[test]
    fn broadcast_reaches_in_range_nodes_only() {
        let (mut sim, a, _b) = two_node_sim(30.0);
        let far = sim.add_node(Point::new(500.0, 0.0), Mobility::Static);
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        assert_eq!(app.received.len(), 1);
        assert_eq!(app.received[0].0 .0, 1); // node b
        assert!(app.received.iter().all(|(at, _, _)| *at != far));
        assert_eq!(sim.stats().broadcasts_sent, 1);
    }

    #[test]
    fn unicast_ping_pong_terminates() {
        let (mut sim, a, _b) = two_node_sim(30.0);
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        let mut app = Echo {
            received: vec![],
            reply: true,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        // Broadcast 0 → b; replies 1..=10 alternate a/b: 11 receipts total.
        assert_eq!(app.received.len(), 11);
        let msgs: Vec<u32> = app.received.iter().map(|r| r.2).collect();
        assert_eq!(msgs, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_unicast_is_unreachable() {
        let (mut sim, a, b) = two_node_sim(500.0);
        struct Once;
        impl NetApp<u32> for Once {
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: NodeId, _: &u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, _: u64) {
                ctx.unicast(at, NodeId(1), 50, 7);
            }
        }
        let _ = b;
        sim.schedule_timer(a, SimDuration::millis(1), 0);
        sim.run_until(&mut Once, SimTime(10_000_000));
        assert_eq!(sim.stats().unicasts_sent, 1);
        assert_eq!(sim.stats().unicasts_unreachable, 1);
        assert_eq!(sim.stats().unicasts_delivered, 0);
    }

    #[test]
    fn dead_node_neither_sends_nor_receives() {
        let (mut sim, a, b) = two_node_sim(30.0);
        sim.schedule_down(b, SimDuration::micros(1));
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        assert!(app.received.is_empty());
        assert!(!sim.is_up(b));
        assert!(sim.is_up(a));
    }

    #[test]
    fn node_recovery_restores_delivery() {
        let (mut sim, a, b) = two_node_sim(30.0);
        sim.schedule_down(b, SimDuration::micros(1));
        sim.schedule_up(b, SimDuration::millis(5));
        sim.schedule_timer(a, SimDuration::millis(10), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        assert_eq!(app.received.len(), 1);
    }

    #[test]
    fn in_flight_message_to_dying_node_is_dropped() {
        let (mut sim, a, b) = two_node_sim(30.0);
        // Message latency is ~2 ms; kill b at 1.5 ms, send at 1 ms.
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        sim.schedule_down(b, SimDuration::micros(1500));
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        assert!(app.received.is_empty());
    }

    #[test]
    fn neighbours_and_reachability() {
        let mut sim: Simulator<u32> = Simulator::new(SimConfig {
            area: Area::new(1000.0, 1000.0),
            radio: RadioModel {
                range_m: 50.0,
                ..Default::default()
            },
            ..Default::default()
        });
        // Chain: a - b - c, with c out of a's direct range.
        let a = sim.add_node(Point::new(0.0, 0.0), Mobility::Static);
        let b = sim.add_node(Point::new(40.0, 0.0), Mobility::Static);
        let c = sim.add_node(Point::new(80.0, 0.0), Mobility::Static);
        // a reaches c only over b.
        assert_eq!(sim.neighbours(a), vec![b]);
        assert_eq!(sim.neighbours(b), vec![a, c]);
        assert_eq!(sim.neighbours(c), vec![b]);
        sim.schedule_down(b, SimDuration::micros(1));
        sim.run_until(&mut Noop, SimTime(1_000));
        // With b down, a and c are isolated.
        assert!(sim.neighbours(a).is_empty());
        assert!(sim.neighbours(c).is_empty());
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(SimConfig {
                seed,
                area: Area::new(100.0, 100.0),
                ..Default::default()
            });
            for _ in 0..10 {
                sim.add_node_random(Mobility::RandomWaypoint {
                    min_speed: 1.0,
                    max_speed: 3.0,
                    pause: SimDuration::millis(500),
                });
            }
            sim.schedule_timer(NodeId(0), SimDuration::millis(1), 1);
            let mut app = Echo {
                received: vec![],
                reply: false,
            };
            sim.run_until(&mut app, SimTime(5_000_000));
            (app.received, sim.stats().clone())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn mobility_changes_topology_over_time() {
        let mut sim: Simulator<u32> = Simulator::new(SimConfig {
            area: Area::new(300.0, 300.0),
            radio: RadioModel {
                range_m: 40.0,
                ..Default::default()
            },
            seed: 5,
            ..Default::default()
        });
        for _ in 0..12 {
            sim.add_node_random(Mobility::RandomWaypoint {
                min_speed: 5.0,
                max_speed: 10.0,
                pause: SimDuration::ZERO,
            });
        }
        let before: Vec<_> = (0..12).map(|i| sim.neighbours(NodeId(i))).collect();
        sim.run_until(&mut Noop, SimTime(60_000_000)); // 60 s
        let after: Vec<_> = (0..12).map(|i| sim.neighbours(NodeId(i))).collect();
        assert_ne!(before, after, "60 s at 5-10 m/s must change neighbourhoods");
        // Nobody broadcast: no neighbourhood was remembered, no list made.
        assert!(sim.hoods.iter().all(|h| h.ids.capacity() == 0));
        assert!(sim.fanout.is_empty());
    }

    #[test]
    fn broadcast_deliveries_do_not_inflate_unicast_counters() {
        let (mut sim, a, _b) = two_node_sim(30.0);
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        let stats = sim.stats();
        assert_eq!(stats.broadcast_deliveries, 1);
        assert_eq!(stats.unicasts_sent, 0);
        assert_eq!(stats.unicasts_delivered, 0);
    }

    #[test]
    fn unicast_deliveries_do_not_touch_broadcast_counters() {
        let (mut sim, a, b) = two_node_sim(30.0);
        struct Once;
        impl NetApp<u32> for Once {
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: NodeId, _: &u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, _: u64) {
                ctx.unicast(at, NodeId(1), 50, 7);
            }
        }
        let _ = b;
        sim.schedule_timer(a, SimDuration::millis(1), 0);
        sim.run_until(&mut Once, SimTime(10_000_000));
        let stats = sim.stats();
        assert_eq!(stats.unicasts_delivered, 1);
        assert_eq!(stats.broadcast_deliveries, 0);
        assert_eq!(stats.broadcasts_sent, 0);
    }

    #[test]
    fn broadcast_copy_to_node_dying_in_flight_counts_undelivered() {
        let (mut sim, a, _b) = two_node_sim(30.0);
        // Broadcast latency is ~2 ms; kill b at 1.5 ms, send at 1 ms.
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        sim.schedule_down(NodeId(1), SimDuration::micros(1500));
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        let stats = sim.stats();
        assert_eq!(stats.broadcasts_undelivered, 1);
        assert_eq!(stats.unicasts_unreachable, 0);
        assert_eq!(stats.broadcast_deliveries, 0);
    }

    #[test]
    fn lossy_broadcast_counts_broadcasts_lost() {
        let mut sim: Simulator<u32> = Simulator::new(SimConfig {
            area: Area::new(1000.0, 1000.0),
            radio: RadioModel {
                loss_floor: 1.0,
                loss_at_edge: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let a = sim.add_node(Point::new(0.0, 0.0), Mobility::Static);
        sim.add_node(Point::new(10.0, 0.0), Mobility::Static);
        sim.schedule_timer(a, SimDuration::millis(1), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.run_until(&mut app, SimTime(10_000_000));
        let stats = sim.stats();
        assert_eq!(stats.broadcasts_lost, 1);
        assert_eq!(stats.unicasts_lost, 0);
        assert_eq!(stats.broadcast_deliveries, 0);
    }

    #[test]
    fn queue_entry_stays_56_bytes_whatever_the_payload() {
        assert_eq!(Simulator::<u32>::QUEUE_ENTRY_BYTES, 56);
        assert_eq!(Simulator::<[u64; 512]>::QUEUE_ENTRY_BYTES, 56);
    }

    #[test]
    fn per_copy_queues_one_entry_per_copy_and_hears_the_same() {
        // A sender ringed by `k` live neighbours, one more that is down.
        let k = 5;
        let run = |mut sim: Simulator<u32>| {
            let a = sim.add_node(Point::new(500.0, 500.0), Mobility::Static);
            for i in 0..=k {
                let angle = i as f64;
                let p = Point::new(500.0 + 20.0 * angle.cos(), 500.0 + 20.0 * angle.sin());
                sim.add_node(p, Mobility::Static);
            }
            let dead = NodeId(k as u32 + 1);
            sim.schedule_down(dead, SimDuration::ZERO);
            sim.schedule_timer(a, SimDuration::millis(1), 1);
            let mut app = Echo {
                received: vec![],
                reply: false,
            };
            sim.step(&mut app); // the down event
            sim.step(&mut app); // the timer: one broadcast
            let queued = sim.heap.len();
            sim.run_until(&mut app, SimTime(10_000_000));
            (queued, app.received, sim.stats().clone())
        };
        let config = || SimConfig {
            area: Area::new(1000.0, 1000.0),
            ..Default::default()
        };
        let (batched, batched_heard, batched_stats) = run(Simulator::new(config()));
        let (per_copy, per_copy_heard, per_copy_stats) = run(Simulator::per_copy(config()));
        assert_eq!((batched, per_copy), (1, k));
        assert_eq!(batched_heard.len(), k);
        assert_eq!(batched_heard, per_copy_heard);
        assert_eq!(batched_stats, per_copy_stats);
    }

    #[test]
    fn hostile_areas_place_nodes_at_finite_positions_inside() {
        let areas = [
            Area::new(-5.0, 10.0),
            Area::new(f64::NAN, 10.0),
            Area::new(f64::INFINITY, 10.0),
            Area::new(10.0, f64::NEG_INFINITY),
            Area::new(0.0, 0.0),
        ];
        for area in areas {
            let mut sim: Simulator<u32> = Simulator::new(SimConfig {
                area,
                ..Default::default()
            });
            sim.add_node(Point::new(3.0, 4.0), Mobility::Static);
            sim.add_node(Point::new(-3.0, 1e300), Mobility::Static);
            sim.add_node(Point::new(f64::NAN, f64::INFINITY), Mobility::Static);
            for _ in 0..4 {
                sim.add_node_random(Mobility::Static);
                sim.add_node_random(Mobility::RandomWaypoint {
                    min_speed: 1.0,
                    max_speed: 5.0,
                    pause: SimDuration::ZERO,
                });
            }
            sim.run_until(&mut Noop, SimTime(2_000_000));
            for n in 0..sim.node_count() as u32 {
                let p = sim.position(NodeId(n)).unwrap();
                assert!(p.x.is_finite() && p.y.is_finite(), "{area:?}: {p:?}");
                assert!(area.contains(&p), "{area:?}: {p:?}");
            }
        }
    }

    fn beacon(sim: &mut Simulator<u32>, from: NodeId) -> Vec<NodeId> {
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        sim.schedule_timer(from, SimDuration::micros(1), 1);
        sim.run_until(&mut app, sim.now() + SimDuration::millis(10));
        app.received.iter().map(|r| r.0).collect()
    }

    #[test]
    fn node_added_mid_run_hears_the_next_beacon() {
        let (mut sim, a, b) = two_node_sim(30.0);
        assert_eq!(beacon(&mut sim, a), vec![b]);
        let c = sim.add_node(Point::new(0.0, 30.0), Mobility::Static);
        assert_eq!(beacon(&mut sim, a), vec![b, c]);
    }

    #[test]
    fn down_and_up_between_beacons_needs_no_new_neighbourhood() {
        let (mut sim, a, b) = two_node_sim(30.0);
        assert_eq!(beacon(&mut sim, a), vec![b]);
        let epoch = sim.topo_epoch;
        sim.schedule_down(b, SimDuration::ZERO);
        assert_eq!(beacon(&mut sim, a), vec![]);
        sim.schedule_up(b, SimDuration::ZERO);
        assert_eq!(beacon(&mut sim, a), vec![b]);
        // The list holds ids, not liveness: it was never refilled.
        assert_eq!(sim.topo_epoch, epoch);
        assert_eq!(sim.hoods[a.0 as usize].epoch, epoch);
    }

    #[test]
    fn beacons_follow_receivers_in_and_out_of_range() {
        let mut sim: Simulator<u32> = Simulator::new(SimConfig {
            area: Area::new(150.0, 150.0),
            seed: 3,
            ..Default::default()
        });
        let a = sim.add_node(Point::new(75.0, 75.0), Mobility::Static);
        for _ in 0..30 {
            sim.add_node_random(Mobility::RandomWaypoint {
                min_speed: 10.0,
                max_speed: 20.0,
                pause: SimDuration::ZERO,
            });
        }
        let (mut left, mut joined) = (0, 0);
        let mut before = sim.neighbours(a);
        for _ in 0..8 {
            // Ticks land on whole multiples of 100 ms; beacons go out
            // 1 µs after one, so `neighbours` sees the sender's topology.
            let now = sim.neighbours(a);
            assert_eq!(beacon(&mut sim, a), now);
            left += before.iter().filter(|n| !now.contains(n)).count();
            joined += now.iter().filter(|n| !before.contains(n)).count();
            before = now;
            sim.run_until(&mut Noop, sim.now() + SimDuration::millis(990));
        }
        assert!(left > 0 && joined > 0, "left {left}, joined {joined}");
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, a, _b) = two_node_sim(30.0);
        sim.schedule_timer(a, SimDuration::secs(100), 1);
        let mut app = Echo {
            received: vec![],
            reply: false,
        };
        let n = sim.run_until(&mut app, SimTime(1_000_000));
        assert_eq!(n, 0);
        assert_eq!(sim.now(), SimTime(1_000_000));
        assert!(app.received.is_empty());
    }
}
