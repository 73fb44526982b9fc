//! The system under test: every name of the repo the benchmark uses.
//!
//! No other file of the benchmark imports a `qosc_*` crate, so a later
//! refactor that moves one of these names knows what a preceding
//! benchmark change has to follow:
//!
//! * `qosc_workloads`: `ScenarioConfig::{dense, build_backend}`,
//!   `Scenario::build`, `Backend::Direct`, `PopulationConfig::constrained`,
//!   `AppTemplate::Surveillance` (`service`, `spec`, `request`,
//!   `demand_model`), `pedestrian`;
//! * `qosc_core`: the `Runtime` trait (`add_node`, `submit`, `run`,
//!   `events`, `messages_sent`, `node`, `set_fault_plan`),
//!   `DirectRuntime::{new, set_cfp_batching}`, `DesRuntime::{net_stats,
//!   sim}`, `NodeEngine::{on_start, on_message, on_timer}` on cloned
//!   `CoalitionNode`s (`queue_service_at`, `organizer`),
//!   `OrganizerEngine::{nego_ids, metrics}`, `kickoff_token`,
//!   `decode_timer`, `Action`, `Msg`, `TimerKind`, `NegoEvent`, `NegoId`,
//!   `StateDigest`/`StableHasher`, `OrganizerConfig`, `ProviderConfig`,
//!   `OrganizerStrategy` + `TimeoutBackoff::doubling`, and the unit-cost
//!   entry points `Formulator::{prepare, formulate, formulate_shedding}`,
//!   `CompiledRequest::{compile, evaluate_batch}`, `select_winners`;
//! * `qosc_load`: `LoadPlan::sampled`, `PoissonArrivals`,
//!   `LoadDriver::run`, `LoadReport`, `LatencyHistogram::record`;
//! * `qosc_netsim`: `Simulator` (`add_node`, `add_node_random`,
//!   `schedule_timer`, `run_until`, `set_fault_plan`, `set_partition_plan`,
//!   `stats`, `position`, `neighbours_into`), `ShardedSimulator`
//!   (`freeze`, `shard_count`, `run_until`), `NetApp`, `Ctx`,
//!   `NeighbourIndex::{new, rebuild, candidates_into}`, `SimConfig`,
//!   `RadioModel::{default, instant}`, `FaultPlan`, `PartitionPlan`,
//!   `NetStats`;
//! * `qosc_mc`: `ModelCheckedRuntime::{with_config, check}`, `CheckConfig`,
//!   `verify_runtime`, `default_invariants`;
//! * `qosc_spec` / `qosc_resources`: `ServiceRequest::resolve`,
//!   `DemandModel::demand`, `AdmissionControl::new`, `ResourceVector`,
//!   `catalog::{av_spec, surveillance_request}`, `av_demand_model`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_core::strategy::{OrganizerStrategy, TimeoutBackoff};
use qosc_core::{
    decode_timer, kickoff_token, select_winners, Action, Candidate, CoalitionNode, CompiledRequest,
    DesRuntime, DirectRuntime, EvalConfig, Formulator, LinearPenalty, LoggedEvent, Msg, NegoEvent,
    NegoId, NodeEngine, OrganizerConfig, Pid, ProviderConfig, Runtime, StableHasher, StateDigest,
    TieBreak, TimerKind,
};
use qosc_load::{LatencyHistogram, LoadDriver, LoadPlan, LoadReport, PoissonArrivals};
use qosc_mc::{default_invariants, verify_runtime, CheckConfig, ModelCheckedRuntime};
use qosc_netsim::{
    Area, Ctx, FaultPlan, Mobility, NeighbourIndex, NetApp, NetStats, NodeId, PartitionPlan, Point,
    RadioModel, ShardedSimulator, SimConfig, SimDuration, SimTime, Simulator,
};
use qosc_resources::{
    av_demand_model, AdmissionControl, DemandModel, ResourceKind, ResourceVector, SchedulingPolicy,
};
use qosc_spec::{catalog, ServiceDef, TaskDef, TaskId, Value};
use qosc_workloads::{
    pedestrian, AppTemplate, Backend, PopulationConfig, Scenario, ScenarioConfig,
};

/// Square metres per node of the sparse (churn, gossip) worlds: ~13
/// neighbours under the default 50 m radio, whatever the node count.
const AREA_PER_NODE: f64 = 600.0;

/// Tasks per submitted service on both negotiation workloads.
const TASKS_PER_SERVICE: usize = 4;

fn sparse_area(nodes: usize) -> Area {
    let side = (nodes as f64 * AREA_PER_NODE).sqrt();
    Area::new(side, side)
}

// ---------------------------------------------------------------------------
// Negotiation worlds (t5_overload_1024, nego_churn_4096).
// ---------------------------------------------------------------------------

/// Which negotiation world a scenario is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegoKind {
    /// T5's cell: constrained dense population, monitoring off, hosted on
    /// the CFP-batching `DirectRuntime`.
    T5,
    /// The paper's setting on the DES: sparse, mobile, lossy, partitioned,
    /// faulted, monitored.
    Churn,
}

/// Sizes of one negotiation scenario.
#[derive(Debug, Clone, Copy)]
pub struct NegoSize {
    /// Which world.
    pub kind: NegoKind,
    /// Population.
    pub nodes: usize,
    /// Organizer pool the arrivals rotate over (`0..organizers`).
    pub organizers: u32,
    /// Arrivals per scenario (the Poisson stream is cut to this count).
    pub arrivals: usize,
    /// Offered rate of the Poisson stream, arrivals per simulated second.
    pub rate_per_s: f64,
}

/// Everything one scenario needs, generated from a seed before any
/// world exists.
pub struct NegoInputs {
    size: NegoSize,
    config: ScenarioConfig,
    fault: FaultPlan,
    /// The pre-sampled arrival stream.
    pub plan: LoadPlan,
}

impl NegoInputs {
    /// Samples the scenario description and its arrival stream.
    pub fn generate(size: NegoSize, seed: u64) -> NegoInputs {
        let config = match size.kind {
            NegoKind::T5 => ScenarioConfig {
                organizer: OrganizerConfig {
                    monitor: false,
                    ..Default::default()
                },
                provider: ProviderConfig {
                    heartbeat_interval: SimDuration::secs(3600),
                    ..Default::default()
                },
                population: PopulationConfig::constrained(),
                ..ScenarioConfig::dense(size.nodes, seed)
            },
            NegoKind::Churn => ScenarioConfig {
                nodes: size.nodes,
                area: sparse_area(size.nodes),
                radio: RadioModel {
                    loss_floor: 0.01,
                    loss_at_edge: 0.3,
                    ..Default::default()
                },
                mobility: Some(pedestrian(1.5)),
                organizer: OrganizerConfig {
                    chain: OrganizerStrategy::new()
                        .with(TimeoutBackoff::doubling(SimDuration::millis(50), 4)),
                    ..Default::default()
                },
                partitions: PartitionPlan::sampled(
                    seed,
                    SimDuration::millis(500),
                    SimDuration::secs(2),
                    4,
                ),
                seed,
                ..Default::default()
            },
        };
        let fault = match size.kind {
            NegoKind::T5 => FaultPlan::none(),
            NegoKind::Churn => FaultPlan::sampled(seed)
                .with_drop(0.01)
                .with_duplicate(0.01),
        };
        // A Poisson window long enough to hold the fixed count almost
        // surely; doubled until it does, then cut.
        let mut window = SimDuration::secs_f64(2.0 * size.arrivals as f64 / size.rate_per_s);
        let mut plan = loop {
            let plan = LoadPlan::sampled(
                &PoissonArrivals::new(size.rate_per_s),
                window,
                (0..size.organizers).collect(),
                AppTemplate::Surveillance,
                TASKS_PER_SERVICE,
                seed,
            );
            if plan.arrivals.len() >= size.arrivals {
                break plan;
            }
            window = SimDuration::micros(window.as_micros() * 2);
        };
        plan.arrivals.truncate(size.arrivals);
        let last = plan.arrivals.last().copied().unwrap_or(SimTime::ZERO);
        plan.window = last.since(SimTime::ZERO);
        NegoInputs {
            size,
            config,
            fault,
            plan,
        }
    }

    /// Node count of the world.
    pub fn nodes(&self) -> usize {
        self.size.nodes
    }

    /// Whether this is T5's world (no network, no monitoring).
    pub fn is_t5(&self) -> bool {
        self.size.kind == NegoKind::T5
    }

    /// Builds a fresh world for these inputs.
    pub fn build(&self) -> World {
        match self.size.kind {
            NegoKind::T5 => {
                let built = self.config.build_backend(Backend::Direct);
                World::Direct(Box::new(rehost_direct(
                    built.as_ref(),
                    self.size.nodes,
                    true,
                )))
            }
            NegoKind::Churn => {
                let mut runtime = Scenario::build(&self.config).runtime;
                runtime.set_fault_plan(self.fault);
                World::Des(Box::new(runtime))
            }
        }
    }

    /// T5's world with CFP batching off: the `DirectRuntime` that
    /// `runtime_equivalence` pins event-for-event to the DES at zero
    /// latency, and the cost of the same negotiations without the
    /// batched drain.
    pub fn build_unbatched(&self) -> World {
        let built = self.config.build_backend(Backend::Direct);
        World::Direct(Box::new(rehost_direct(
            built.as_ref(),
            self.size.nodes,
            false,
        )))
    }

    /// Wall of running a fresh world to the drive's deadline with nothing
    /// submitted, s: no protocol event ever fires, so on the churn world
    /// this is exactly what the mobility ticks cost (advance every node,
    /// rebuild the `NeighbourIndex`), and ~0 on T5's.
    pub fn idle_run_s(&self) -> f64 {
        let mut world = self.build();
        let deadline = self.deadline();
        let t0 = Instant::now();
        world.runtime().run(deadline);
        t0.elapsed().as_secs_f64()
    }

    /// The instant `LoadDriver::run` runs to: last arrival (or the
    /// window's end) plus the drain.
    fn deadline(&self) -> SimTime {
        let last = self
            .plan
            .arrivals
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        last.max(SimTime::ZERO + self.plan.window) + self.plan.drain
    }
}

/// Clones the nodes of `built` into a `DirectRuntime` with CFP batching
/// set as asked (on is what `Backend::DirectBatched` builds).
fn rehost_direct(built: &dyn Runtime, nodes: usize, batching: bool) -> DirectRuntime {
    let mut direct = DirectRuntime::new();
    direct.set_cfp_batching(batching);
    for id in 0..nodes as Pid {
        let node = built.node(id).expect("dense ids are registered").clone();
        direct.add_node(node).expect("ids are unique");
    }
    direct
}

/// A built negotiation world.
pub enum World {
    /// Zero-latency in-memory runtime.
    Direct(Box<DirectRuntime>),
    /// The sequential DES.
    Des(Box<DesRuntime>),
}

impl World {
    /// The world behind the `Runtime` trait.
    pub fn runtime(&mut self) -> &mut dyn Runtime {
        match self {
            World::Direct(rt) => rt.as_mut(),
            World::Des(rt) => rt.as_mut(),
        }
    }

    fn runtime_ref(&self) -> &dyn Runtime {
        match self {
            World::Direct(rt) => rt.as_ref(),
            World::Des(rt) => rt.as_ref(),
        }
    }

    /// Network counters (all zero on the Direct world: no network).
    pub fn net_stats(&self) -> NetCounts {
        match self {
            World::Direct(_) => NetCounts::default(),
            World::Des(rt) => NetCounts::of(rt.net_stats()),
        }
    }
}

/// The `NetStats` counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Per-neighbour broadcast deliveries.
    pub broadcast_deliveries: u64,
    /// Unicasts delivered.
    pub unicasts_delivered: u64,
    /// Unicasts and broadcast copies dropped by the radio's loss model.
    pub radio_lost: u64,
    /// Deliveries dropped by the fault layer.
    pub faults_dropped: u64,
    /// Delivery copies cut by a partition.
    pub partition_cuts: u64,
}

impl NetCounts {
    fn of(stats: &NetStats) -> NetCounts {
        NetCounts {
            broadcast_deliveries: stats.broadcast_deliveries,
            unicasts_delivered: stats.unicasts_delivered,
            radio_lost: stats.unicasts_lost + stats.broadcasts_lost,
            faults_dropped: stats.faults_dropped,
            partition_cuts: stats.partition_cuts,
        }
    }

    /// Adds another world's counters.
    pub fn add(&mut self, other: &NetCounts) {
        self.broadcast_deliveries += other.broadcast_deliveries;
        self.unicasts_delivered += other.unicasts_delivered;
        self.radio_lost += other.radio_lost;
        self.faults_dropped += other.faults_dropped;
        self.partition_cuts += other.partition_cuts;
    }
}

/// What `LoadDriver::run` reported, reduced to comparable numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveReport {
    /// Requests submitted.
    pub submitted: usize,
    /// `Formed` events seen (re-emitted by reconfiguration).
    pub formed_events: usize,
    /// `FormationIncomplete` events seen.
    pub incomplete_events: usize,
    /// Messages sent during the run.
    pub messages: u64,
    /// Latency samples recorded.
    pub latency_samples: u64,
    /// Backend events processed by `Runtime::run` (by-hand leg only; 0
    /// from `LoadDriver`, which does not return it).
    pub backend_events: u64,
}

impl DriveReport {
    fn of(report: &LoadReport) -> DriveReport {
        DriveReport {
            submitted: report.submitted,
            formed_events: report.formed,
            incomplete_events: report.incomplete,
            messages: report.messages,
            latency_samples: report.latency.count(),
            backend_events: 0,
        }
    }

    /// Equality of everything both legs can know.
    pub fn same_outcome(&self, other: &DriveReport) -> bool {
        DriveReport {
            backend_events: 0,
            ..self.clone()
        } == DriveReport {
            backend_events: 0,
            ..other.clone()
        }
    }
}

/// Drives the plan through `LoadDriver::run` (submit + run + harvest).
pub fn drive(inputs: &NegoInputs, world: &mut World) -> DriveReport {
    DriveReport::of(&LoadDriver::new(&inputs.plan).run(world.runtime()))
}

/// Wall seconds of the three stages of a by-hand drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageWalls {
    /// Generating services and submitting them.
    pub submit_s: f64,
    /// `Runtime::run` to the deadline.
    pub run_s: f64,
    /// Scanning the event log into counts and a latency histogram.
    pub harvest_s: f64,
    /// Of `submit_s`: generating the services.
    pub service_gen_s: f64,
    /// Of `harvest_s`: recording latencies into the histogram.
    pub histogram_s: f64,
}

impl StageWalls {
    /// Adds another scenario's walls.
    pub fn add(&mut self, other: &StageWalls) {
        self.submit_s += other.submit_s;
        self.run_s += other.run_s;
        self.harvest_s += other.harvest_s;
        self.service_gen_s += other.service_gen_s;
        self.histogram_s += other.histogram_s;
    }
}

/// The same drive as [`drive`], spelled out against the `Runtime` trait
/// with each stage timed apart. Must report exactly what `LoadDriver`
/// does; the caller checks.
pub fn drive_by_hand(inputs: &NegoInputs, world: &mut World) -> (DriveReport, StageWalls) {
    let plan = &inputs.plan;
    let rt = world.runtime();
    let mut walls = StageWalls::default();
    let events_before = rt.events().len();
    let messages_before = rt.messages_sent();

    let t0 = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0x10AD_10AD);
    let mut last = SimTime::ZERO;
    for (i, &at) in plan.arrivals.iter().enumerate() {
        let org = plan.organizers[i % plan.organizers.len()];
        let g0 = Instant::now();
        let svc = plan
            .template
            .service(format!("load-{i}"), plan.tasks_per_service, &mut rng);
        walls.service_gen_s += g0.elapsed().as_secs_f64();
        rt.submit(org, svc, at).expect("organizers are registered");
        last = last.max(at);
    }
    walls.submit_s = t0.elapsed().as_secs_f64();

    let deadline = last.max(SimTime::ZERO + plan.window) + plan.drain;
    let t1 = Instant::now();
    let backend_events = rt.run(deadline);
    walls.run_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut report = DriveReport {
        submitted: plan.arrivals.len(),
        formed_events: 0,
        incomplete_events: 0,
        messages: rt.messages_sent().saturating_sub(messages_before),
        latency_samples: 0,
        backend_events,
    };
    let mut latency = LatencyHistogram::new();
    for logged in &rt.events()[events_before..] {
        match &logged.event {
            NegoEvent::Formed { metrics, .. } => {
                report.formed_events += 1;
                if let Some(lat) = metrics.formation_latency() {
                    let h0 = Instant::now();
                    latency.record(lat);
                    walls.histogram_s += h0.elapsed().as_secs_f64();
                }
            }
            NegoEvent::FormationIncomplete { .. } => report.incomplete_events += 1,
            _ => {}
        }
    }
    report.latency_samples = latency.count();
    walls.harvest_s = t2.elapsed().as_secs_f64();
    (report, walls)
}

/// `StateDigest` over every node plus the event log and the message
/// counter: equal digests mean the simulated run was the same run.
pub fn world_digest(world: &World, nodes: usize) -> u64 {
    let rt = world.runtime_ref();
    let mut h = StableHasher::new();
    for id in 0..nodes as Pid {
        if let Some(node) = rt.node(id) {
            node.digest(&mut h);
        }
    }
    digest_log(&mut h, rt.events());
    h.write_u64(rt.messages_sent());
    h.finish()
}

fn digest_log(h: &mut StableHasher, events: &[LoggedEvent]) {
    h.write_usize(events.len());
    for e in events {
        h.write_u64(e.at.0);
        h.write_u64(u64::from(e.node));
        // NegoEvent holds only ordered containers, so Debug is canonical.
        h.write_str(&format!("{:?}", e.event));
    }
}

/// `qosc_mc::verify_runtime` with the default invariants over every node.
pub fn verify_world(world: &World, nodes: usize) -> Result<(), String> {
    let ids: Vec<Pid> = (0..nodes as Pid).collect();
    // Not known quiescent: heartbeat and hold timers may still be armed
    // at cut-off, so the liveness invariant must stay silent.
    verify_runtime(world.runtime_ref(), &ids, &default_invariants(), false)
        .map_err(|v| format!("invariant `{}` violated: {}", v.invariant, v.message))
}

/// Simulated outcomes of one scenario, counted by distinct `NegoId` and
/// the organizers' final state — `Formed` events are re-emitted by every
/// reconfiguration, so counting events overstates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcomes {
    /// Negotiations submitted.
    pub submitted: usize,
    /// Tasks inside the submitted services.
    pub tasks_submitted: usize,
    /// Distinct negotiations whose last verdict is `Formed`.
    pub formed: usize,
    /// Distinct negotiations whose last verdict is `FormationIncomplete`.
    pub given_up: usize,
    /// Distinct negotiations with at least one `Formed` event.
    pub ever_formed: usize,
    /// Due instant → first `Formed`, µs, one per `ever_formed`, sorted.
    pub formation_us: Vec<u64>,
    /// Largest (kick-off − due instant), µs: how late the generator ran.
    pub kickoff_lag_max_us: u64,
    /// Σ placed tasks' eq. 2 distance and their count, final state.
    pub distance_sum: f64,
    /// Tasks placed in the final state.
    pub placed_tasks: usize,
    /// Tasks unassigned in the final state.
    pub unassigned_tasks: usize,
    /// Σ reconfiguration rounds, final state.
    pub reconfigurations: u64,
    /// Messages sent.
    pub messages: u64,
}

impl Outcomes {
    /// Negotiations without a verdict at cut-off.
    pub fn without_verdict(&self) -> usize {
        self.submitted - self.formed - self.given_up
    }

    /// Adds another scenario's outcomes.
    pub fn merge(&mut self, other: &Outcomes) {
        self.submitted += other.submitted;
        self.tasks_submitted += other.tasks_submitted;
        self.formed += other.formed;
        self.given_up += other.given_up;
        self.ever_formed += other.ever_formed;
        self.formation_us.extend_from_slice(&other.formation_us);
        self.formation_us.sort_unstable();
        self.kickoff_lag_max_us = self.kickoff_lag_max_us.max(other.kickoff_lag_max_us);
        self.distance_sum += other.distance_sum;
        self.placed_tasks += other.placed_tasks;
        self.unassigned_tasks += other.unassigned_tasks;
        self.reconfigurations += other.reconfigurations;
        self.messages += other.messages;
    }
}

/// Reads the outcomes of a driven world.
pub fn outcomes(inputs: &NegoInputs, world: &World) -> Outcomes {
    let rt = world.runtime_ref();
    let plan = &inputs.plan;
    // Arrival i goes to organizer i % pool and, arrivals being sorted,
    // becomes that organizer's next sequence number.
    let mut due: BTreeMap<NegoId, SimTime> = BTreeMap::new();
    let mut next_seq: BTreeMap<Pid, u32> = BTreeMap::new();
    for (i, &at) in plan.arrivals.iter().enumerate() {
        let organizer = plan.organizers[i % plan.organizers.len()];
        let seq = next_seq.entry(organizer).or_insert(0);
        due.insert(
            NegoId {
                organizer,
                seq: *seq,
            },
            at,
        );
        *seq += 1;
    }
    let mut out = Outcomes {
        submitted: plan.arrivals.len(),
        tasks_submitted: plan.arrivals.len() * plan.tasks_per_service,
        messages: rt.messages_sent(),
        ..Default::default()
    };
    let mut last_verdict: BTreeMap<NegoId, bool> = BTreeMap::new();
    let mut first_formed: BTreeMap<NegoId, SimTime> = BTreeMap::new();
    for logged in rt.events() {
        match &logged.event {
            NegoEvent::Formed { nego, .. } => {
                last_verdict.insert(*nego, true);
                first_formed.entry(*nego).or_insert(logged.at);
            }
            NegoEvent::FormationIncomplete { nego, .. } => {
                last_verdict.insert(*nego, false);
            }
            _ => {}
        }
    }
    out.formed = last_verdict.values().filter(|f| **f).count();
    out.given_up = last_verdict.len() - out.formed;
    out.ever_formed = first_formed.len();
    for (nego, at) in &first_formed {
        if let Some(due_at) = due.get(nego) {
            out.formation_us.push(at.since(*due_at).as_micros());
        }
    }
    out.formation_us.sort_unstable();
    let organizers: BTreeSet<Pid> = plan.organizers.iter().copied().collect();
    for pid in organizers {
        let Some(org) = rt.node(pid).and_then(CoalitionNode::organizer) else {
            continue;
        };
        for nego in org.nego_ids() {
            let Some(m) = org.metrics(nego) else { continue };
            if let (Some(started), Some(due_at)) = (m.started_at, due.get(&nego)) {
                out.kickoff_lag_max_us = out
                    .kickoff_lag_max_us
                    .max(started.since(*due_at).as_micros());
            }
            out.distance_sum += m.outcomes.values().map(|o| o.distance).sum::<f64>();
            out.placed_tasks += m.outcomes.len();
            out.unassigned_tasks += m.unassigned.len();
            out.reconfigurations += u64::from(m.reconfigurations);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Beacon gossip (gossip_4096).
// ---------------------------------------------------------------------------

/// One 64-byte broadcast per node per tick.
const GOSSIP_TICK: SimDuration = SimDuration::millis(10);
const GOSSIP_BYTES: u64 = 64;

/// T6's beacon app: broadcast on every tick, re-arm, sink deliveries.
struct Gossip;

impl NetApp<u32> for Gossip {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _at: NodeId, _from: NodeId, _msg: &u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, token: u64) {
        ctx.broadcast(at, GOSSIP_BYTES, 0u32);
        ctx.timer(at, GOSSIP_TICK, token);
    }
}

fn gossip_config(nodes: usize, seed: u64) -> SimConfig {
    SimConfig {
        area: sparse_area(nodes),
        seed,
        ..Default::default()
    }
}

/// Staggers node timers across one tick so the event stream is smooth
/// in time as well as in space.
fn gossip_stagger(i: usize) -> SimDuration {
    SimDuration::micros(1 + (i as u64 * 997) % GOSSIP_TICK.as_micros())
}

/// The sequential gossip world.
pub struct GossipWorld {
    sim: Simulator<u32>,
}

impl GossipWorld {
    /// Places `nodes` static nodes from `seed` and arms their beacons.
    pub fn build(nodes: usize, seed: u64) -> GossipWorld {
        let mut sim = Simulator::new(gossip_config(nodes, seed));
        for i in 0..nodes {
            let id = sim.add_node_random(Mobility::Static);
            sim.schedule_timer(id, gossip_stagger(i), 0);
        }
        GossipWorld { sim }
    }

    /// Runs to `deadline_us` of simulated time; returns events processed.
    pub fn run_until(&mut self, deadline_us: u64) -> u64 {
        self.sim.run_until(&mut Gossip, SimTime(deadline_us))
    }

    /// Network counters so far.
    pub fn net_stats(&self) -> NetCounts {
        NetCounts::of(self.sim.stats())
    }

    /// Digest of the run: final clock and every network counter.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.sim.now().0);
        h.write_str(&format!("{:?}", self.sim.stats()));
        h.finish()
    }
}

/// The same gossip window on `ShardedSimulator` at `workers` workers:
/// (freeze wall, run wall, events).
pub fn gossip_sharded(
    nodes: usize,
    seed: u64,
    workers: usize,
    deadline_us: u64,
) -> (f64, f64, u64) {
    let mut sim = ShardedSimulator::new(gossip_config(nodes, seed), workers);
    for i in 0..nodes {
        let id = sim.add_node_random(Mobility::Static);
        sim.schedule_timer(id, gossip_stagger(i), 0);
    }
    let t0 = Instant::now();
    sim.freeze();
    let freeze_s = t0.elapsed().as_secs_f64();
    let mut apps: Vec<Gossip> = (0..sim.shard_count()).map(|_| Gossip).collect();
    let t1 = Instant::now();
    let events = sim.run_until(&mut apps, SimTime(deadline_us));
    (freeze_s, t1.elapsed().as_secs_f64(), events)
}

// ---------------------------------------------------------------------------
// Exhaustive proof (mc_2x2_drop).
// ---------------------------------------------------------------------------

/// What one exhaustive check established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofReport {
    /// Full graph explored, no invariant failed.
    pub verified: bool,
    /// Transitions applied.
    pub transitions: u64,
    /// Distinct states by canonical digest.
    pub distinct_states: u64,
    /// Distinct states with nothing left to deliver.
    pub quiescent_states: u64,
    /// Longest schedule explored.
    pub max_depth: u64,
}

/// The README's dual-role 2×2 CFP round: two peers, each organizer and
/// provider, each submitting one single-task service, under a fault
/// budget of `drops` message drops. `seed` draws the peers' CPU and the
/// tasks' payload sizes (inputs the proof must not depend on).
pub fn prove_2x2(seed: u64, drops: u32) -> ProofReport {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2B2_D20);
    let spec = catalog::av_spec();
    let mut rt = ModelCheckedRuntime::with_config(CheckConfig {
        fault_plan: FaultPlan::exhaustive(drops, 0),
        ..Default::default()
    });
    for (id, cpu) in [(0u32, 400.0), (1u32, 300.0)] {
        let cpu = cpu * rng.gen_range(0.9..1.1);
        let org = qosc_core::OrganizerEngine::new(id, OrganizerConfig::for_model_checking());
        let mut p = qosc_core::ProviderEngine::new(
            id,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
            ProviderConfig::for_model_checking(),
        );
        p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
        rt.add_node(CoalitionNode::new(id).with_organizer(org).with_provider(p))
            .expect("ids are unique");
    }
    for id in 0..2u32 {
        let service = ServiceDef::new(
            format!("svc-{id}"),
            vec![TaskDef {
                name: "sense".into(),
                spec: spec.clone(),
                request: catalog::surveillance_request(),
                input_bytes: rng.gen_range(20_000..80_000),
                output_bytes: rng.gen_range(2_000..8_000),
            }],
        );
        rt.submit(id, service, SimTime::ZERO)
            .expect("both peers organize");
    }
    let report = rt.check();
    ProofReport {
        verified: report.verified(),
        transitions: report.states_explored,
        distinct_states: report.distinct_states,
        quiescent_states: report.quiescent_states,
        max_depth: report.max_depth_reached as u64,
    }
}

// ---------------------------------------------------------------------------
// The probe host: the benchmark's own NetApp over cloned CoalitionNodes,
// with a span around every engine callback.
// ---------------------------------------------------------------------------

use crate::trace::{Tracer, NO_PARENT};

/// Span names the probe records, registered once per tracer.
struct SpanIds {
    on_cfp: u16,
    on_award: u16,
    on_release: u16,
    on_lease_renew: u16,
    on_proposal: u16,
    on_accept: u16,
    on_decline: u16,
    on_heartbeat: u16,
    kickoff: u16,
    on_proposal_deadline: u16,
    on_award_deadline: u16,
    on_heartbeat_check: u16,
    on_re_announce: u16,
    dissolve: u16,
    on_heartbeat_send: u16,
    on_hold_expiry: u16,
    on_lease_check: u16,
    apply: u16,
}

impl SpanIds {
    fn register(t: &mut Tracer) -> SpanIds {
        SpanIds {
            on_cfp: t.name("core.provider.on_cfp"),
            on_award: t.name("core.provider.on_award"),
            on_release: t.name("core.provider.on_release"),
            on_lease_renew: t.name("core.provider.on_lease_renew"),
            on_proposal: t.name("core.organizer.on_proposal"),
            on_accept: t.name("core.organizer.on_accept"),
            on_decline: t.name("core.organizer.on_decline"),
            on_heartbeat: t.name("core.organizer.on_heartbeat"),
            kickoff: t.name("core.organizer.kickoff"),
            on_proposal_deadline: t.name("core.organizer.on_proposal_deadline"),
            on_award_deadline: t.name("core.organizer.on_award_deadline"),
            on_heartbeat_check: t.name("core.organizer.on_heartbeat_check"),
            on_re_announce: t.name("core.organizer.on_re_announce"),
            dissolve: t.name("core.organizer.dissolve"),
            on_heartbeat_send: t.name("core.provider.on_heartbeat_send"),
            on_hold_expiry: t.name("core.provider.on_hold_expiry"),
            on_lease_check: t.name("core.provider.on_lease_check"),
            apply: t.name("core.runtime.apply"),
        }
    }

    fn of_msg(&self, msg: &Msg) -> (u16, NegoId) {
        match msg {
            Msg::CallForProposals { nego, .. } => (self.on_cfp, *nego),
            Msg::Award { nego, .. } => (self.on_award, *nego),
            Msg::Release { nego } => (self.on_release, *nego),
            Msg::LeaseRenew { nego } => (self.on_lease_renew, *nego),
            Msg::Proposal { nego, .. } => (self.on_proposal, *nego),
            Msg::Accept { nego, .. } => (self.on_accept, *nego),
            Msg::Decline { nego, .. } => (self.on_decline, *nego),
            Msg::Heartbeat { nego, .. } => (self.on_heartbeat, *nego),
        }
    }

    fn of_timer(&self, kind: TimerKind) -> u16 {
        match kind {
            TimerKind::Kickoff => self.kickoff,
            TimerKind::ProposalDeadline => self.on_proposal_deadline,
            TimerKind::AwardDeadline => self.on_award_deadline,
            TimerKind::HeartbeatCheck => self.on_heartbeat_check,
            TimerKind::ReAnnounce => self.on_re_announce,
            TimerKind::Dissolve => self.dissolve,
            TimerKind::HeartbeatSend => self.on_heartbeat_send,
            TimerKind::HoldExpiry => self.on_hold_expiry,
            TimerKind::LeaseCheck => self.on_lease_check,
        }
    }
}

/// Counts made where the work happens, at the callback boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    /// Engine callbacks made.
    pub callbacks: u64,
    /// Actions the callbacks returned.
    pub actions: u64,
    /// CFP deliveries to providers.
    pub cfp_calls: u64,
    /// Task offers inside the `Proposal`s those deliveries produced.
    pub proposals_offered: u64,
    /// `Award` deliveries to providers.
    pub awards: u64,
    /// `Accept`s providers sent back.
    pub accepts: u64,
    /// CFP broadcasts: formation rounds announced.
    pub rounds: u64,
}

impl ProbeCounts {
    /// Adds another scenario's counts.
    pub fn add(&mut self, other: &ProbeCounts) {
        self.callbacks += other.callbacks;
        self.actions += other.actions;
        self.cfp_calls += other.cfp_calls;
        self.proposals_offered += other.proposals_offered;
        self.awards += other.awards;
        self.accepts += other.accepts;
        self.rounds += other.rounds;
    }
}

struct ProbeHost<'t> {
    nodes: Vec<CoalitionNode>,
    events: Vec<LoggedEvent>,
    tracer: &'t mut Tracer,
    ids: SpanIds,
    counts: ProbeCounts,
}

impl ProbeHost<'_> {
    /// `DesHost::apply`, plus the counts.
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, at: Pid, actions: Vec<Action>) {
        self.counts.callbacks += 1;
        self.counts.actions += actions.len() as u64;
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    if matches!(&*msg, Msg::CallForProposals { .. }) {
                        self.counts.rounds += 1;
                    }
                    let bytes = msg.estimated_bytes();
                    ctx.broadcast(NodeId(at), bytes, msg);
                }
                Action::Send { to, msg } => {
                    match &*msg {
                        Msg::Proposal { proposals, .. } => {
                            self.counts.proposals_offered += proposals.len() as u64
                        }
                        Msg::Accept { .. } => self.counts.accepts += 1,
                        _ => {}
                    }
                    let bytes = msg.estimated_bytes();
                    ctx.unicast(NodeId(at), NodeId(to), bytes, msg);
                }
                Action::Timer { delay, token } => ctx.timer(NodeId(at), delay, token),
                Action::Event(event) => self.events.push(LoggedEvent {
                    at: ctx.now,
                    node: at,
                    event,
                }),
            }
        }
    }
}

impl NetApp<Msg> for ProbeHost<'_> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, from: NodeId, msg: &Msg) {
        let (name, nego) = self.ids.of_msg(msg);
        match msg {
            Msg::CallForProposals { .. } => self.counts.cfp_calls += 1,
            Msg::Award { .. } => self.counts.awards += 1,
            _ => {}
        }
        let nego = Some((nego.organizer, nego.seq));
        let t0 = self.tracer.now_ns();
        let actions = self.nodes[at.0 as usize].on_message(ctx.now, from.0, msg);
        let t1 = self.tracer.now_ns();
        self.apply(ctx, at.0, actions);
        let t2 = self.tracer.now_ns();
        let callback = self.tracer.record(name, t0, t1, NO_PARENT, nego);
        self.tracer.record(self.ids.apply, t1, t2, callback, nego);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, token: u64) {
        let Some((nego, kind)) = decode_timer(token) else {
            return;
        };
        let name = self.ids.of_timer(kind);
        // A kick-off token names no negotiation (its seq is a placeholder).
        let tag = (kind != TimerKind::Kickoff).then_some((nego.organizer, nego.seq));
        let t0 = self.tracer.now_ns();
        let actions = self.nodes[at.0 as usize].on_timer(ctx.now, nego, kind);
        let t1 = self.tracer.now_ns();
        self.apply(ctx, at.0, actions);
        let t2 = self.tracer.now_ns();
        let callback = self.tracer.record(name, t0, t1, NO_PARENT, tag);
        self.tracer.record(self.ids.apply, t1, t2, callback, tag);
    }
}

/// A negotiation world hosted by the benchmark itself: a real
/// `Simulator<Msg>` with the geometry, mobility and plans of the built
/// world, and `CoalitionNode`s cloned out of it.
pub struct ProbeWorld {
    sim: Simulator<Msg>,
    nodes: Vec<CoalitionNode>,
    events: Vec<LoggedEvent>,
}

/// What a traced probe drive measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeRun {
    /// Wall of the simulator's `run_until`, s.
    pub run_s: f64,
    /// Events the simulator processed.
    pub sim_events: u64,
    /// Boundary counts.
    pub counts: ProbeCounts,
}

impl NegoInputs {
    /// Builds the probe's world. Churn copies `Scenario::build`: same
    /// `SimConfig`, positions, per-node mobility, partition and fault
    /// plans. T5 takes the Direct population onto an instant radio inside
    /// one cell — the configuration `runtime_equivalence` pins
    /// event-for-event to the (unbatched) `DirectRuntime`.
    pub fn build_probe(&self) -> ProbeWorld {
        let n = self.size.nodes;
        match self.size.kind {
            NegoKind::T5 => {
                let built = self.config.build_backend(Backend::Direct);
                let mut sim = Simulator::new(SimConfig {
                    area: self.config.area,
                    radio: RadioModel::instant(),
                    seed: self.config.seed,
                    ..Default::default()
                });
                for _ in 0..n {
                    sim.add_node_random(Mobility::Static);
                }
                let nodes = (0..n as Pid)
                    .map(|id| built.node(id).expect("dense ids are registered").clone())
                    .collect();
                ProbeWorld {
                    sim,
                    nodes,
                    events: Vec::new(),
                }
            }
            NegoKind::Churn => {
                let scenario = Scenario::build(&self.config);
                let mut sim = Simulator::new(SimConfig {
                    area: self.config.area,
                    radio: self.config.radio.clone(),
                    seed: self.config.seed,
                    ..Default::default()
                });
                for (i, profile) in scenario.profiles.iter().enumerate() {
                    let pos: Point = scenario
                        .sim()
                        .position(NodeId(i as u32))
                        .expect("one simulator node per profile");
                    let mobility = match (&self.config.mobility, profile.class.battery_powered()) {
                        (Some(m), true) => m.clone(),
                        _ => Mobility::Static,
                    };
                    sim.add_node(pos, mobility);
                }
                sim.set_partition_plan(&self.config.partitions);
                sim.set_fault_plan(self.fault);
                let nodes = (0..n as Pid)
                    .map(|id| {
                        scenario
                            .runtime
                            .node(id)
                            .expect("dense ids are registered")
                            .clone()
                    })
                    .collect();
                ProbeWorld {
                    sim,
                    nodes,
                    events: Vec::new(),
                }
            }
        }
    }
}

impl ProbeWorld {
    /// Submits the plan exactly as `LoadDriver::run` does and runs the
    /// simulator to the same deadline, recording spans into `tracer`.
    pub fn drive(&mut self, inputs: &NegoInputs, tracer: &mut Tracer) -> ProbeRun {
        let plan = &inputs.plan;
        let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0x10AD_10AD);
        let mut last = SimTime::ZERO;
        for (i, &at) in plan.arrivals.iter().enumerate() {
            let org = plan.organizers[i % plan.organizers.len()];
            let svc = plan
                .template
                .service(format!("load-{i}"), plan.tasks_per_service, &mut rng);
            self.nodes[org as usize].queue_service_at(at, svc);
            self.sim
                .schedule_timer(NodeId(org), at.since(self.sim.now()), kickoff_token(org));
            last = last.max(at);
        }
        let deadline = last.max(SimTime::ZERO + plan.window) + plan.drain;
        let now = self.sim.now();
        for (pid, node) in self.nodes.iter_mut().enumerate() {
            for action in node.on_start(now) {
                match action {
                    Action::Timer { delay, token } => {
                        self.sim.schedule_timer(NodeId(pid as u32), delay, token)
                    }
                    Action::Event(event) => self.events.push(LoggedEvent {
                        at: now,
                        node: pid as Pid,
                        event,
                    }),
                    Action::Broadcast(_) | Action::Send { .. } => {
                        unreachable!("on_start must not emit messages")
                    }
                }
            }
        }
        let ids = SpanIds::register(tracer);
        let mut host = ProbeHost {
            nodes: std::mem::take(&mut self.nodes),
            events: std::mem::take(&mut self.events),
            tracer,
            ids,
            counts: ProbeCounts::default(),
        };
        let t0 = Instant::now();
        let sim_events = self.sim.run_until(&mut host, deadline);
        let run_s = t0.elapsed().as_secs_f64();
        let counts = host.counts;
        self.nodes = host.nodes;
        self.events = host.events;
        ProbeRun {
            run_s,
            sim_events,
            counts,
        }
    }

    /// The same digest [`world_digest`] takes of a backend's world.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        for node in &self.nodes {
            node.digest(&mut h);
        }
        digest_log(&mut h, &self.events);
        h.write_u64(self.sim.stats().messages_sent());
        h.finish()
    }
}

/// Gossip with a span around every beacon callback; deliveries are only
/// counted (the handler is empty — a span would time the clock).
struct TracedGossip<'t> {
    tracer: &'t mut Tracer,
    on_timer: u16,
    deliveries: u64,
}

impl NetApp<u32> for TracedGossip<'_> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _at: NodeId, _from: NodeId, _msg: &u32) {
        self.deliveries += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, token: u64) {
        let t0 = self.tracer.now_ns();
        ctx.broadcast(at, GOSSIP_BYTES, 0u32);
        ctx.timer(at, GOSSIP_TICK, token);
        let t1 = self.tracer.now_ns();
        self.tracer.record(self.on_timer, t0, t1, NO_PARENT, None);
    }
}

impl GossipWorld {
    /// [`GossipWorld::run_until`] with spans; returns (events, deliveries
    /// the app saw).
    pub fn run_until_traced(&mut self, deadline_us: u64, tracer: &mut Tracer) -> (u64, u64) {
        let on_timer = tracer.name("workloads.gossip.on_timer");
        let mut app = TracedGossip {
            tracer,
            on_timer,
            deliveries: 0,
        };
        let events = self.sim.run_until(&mut app, SimTime(deadline_us));
        (events, app.deliveries)
    }
}

// ---------------------------------------------------------------------------
// Unit costs: single calls into a layer, with the workload's own spec,
// request and demand model.
// ---------------------------------------------------------------------------

/// ns per call of `f` over `iterations` calls.
fn ns_per_call<T>(iterations: u32, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(iterations)
}

/// Unit costs of `core`, `spec` and `resources`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreUnitCosts {
    /// `Formulator::prepare` served from its cache.
    pub prepare_hit_ns: f64,
    /// `Formulator::formulate`, 4 tasks, everything fits at preferred
    /// quality (no degradation step).
    pub formulate_rich_ns: f64,
    /// The same bundle 2 % above its fully degraded demand (near-maximal
    /// degradation).
    pub formulate_scarce_ns: f64,
    /// `Formulator::formulate_shedding` where only half the bundle fits.
    pub shed_ns: f64,
    /// `CompiledRequest::compile`.
    pub compile_ns: f64,
    /// `CompiledRequest::evaluate_batch` over 512 offers, per offer.
    pub evaluate_batch_ns_per_proposal: f64,
    /// `select_winners` over 4 tasks × 256 candidates, per candidate.
    pub select_winners_ns_per_candidate: f64,
    /// `ServiceRequest::resolve`.
    pub resolve_ns: f64,
    /// `DemandModel::demand`.
    pub demand_ns: f64,
}

/// Measures [`CoreUnitCosts`] with `iterations` calls each; `Err` names
/// a call that did not behave as the unit assumes.
pub fn core_unit_costs(iterations: u32) -> Result<CoreUnitCosts, String> {
    let template = AppTemplate::Surveillance;
    let spec = template.spec();
    let request = template.request();
    let model: Arc<dyn DemandModel> = template.demand_model();
    let resolved = request.resolve(&spec).map_err(|e| e.to_string())?;
    let cpu_at = |levels: &[usize]| -> Result<f64, String> {
        let qv = resolved
            .quality_vector(&spec, levels)
            .ok_or("levels outside the ladders")?;
        Ok(model.demand(&spec, &qv).get(ResourceKind::Cpu))
    };
    let preferred = vec![0; resolved.attr_count()];
    let floor: Vec<usize> = resolved.ladder_lengths().iter().map(|l| l - 1).collect();
    let (preferred_cpu, floor_cpu) = (cpu_at(&preferred)?, cpu_at(&floor)?);
    let admission = |cpu: f64| {
        AdmissionControl::new(
            SchedulingPolicy::Edf,
            ResourceVector::new(cpu, 1e6, 1e7, 6e4, 1e7),
        )
    };
    let tasks = TASKS_PER_SERVICE;
    let rich = admission(preferred_cpu * 1.05 * tasks as f64);
    let scarce = admission(floor_cpu * 1.02 * tasks as f64);
    let half = admission(floor_cpu * (tasks as f64 / 2.0 + 0.5));

    let mut engine = Formulator::new(Arc::new(LinearPenalty::default()));
    let prepared: Vec<_> = (0..tasks)
        .map(|_| {
            engine
                .prepare(&spec, &request, &model)
                .ok_or("request does not resolve")
        })
        .collect::<Result<_, _>>()?;
    let refs: Vec<&qosc_core::PreparedTask> = prepared.iter().map(|p| p.as_ref()).collect();
    let rich_run = engine
        .formulate(&refs, &rich)
        .map_err(|e| format!("rich: {e}"))?;
    let scarce_run = engine
        .formulate(&refs, &scarce)
        .map_err(|e| format!("scarce: {e}"))?;
    if rich_run.degradations != 0 || scarce_run.degradations == 0 {
        return Err(format!(
            "formulate legs degrade {} (rich) and {} (scarce) steps",
            rich_run.degradations, scarce_run.degradations
        ));
    }
    match engine.formulate_shedding(&refs, &half) {
        Some((kept, _)) if kept > 0 && kept < tasks => {}
        other => return Err(format!("shedding kept {:?} of {tasks}", other.map(|o| o.0))),
    }

    let compiled = CompiledRequest::compile(&spec, &resolved, EvalConfig::default());
    let ladders: Vec<&[Value]> = resolved
        .iter_attrs()
        .map(|(_, a)| a.levels.as_slice())
        .collect();
    let offers: Vec<Vec<Value>> = (0..512usize)
        .map(|i| {
            ladders
                .iter()
                .enumerate()
                .map(|(a, levels)| levels[(i + a) % levels.len()].clone())
                .collect()
        })
        .collect();
    let mut x = 0x5EED_u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    let candidates: BTreeMap<TaskId, Vec<Candidate>> = (0..tasks as u32)
        .map(|t| {
            let cands = (0..256u32)
                .map(|node| Candidate {
                    node,
                    distance: next(),
                    comm_cost: next(),
                })
                .collect();
            (TaskId(t), cands)
        })
        .collect();
    let tiebreak = TieBreak::default();
    let qv = resolved
        .quality_vector(&spec, &preferred)
        .ok_or("levels outside the ladders")?;

    let batch_iters = (iterations / 64).max(16);
    Ok(CoreUnitCosts {
        prepare_hit_ns: ns_per_call(iterations, || engine.prepare(&spec, &request, &model)),
        formulate_rich_ns: ns_per_call(iterations, || engine.formulate(&refs, &rich)),
        formulate_scarce_ns: ns_per_call(iterations, || engine.formulate(&refs, &scarce)),
        shed_ns: ns_per_call(iterations, || engine.formulate_shedding(&refs, &half)),
        compile_ns: ns_per_call(iterations, || {
            CompiledRequest::compile(&spec, &resolved, EvalConfig::default())
        }),
        evaluate_batch_ns_per_proposal: ns_per_call(batch_iters, || {
            compiled.evaluate_batch(&offers)
        }) / offers.len() as f64,
        select_winners_ns_per_candidate: ns_per_call(batch_iters, || {
            select_winners(&candidates, &tiebreak)
        }) / (tasks * 256) as f64,
        resolve_ns: ns_per_call(iterations, || request.resolve(&spec)),
        demand_ns: ns_per_call(iterations, || model.demand(&spec, &qv)),
    })
}

/// Unit costs of `netsim`'s spatial index at the sparse worlds' density.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetsimUnitCosts {
    /// `NeighbourIndex::candidates_into`, per query.
    pub candidates_ns: f64,
    /// `NeighbourIndex::rebuild` of every node, per rebuild.
    pub rebuild_us: f64,
    /// `Simulator::neighbours_into`, per query.
    pub neighbours_ns: f64,
}

/// Measures [`NetsimUnitCosts`] over `nodes` nodes placed from `seed`.
pub fn netsim_unit_costs(nodes: usize, seed: u64, iterations: u32) -> NetsimUnitCosts {
    let config = gossip_config(nodes, seed);
    let mut sim: Simulator<u32> = Simulator::new(config.clone());
    for _ in 0..nodes {
        sim.add_node_random(Mobility::Static);
    }
    let positions: Vec<Point> = (0..nodes as u32)
        .map(|i| sim.position(NodeId(i)).expect("node was added"))
        .collect();
    let mut index = NeighbourIndex::new(&config.area, config.radio.range_m);
    index.rebuild(positions.iter().copied());
    let mut out = Vec::new();
    let mut i = 0usize;
    let candidates_ns = ns_per_call(iterations, || {
        i = (i + 7919) % nodes;
        index.candidates_into(positions[i], &mut out);
        out.len()
    });
    let neighbours_ns = ns_per_call(iterations, || {
        i = (i + 7919) % nodes;
        sim.neighbours_into(NodeId(i as u32), &mut out);
        out.len()
    });
    let rebuild_us = ns_per_call((iterations / 64).max(16), || {
        index.rebuild(positions.iter().copied())
    }) / 1e3;
    NetsimUnitCosts {
        candidates_ns,
        rebuild_us,
        neighbours_ns,
    }
}
