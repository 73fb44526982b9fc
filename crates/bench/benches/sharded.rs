//! B9 — sharded-DES throughput: the region-partitioned conservative
//! parallel simulator against the sequential engine.
//!
//! Two groups:
//!
//! * `sharded_netsim` — a spatially uniform gossip workload (every node
//!   beacons once per tick, receivers stay silent) at constant density
//!   on the sequential `Simulator` and on `ShardedSimulator` at 1/2/4
//!   workers. The one-worker leg against the sequential one is what the
//!   per-copy engine costs next to the batched one: `Simulator` queues
//!   one entry per transmission and remembers neighbourhoods, the
//!   sharded engine schedules every copy and queries the grid per send,
//!   so one worker reads about a quarter of `Simulator`'s events/s
//!   (×0.22–0.26 in T6 on 2 cores, PR 22). The 2/4-worker legs need
//!   real cores to say anything about scaling.
//! * `sharded_runtime` — B6's dense 256-node negotiation on
//!   `Backend::Des` vs `Backend::DesSharded`, i.e. the same comparison
//!   through the full coalition-formation stack.
//!
//! Emits one JSON line per bench via the criterion shim; set
//! `BENCH_JSON=<path>` to append them for run-over-run diffing and
//! `BENCH_SMOKE=1` for the 3-sample CI variant. The bench reports; it
//! compares nothing and always exits zero.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qosc_core::NegoEvent;
use qosc_netsim::{
    Area, Ctx, Mobility, NetApp, NodeId, ShardedSimulator, SimConfig, SimDuration, SimTime,
    Simulator,
};
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Square metres per node; keeps the mean degree (~13 neighbours under
/// the default 50 m radio) independent of scale.
const AREA_PER_NODE: f64 = 600.0;
const TICK: SimDuration = SimDuration::millis(10);
const WINDOW: SimTime = SimTime(50_000);

/// Periodic beacon app: each node broadcasts one 64-byte message per
/// tick and re-arms its timer; deliveries are sinks. The load is spread
/// uniformly over the area — the regime region partitioning targets.
struct Gossip;

impl NetApp<u32> for Gossip {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _at: NodeId, _from: NodeId, _msg: &u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, at: NodeId, token: u64) {
        ctx.broadcast(at, 64, 0u32);
        ctx.timer(at, TICK, token);
    }
}

fn config(nodes: usize) -> SimConfig {
    let side = (nodes as f64 * AREA_PER_NODE).sqrt();
    SimConfig {
        area: Area::new(side, side),
        seed: 1,
        ..Default::default()
    }
}

/// Staggers node timers across one tick so load is smooth in time as
/// well as space.
fn stagger(i: usize) -> SimDuration {
    SimDuration::micros(1 + (i as u64 * 997) % TICK.as_micros())
}

fn gossip_sequential(nodes: usize) -> u64 {
    let mut sim = Simulator::new(config(nodes));
    for i in 0..nodes {
        let id = sim.add_node_random(Mobility::Static);
        sim.schedule_timer(id, stagger(i), 0);
    }
    sim.run_until(&mut Gossip, WINDOW)
}

fn gossip_sharded(nodes: usize, workers: usize) -> u64 {
    let mut sim = ShardedSimulator::new(config(nodes), workers);
    for i in 0..nodes {
        let id = sim.add_node_random(Mobility::Static);
        sim.schedule_timer(id, stagger(i), 0);
    }
    let mut apps: Vec<Gossip> = (0..sim.shard_count()).map(|_| Gossip).collect();
    sim.run_until(&mut apps, WINDOW)
}

fn bench_sharded_netsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_netsim");
    g.sample_size(10);
    for nodes in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::new("sequential", nodes), &nodes, |b, &n| {
            b.iter(|| gossip_sequential(n))
        });
        for workers in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("sharded_w{workers}"), nodes),
                &nodes,
                |b, &n| b.iter(|| gossip_sharded(n, workers)),
            );
        }
    }
    g.finish();
}

fn run_backend(backend: Backend, nodes: usize, seed: u64) -> usize {
    let config = ScenarioConfig {
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    };
    let mut rt = config.build_backend(backend);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let svc = AppTemplate::Surveillance.service("svc", 2, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 exists");
    rt.run(SimTime(2_000_000));
    rt.events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .count()
}

fn bench_sharded_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_runtime");
    g.sample_size(10);
    let nodes = 256usize;
    for (name, backend) in [
        ("des_dense", Backend::Des),
        ("des_sharded_w1_dense", Backend::DesSharded { workers: 1 }),
        ("des_sharded_w2_dense", Backend::DesSharded { workers: 2 }),
        ("des_sharded_w4_dense", Backend::DesSharded { workers: 4 }),
    ] {
        g.bench_with_input(BenchmarkId::new(name, nodes), &backend, |b, &backend| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_backend(backend, nodes, seed)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sharded_netsim, bench_sharded_runtime);
criterion_main!(benches);
