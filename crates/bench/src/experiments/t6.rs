//! T6 — sharded-DES scaling: wall-clock throughput of the
//! region-partitioned conservative parallel simulator against the
//! sequential engine at 1024–4096 nodes.
//!
//! The workload is a spatially uniform beacon gossip at constant
//! density (600 m²/node, ~13 neighbours under the default 50 m radio;
//! 4096 nodes occupy a ~1.57 km square): every node broadcasts one
//! 64-byte message per 10 ms tick and re-arms its timer, receivers stay
//! silent. Load therefore scales linearly with node count and is spread
//! over the whole area — the regime region partitioning is built for (a
//! single-origin flood would pin all work onto one shard). Each cell
//! runs the same 100 ms window on the sequential `Simulator` and on
//! `ShardedSimulator` at 1/2/4 workers, reports events/s, and pins the
//! event count against the sequential leg (the conservative protocol
//! may not change what gets simulated). The freeze/partition step is
//! excluded from the timed region — it is a one-off O(n log n) sort.
//!
//! Speedup is wall-clock relative to the sequential engine at the same
//! scale. Since `Simulator` queues one entry per transmission while the
//! sharded engine schedules every copy, one worker reads about ×0.25;
//! what the table can still show is how the sharded engine scales over
//! its own one-worker leg, which needs as many physical cores as workers
//! (on fewer the parallel legs time-slice). Set `T6_SMOKE=1` for the
//! small single-cell CI variant and `BENCH_JSON=<path>` to append one
//! machine-readable line per leg.

use std::time::Instant;

use qosc_netsim::{
    Area, Ctx, Mobility, NetApp, NodeId, ShardedSimulator, SimConfig, SimDuration, SimTime,
    Simulator,
};

use crate::table::{f, Table};

fn smoke() -> bool {
    std::env::var("T6_SMOKE").is_ok_and(|v| v != "0")
}

/// Square metres per node; constant density keeps the mean degree
/// independent of scale so events grow linearly with the node count.
const AREA_PER_NODE: f64 = 600.0;
const TICK: SimDuration = SimDuration::millis(10);

/// Periodic beacon app: broadcast one 64-byte message per tick, re-arm,
/// sink all deliveries.
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
        seed: 0x76_0001,
        ..Default::default()
    }
}

/// Staggers node timers across one tick so the event stream is smooth
/// in time as well as space.
fn stagger(i: usize) -> SimDuration {
    SimDuration::micros(1 + (i as u64 * 997) % TICK.as_micros())
}

/// One timed leg: `workers = None` runs the sequential `Simulator`,
/// `Some(w)` the sharded engine. Returns (events processed, wall s).
fn leg(nodes: usize, workers: Option<usize>, window: SimTime) -> (u64, f64) {
    match workers {
        None => {
            let mut sim = Simulator::new(config(nodes));
            for i in 0..nodes {
                let id = sim.add_node_random(Mobility::Static);
                sim.schedule_timer(id, stagger(i), 0);
            }
            let t0 = Instant::now();
            let n = sim.run_until(&mut Gossip, window);
            (n, t0.elapsed().as_secs_f64())
        }
        Some(w) => {
            let mut sim = ShardedSimulator::new(config(nodes), w);
            for i in 0..nodes {
                let id = sim.add_node_random(Mobility::Static);
                sim.schedule_timer(id, stagger(i), 0);
            }
            // Freeze (spatial sort + partition) outside the timed region.
            let mut apps: Vec<Gossip> = (0..sim.shard_count()).map(|_| Gossip).collect();
            let t0 = Instant::now();
            let n = sim.run_until(&mut apps, window);
            (n, t0.elapsed().as_secs_f64())
        }
    }
}

/// Appends one machine-readable line per leg when `BENCH_JSON` is set
/// (same file and line discipline as the criterion-shim benches).
fn emit_json(nodes: usize, engine: &str, workers: usize, events: u64, wall: f64, speedup: f64) {
    let json = format!(
        "{{\"benchmark\":\"t6/gossip-n{nodes}-{engine}-w{workers}\",\
         \"nodes\":{nodes},\"workers\":{workers},\"events\":{events},\
         \"wall_ms\":{:.3},\"events_per_s\":{:.0},\"speedup\":{speedup:.3}}}",
        wall * 1e3,
        events as f64 / wall.max(1e-9),
    );
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let path = std::path::Path::new(&path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(mut file) => {
            use std::io::Write as _;
            let _ = writeln!(file, "{json}");
        }
        Err(e) => eprintln!("BENCH_JSON: cannot append to {}: {e}", path.display()),
    }
}

/// Runs T6 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "T6: sharded-DES scaling on uniform beacon gossip at constant density \
         (events/s and wall-clock speedup vs the sequential engine, which queues \
         one entry per transmission where the sharded one schedules every copy)",
        &[
            "nodes",
            "engine",
            "workers",
            "events",
            "wall_ms",
            "events_per_s",
            "speedup",
        ],
    );
    let (node_counts, window): (&[usize], SimTime) = if smoke() {
        (&[128], SimTime(30_000))
    } else {
        (&[1024, 4096], SimTime(100_000))
    };
    for &nodes in node_counts {
        let (seq_events, seq_wall) = leg(nodes, None, window);
        emit_json(nodes, "seq", 1, seq_events, seq_wall, 1.0);
        table.row(vec![
            nodes.to_string(),
            "des".to_string(),
            "1".to_string(),
            seq_events.to_string(),
            f(seq_wall * 1e3),
            f(seq_events as f64 / seq_wall.max(1e-9)),
            f(1.0),
        ]);
        for workers in [1usize, 2, 4] {
            let (events, wall) = leg(nodes, Some(workers), window);
            assert_eq!(
                events, seq_events,
                "{nodes} nodes, {workers} workers: sharded engine processed a \
                 different event count than the sequential engine"
            );
            let speedup = seq_wall / wall.max(1e-9);
            emit_json(nodes, "sharded", workers, events, wall, speedup);
            table.row(vec![
                nodes.to_string(),
                "des-sharded".to_string(),
                workers.to_string(),
                events.to_string(),
                f(wall * 1e3),
                f(events as f64 / wall.max(1e-9)),
                f(speedup),
            ]);
        }
    }
    table
}
