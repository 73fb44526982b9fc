//! B7 — the zero-copy delivery plane: dense broadcast fan-out through the
//! DES heap, and neighbour queries through the spatial index.
//!
//! `des_broadcast_fanout/N` times one realistic CFP broadcast delivered
//! to all N−1 in-range neighbours: the payload rides the event heap
//! behind `Arc<Msg>` in one queue entry (one allocation per broadcast,
//! every delivery borrows it) and the fan-out targets come from the
//! `NeighbourIndex` grid instead of an O(N) node-table scan.
//!
//! `neighbours_*` isolates the index itself: the dense case (everyone in
//! one cell block) bounds the constant factor, the sparse case shows the
//! asymptotic win over the full-table scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qosc_core::{Msg, NegoId, TaskAnnouncement};
use qosc_netsim::{
    Area, Ctx, Mobility, NetApp, NodeId, SimConfig, SimDuration, SimTime, Simulator,
};
use qosc_spec::{catalog, TaskId};

/// A realistic two-task CFP payload (the message a 256-node negotiation
/// actually fans out).
fn cfp() -> Msg {
    let ann = |i: u32| TaskAnnouncement {
        task: TaskId(i),
        spec: catalog::av_spec(),
        request: catalog::surveillance_request(),
        input_bytes: 100_000,
        output_bytes: 10_000,
    };
    Msg::CallForProposals {
        nego: NegoId {
            organizer: 0,
            seq: 0,
        },
        tasks: vec![ann(0), ann(1)],
        round: 0,
    }
}

/// App that broadcasts one CFP when its kick timer fires and counts
/// deliveries; receivers do no protocol work, so the measurement isolates
/// the delivery plane (fan-out, heap, dispatch), not the engines.
struct FanOut {
    delivered: u64,
}

impl NetApp<Msg> for FanOut {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _at: NodeId, _from: NodeId, _msg: &Msg) {
        self.delivered += 1;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, at: NodeId, _token: u64) {
        let msg = cfp();
        let bytes = msg.estimated_bytes();
        ctx.broadcast(at, bytes, msg);
    }
}

/// Dense population: everyone inside the default 50 m radio range.
fn dense_sim(nodes: usize) -> Simulator<Msg> {
    let mut sim = Simulator::new(SimConfig {
        area: Area::new(30.0, 30.0),
        seed: 7,
        ..Default::default()
    });
    for _ in 0..nodes {
        sim.add_node_random(Mobility::Static);
    }
    sim
}

fn bench_broadcast_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("delivery_plane");
    g.sample_size(20);
    for nodes in [64usize, 256] {
        g.bench_with_input(
            BenchmarkId::new("des_broadcast_fanout", nodes),
            &nodes,
            |b, &n| {
                let mut sim = dense_sim(n);
                let mut app = FanOut { delivered: 0 };
                let mut round = 0u64;
                b.iter(|| {
                    // One broadcast → n-1 deliveries drained through the
                    // heap; the sim is reused so setup stays out of the
                    // measurement.
                    round += 1;
                    sim.schedule_timer(NodeId(0), SimDuration::millis(1), round);
                    sim.run_until(&mut app, SimTime(u64::MAX));
                    app.delivered
                });
                assert!(app.delivered > 0);
            },
        );
    }
    g.finish();
}

fn bench_neighbour_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("delivery_plane");
    g.sample_size(20);
    // Dense: all 256 nodes share one cell block (worst-case candidates).
    g.bench_with_input(
        BenchmarkId::new("neighbours_dense", 256),
        &256usize,
        |b, &n| {
            let sim = dense_sim(n);
            let mut out = Vec::new();
            b.iter(|| {
                for i in 0..n {
                    sim.neighbours_into(NodeId(i as u32), &mut out);
                }
            });
        },
    );
    // Sparse: 256 nodes over 1 km², ~a handful per cell block — the case
    // the O(N)-scan-per-query used to dominate.
    g.bench_with_input(
        BenchmarkId::new("neighbours_sparse", 256),
        &256usize,
        |b, &n| {
            let mut sim: Simulator<Msg> = Simulator::new(SimConfig {
                area: Area::new(1000.0, 1000.0),
                seed: 7,
                ..Default::default()
            });
            for _ in 0..n {
                sim.add_node_random(Mobility::Static);
            }
            let mut out = Vec::new();
            b.iter(|| {
                for i in 0..n {
                    sim.neighbours_into(NodeId(i as u32), &mut out);
                }
            });
        },
    );
    g.finish();
}

criterion_group!(benches, bench_broadcast_fanout, bench_neighbour_queries);
criterion_main!(benches);
