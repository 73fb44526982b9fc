//! Delivery-plane equivalence: `Simulator::new` schedules one queue entry
//! per radio transmission and fans it out from a remembered
//! neighbourhood, the per-copy reference `Simulator::per_copy` schedules
//! one entry per copy and queries the grid on every send. The two must
//! agree bit for bit — every receipt with its total-order key, every
//! counter, the clock and the event count — which is what proves the
//! batching changes nothing a handler can observe.
//!
//! The worlds are built to break runs of same-instant copies in every
//! way the engine allows: grey-zone loss, dropped / duplicated /
//! reordered copies, partition cuts, receivers going down and up while
//! copies are in flight, and mobility ticks between transmissions.
//!
//! A second property pins the sequential engine against itself: stepping
//! one event at a time, one `run_until`, `run_until` in 8 chunks, and one
//! `step()` into a fan-out followed by `run_until` all see the same run.
//!
//! Runs under `PROPTEST_CASES` (64 locally, 256 in CI).

use proptest::prelude::*;

use qosc_netsim::{
    Area, Ctx, FaultPlan, Mobility, NetApp, NetStats, NodeId, PartitionPlan, RadioModel, SimConfig,
    SimDuration, SimTime, Simulator,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One delivered message: total-order key, receiver, sender, payload,
/// arrival time.
type Receipt = ((SimTime, u64), NodeId, NodeId, u32, SimTime);

/// A TTL-bounded flood: a timer broadcasts 0, every receipt below the
/// TTL rebroadcasts `msg + 1`.
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

/// Everything a run is a function of.
#[derive(Debug, Clone, Copy)]
struct World {
    seed: u64,
    nodes: usize,
    mobile: bool,
    ttl: u32,
}

const DEADLINE: SimTime = SimTime(60_000);

impl World {
    fn config(&self) -> SimConfig {
        // ~7 neighbours per node: enough for multi-copy runs, few enough
        // that a TTL-3 flood stays in the tens of thousands of events.
        let side = (self.nodes as f64 * 1100.0).sqrt();
        SimConfig {
            area: Area::new(side, side),
            radio: RadioModel {
                loss_floor: 0.05,
                loss_at_edge: 0.4,
                ..Default::default()
            },
            // Several ticks inside the flood (a copy flies ~2 ms).
            mobility_tick: SimDuration::millis(3),
            seed: self.seed,
        }
    }

    fn mobility(&self) -> Mobility {
        if self.mobile {
            // Fast enough to carry nodes across the range edge in a run.
            Mobility::RandomWaypoint {
                min_speed: 200.0,
                max_speed: 900.0,
                pause: SimDuration::millis(1),
            }
        } else {
            Mobility::Static
        }
    }

    fn faults(&self) -> FaultPlan {
        FaultPlan::sampled(self.seed ^ 0xFA)
            .with_drop(0.1)
            .with_duplicate(0.15)
            .with_reorder(0.2, SimDuration::millis(2))
    }

    fn partitions(&self) -> PartitionPlan {
        let mid = (self.nodes / 2) as u32;
        PartitionPlan::none()
            .partition_at(
                SimTime(4_000),
                vec![(0..mid).collect(), (mid..self.nodes as u32).collect()],
            )
            .heal_at(SimTime(9_000))
    }
}

/// Builds either engine, `Simulator::new` or `Simulator::per_copy`: the
/// nodes, the fault and partition layers, a few kick-off beacons spread
/// over several mobility ticks, and liveness flips timed to land between
/// a transmission and its delivery.
fn populate(mut sim: Simulator<u32>, w: &World) -> Simulator<u32> {
    for _ in 0..w.nodes {
        sim.add_node_random(w.mobility());
    }
    sim.set_fault_plan(w.faults());
    sim.set_partition_plan(&w.partitions());
    let mut rng = ChaCha8Rng::seed_from_u64(w.seed ^ 0x5EED);
    for _ in 0..4 {
        let node = NodeId(rng.gen_range(0..w.nodes as u32));
        let at = SimDuration::micros(rng.gen_range(500..12_000));
        sim.schedule_timer(node, at, 0);
    }
    for _ in 0..w.nodes / 4 {
        let node = NodeId(rng.gen_range(0..w.nodes as u32));
        let down = rng.gen_range(500..15_000u64);
        sim.schedule_down(node, SimDuration::micros(down));
        sim.schedule_up(
            node,
            SimDuration::micros(down + rng.gen_range(200..6_000u64)),
        );
    }
    sim
}

fn sequential(w: &World) -> (Simulator<u32>, Flood) {
    let sim = populate(Simulator::new(w.config()), w);
    let app = Flood {
        ttl: w.ttl,
        ..Default::default()
    };
    (sim, app)
}

/// What a finished run looks like from outside.
type Outcome = (Vec<Receipt>, NetStats, SimTime, u64);

fn outcome(sim: &Simulator<u32>, app: Flood, events: u64) -> Outcome {
    (app.received, sim.stats().clone(), sim.now(), events)
}

fn world() -> impl Strategy<Value = World> {
    (0u64..1_000_000, 16usize..=128, 0u32..2, 1u32..=3).prop_map(|(seed, nodes, mobile, ttl)| {
        World {
            seed,
            nodes,
            mobile: mobile == 1,
            ttl,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The per-copy engine is the oracle for the batched one.
    #[test]
    fn simulator_is_bit_equal_to_per_copy_reference(w in world()) {
        let (mut seq, mut seq_app) = sequential(&w);
        let seq_n = seq.run_until(&mut seq_app, DEADLINE);

        let mut pc = populate(Simulator::per_copy(w.config()), &w);
        let mut pc_app = Flood { ttl: w.ttl, ..Default::default() };
        let pc_n = pc.run_until(&mut pc_app, DEADLINE);

        prop_assert_eq!(&seq_app.received, &pc_app.received, "receipts diverged: {:?}", w);
        prop_assert_eq!(seq.stats(), pc.stats(), "counters diverged: {:?}", w);
        prop_assert_eq!(seq.now(), pc.now());
        prop_assert_eq!(seq_n, pc_n, "event counts diverged: {:?}", w);
    }

    /// However the caller slices the run, it is the same run.
    #[test]
    fn stepping_chunking_and_running_agree(w in world()) {
        let (mut sim, mut app) = sequential(&w);
        let n = sim.run_until(&mut app, DEADLINE);
        let whole = outcome(&sim, app, n);

        // One event per `step()`: exactly `n` of them reach the deadline.
        let (mut sim, mut app) = sequential(&w);
        for _ in 0..n {
            prop_assert!(sim.step(&mut app).is_some_and(|at| at <= DEADLINE));
        }
        let rest = sim.run_until(&mut app, DEADLINE);
        prop_assert_eq!(rest, 0, "step() and run_until count events differently");
        prop_assert_eq!(&outcome(&sim, app, n), &whole, "stepped: {:?}", w);

        let (mut sim, mut app) = sequential(&w);
        let mut chunked = 0;
        for c in 1..=8 {
            chunked += sim.run_until(&mut app, SimTime(DEADLINE.0 * c / 8));
        }
        prop_assert_eq!(&outcome(&sim, app, chunked), &whole, "chunked: {:?}", w);

        // Step until the first copy of the first fan-out has been handed
        // over (leaving the rest of it parked), then run.
        let (mut sim, mut app) = sequential(&w);
        let mut stepped = 0;
        while app.received.is_empty() && sim.step(&mut app).is_some_and(|at| at <= DEADLINE) {
            stepped += 1;
        }
        if !app.received.is_empty() {
            let ran = sim.run_until(&mut app, DEADLINE);
            prop_assert_eq!(&outcome(&sim, app, stepped + ran), &whole, "step+run: {:?}", w);
        }
    }
}
