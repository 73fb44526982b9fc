//! `Backend::DirectBatched` pinned two ways.
//!
//! **Bit-for-bit against itself.** Four fixed scenarios record the state
//! digest, event-log length and `run()` return the batching
//! `DirectRuntime` produced when it still coalesced by draining and
//! re-queueing every same-instant event. The numbers were taken on that
//! implementation, so any change to *how* batches are assembled must
//! reproduce them exactly: a batch fires at the queue position of its
//! earliest member, holds every CFP to that node and instant queued
//! before it fires, and `run()` counts every coalesced delivery. (The
//! four digests were re-taken, on unchanged runs, when an organizer's
//! digest of its announcements moved from their `Debug` rendering to the
//! spec/request content hashes; log lengths and `run()` counts are the
//! original ones.)
//!
//! **Outcome-for-outcome against `Backend::Direct`.** Coalescing regroups
//! deliveries inside one virtual instant but may not change what any
//! organizer concludes: same per-node event sequences (so same winner
//! maps, metrics and timestamps), same message and `run()` counts, and
//! the model checker's invariants hold on both. Runs under
//! `PROPTEST_CASES` (64 locally, 256 in CI).

use proptest::prelude::*;

use qosc_core::{LoggedEvent, NegoEvent, Pid, Runtime, StableHasher, StateDigest};
use qosc_mc::{default_invariants, verify_runtime};
use qosc_netsim::{FaultPlan, PartitionPlan, SimDuration, SimTime};
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Formation-only configuration (monitoring off, heartbeats parked) so a
/// drained run is quiescent and message counts are the protocol's own.
fn config(nodes: usize, seed: u64, population: PopulationConfig) -> ScenarioConfig {
    ScenarioConfig {
        organizer: qosc_core::OrganizerConfig {
            monitor: false,
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: SimDuration::secs(3600),
            ..Default::default()
        },
        population,
        ..ScenarioConfig::dense(nodes, seed)
    }
}

/// Submits one `tasks`-task surveillance service per organizer, all at
/// `at` — the same-instant wave that makes batches larger than one.
fn submit_wave(
    rt: &mut dyn Runtime,
    organizers: std::ops::Range<Pid>,
    tasks: usize,
    at: SimTime,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA_7C4);
    for org in organizers {
        let svc = AppTemplate::Surveillance.service(format!("svc{org}"), tasks, &mut rng);
        rt.submit(org, svc, at).expect("every node organizes");
    }
}

/// Everything observable about a finished run in one number: every
/// node's `StateDigest`, the full event log and the message counter.
fn world_digest(rt: &dyn Runtime, nodes: usize) -> u64 {
    let mut h = StableHasher::new();
    for id in 0..nodes as Pid {
        rt.node(id)
            .expect("dense ids are registered")
            .digest(&mut h);
    }
    h.write_usize(rt.events().len());
    for e in rt.events() {
        h.write_u64(e.at.0);
        h.write_u64(u64::from(e.node));
        // NegoEvent holds only ordered containers, so Debug is canonical.
        h.write_str(&format!("{:?}", e.event));
    }
    h.write_u64(rt.messages_sent());
    h.finish()
}

/// What a pinned scenario records.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    log_len: usize,
    run_events: u64,
}

fn pin_of(rt: &dyn Runtime, nodes: usize, run_events: u64) -> Pin {
    Pin {
        digest: world_digest(rt, nodes),
        log_len: rt.events().len(),
        run_events,
    }
}

const HORIZON: SimTime = SimTime(20_000_000);

/// Eight organizers kick off in the same instant on a constrained
/// 16-node pool that cannot host everything: every provider hears eight
/// CFPs back-to-back (batches of eight), and the re-announce rounds of
/// the negotiations left short collide again at each deadline, queued
/// between the other organizers' awards.
#[test]
fn pinned_same_instant_wave() {
    let nodes = 16;
    let mut rt = config(nodes, 0xB47C_0001, PopulationConfig::constrained())
        .build_backend(Backend::DirectBatched);
    submit_wave(rt.as_mut(), 0..8, 6, SimTime(1_000), 1);
    let n = rt.run(HORIZON);
    assert_eq!(
        pin_of(rt.as_ref(), nodes, n),
        Pin {
            digest: 0xb9d4_d012_34bc_c63d,
            log_len: 8,
            run_events: 356,
        }
    );
}

/// The same wave under sampled duplicates and microsecond reorder
/// jitter: duplicated CFPs join their original's batch, jittered ones
/// land in (and merge into) batches at later instants.
#[test]
fn pinned_duplicate_and_reorder() {
    let nodes = 16;
    let mut rt = config(nodes, 0xB47C_0002, PopulationConfig::constrained())
        .build_backend(Backend::DirectBatched);
    assert!(rt.set_fault_plan(
        FaultPlan::sampled(0xFA17)
            .with_duplicate(0.15)
            .with_reorder(0.4, SimDuration::micros(3)),
    ));
    submit_wave(rt.as_mut(), 0..6, 6, SimTime(1_000), 2);
    let n = rt.run(HORIZON);
    assert_eq!(
        pin_of(rt.as_ref(), nodes, n),
        Pin {
            digest: 0x06e0_f3fe_1626_0609,
            log_len: 6,
            run_events: 402,
        }
    );
}

/// A split that opens just after the first CFP wave lands and heals
/// two rounds later: the cut check runs per delivery before a CFP is
/// filed, so the re-announce rounds batch only within each half until
/// the heal lets them span the pool again.
#[test]
fn pinned_partitioned() {
    let nodes = 16;
    let halves = vec![(0..8).collect::<Vec<u32>>(), (8..16).collect()];
    let mut cfg = config(nodes, 0xB47C_0003, PopulationConfig::constrained());
    cfg.partitions = PartitionPlan::none()
        .partition_at(SimTime(1_001), halves)
        .heal_at(SimTime(250_000));
    let mut rt = cfg.build_backend(Backend::DirectBatched);
    // Organizers on both sides of the cut.
    submit_wave(rt.as_mut(), 5..11, 6, SimTime(1_000), 3);
    let n = rt.run(HORIZON);
    assert_eq!(
        pin_of(rt.as_ref(), nodes, n),
        Pin {
            digest: 0xa504_a433_729f_ee52,
            log_len: 6,
            run_events: 290,
        }
    );
}

/// Two `run` calls with batches straddling the first deadline: reorder
/// jitter parks CFPs at 1 002–1 004 µs, the first `run` stops at
/// 1 001 µs, and a second wave submitted at the stopped clock sends CFPs
/// whose jittered arrivals join the parked batches before they fire.
#[test]
fn pinned_two_runs_straddling_a_deadline() {
    let nodes = 12;
    let mut rt = config(nodes, 0xB47C_0004, PopulationConfig::constrained())
        .build_backend(Backend::DirectBatched);
    assert!(rt.set_fault_plan(FaultPlan::sampled(0x5712).with_reorder(0.6, SimDuration::micros(3))));
    submit_wave(rt.as_mut(), 0..3, 4, SimTime(1_000), 4);
    let first = rt.run(SimTime(1_001));
    submit_wave(rt.as_mut(), 3..6, 4, SimTime(1_001), 5);
    let second = rt.run(HORIZON);
    assert!(first > 0 && second > 0, "both runs must dispatch events");
    assert_eq!(
        pin_of(rt.as_ref(), nodes, first + second),
        Pin {
            digest: 0x5d85_2a20_92c7_3dd1,
            log_len: 6,
            run_events: 244,
        }
    );
}

/// One node's slice of the event log, in log order.
fn events_of(events: &[LoggedEvent], node: Pid) -> Vec<&LoggedEvent> {
    events.iter().filter(|e| e.node == node).collect()
}

struct Outcome {
    rt: Box<dyn Runtime>,
    run_events: u64,
}

fn run_wave(
    backend: Backend,
    nodes: usize,
    organizers: u32,
    tasks: usize,
    constrained: bool,
    seed: u64,
) -> Outcome {
    let population = if constrained {
        PopulationConfig::constrained()
    } else {
        PopulationConfig::default()
    };
    let mut rt = config(nodes, seed, population).build_backend(backend);
    submit_wave(rt.as_mut(), 0..organizers, tasks, SimTime(1_000), seed);
    let run_events = rt.run(HORIZON);
    Outcome { rt, run_events }
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// Batching never changes what a negotiation concludes: for any
    /// same-instant wave, `DirectBatched` and `Direct` log the same
    /// events per node (winner maps, metrics, timestamps), send the same
    /// number of messages, report the same `run()` count, and both end
    /// in a state the model checker's invariants accept.
    #[test]
    fn batched_agrees_with_direct(
        seed in 0u64..10_000,
        nodes in 2usize..24,
        org_pick in 1usize..8,
        tasks in 1usize..8,
        constrained in 0u8..2,
    ) {
        let organizers = org_pick.min(nodes) as u32;
        let constrained = constrained == 1;
        let direct = run_wave(Backend::Direct, nodes, organizers, tasks, constrained, seed);
        let batched = run_wave(Backend::DirectBatched, nodes, organizers, tasks, constrained, seed);

        for node in 0..nodes as Pid {
            prop_assert_eq!(
                events_of(direct.rt.events(), node),
                events_of(batched.rt.events(), node),
                "node {}'s events diverged (seed {}, {} nodes, {} organizers, {} tasks)",
                node, seed, nodes, organizers, tasks
            );
        }
        prop_assert_eq!(direct.rt.messages_sent(), batched.rt.messages_sent());
        prop_assert_eq!(direct.run_events, batched.run_events,
            "run() must count every coalesced delivery");

        // Every negotiation reached a verdict, so the wave was not vacuous.
        let settled = direct.rt.events().iter().filter(|e| matches!(
            e.event,
            NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
        )).count();
        prop_assert!(settled >= organizers as usize);

        let ids: Vec<Pid> = (0..nodes as Pid).collect();
        for out in [&direct, &batched] {
            verify_runtime(out.rt.as_ref(), &ids, &default_invariants(), true).unwrap_or_else(|v| {
                panic!("{v} (seed {seed}, {nodes} nodes, {organizers} organizers)")
            });
        }
    }
}
