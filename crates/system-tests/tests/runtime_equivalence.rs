//! Cross-backend equivalence: the DES at zero network latency and the
//! in-memory Direct runtime must be *event-for-event identical* for
//! fully connected, static, lossless scenarios — same assignments, same
//! metrics, same timestamps, same message counts.
//!
//! This is the contract that makes `DirectRuntime` a legitimate fast
//! path: anything it computes (tests, property checks, benches) is
//! exactly what the full simulator would have computed with the network
//! effects turned off. Runs under `PROPTEST_CASES` (64 locally, 256 in
//! CI).

use proptest::prelude::*;

use qosc_core::NegoEvent;
use qosc_netsim::{RadioModel, SimTime};
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds the shared scenario description: a dense static population
/// under an instant (zero-latency, lossless) radio, so connectivity and
/// timing cannot differ between the backends.
fn config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        radio: RadioModel::instant(),
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    }
}

/// Runs the scenario on one backend and extracts everything observable:
/// the full event log (timestamps, nodes, metrics) and message count.
fn run_on(
    backend: Backend,
    nodes: usize,
    tasks: usize,
    organizer: u32,
    seed: u64,
) -> (Vec<qosc_core::LoggedEvent>, u64) {
    let mut rt = config(nodes, seed).build_backend(backend);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(organizer, svc, SimTime(1_000))
        .expect("submit targets an organizer node");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// DES-at-zero-latency and Direct agree exactly: identical event
    /// logs (hence identical assignments and metrics) and identical
    /// message counts, for any seed, pool size, task count and
    /// originating node.
    #[test]
    fn des_at_zero_latency_equals_direct(
        seed in 0u64..10_000,
        nodes in 2usize..20,
        tasks in 1usize..4,
        org_pick in 0usize..20,
    ) {
        let organizer = (org_pick % nodes) as u32;
        let (des_events, des_msgs) = run_on(Backend::Des, nodes, tasks, organizer, seed);
        let (dir_events, dir_msgs) = run_on(Backend::Direct, nodes, tasks, organizer, seed);
        prop_assert_eq!(&des_events, &dir_events,
            "event logs diverged (seed {}, {} nodes, {} tasks, organizer {})",
            seed, nodes, tasks, organizer);
        prop_assert_eq!(des_msgs, dir_msgs, "message counts diverged");
        // The scenario is not vacuous: something settled.
        prop_assert!(des_events.iter().any(|e| matches!(
            e.event,
            NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
        )));
    }
}

/// A pinned (non-random) instance of the equivalence with the assignment
/// map surfaced explicitly, so a regression fails with a readable diff
/// even if the proptest shim's reporting is terse.
#[test]
fn pinned_seed_assignments_match_exactly() {
    for &(nodes, tasks, seed) in &[(6usize, 2usize, 42u64), (12, 3, 7), (3, 1, 0)] {
        let (des_events, des_msgs) = run_on(Backend::Des, nodes, tasks, 0, seed);
        let (dir_events, dir_msgs) = run_on(Backend::Direct, nodes, tasks, 0, seed);
        assert_eq!(des_events, dir_events, "seed {seed}");
        assert_eq!(des_msgs, dir_msgs, "seed {seed}");
        let assignments = |events: &[qosc_core::LoggedEvent]| {
            events.iter().find_map(|e| match &e.event {
                NegoEvent::Formed { metrics, .. } => Some(
                    metrics
                        .outcomes
                        .iter()
                        .map(|(t, o)| (*t, o.node))
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
        };
        assert_eq!(
            assignments(&des_events),
            assignments(&dir_events),
            "winner maps diverged at seed {seed}"
        );
    }
}
