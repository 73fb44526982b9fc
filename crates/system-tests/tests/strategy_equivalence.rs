//! Cross-backend equivalence for non-default strategy chains: a
//! reserve-price provider chain plus a reputation-weighted organizer
//! chain must behave identically on all three backends (Des, Direct,
//! Direct with CFP batching) — the engines own every decision, so
//! plugging components in cannot introduce backend-specific divergence.
//!
//! Same contract as `runtime_equivalence`: the DES at zero latency is
//! event-for-event identical to Direct.

use std::collections::BTreeMap;

use proptest::prelude::*;

use qosc_core::strategy::{ReputationScorer, ReservePrice};
use qosc_core::{NegoEvent, NegoId, OrganizerStrategy, Pid, ProviderStrategy};
use qosc_netsim::{RadioModel, SimDuration, SimTime};
use qosc_spec::TaskId;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Distrust every even-id node outright; the weight is large enough to
/// override any distance/comm-cost advantage, so the chain demonstrably
/// flips winners rather than just nudging scores.
fn organizer_chain(nodes: usize) -> OrganizerStrategy {
    let reputations: BTreeMap<Pid, f64> = (0..nodes as u32)
        .map(|id| (id, if id % 2 == 0 { 0.0 } else { 1.0 }))
        .collect();
    OrganizerStrategy::new().with(ReputationScorer {
        reputations,
        default_reputation: 1.0,
        weight: 10.0,
    })
}

/// The chained scenario: dense static population, instant lossless
/// radio, monitoring off and heartbeats beyond the horizon (the same
/// observability discipline as `runtime_equivalence`), with a
/// reserve-price provider chain and the reputation organizer chain.
fn chained_config(nodes: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        radio: RadioModel::instant(),
        population: PopulationConfig::default(),
        organizer: qosc_core::OrganizerConfig {
            monitor: false,
            chain: organizer_chain(nodes),
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: SimDuration::secs(3600),
            chain: ProviderStrategy::new().with(ReservePrice { min_reward: 3.5 }),
            ..Default::default()
        },
        ..ScenarioConfig::dense(nodes, seed)
    }
}

fn submit_service(
    rt: &mut Box<dyn qosc_core::Runtime>,
    tasks: usize,
    seed: u64,
) -> Result<(), qosc_core::RuntimeError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5C_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).map(|_| ())
}

/// Full observable state on a virtual-time backend.
fn run_virtual(
    backend: Backend,
    nodes: usize,
    tasks: usize,
    seed: u64,
) -> (Vec<qosc_core::LoggedEvent>, u64) {
    let mut rt = chained_config(nodes, seed).build_backend(backend);
    submit_service(&mut rt, tasks, seed).expect("node 0 hosts the organizer");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

/// Winner map of every settled negotiation (`nego → task → node`).
fn winner_maps(events: &[qosc_core::LoggedEvent]) -> BTreeMap<NegoId, BTreeMap<TaskId, Pid>> {
    let mut out = BTreeMap::new();
    for e in events {
        let (nego, metrics) = match &e.event {
            NegoEvent::Formed { nego, metrics } => (*nego, metrics),
            NegoEvent::FormationIncomplete { nego, metrics, .. } => (*nego, metrics),
            _ => continue,
        };
        out.insert(
            nego,
            metrics.outcomes.iter().map(|(t, o)| (*t, o.node)).collect(),
        );
    }
    out
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// DES at zero latency and Direct stay event-for-event identical
    /// with both chains active.
    #[test]
    fn chained_des_at_zero_latency_equals_direct(
        seed in 0u64..10_000,
        nodes in 2usize..20,
        tasks in 1usize..4,
    ) {
        let (des_events, des_msgs) = run_virtual(Backend::Des, nodes, tasks, seed);
        let (dir_events, dir_msgs) = run_virtual(Backend::Direct, nodes, tasks, seed);
        prop_assert_eq!(&des_events, &dir_events,
            "chained event logs diverged (seed {}, {} nodes, {} tasks)", seed, nodes, tasks);
        prop_assert_eq!(des_msgs, dir_msgs, "chained message counts diverged");
        prop_assert!(des_events.iter().any(|e| matches!(
            e.event,
            NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
        )));
    }
}

/// Pinned cross-backend outcomes for the chained scenario, plus proof
/// that the chain actually bites: across the pinned cases the reputation
/// weighting must steer at least one task away from a distrusted node's
/// default-chain win.
#[test]
fn chained_outcomes_pin_across_all_three_backends() {
    let mut chain_changed_something = false;
    for &(nodes, tasks, seed) in &[(6usize, 2usize, 42u64), (5, 3, 7), (8, 2, 301)] {
        let (des_events, des_msgs) = run_virtual(Backend::Des, nodes, tasks, seed);
        let (dir_events, dir_msgs) = run_virtual(Backend::Direct, nodes, tasks, seed);
        assert_eq!(des_events, dir_events, "seed {seed}");
        assert_eq!(des_msgs, dir_msgs, "seed {seed}");
        let batched = run_virtual(Backend::DirectBatched, nodes, tasks, seed);
        assert_eq!(batched, (des_events, des_msgs), "batched, seed {seed}");
        let dir_winners = winner_maps(&dir_events);
        assert!(
            !dir_winners.is_empty(),
            "scenario was vacuous at seed {seed}"
        );

        // Same scenario with default (empty) chains for comparison.
        let mut rt = ScenarioConfig {
            radio: RadioModel::instant(),
            population: PopulationConfig::default(),
            organizer: qosc_core::OrganizerConfig {
                monitor: false,
                ..Default::default()
            },
            provider: qosc_core::ProviderConfig {
                heartbeat_interval: SimDuration::secs(3600),
                ..Default::default()
            },
            ..ScenarioConfig::dense(nodes, seed)
        }
        .build_backend(Backend::Direct);
        submit_service(&mut rt, tasks, seed).expect("node 0 hosts the organizer");
        rt.run(SimTime(5_000_000));
        if winner_maps(rt.events()) != dir_winners {
            chain_changed_something = true;
        }
    }
    assert!(
        chain_changed_something,
        "the reserve-price + reputation chain never altered an outcome — \
         the components are not wired through"
    );
}
