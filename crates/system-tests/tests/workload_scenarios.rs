//! Scenario-level behaviour: dynamic Poisson arrivals, multiple
//! concurrent negotiations from different organizers, determinism.

use qosc_core::{
    digest_of, CoalitionNode, DirectRuntime, NegoEvent, OrganizerEngine, ProviderConfig,
    ProviderEngine, Runtime,
};
use qosc_load::PoissonArrivals;
use qosc_netsim::SimTime;
use qosc_resources::ResourceKind;
use qosc_system_tests::dense_scenario;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, Scenario, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn poisson_stream_of_services_is_processed() {
    let mut s = dense_scenario(31, 8);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let arrivals = PoissonArrivals::new(0.5); // one service every ~2 s
    let times = arrivals.sample_until(SimTime(1_000), SimTime(20_000_000), &mut rng);
    assert!(!times.is_empty());
    let n = times.len();
    for (i, t) in times.into_iter().enumerate() {
        let template = AppTemplate::ALL[i % AppTemplate::ALL.len()];
        // Transcode uses a different spec — still registered everywhere.
        let svc = template.service(format!("svc-{i}"), 1 + i % 2, &mut rng);
        let organizer = (i % 4) as u32; // rotate originating node
        s.submit(organizer, svc, t);
    }
    s.run_until(SimTime(60_000_000));
    let settled = s
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )
        })
        .count();
    assert_eq!(
        settled,
        n,
        "every negotiation must settle: {:?}",
        s.events()
    );
}

#[test]
fn concurrent_negotiations_do_not_overcommit_any_node() {
    let mut s = dense_scenario(77, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    // Two organizers fire at the same instant.
    for org in [0u32, 1u32] {
        let svc = AppTemplate::Surveillance.service(format!("svc-{org}"), 2, &mut rng);
        s.submit(org, svc, SimTime(1_000));
    }
    s.run_until(SimTime(30_000_000));
    // Ledger invariant on every node: committed ≤ capacity per kind.
    for i in 0..6u32 {
        let ledger = s.provider(i).unwrap().ledger();
        let available = ledger.available();
        let capacity = ledger.capacity();
        for k in qosc_resources::ResourceKind::ALL {
            assert!(
                available.get(k) >= -1e-9 && available.get(k) <= capacity.get(k) + 1e-9,
                "node {i} kind {k}: {} of {}",
                available.get(k),
                capacity.get(k)
            );
        }
    }
    // Both negotiations settled.
    let settled = s
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )
        })
        .count();
    assert!(settled >= 2);
}

#[test]
fn dense_256_node_population_forms_a_coalition() {
    // The scale the compiled batch evaluator opened: one negotiation in a
    // fully-connected 256-node population. Every capable node proposes,
    // so the organizer prices hundreds of proposals per task.
    let mut s = Scenario::build(&ScenarioConfig::dense(256, 0x256));
    let mut rng = ChaCha8Rng::seed_from_u64(0x256);
    let svc = AppTemplate::Surveillance.service("svc", 3, &mut rng);
    s.submit(0, svc, SimTime(1_000));
    s.run_until(SimTime(10_000_000));
    assert!(
        s.events()
            .iter()
            .any(|e| matches!(e.event, NegoEvent::Formed { .. })),
        "a 256-node dense population must form: {:?}",
        s.events()
    );
    // The CFP reached (essentially) the whole population: the message
    // count is dominated by the per-node proposal replies.
    assert!(
        s.net_stats().messages_sent() >= 200,
        "expected a population-wide proposal wave, got {} messages",
        s.net_stats().messages_sent()
    );
}

#[test]
fn identical_seeds_give_identical_event_logs() {
    let run = |seed: u64| {
        let mut s = dense_scenario(seed, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in 0..4 {
            let svc = AppTemplate::Surveillance.service(format!("svc-{i}"), 2, &mut rng);
            s.submit(i as u32 % 3, svc, SimTime(1_000 + i as u64 * 500_000));
        }
        s.run_until(SimTime(30_000_000));
        (
            s.events().len(),
            s.net_stats().clone(),
            s.events()
                .iter()
                .map(|e| (e.at, e.node))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5));
}

/// A built world's providers price from one shared book of bundle plans.
/// The same population assembled by hand, one private book per node, must
/// conclude exactly the same — event for event, message for message, node
/// state for node state — on a pool tight enough that providers degrade,
/// shed and refuse.
#[test]
fn world_on_a_shared_book_matches_private_book_nodes() {
    let config = ScenarioConfig {
        population: PopulationConfig::constrained(),
        ..ScenarioConfig::dense(24, 0x5B00C)
    };
    let mut shared = config.build_backend(Backend::Direct);
    let mut private = DirectRuntime::new();
    for (profile, id) in Scenario::build(&config).profiles.iter().zip(0u32..) {
        let mut provider = ProviderEngine::new(
            id,
            profile.capacity,
            ProviderConfig {
                link_kbps: profile.capacity.get(ResourceKind::NetBandwidth),
                ..config.provider.clone()
            },
        );
        for template in AppTemplate::ALL {
            provider.register_demand_model(template.spec().name(), template.demand_model());
        }
        let node = CoalitionNode::new(id)
            .with_provider(provider)
            .with_organizer(OrganizerEngine::new(id, config.organizer.clone()));
        private.add_node(node).expect("sequential ids are unique");
    }
    for rt in [shared.as_mut(), &mut private as &mut dyn Runtime] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B00C);
        for i in 0..12u32 {
            let template = AppTemplate::ALL[i as usize % AppTemplate::ALL.len()];
            let svc = template.service(format!("svc-{i}"), 1 + i as usize % 4, &mut rng);
            rt.submit(i % 6, svc, SimTime(1_000 + u64::from(i / 3) * 400_000))
                .expect("every node organizes");
        }
        rt.run(SimTime(30_000_000));
    }
    assert!(!shared.events().is_empty());
    assert_eq!(shared.events(), private.events());
    assert_eq!(shared.messages_sent(), private.messages_sent());
    for id in 0..24u32 {
        assert_eq!(
            digest_of(shared.node(id).expect("registered")),
            digest_of(private.node(id).expect("registered")),
            "node {id}"
        );
    }
}
