//! Smoke test guarding the public API surface that the `qosc_core`
//! lib.rs doctest exercises: the quickstart scenario must build through
//! the same constructors and actually form a coalition — on every
//! backend of the unified runtime API.

use qosc_core::{DirectRuntime, NegoEvent, Runtime};
use qosc_netsim::SimTime;
use qosc_system_tests::{quickstart_nodes, quickstart_scenario, quickstart_service};

#[test]
fn quickstart_scenario_forms_a_coalition() {
    let mut rt = quickstart_scenario();
    rt.run(SimTime(5_000_000));
    let formed: Vec<_> = rt
        .events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .collect();
    assert_eq!(formed.len(), 1, "exactly one coalition should form");
    // The formed coalition must have picked a real node and recorded
    // per-task outcomes.
    if let NegoEvent::Formed { metrics, .. } = &formed[0].event {
        assert!(!metrics.outcomes.is_empty());
        for o in metrics.outcomes.values() {
            assert!(o.node < 3);
        }
        assert!(metrics.distinct_members() >= 1);
    }
    // The network actually carried protocol traffic.
    assert!(rt.messages_sent() > 0);
}

#[test]
fn quickstart_scenario_is_deterministic() {
    let run = || {
        let mut rt = quickstart_scenario();
        rt.run(SimTime(5_000_000));
        (
            rt.events().len(),
            rt.messages_sent(),
            format!("{:?}", rt.events()),
        )
    };
    assert_eq!(run(), run());
}

/// The same quickstart node set runs unmodified on every backend
/// through the one `Runtime` API.
#[test]
fn quickstart_runs_on_every_backend() {
    let backends: Vec<Box<dyn Runtime>> = vec![
        Box::new(DirectRuntime::new()),
        Box::new(quickstart_scenario()), // DES, nodes pre-registered
    ];
    for mut rt in backends {
        let des = rt.backend_name() == "des";
        if !des {
            for node in quickstart_nodes() {
                rt.add_node(node).unwrap();
            }
            rt.submit(0, quickstart_service(), SimTime(1_000)).unwrap();
        }
        let settled = rt.run_until_settled(1, SimTime(10_000_000));
        assert_eq!(settled, 1, "no settlement on {}", rt.backend_name());
        assert!(
            rt.events()
                .iter()
                .any(|e| matches!(e.event, NegoEvent::Formed { .. })),
            "no coalition on {}",
            rt.backend_name()
        );
    }
}
