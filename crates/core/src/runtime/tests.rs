//! Unit tests of the runtime layer, across its backends.

use std::sync::Arc;

use qosc_netsim::{
    Area, FaultPlan, Mobility, NodeId, PartitionPlan, Point, SimConfig, SimDuration, SimTime,
    Simulator,
};
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, ServiceDef, TaskDef};

use super::*;
use crate::organizer::{OrganizerConfig, OrganizerEngine};
use crate::protocol::{Action, Msg};
use crate::provider::{ProviderConfig, ProviderEngine};

fn provider(id: Pid, cpu: f64) -> ProviderEngine {
    let mut p = ProviderEngine::new(
        id,
        ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        ProviderConfig::default(),
    );
    let spec = catalog::av_spec();
    p.register_demand_model(spec.name().to_string(), Arc::new(av_demand_model(&spec)));
    p
}

fn service(tasks: usize) -> ServiceDef {
    ServiceDef::new(
        "svc",
        (0..tasks)
            .map(|i| TaskDef {
                name: format!("t{i}"),
                spec: catalog::av_spec(),
                request: catalog::surveillance_request(),
                input_bytes: 100_000,
                output_bytes: 10_000,
            })
            .collect(),
    )
}

fn clustered_sim(n: usize) -> Simulator<Msg> {
    let mut sim = Simulator::new(SimConfig {
        area: Area::new(100.0, 100.0),
        seed: 42,
        ..Default::default()
    });
    for i in 0..n {
        // All nodes within a 30 m cluster; default range is 50 m.
        let angle = i as f64;
        sim.add_node(
            Point::new(50.0 + 10.0 * angle.cos(), 50.0 + 10.0 * angle.sin()),
            Mobility::Static,
        );
    }
    sim
}

/// A provider node; node 0 also organizes.
fn node(id: Pid, cpu: f64) -> CoalitionNode {
    let node = CoalitionNode::new(id).with_provider(provider(id, cpu));
    if id == 0 {
        node.with_organizer(OrganizerEngine::new(id, OrganizerConfig::default()))
    } else {
        node
    }
}

fn direct_runtime(cpus: &[f64]) -> DirectRuntime {
    let mut rt = DirectRuntime::new();
    for (id, cpu) in (0..).zip(cpus) {
        rt.add_node(node(id, *cpu)).unwrap();
    }
    rt
}

#[test]
fn des_end_to_end_formation() {
    let sim = clustered_sim(4);
    let providers = (0..4)
        .map(|i| provider(i, 200.0 + 100.0 * i as f64))
        .collect();
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(2),
        SimDuration::millis(1),
    );
    rt.run(SimTime(5_000_000));
    let formed: Vec<_> = rt
        .events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .collect();
    assert_eq!(formed.len(), 1, "events: {:?}", rt.events());
    if let NegoEvent::Formed { metrics, .. } = &formed[0].event {
        assert_eq!(metrics.outcomes.len(), 2);
        assert!(metrics.unassigned.is_empty());
        // Every winner offered the preferred quality (all nodes rich).
        for o in metrics.outcomes.values() {
            assert_eq!(o.distance, 0.0);
        }
    }
}

#[test]
fn des_organizer_node_can_win_local_tasks() {
    // Only node 0 exists: the coalition must be the organizer itself.
    let sim = clustered_sim(1);
    let providers = vec![provider(0, 500.0)];
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(1),
        SimDuration::millis(1),
    );
    rt.run(SimTime(5_000_000));
    let formed = rt
        .events()
        .iter()
        .find(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .expect("coalition should form locally");
    if let NegoEvent::Formed { metrics, .. } = &formed.event {
        assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].node, 0);
        assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].comm_cost, 0.0);
    }
}

#[test]
fn des_no_capable_neighbours_yields_incomplete_formation() {
    let sim = clustered_sim(3);
    // All providers far too weak for even the most degraded level.
    let providers = (0..3).map(|i| provider(i, 0.5)).collect();
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig {
            max_rounds: 2,
            ..Default::default()
        },
        providers,
        service(1),
        SimDuration::millis(1),
    );
    rt.run(SimTime(5_000_000));
    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::FormationIncomplete { .. })));
}

#[test]
fn des_failure_during_operation_reconfigures_to_surviving_node() {
    let sim = clustered_sim(3);
    // Node 0 (the organizer) is too weak to offer preferred quality, so
    // a remote node wins; nodes 1 and 2 tie at distance 0 and equal
    // comm cost, and the lowest id (1) is selected. Node 2 is the
    // fallback after node 1 dies.
    let providers = vec![provider(0, 10.0), provider(1, 500.0), provider(2, 400.0)];
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(1),
        SimDuration::millis(1),
    );
    // Kill node 1 after formation settles (~300 ms), then run long
    // enough for miss detection (3 × 500 ms) and reconfiguration.
    rt.sim_mut()
        .schedule_down(NodeId(1), SimDuration::millis(600));
    rt.run(SimTime(10_000_000));
    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::MemberFailed { node: 1, .. })));
    let formed_events = rt
        .events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .count();
    assert!(formed_events >= 1);
}

#[test]
fn des_deterministic_across_runs() {
    let run = || {
        let sim = clustered_sim(5);
        let providers = (0..5)
            .map(|i| provider(i, 100.0 + 50.0 * i as f64))
            .collect();
        let mut rt = single_organizer_scenario(
            sim,
            OrganizerConfig::default(),
            providers,
            service(3),
            SimDuration::millis(1),
        );
        rt.run(SimTime(5_000_000));
        (rt.events().to_vec(), rt.net_stats().clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn direct_forms_same_coalition_as_des() {
    let cpus = [12.0, 60.0, 500.0];
    let mut rt = direct_runtime(&cpus);
    rt.submit(0, service(1), SimTime(1_000)).unwrap();
    rt.run(SimTime(5_000_000));
    let formed = rt
        .events()
        .iter()
        .find(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .expect("direct coalition");
    if let NegoEvent::Formed { metrics, .. } = &formed.event {
        // Node 0 cannot serve preferred quality; 1 and 2 tie at
        // distance 0 and the lowest id wins.
        assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].node, 1);
        assert_eq!(metrics.outcomes[&qosc_spec::TaskId(0)].distance, 0.0);
    }
}

#[test]
fn direct_is_deterministic() {
    let run = || {
        let mut rt = direct_runtime(&[30.0, 70.0, 200.0, 90.0]);
        rt.submit(0, service(2), SimTime(1_000)).unwrap();
        rt.run(SimTime(5_000_000));
        (rt.events().to_vec(), rt.messages_sent())
    };
    assert_eq!(run(), run());
}

/// A CFP announcing nothing: providers answer it with silence, so a
/// run's event count is exactly the number of CFP deliveries.
fn silent_cfp(organizer: Pid) -> Action {
    Action::broadcast(Msg::CallForProposals {
        nego: NegoId { organizer, seq: 0 },
        tasks: Vec::new(),
        round: 0,
    })
}

#[test]
fn batches_filed_before_switching_batching_off_are_still_delivered() {
    let mut rt = direct_runtime(&[100.0, 100.0, 100.0]);
    rt.set_cfp_batching(true);
    rt.apply(0, vec![silent_cfp(0)]);
    rt.apply(1, vec![silent_cfp(1)]);
    // One batch per target; node 2 hears both organizers.
    assert_eq!(rt.queued_cfps(), (3, 0));
    assert_eq!(rt.batch_senders(SimTime::ZERO, 2), [0, 1]);

    rt.set_cfp_batching(false);
    rt.apply(2, vec![silent_cfp(2)]);
    // The late CFPs queue as plain deliveries and join no filed batch.
    assert_eq!(rt.queued_cfps(), (3, 2));
    assert_eq!(rt.batch_senders(SimTime::ZERO, 0), [1]);
    assert_eq!(rt.batch_senders(SimTime::ZERO, 1), [0]);

    assert_eq!(rt.run(SimTime::ZERO), 6, "four filed + two plain");
    assert!(rt.is_drained());
}

#[test]
fn cfps_queued_before_switching_batching_on_are_delivered_singly() {
    let mut rt = direct_runtime(&[100.0, 100.0, 100.0]);
    rt.apply(0, vec![silent_cfp(0)]);
    assert_eq!(rt.queued_cfps(), (0, 2));

    rt.set_cfp_batching(true);
    rt.apply(1, vec![silent_cfp(1)]);
    // Node 2 already has node 0's CFP queued for this instant; the
    // batch opened for it now holds node 1's alone.
    assert_eq!(rt.queued_cfps(), (2, 2));
    assert_eq!(rt.batch_senders(SimTime::ZERO, 2), [1]);

    assert_eq!(rt.run(SimTime::ZERO), 4);
    assert!(rt.is_drained());
}

/// Runs `check` on a fresh runtime of every backend — Des, Direct and
/// Direct with CFP batching — both before and after its first `run`.
/// The DES backend gets three simulator nodes (ids 0–2); `check` is told
/// whether the backend has geometry.
fn on_every_backend(check: impl Fn(&mut dyn Runtime, bool)) {
    for after_run in [false, true] {
        let mut sim = Simulator::new(SimConfig::default());
        for i in 0..3 {
            sim.add_node(Point::new(10.0 * i as f64, 0.0), Mobility::Static);
        }
        let mut batched = DirectRuntime::new();
        batched.set_cfp_batching(true);
        let backends: Vec<(Box<dyn Runtime>, bool)> = vec![
            (Box::new(DesRuntime::new(sim)), true),
            (Box::new(DirectRuntime::new()), false),
            (Box::new(batched), false),
        ];
        for (mut rt, has_geometry) in backends {
            if after_run {
                rt.run(SimTime(1_000));
            }
            check(rt.as_mut(), has_geometry);
        }
    }
}

#[test]
fn duplicate_registration_is_rejected_on_every_backend() {
    // Regression: SimHost silently overwrote engines registered under
    // a duplicate Pid, losing ledgers and negotiations.
    on_every_backend(|rt, _| {
        let name = rt.backend_name();
        assert_eq!(rt.add_node(CoalitionNode::new(2)), Ok(()), "{name}");
        assert_eq!(
            rt.add_node(CoalitionNode::new(2)),
            Err(RuntimeError::DuplicateNode(2)),
            "{name}"
        );
        assert!(rt.node(2).is_some(), "{name}");
    });
}

#[test]
fn unknown_node_submission_is_rejected() {
    let nego = |organizer| NegoId { organizer, seq: 0 };
    on_every_backend(|rt, has_geometry| {
        let name = rt.backend_name();
        let organizer = OrganizerEngine::new(0, OrganizerConfig::default());
        rt.add_node(CoalitionNode::new(0).with_organizer(organizer))
            .unwrap();
        rt.add_node(CoalitionNode::new(1).with_provider(provider(1, 100.0)))
            .unwrap();
        let at = SimTime(2_000);
        assert_eq!(
            rt.submit(9, service(1), at),
            Err(RuntimeError::UnknownNode(9)),
            "{name}"
        );
        assert_eq!(
            rt.schedule_dissolve(nego(9), at),
            Err(RuntimeError::UnknownNode(9)),
            "{name}"
        );
        // A provider-only node would pop the kickoff and drop the service
        // on the floor; submit must refuse up front instead.
        assert_eq!(
            rt.submit(1, service(1), at),
            Err(RuntimeError::NoOrganizer(1)),
            "{name}"
        );
        if has_geometry {
            // Regression: this was a debug_assert; in release the engine
            // was accepted and its kickoff timer silently discarded.
            assert_eq!(
                rt.add_node(CoalitionNode::new(7)),
                Err(RuntimeError::UnknownNode(7)),
                "{name}"
            );
            assert!(rt.node(7).is_none(), "{name}");
        }
        assert_eq!(rt.submit(0, service(1), at), Ok(()), "{name}");
        assert_eq!(rt.schedule_dissolve(nego(0), at), Ok(()), "{name}");
    });
}

#[test]
fn event_log_only_grows_and_fault_vocabulary_is_enforced_on_every_backend() {
    on_every_backend(|rt, _| {
        let name = rt.backend_name();
        assert!(rt.set_fault_plan(FaultPlan::none()), "{name}");
        assert!(rt.set_partition_plan(&PartitionPlan::none()), "{name}");
        for id in 0..3 {
            rt.add_node(node(id, 300.0)).unwrap();
        }
        rt.submit(0, service(1), SimTime(2_000)).unwrap();
        rt.submit(0, service(2), SimTime(2_000_000)).unwrap();
        rt.run(SimTime(1_000_000));
        let first = rt.events().to_vec();
        assert_eq!(settled_count(&first), 1, "{name}: {first:?}");
        rt.run(SimTime(5_000_000));
        // One log, appended to in emission order: a second `run` never
        // reorders or rewrites what the first one reported.
        assert_eq!(&rt.events()[..first.len()], &first[..], "{name}");
        assert_eq!(settled_count(rt.events()), 2, "{name}");
    });
}

#[test]
fn out_of_order_submissions_start_in_kickoff_time_order() {
    // Regression: kickoff timers all look alike, so a service
    // submitted later but scheduled earlier must still be the one
    // the earlier timer starts. The one-task service kicks off at
    // t=1s, the two-task one at t=2s — submitted in reverse.
    let mut rt = direct_runtime(&[500.0, 400.0, 300.0]);
    rt.submit(0, service(2), SimTime(2_000_000)).unwrap();
    rt.submit(0, service(1), SimTime(1_000_000)).unwrap();
    rt.run(SimTime(10_000_000));
    let formed: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match &e.event {
            NegoEvent::Formed { metrics, .. } => Some(metrics.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(formed.len(), 2, "events: {:?}", rt.events());
    assert_eq!(formed[0].started_at, Some(SimTime(1_000_000)));
    assert_eq!(
        formed[0].outcomes.len(),
        1,
        "t=1s starts the 1-task service"
    );
    assert_eq!(formed[1].started_at, Some(SimTime(2_000_000)));
    assert_eq!(
        formed[1].outcomes.len(),
        2,
        "t=2s starts the 2-task service"
    );
}

#[test]
fn direct_dissolution_releases_resources() {
    let mut rt = direct_runtime(&[500.0, 400.0]);
    rt.submit(0, service(1), SimTime(1_000)).unwrap();
    rt.run(SimTime(1_000_000));
    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::Formed { .. })));
    let nego = NegoId {
        organizer: 0,
        seq: 0,
    };
    rt.schedule_dissolve(nego, SimTime(1_500_000)).unwrap();
    rt.run(SimTime(3_000_000));
    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::Dissolved { .. })));
}

/// The DES queue entry carrying a protocol message is the size it was
/// before broadcasts became one entry per transmission.
#[test]
fn des_queue_entry_for_msg_stays_64_bytes() {
    assert_eq!(Simulator::<Msg>::QUEUE_ENTRY_BYTES, 64);
}
