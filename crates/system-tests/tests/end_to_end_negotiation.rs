//! End-to-end negotiation through the DES: the full §4.2 message flow,
//! with message accounting checked against the protocol's analytic cost
//! and dissolution restoring every ledger.

use qosc_core::{
    single_organizer_scenario, NegoEvent, NegoId, OrganizerConfig, ProviderConfig, ProviderEngine,
    Runtime,
};
use qosc_netsim::{NodeId, SimDuration, SimTime};
use qosc_resources::ResourceKind;
use qosc_spec::{ServiceDef, TaskId};
use qosc_system_tests::{av_provider_with, dense_sim, quiet_provider, surveillance_service_sized};

/// Provider with heartbeats kept out of the message-accounting window.
fn provider(id: u32, cpu: f64) -> ProviderEngine {
    quiet_provider(id, cpu)
}

fn service(tasks: usize) -> ServiceDef {
    surveillance_service_sized("svc", tasks, 100_000, 10_000)
}

#[test]
fn coalition_forms_with_correct_winner_and_message_count() {
    let n = 5;
    let sim = dense_sim(n);
    // Node 3 is the only one able to serve at preferred quality (preferred
    // demand ≈ 18.25 MIPS); the rest must degrade.
    let cpus = [10.0, 12.0, 14.0, 500.0, 9.0];
    let providers = (0..n).map(|i| provider(i as u32, cpus[i])).collect();
    let organizer = OrganizerConfig {
        monitor: false,
        ..Default::default()
    };
    let mut rt = single_organizer_scenario(
        sim,
        organizer,
        providers,
        service(1),
        SimDuration::millis(1),
    );
    rt.run(SimTime(10_000_000));

    let formed: Vec<_> = rt
        .events()
        .iter()
        .filter_map(|e| match &e.event {
            NegoEvent::Formed { metrics, .. } => Some(metrics.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(formed.len(), 1, "exactly one coalition: {:?}", rt.events());
    let m = &formed[0];
    assert_eq!(m.outcomes[&TaskId(0)].node, 3, "richest node must win");
    assert_eq!(m.outcomes[&TaskId(0)].distance, 0.0);
    assert!(m.unassigned.is_empty());
    assert_eq!(m.reconfigurations, 0);
    assert_eq!(m.proposal_bundles, n as u32, "every node proposes");

    // Analytic single-round count: 1 CFP + n proposals + 1 award + 1 accept.
    let expected = 1 + n as u64 + 1 + 1;
    assert_eq!(rt.messages_sent(), expected);
    // Formation latency is dominated by the proposal deadline (100 ms).
    let lat = m.formation_latency().unwrap();
    assert!(lat >= SimDuration::millis(100));
    assert!(lat < SimDuration::millis(200));
}

#[test]
fn multi_task_service_spreads_across_nodes_with_sequential_pricing() {
    let n = 4;
    let sim = dense_sim(n);
    // 20 MIPS fits one preferred task (~18.25) but not two. Sequential
    // pricing offers only what genuinely fits, so each retry round places
    // one task per node and the service spreads at full quality. (The
    // joint §5-literal strategy instead consolidates everything, degraded,
    // on the requester — covered by F4.)
    let providers = (0..n)
        .map(|i| {
            av_provider_with(
                i as u32,
                20.0,
                ProviderConfig {
                    strategy: qosc_core::ProposalStrategy::Sequential,
                    ..Default::default()
                },
            )
        })
        .collect();
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(3),
        SimDuration::millis(1),
    );
    rt.run(SimTime(30_000_000));

    let formed = rt
        .events()
        .iter()
        .find_map(|e| match &e.event {
            NegoEvent::Formed { metrics, .. } => Some(metrics.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("coalition should form: {:?}", rt.events()));
    assert_eq!(formed.outcomes.len(), 3);
    assert_eq!(
        formed.distinct_members(),
        3,
        "one node per task: {formed:?}"
    );
    for o in formed.outcomes.values() {
        assert_eq!(
            o.distance, 0.0,
            "sequential pricing keeps preferred quality"
        );
    }
}

#[test]
fn dissolution_releases_every_ledger() {
    let n = 3;
    let sim = dense_sim(n);
    let providers = (0..n).map(|i| provider(i as u32, 500.0)).collect();
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(2),
        SimDuration::millis(1),
    );
    rt.run(SimTime(2_000_000));
    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::Formed { .. })));

    let committed = |rt: &qosc_core::DesRuntime| -> f64 {
        (0..n as u32)
            .map(|i| {
                let l = rt.node(i).unwrap().provider().unwrap().ledger();
                l.capacity().get(ResourceKind::Cpu) - l.available().get(ResourceKind::Cpu)
            })
            .sum()
    };
    assert!(committed(&rt) > 0.0, "resources committed while operating");

    // Host-driven dissolution: the organizer sends Release to all members.
    let nego = NegoId {
        organizer: 0,
        seq: 0,
    };
    let at = rt.sim().now() + SimDuration::millis(1);
    rt.schedule_dissolve(nego, at).unwrap();
    rt.run(SimTime(5_000_000));

    assert!(rt
        .events()
        .iter()
        .any(|e| matches!(e.event, NegoEvent::Dissolved { .. })));
    assert_eq!(committed(&rt), 0.0, "all ledgers restored");
}

#[test]
fn organizer_retries_when_first_winner_dies_before_award() {
    let n = 3;
    let sim = dense_sim(n);
    // Node 1 is best; node 2 second-best. Kill node 1 right after it sends
    // its proposal (before the award can reach it): the organizer's award
    // times out and a retry round should land on node 2.
    let cpus = [10.0, 500.0, 400.0];
    let providers = (0..n).map(|i| provider(i as u32, cpus[i])).collect();
    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service(1),
        SimDuration::millis(1),
    );
    rt.sim_mut()
        .schedule_down(NodeId(1), SimDuration::millis(50));
    rt.run(SimTime(30_000_000));

    let formed = rt
        .events()
        .iter()
        .find_map(|e| match &e.event {
            NegoEvent::Formed { metrics, .. } => Some(metrics.clone()),
            _ => None,
        })
        .expect("retry round should still form a coalition");
    assert_eq!(formed.outcomes[&TaskId(0)].node, 2);
    // At least one award went unanswered.
    assert!(formed.declines >= 1);
}
