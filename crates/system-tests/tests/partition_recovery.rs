//! Partition-tolerance acceptance: a link-level partition that strands a
//! CFP round mid-flight must not lose tasks. The organizer's
//! timeout/backoff layer keeps re-announcing, providers release the
//! reservations the dead round left behind, and once the partition heals
//! the negotiation settles with every announced task either assigned or
//! explicitly given up — never silently dropped.
//!
//! The converse is pinned too: a partition plan that never cuts a
//! delivery leaves every backend bit-identical to a run with no plan
//! (proptest, under `PROPTEST_CASES`: 64 locally, 256 in CI).

use std::collections::BTreeSet;

use proptest::prelude::*;

use qosc_core::strategy::{OrganizerStrategy, TimeoutBackoff};
use qosc_core::{LoggedEvent, NegoEvent, OrganizerConfig, Runtime};
use qosc_mc::{partition_invariants, verify_runtime};
use qosc_netsim::{PartitionPlan, SimDuration, SimTime};
use qosc_spec::TaskId;
use qosc_workloads::{AppTemplate, Backend, Scenario, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const NODES: usize = 256;
/// The split lands at t = 4 ms: after the round-0 CFP reaches the
/// providers (default radio, ~2 ms latency, CFP arrives at ~3 ms) but
/// before their proposals reach the organizer (~5 ms) — a genuinely
/// mid-CFP cut that strands 255 in-flight proposals and the
/// reservations backing them.
const SPLIT_AT: SimTime = SimTime(4_000);
const HEAL_AT: SimTime = SimTime(1_500_000);

/// A 256-node dense population where node 0 (the organizer) is cut off
/// from everyone else until [`HEAL_AT`], with a doubling re-announce
/// backoff armed so the round budget survives the outage.
fn partitioned_config(seed: u64) -> ScenarioConfig {
    let organizer = OrganizerConfig {
        max_rounds: 12,
        chain: OrganizerStrategy::new().with(TimeoutBackoff::doubling(SimDuration::millis(50), 10)),
        ..OrganizerConfig::default()
    };
    let isolate_organizer = vec![vec![0u32], (1..NODES as u32).collect()];
    ScenarioConfig {
        organizer,
        partitions: PartitionPlan::none()
            .partition_at(SPLIT_AT, isolate_organizer)
            .heal_at(HEAL_AT),
        ..ScenarioConfig::dense(NODES, seed)
    }
}

#[test]
fn mid_cfp_partition_settles_after_heal_with_every_task_conserved() {
    let config = partitioned_config(42);
    let mut scenario = Scenario::build(&config);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", 4, &mut rng);
    scenario.submit(0, svc, SimTime(1_000));
    scenario.run_until(SimTime(8_000_000));

    // The cut was real: round-0 proposals (and the blocked re-announce
    // rounds) were discarded at delivery time.
    let cuts = scenario.net_stats().partition_cuts;
    assert!(cuts > 0, "the partition never cut a delivery");

    // The negotiation settled, and only after the heal: every pre-heal
    // round was starved of proposals, so recovery is attributable to the
    // retry layer re-announcing into the healed network.
    let settle = scenario
        .events()
        .iter()
        .find(|e| {
            matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )
        })
        .expect("negotiation neither formed nor gave up");
    assert!(
        settle.at > HEAL_AT,
        "settled at {:?}, before the heal at {HEAL_AT:?} — the partition never bit",
        settle.at
    );

    // Task conservation, explicitly: announced = assigned ∪ given_up,
    // with nothing left open or awaiting an award answer.
    let org = scenario
        .runtime
        .node(0)
        .and_then(|n| n.organizer())
        .expect("node 0 organizes");
    for nego in org.nego_ids() {
        let lc = org.task_lifecycle(nego).expect("live negotiation");
        assert!(
            lc.open.is_empty(),
            "{nego}: tasks still open: {:?}",
            lc.open
        );
        assert!(
            lc.pending.is_empty(),
            "{nego}: awards still pending: {:?}",
            lc.pending
        );
        let ended: BTreeSet<TaskId> = lc
            .assigned
            .keys()
            .chain(lc.given_up.iter())
            .copied()
            .collect();
        assert_eq!(
            lc.announced, ended,
            "{nego}: announced tasks not conserved (assigned {:?}, given up {:?})",
            lc.assigned, lc.given_up
        );
    }

    // And the model checker's partition invariants — including
    // no-split-brain-double-award and liveness-after-heal — hold on the
    // settled 256-node state.
    let ids: Vec<u32> = (0..NODES as u32).collect();
    verify_runtime(&scenario.runtime, &ids, &partition_invariants(), true)
        .unwrap_or_else(|v| panic!("{v}"));
}

/// Runs a `tasks`-task surveillance service from node 0 on `backend`;
/// returns the event log and the message count. A `plan` is installed
/// directly on the runtime (bypassing `ScenarioConfig::partitions`, which
/// skips inert plans), so even a plan with no events is genuinely
/// installed before the run.
fn run_with_installed_plan(
    backend: Backend,
    config: &ScenarioConfig,
    tasks: usize,
    plan: Option<&PartitionPlan>,
) -> (Vec<LoggedEvent>, u64) {
    let mut rt = config.build_backend(backend);
    if let Some(plan) = plan {
        assert!(
            rt.set_partition_plan(plan),
            "{} enforces partitions",
            rt.backend_name()
        );
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xE0_0001);
    let svc = AppTemplate::Surveillance.service("svc", tasks, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 organizes");
    rt.run(SimTime(5_000_000));
    (rt.events().to_vec(), rt.messages_sent())
}

/// Nodes `0..n` split into two halves (the canonical worst-case cut).
fn halves(nodes: usize) -> Vec<Vec<u32>> {
    let mid = (nodes / 2) as u32;
    vec![(0..mid).collect(), (mid..nodes as u32).collect()]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// An installed partition plan that never cuts a delivery — no events
    /// at all, or a split healed before the first send — leaves every
    /// backend bit-identical to a run with no plan.
    #[test]
    fn inert_partition_plans_are_bit_identical(
        seed in 0u64..10_000,
        nodes in 2usize..12,
        tasks in 1usize..3,
    ) {
        let cfg = ScenarioConfig::dense(nodes, seed);
        // Split at t=0, healed at t=500 µs: the first send is the submit
        // at t=1 ms, so no delivery ever lands while a link is cut.
        let prehealed = PartitionPlan::none()
            .partition_at(SimTime(0), halves(nodes))
            .heal_at(SimTime(500));
        for backend in [Backend::Des, Backend::Direct, Backend::DirectBatched] {
            let (plain_events, plain_msgs) = run_with_installed_plan(backend, &cfg, tasks, None);
            prop_assert!(!plain_events.is_empty(), "scenario was vacuous");
            for plan in [PartitionPlan::none(), prehealed.clone()] {
                let (cut_events, cut_msgs) =
                    run_with_installed_plan(backend, &cfg, tasks, Some(&plan));
                prop_assert_eq!(&plain_events, &cut_events,
                    "inert plan changed the {:?} log (seed {}, {} nodes)",
                    backend, seed, nodes);
                prop_assert_eq!(plain_msgs, cut_msgs,
                    "inert plan changed {:?} message counts (seed {})", backend, seed);
            }
        }
    }
}
