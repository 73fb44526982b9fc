//! End-to-end model-checking tests: the acceptance scenario (an
//! exhaustive 2-organizer × 2-provider × 2-task CFP round with drop and
//! duplicate fault branches), the crash-restart branch, the mutation
//! self-test that guards against a vacuously-green checker, and the
//! exact size of every graph walked here — so a change to the explorer
//! that walks a different graph (or stops memoizing) shows as a count.
//!
//! The acceptance scenario follows the paper's ad-hoc-grid setting: two
//! peer nodes, each hosting *both* an organizer and a provider, each
//! submitting one single-task service — two concurrent CFP rounds
//! contending for the same two providers. Its faulted walk is ~2.9 M
//! transitions, which an optimised build walks in seconds but a debug
//! build (where every memo hit is recomputed and compared) cannot, so
//! the full faulted check is `#[ignore]`d here and executed on every PR
//! by the `MC_SMOKE` CI step (release profile); the fault-free and
//! one-drop variants of the same scenario and the faulted
//! single-organizer rounds run in the normal (tier-1) test pass.

use std::sync::Arc;

use qosc_core::strategy::{OrganizerStrategy, TimeoutBackoff};
use qosc_core::{
    Action, CoalitionNode, Msg, NegoEvent, NegoId, OrganizerConfig, OrganizerEngine, Pid,
    ProviderConfig, ProviderEngine, Runtime,
};
use qosc_mc::{
    partition_invariants, ActionTap, CheckConfig, Counterexample, ModelCheckedRuntime, TraceStep,
};
use qosc_netsim::{FaultPlan, SimDuration, SimTime};
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, ServiceDef, TaskDef};

fn organizer(id: Pid) -> OrganizerEngine {
    OrganizerEngine::new(id, OrganizerConfig::for_model_checking())
}

/// An organizer that survives a partition: two rounds, with an
/// exponential-backoff re-announce between them (the nonzero base is
/// what routes the retry through the `ReAnnounce` timer branch).
fn retrying_organizer(id: Pid) -> OrganizerEngine {
    let mut config = OrganizerConfig::for_model_checking();
    config.max_rounds = 2;
    config.chain =
        OrganizerStrategy::new().with(TimeoutBackoff::doubling(SimDuration::millis(1), 2));
    OrganizerEngine::new(id, config)
}

fn provider(id: Pid, cpu: f64) -> ProviderEngine {
    let spec = catalog::av_spec();
    let mut p = ProviderEngine::new(
        id,
        ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        ProviderConfig::for_model_checking(),
    );
    p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
    p
}

fn service(name: &str) -> ServiceDef {
    ServiceDef::new(
        name,
        vec![TaskDef {
            name: format!("{name}-task"),
            spec: catalog::av_spec(),
            request: catalog::surveillance_request(),
            input_bytes: 50_000,
            output_bytes: 5_000,
        }],
    )
}

/// The acceptance scenario: two dual-role peers (organizer + provider on
/// each), each submitting one single-task service — 2 organizers ×
/// 2 providers × 2 tasks, with both CFP rounds contending for the same
/// capacity.
fn two_by_two() -> ModelCheckedRuntime {
    two_by_two_with(CheckConfig::default())
}

fn two_by_two_with(config: CheckConfig) -> ModelCheckedRuntime {
    let mut rt = ModelCheckedRuntime::with_config(config);
    for (id, cpu) in [(0, 400.0), (1, 300.0)] {
        rt.add_node(
            CoalitionNode::new(id)
                .with_organizer(organizer(id))
                .with_provider(provider(id, cpu)),
        )
        .expect("fresh id");
    }
    rt.submit(0, service("svc-0"), SimTime::ZERO)
        .expect("organizer 0");
    rt.submit(1, service("svc-1"), SimTime::ZERO)
        .expect("organizer 1");
    rt
}

/// One organizer soliciting two separate providers: the faulted variant
/// is small enough to exhaust in a debug build.
fn one_by_two() -> ModelCheckedRuntime {
    let mut rt = ModelCheckedRuntime::new();
    rt.add_node(CoalitionNode::new(0).with_organizer(organizer(0)))
        .expect("fresh id");
    for (id, cpu) in [(1, 400.0), (2, 300.0)] {
        rt.add_node(CoalitionNode::new(id).with_provider(provider(id, cpu)))
            .expect("fresh id");
    }
    rt.submit(0, service("svc"), SimTime::ZERO)
        .expect("organizer 0");
    rt
}

/// One retrying organizer soliciting one remote provider: the smallest
/// scenario where a cut can strand every protocol message, small enough
/// to exhaust with a partition branch in a debug build.
fn retrying_one_by_one() -> ModelCheckedRuntime {
    let mut rt = ModelCheckedRuntime::new();
    rt.add_node(CoalitionNode::new(0).with_organizer(retrying_organizer(0)))
        .expect("fresh id");
    rt.add_node(CoalitionNode::new(1).with_provider(provider(1, 400.0)))
        .expect("fresh id");
    rt.submit(0, service("svc"), SimTime::ZERO)
        .expect("organizer 0");
    rt
}

/// The partition acceptance scenario: the 2×2 dual-role round with a
/// one-split budget, checked against the partition invariant bundle.
/// Organizer 0 carries the backoff chain (so a cut round is retried and
/// the retry interleaves with the stale round's stragglers); organizer 1
/// stays single-round, which keeps the walk exhaustible in CI time —
/// arming both organizers with retries multiplies the graph past any
/// useful budget without adding a behaviour the invariants can see.
fn partitioned_two_by_two(config: CheckConfig) -> ModelCheckedRuntime {
    let mut rt = ModelCheckedRuntime::with_config(config);
    rt.add_node(
        CoalitionNode::new(0)
            .with_organizer(retrying_organizer(0))
            .with_provider(provider(0, 400.0)),
    )
    .expect("fresh id");
    rt.add_node(
        CoalitionNode::new(1)
            .with_organizer(organizer(1))
            .with_provider(provider(1, 300.0)),
    )
    .expect("fresh id");
    rt.submit(0, service("svc-0"), SimTime::ZERO)
        .expect("organizer 0");
    rt.submit(1, service("svc-1"), SimTime::ZERO)
        .expect("organizer 1");
    rt.set_invariants(partition_invariants());
    rt.set_fault_plan(FaultPlan::none().with_partitions(1));
    rt
}

/// The reference path is the *first* fully-quiescent schedule the DFS
/// completes — not necessarily a lucky one (with zero hold TTLs an
/// award can legitimately lose its race against hold expiry there), so
/// what it must show is every negotiation concluding, one way or the
/// other.
fn assert_settled(rt: &ModelCheckedRuntime, expected: usize) {
    let settled = rt
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )
        })
        .count();
    assert_eq!(settled, expected, "events: {:?}", rt.events());
}

/// Runs the check, requires a proof, and returns the graph's size as
/// `(states_explored, distinct_states, quiescent_states,
/// max_depth_reached)` — the tuple every pinned scenario asserts exactly.
fn proven_counts(rt: &mut ModelCheckedRuntime) -> (u64, u64, u64, usize) {
    let report = rt.check().clone();
    assert!(
        report.verified(),
        "counterexample: {:?}, budget_exhausted: {}",
        report.counterexample.map(|c| c.render()),
        report.budget_exhausted,
    );
    (
        report.states_explored,
        report.distinct_states,
        report.quiescent_states,
        report.max_depth_reached,
    )
}

/// The exact graph of every scenario small enough for tier-1, and — on
/// the 2×2 one-drop round the benchmark proves — the reference path the
/// `Runtime` read side reports, against strings captured before the
/// explorer memoized anything: the first quiescent schedule is replayed
/// with every callback run, so even the fields no digest covers
/// (`NegotiationMetrics`) must come out as a plain execution leaves them.
#[test]
fn graphs_and_reference_path_are_pinned() {
    assert_eq!(proven_counts(&mut two_by_two()), (55_603, 26_056, 36, 20));

    let mut dropped = two_by_two();
    dropped.set_fault_plan(FaultPlan::exhaustive(1, 0));
    assert_eq!(proven_counts(&mut dropped), (148_762, 73_229, 120, 20));
    // What the table did: 148 762 transitions, 798 engine callbacks. A
    // table that stops hitting moves these, not just the wall clock.
    let report = dropped.check();
    assert_eq!((report.node_states, report.engine_calls), (234, 798));
    const METRICS: &str = "NegotiationMetrics { started_at: Some(SimTime(0)), formed_at: None, \
        proposal_bundles: 2, awards_sent: 1, declines: 1, reconfigurations: 0, outcomes: {}, \
        unassigned: [TaskId(0)] }";
    assert_eq!(dropped.messages_sent(), 10);
    let incomplete = |id: Pid| {
        format!(
            "LoggedEvent {{ at: SimTime(0), node: {id}, event: FormationIncomplete {{ \
             nego: NegoId {{ organizer: {id}, seq: 0 }}, unassigned: [TaskId(0)], \
             metrics: {METRICS} }} }}"
        )
    };
    assert_eq!(
        format!("{:?}", dropped.events()),
        format!("[{}, {}]", incomplete(0), incomplete(1))
    );
    for id in 0..2 {
        let nego = NegoId {
            organizer: id,
            seq: 0,
        };
        let organizer = dropped.node(id).and_then(|n| n.organizer());
        let metrics = organizer.and_then(|o| o.metrics(nego));
        assert_eq!(format!("{metrics:?}"), format!("Some({METRICS})"));
    }

    let mut faulted = one_by_two();
    faulted.set_fault_plan(FaultPlan::exhaustive(1, 1));
    assert_eq!(proven_counts(&mut faulted), (10_728, 7_631, 101, 14));

    let mut crashed = one_by_two();
    crashed.set_fault_plan(FaultPlan::none().with_crash_restarts(1));
    assert_eq!(proven_counts(&mut crashed), (1_144, 745, 33, 12));

    let mut cut = one_by_two();
    cut.set_fault_plan(FaultPlan::none().with_partitions(1));
    assert_eq!(proven_counts(&mut cut), (4_147, 1_445, 22, 13));
}

/// The 2×2 round under one duplicate: the middle rung between the
/// tier-1 pins and the `MC_SMOKE` walk below.
#[test]
#[ignore = "exhaustive faulted graph (~1.1M transitions): run in release via MC_SMOKE"]
fn exhaustive_2x2_round_with_one_duplicate_is_pinned() {
    let mut rt = two_by_two();
    rt.set_fault_plan(FaultPlan::exhaustive(0, 1));
    assert_eq!(proven_counts(&mut rt), (1_102_883, 443_340, 132, 23));
}

/// The headline acceptance check, exhaustively: ~2.9 M transitions,
/// run in release by the `MC_SMOKE` CI step (`cargo test --release -p
/// qosc-mc -- --ignored`).
#[test]
#[ignore = "exhaustive faulted graph (~2.9M transitions): run in release via MC_SMOKE"]
fn exhaustive_2x2_round_with_drop_and_duplicate_verifies() {
    // The faulted walk is ~2.9 M transitions — above the default
    // 2 M exploration budget, deliberately: the default should stop a
    // runaway scenario quickly, and exhausting a graph this size is an
    // explicit choice.
    let mut rt = two_by_two_with(CheckConfig {
        max_states: 10_000_000,
        ..CheckConfig::default()
    });
    rt.set_fault_plan(FaultPlan::exhaustive(1, 1));
    rt.run(SimTime::ZERO); // deadline is ignored on this backend
    assert_eq!(proven_counts(&mut rt), (2_914_411, 1_223_731, 399, 23));
    // The reference schedule (first fully-settled path) reads like any
    // other backend's run: both negotiations concluded.
    assert_settled(&rt, 2);
    assert!(rt.messages_sent() > 0);
}

/// The same 2 × 2 × 2 scenario without fault branches: small enough
/// (~56 k transitions) to exhaust in every tier-1 run.
#[test]
fn exhaustive_2x2_round_fault_free_verifies() {
    let mut rt = two_by_two();
    rt.run(SimTime::ZERO);
    let report = rt.check().clone();
    assert!(
        report.verified(),
        "counterexample: {:?}, budget_exhausted: {}",
        report.counterexample.map(|c| c.render()),
        report.budget_exhausted,
    );
    assert!(report.distinct_states > 10_000, "{report:?}");
    assert!(report.quiescent_states > 1, "{report:?}");
    assert!(report.max_depth_reached >= 15, "{report:?}");
    assert_settled(&rt, 2);
    assert!(rt.messages_sent() > 0);
}

/// Drop + duplicate branches on the single-organizer round, exhaustively,
/// in tier-1: every way one message is lost and one repeated.
#[test]
fn faulted_one_by_two_round_verifies_and_faults_enlarge_the_graph() {
    let mut plain = one_by_two();
    plain.run(SimTime::ZERO);
    let plain_states = plain.check().distinct_states;
    assert!(plain.check().verified());

    let mut faulted = one_by_two();
    faulted.set_fault_plan(FaultPlan::exhaustive(1, 1));
    faulted.run(SimTime::ZERO);
    let report = faulted.check().clone();
    assert!(
        report.verified(),
        "counterexample: {:?}",
        report.counterexample.map(|c| c.render())
    );
    // A dropped CFP or proposal forces deadline paths a fault-free round
    // never takes; the graph must strictly grow.
    assert!(
        plain_states < report.distinct_states,
        "fault branches must enlarge the graph: {plain_states} vs {}",
        report.distinct_states
    );
    assert!(report.quiescent_states > 1, "{report:?}");
}

/// Partition branches on the single-organizer round, exhaustively, in
/// tier-1: every point at which the network can split (and heal), with
/// the organizer's backoff re-announce recovering the round.
#[test]
fn partition_branches_enlarge_the_graph_and_verify() {
    let mut plain = retrying_one_by_one();
    plain.set_invariants(partition_invariants());
    plain.run(SimTime::ZERO);
    let plain_states = plain.check().distinct_states;
    assert!(plain.check().verified());

    let mut cut = retrying_one_by_one();
    cut.set_invariants(partition_invariants());
    cut.set_fault_plan(FaultPlan::none().with_partitions(1));
    cut.run(SimTime::ZERO);
    let report = cut.check().clone();
    assert!(
        report.verified(),
        "counterexample: {:?}, budget_exhausted: {}",
        report.counterexample.map(|c| c.render()),
        report.budget_exhausted,
    );
    // A cut can block the CFP, the proposals, the award or the accept —
    // each forcing a deadline-then-re-announce path the uncut round
    // never takes; the graph must strictly grow.
    assert!(
        plain_states < report.distinct_states,
        "partition branches must enlarge the graph: {plain_states} vs {}",
        report.distinct_states
    );
    assert!(report.quiescent_states > 1, "{report:?}");
    assert_settled(&cut, 1);
}

/// A partition/heal pair replays like any other schedule prefix; a heal
/// with no active cut, and every cut mask the explorer never enables,
/// are rejected as impossible steps.
#[test]
fn partition_steps_replay_and_bogus_heal_is_rejected() {
    let mut rt = retrying_one_by_one();
    rt.set_fault_plan(FaultPlan::none().with_partitions(1));
    // Isolate node 1, then heal: a legal two-step prefix.
    let replay = rt
        .replay(&[TraceStep::Partition { mask: 0b10 }, TraceStep::Heal])
        .expect("partition then heal is always enabled from the root");
    assert_eq!(replay.violation, None);
    // Healing an intact network matches no enabled transition.
    let err = rt
        .replay(&[TraceStep::Heal])
        .expect_err("no cut to heal at the root");
    assert!(err.contains("step 1"), "{err}");
    // Of two nodes, 0b10 is the one canonical cut. Not enabled: no cut
    // (0), its mirror image (0b1), both nodes on one side (0b11), and a
    // node that does not exist (0b100).
    for mask in [0, 0b1, 0b11, 0b100] {
        let err = rt
            .replay(&[TraceStep::Partition { mask }])
            .expect_err("only canonical cut masks are enabled");
        assert!(err.contains("step 1"), "mask {mask:#b}: {err}");
    }
}

/// The partition acceptance check: the 2×2 dual-role round under one
/// partition branch, with backoff re-announce on organizer 0, proves
/// no-split-brain-double-award and liveness-after-heal exhaustively.
/// The walk (~16 M transitions) is far beyond a debug build, so it is
/// `#[ignore]`d and double-gated on `MC_PARTITION_SMOKE=1` — the
/// `MC_SMOKE` CI step also sweeps `--ignored` tests and must not pay
/// for this one twice.
#[test]
#[ignore = "exhaustive partitioned graph: run in release via MC_PARTITION_SMOKE"]
fn exhaustive_partitioned_2x2_round_with_backoff_verifies() {
    if std::env::var("MC_PARTITION_SMOKE").is_err() {
        eprintln!("skipping: set MC_PARTITION_SMOKE=1 to run the partitioned 2x2 walk");
        return;
    }
    let mut rt = partitioned_two_by_two(CheckConfig {
        max_states: 400_000_000,
        ..CheckConfig::default()
    });
    rt.run(SimTime::ZERO);
    assert_eq!(proven_counts(&mut rt), (15_566_336, 3_637_737, 188, 32));
    assert_settled(&rt, 2);
}

#[test]
fn crash_restart_branches_are_explored_and_safe() {
    let mut rt = one_by_two();
    rt.set_fault_plan(FaultPlan::none().with_crash_restarts(1));
    rt.run(SimTime::ZERO);
    let report = rt.check().clone();
    assert!(
        report.verified(),
        "counterexample: {:?}",
        report.counterexample.map(|c| c.render())
    );
    assert!(report.quiescent_states > 1);
}

#[test]
fn check_is_idempotent_and_invalidated_by_scenario_changes() {
    let mut rt = one_by_two();
    let first = rt.check().clone();
    let second = rt.check().clone();
    assert_eq!(first.distinct_states, second.distinct_states);
    assert_eq!(first.states_explored, second.states_explored);
    // Installing a fault plan invalidates the cached verdict.
    rt.set_fault_plan(FaultPlan::exhaustive(1, 0));
    let third = rt.check().clone();
    assert!(third.distinct_states > first.distinct_states);
}

/// The mutation self-test: plant a protocol bug (a provider that cannot
/// honour an award lies and *accepts* instead of declining) and assert
/// the checker produces a replayable safety counterexample. Guards
/// against a checker that is green because it checks nothing.
#[test]
fn mutated_award_acceptance_yields_replayable_counterexample() {
    let mut rt = ModelCheckedRuntime::new();
    rt.add_node(CoalitionNode::new(0).with_organizer(organizer(0)))
        .expect("fresh id");
    rt.add_node(CoalitionNode::new(1).with_provider(provider(1, 400.0)))
        .expect("fresh id");
    rt.submit(0, service("svc"), SimTime::ZERO)
        .expect("organizer 0");

    // Sanity: the unmutated protocol verifies on this scenario. The
    // tapped check below runs on the *same* runtime: memoized transitions
    // live inside one exploration, so nothing the sane walk computed can
    // mask the planted bug.
    assert!(rt.check().verified());

    rt.set_action_tap(declines_become_accepts());
    let ce = orphaned_winner_counterexample(&mut rt);
    // The schedule must include the race that exposes the bug: the
    // provider's hold expired (its timer fired) before the award landed.
    assert!(
        ce.schedule
            .iter()
            .any(|s| matches!(s, TraceStep::Fire { node: 1, .. })),
        "{}",
        ce.render()
    );
    // The rendered trace is a readable event log.
    let rendered = ce.render();
    assert!(rendered.contains("no-orphaned-winner"), "{rendered}");
    assert!(rendered.contains("schedule:"), "{rendered}");
}

/// The same planted bug on the graph the benchmark proves — the dual-role
/// 2×2 round under one drop, where the walk's sleep sets skip half the
/// transitions — must still be caught and replayed.
#[test]
fn mutated_award_acceptance_is_caught_on_the_reduced_2x2_drop_walk() {
    let mut rt = two_by_two();
    rt.set_fault_plan(FaultPlan::exhaustive(1, 0));
    rt.set_action_tap(declines_become_accepts());
    orphaned_winner_counterexample(&mut rt);
}

/// The planted bug: a provider that cannot honour an award *accepts* it
/// instead of declining.
fn declines_become_accepts() -> ActionTap {
    Arc::new(|_pid, actions: &mut Vec<Action>| {
        for action in actions.iter_mut() {
            if let Action::Send { msg, .. } = action {
                if let Msg::Decline {
                    nego,
                    task,
                    from,
                    round,
                } = **msg
                {
                    *msg = Arc::new(Msg::Accept {
                        nego,
                        task,
                        from,
                        round,
                    });
                }
            }
        }
    })
}

/// Checks `rt`, requires a `no-orphaned-winner` counterexample, and
/// requires replaying its schedule to reproduce exactly that violation.
fn orphaned_winner_counterexample(rt: &mut ModelCheckedRuntime) -> Counterexample {
    let ce = rt
        .check()
        .counterexample
        .clone()
        .expect("the planted bug must produce a counterexample");
    assert_eq!(
        ce.violation.invariant,
        "no-orphaned-winner",
        "{}",
        ce.render()
    );
    assert!(!ce.schedule.is_empty());
    let replay = rt.replay(&ce.schedule).expect("schedule must be enabled");
    assert_eq!(replay.violation.as_ref(), Some(&ce.violation));
    ce
}

#[test]
fn replay_rejects_schedules_that_do_not_match_the_scenario() {
    let rt = two_by_two();
    // Both peers host an organizer, so neither is crash-eligible.
    let bogus = vec![TraceStep::Crash { node: 0 }];
    let err = rt
        .replay(&bogus)
        .expect_err("organizers cannot crash-restart");
    assert!(err.contains("step 1"), "{err}");
}

/// Cut masks hold one bit per node, so a partition budget over more than
/// 64 nodes is refused outright — in release too — instead of wrapping a
/// shift and cutting the wrong links.
#[test]
#[should_panic(expected = "at most 64 nodes")]
fn partition_budget_over_more_than_64_nodes_is_refused() {
    let mut rt = ModelCheckedRuntime::new();
    for id in 0..65 {
        rt.add_node(CoalitionNode::new(id)).expect("fresh id");
    }
    rt.set_fault_plan(FaultPlan::none().with_partitions(1));
    rt.check();
}
