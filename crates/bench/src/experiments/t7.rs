//! T7 — partition tolerance: formation recovery vs partition duration
//! and re-announce backoff policy at 256 nodes.
//!
//! Paper claim (§1/§5): negotiation must survive the "highly dynamic"
//! ad-hoc network, where connectivity is intermittent rather than
//! merely lossy. We cut the organizer off from the entire provider
//! population mid-CFP — after the round-0 call reaches the providers
//! but before their proposals reach back — hold the cut for a swept
//! duration, then heal, and measure whether the organizer's
//! timeout/backoff re-announce layer recovers the formation.
//!
//! Swept axes: partition duration (0 = no-partition baseline) × backoff
//! policy (`none` = immediate same-budget retries; doubling backoff at
//! two base delays). All cells share the same round budget, so the
//! comparison isolates *when* the retries are spent: immediate retries
//! burn the budget while the network is still dark, backoff stretches
//! it past the heal. Reported per cell: formed ratio, mean assigned
//! tasks, tasks recovered after the heal (assignments struck by a
//! settle that happened post-heal), settle time, and message overhead
//! relative to the same policy's no-partition baseline (the cost of
//! retrying into a dead network plus re-running the round after it
//! heals). Set `T7_SMOKE=1` for the small single-replicate CI
//! variant.

use qosc_core::strategy::{OrganizerStrategy, TimeoutBackoff};
use qosc_core::{NegoEvent, OrganizerConfig};
use qosc_netsim::{PartitionPlan, SimDuration, SimTime};
use qosc_workloads::{AppTemplate, PopulationConfig, Scenario, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::table::{f, mean, replicate, Table};

/// The split lands mid-CFP: the round-0 call (submitted at 1 ms,
/// ~2 ms latency) has reached the providers, their proposals have not
/// reached back.
const SPLIT_AT: SimTime = SimTime(4_000);
/// Enough tasks that the organizer's own co-located provider cannot
/// hold the whole service: during the cut it self-supplies what its
/// capacity allows, and the remainder is exactly what the retry layer
/// must recover from the far side after the heal.
const TASKS: usize = 10;

fn smoke() -> bool {
    std::env::var("T7_SMOKE").is_ok_and(|v| v != "0")
}

/// The swept backoff policies. Every policy keeps the same round
/// budget; only the spacing of the retries differs.
fn policies() -> Vec<(&'static str, OrganizerStrategy)> {
    let mut v = vec![("none", OrganizerStrategy::new())];
    if !smoke() {
        v.push((
            "backoff-50ms",
            OrganizerStrategy::new().with(TimeoutBackoff::doubling(SimDuration::millis(50), 10)),
        ));
    }
    v.push((
        "backoff-200ms",
        OrganizerStrategy::new().with(TimeoutBackoff::doubling(SimDuration::millis(200), 10)),
    ));
    v
}

struct Cell {
    formed: f64,
    assigned: f64,
    recovered: f64,
    settle_ms: f64,
    msgs: f64,
    cuts: f64,
}

/// One seeded run: organizer 0 cut off from every provider for
/// `duration` (zero = no partition installed), doubling/no backoff per
/// `chain`. Returns the cell metrics.
fn run_cell(nodes: usize, seed: u64, duration: SimDuration, chain: &OrganizerStrategy) -> Cell {
    let heal_at = SimTime(SPLIT_AT.0 + duration.as_micros());
    let partitions = if duration == SimDuration::ZERO {
        PartitionPlan::none()
    } else {
        let isolate_organizer = vec![vec![0u32], (1..nodes as u32).collect()];
        PartitionPlan::none()
            .partition_at(SPLIT_AT, isolate_organizer)
            .heal_at(heal_at)
    };
    let config = ScenarioConfig {
        organizer: OrganizerConfig {
            max_rounds: 12,
            chain: chain.clone(),
            ..OrganizerConfig::default()
        },
        // No fixed servers: with a homogeneous low-capacity population
        // the organizer's co-located provider cannot self-supply the
        // whole service, so formation genuinely depends on links the
        // partition cuts.
        population: PopulationConfig::pure_adhoc(),
        partitions,
        ..ScenarioConfig::dense(nodes, 0x77_0000 + seed * 131)
    };
    let mut scenario = Scenario::build(&config);
    let mut rng = ChaCha8Rng::seed_from_u64(0x77_CCCC + seed);
    let svc = AppTemplate::Surveillance.service("svc", TASKS, &mut rng);
    scenario.submit(0, svc, SimTime(1_000));
    scenario.run_until(SimTime(12_000_000));

    let settle = scenario.events().iter().find_map(|e| match &e.event {
        NegoEvent::Formed { metrics, .. } => Some((e.at, true, metrics)),
        NegoEvent::FormationIncomplete { metrics, .. } => Some((e.at, false, metrics)),
        _ => None,
    });
    let (at, formed, assigned, remote) = match settle {
        Some((at, formed, metrics)) => {
            let remote = metrics.outcomes.values().filter(|o| o.node != 0).count();
            (at, formed, metrics.outcomes.len(), remote)
        }
        None => (SimTime(0), false, 0, 0),
    };
    // With the organizer isolated, an award cannot cross the cut: every
    // assignment to a node other than the organizer's own provider in a
    // post-heal settle was necessarily struck after the heal.
    let recovered = if duration != SimDuration::ZERO && at > heal_at {
        remote
    } else {
        0
    };
    Cell {
        formed: formed as u64 as f64,
        assigned: assigned as f64,
        recovered: recovered as f64,
        settle_ms: at.0 as f64 / 1e3,
        msgs: scenario.net_stats().messages_sent() as f64,
        cuts: scenario.net_stats().partition_cuts as f64,
    }
}

/// Runs T7 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "T7: formation recovery vs partition duration x re-announce backoff \
         (organizer cut off mid-CFP, equal round budgets; msg overhead is vs \
         the same policy's no-partition baseline)",
        &[
            "nodes",
            "partition_ms",
            "policy",
            "formed_ratio",
            "assigned_tasks",
            "recovered_after_heal",
            "settle_ms",
            "mean_messages",
            "msg_overhead",
        ],
    );
    let (nodes, reps, durations): (usize, u64, &[SimDuration]) = if smoke() {
        (32, 1, &[SimDuration::ZERO, SimDuration::millis(300)])
    } else {
        (
            256,
            5,
            &[
                SimDuration::ZERO,
                SimDuration::millis(300),
                SimDuration::millis(1_200),
            ],
        )
    };
    for (policy, chain) in policies() {
        let mut baseline_msgs = f64::NAN;
        for &duration in durations {
            let cells = replicate(reps, |seed| run_cell(nodes, seed, duration, &chain));
            let cell = Cell {
                formed: mean(&cells.iter().map(|c| c.formed).collect::<Vec<_>>()),
                assigned: mean(&cells.iter().map(|c| c.assigned).collect::<Vec<_>>()),
                recovered: mean(&cells.iter().map(|c| c.recovered).collect::<Vec<_>>()),
                settle_ms: mean(&cells.iter().map(|c| c.settle_ms).collect::<Vec<_>>()),
                msgs: mean(&cells.iter().map(|c| c.msgs).collect::<Vec<_>>()),
                cuts: mean(&cells.iter().map(|c| c.cuts).collect::<Vec<_>>()),
            };
            assert!(
                duration == SimDuration::ZERO || cell.cuts > 0.0,
                "{policy}/{duration:?}: the partition never cut a delivery"
            );
            if duration == SimDuration::ZERO {
                baseline_msgs = cell.msgs;
            }
            let overhead = cell.msgs / baseline_msgs.max(1.0);
            let duration_ms = duration.as_micros() / 1_000;
            table.row(vec![
                nodes.to_string(),
                duration_ms.to_string(),
                policy.to_string(),
                f(cell.formed),
                f(cell.assigned),
                f(cell.recovered),
                f(cell.settle_ms),
                f(cell.msgs),
                f(overhead),
            ]);
        }
    }
    table
}
