//! F8 — strategy-chain comparison: pluggable negotiation policies
//! head-to-head on the T4 push grid.
//!
//! The §4.2/§5 engines take every decision through a
//! [`qosc_core::strategy`] chain; this experiment runs the same
//! contention scenario (256 nodes, simultaneous multi-organizer kickoff,
//! dense and constrained pools) under five chains and compares the
//! trade-offs each buys:
//!
//! * `default` — empty chains, the paper-literal protocol.
//! * `reserve-price` — providers withhold offers whose per-task eq. 1
//!   reward falls below 3.5 (preferred surveillance quality is 4.0), so
//!   only near-preferred offers reach the organizer.
//! * `battery-gate` — providers sit a round out once their free CPU
//!   drops under half of capacity, modelling §7's battery-preserving
//!   devices.
//! * `selfish` — providers degrade every offer one ladder step below
//!   what they could serve and mark the declared reward up 25%.
//! * `reputation` — the organizer penalises distrusted (even-id) nodes'
//!   candidates, trading assignment quality for partner choice.
//!
//! Reserve pricing converts degraded assignments into unplaced tasks
//! (fewer, better placements); the battery gate thins contention and
//! messages; selfish offers keep the formed ratio but pay for it in
//! distance; reputation steers placements off half the pool.
//! `F8_SMOKE=1` shrinks the grid to one cheap cell per chain for
//! pull-request CI.

use std::collections::BTreeMap;

use qosc_core::strategy::{BatteryGate, ReputationScorer, ReservePrice, SelfishMarkup};
use qosc_core::{NegoEvent, OrganizerStrategy, ProviderStrategy};
use qosc_netsim::SimTime;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::table::{f, mean, replicate, Table};

/// The compared chains, in presentation order.
const CHAINS: [&str; 5] = [
    "default",
    "reserve-price",
    "battery-gate",
    "selfish",
    "reputation",
];

fn smoke() -> bool {
    std::env::var("F8_SMOKE").is_ok_and(|v| v != "0")
}

/// Builds the provider/organizer chain pair for a named variant.
fn chains(variant: &str, nodes: usize) -> (ProviderStrategy, OrganizerStrategy) {
    match variant {
        "default" => (ProviderStrategy::new(), OrganizerStrategy::new()),
        "reserve-price" => (
            ProviderStrategy::new().with(ReservePrice { min_reward: 3.5 }),
            OrganizerStrategy::new(),
        ),
        "battery-gate" => (
            ProviderStrategy::new().with(BatteryGate {
                min_cpu_fraction: 0.5,
            }),
            OrganizerStrategy::new(),
        ),
        "selfish" => (
            ProviderStrategy::new().with(SelfishMarkup {
                degrade_steps: 1,
                markup: 1.25,
            }),
            OrganizerStrategy::new(),
        ),
        "reputation" => {
            let reputations: BTreeMap<u32, f64> = (0..nodes as u32)
                .map(|id| (id, if id % 2 == 0 { 0.2 } else { 1.0 }))
                .collect();
            (
                ProviderStrategy::new(),
                OrganizerStrategy::new().with(ReputationScorer {
                    reputations,
                    default_reputation: 1.0,
                    weight: 0.5,
                }),
            )
        }
        other => unreachable!("unknown chain variant {other}"),
    }
}

/// One replication of the T4 contention scenario under a chain pair.
/// Returns (formed ratio, mean distance, unassigned tasks, messages).
fn run_once(
    variant: &str,
    nodes: usize,
    organizers: usize,
    tasks: usize,
    population: PopulationConfig,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let (provider_chain, organizer_chain) = chains(variant, nodes);
    let config = ScenarioConfig {
        organizer: qosc_core::OrganizerConfig {
            monitor: false, // formation cost only
            chain: organizer_chain,
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: qosc_netsim::SimDuration::secs(3600),
            chain: provider_chain,
            ..Default::default()
        },
        population,
        ..ScenarioConfig::dense(nodes, 0xF8_0000 + seed * 31 + nodes as u64)
    };
    let mut rt = config.build_backend(Backend::Direct);
    let mut rng = ChaCha8Rng::seed_from_u64(0xF8_EEEE + seed);
    for org in 0..organizers {
        let svc = AppTemplate::Surveillance.service(format!("svc-{org}"), tasks, &mut rng);
        rt.submit(org as u32, svc, SimTime(1_000))
            .expect("organizer exists");
    }
    rt.run(SimTime(30_000_000));
    let mut formed = 0usize;
    let mut settled = 0usize;
    let mut distances = Vec::new();
    let mut unassigned = 0usize;
    for e in rt.events() {
        match &e.event {
            NegoEvent::Formed { metrics, .. } => {
                formed += 1;
                settled += 1;
                distances.push(metrics.mean_distance());
            }
            NegoEvent::FormationIncomplete { metrics, .. } => {
                settled += 1;
                unassigned += metrics.unassigned.len();
                if !metrics.outcomes.is_empty() {
                    distances.push(metrics.mean_distance());
                }
            }
            _ => {}
        }
    }
    assert_eq!(settled, organizers, "every negotiation must settle");
    (
        formed as f64 / organizers as f64,
        mean(&distances),
        unassigned as f64,
        rt.messages_sent() as f64,
    )
}

/// Runs F8 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "F8: strategy-chain comparison on the multi-organizer push grid \
         (DirectRuntime, simultaneous kickoff)",
        &[
            "chain",
            "nodes",
            "pool",
            "tasks_per_svc",
            "organizers",
            "formed_ratio",
            "mean_distance",
            "unassigned_tasks",
            "messages",
            "msgs_per_org",
        ],
    );
    // Full grid: the 256-node T4 push cells; smoke keeps one cheap cell
    // per chain so CI exercises every component without burning minutes.
    let (nodes, pools, task_counts, organizer_counts, reps): (
        usize,
        &[&str],
        &[usize],
        &[usize],
        u64,
    ) = if smoke() {
        (64, &["dense"], &[4], &[8], 1)
    } else {
        (256, &["dense", "thin"], &[4, 8], &[8, 32], 3)
    };
    for variant in CHAINS {
        for pool in pools {
            for &tasks in task_counts {
                for &organizers in organizer_counts {
                    let population = match *pool {
                        "dense" => PopulationConfig::default(),
                        _ => PopulationConfig::constrained(),
                    };
                    let results = replicate(reps, |seed| {
                        run_once(variant, nodes, organizers, tasks, population.clone(), seed)
                    });
                    let formed = mean(&results.iter().map(|r| r.0).collect::<Vec<_>>());
                    let dist = mean(&results.iter().map(|r| r.1).collect::<Vec<_>>());
                    let unassigned = mean(&results.iter().map(|r| r.2).collect::<Vec<_>>());
                    let msgs = mean(&results.iter().map(|r| r.3).collect::<Vec<_>>());
                    table.row(vec![
                        variant.to_string(),
                        nodes.to_string(),
                        pool.to_string(),
                        tasks.to_string(),
                        organizers.to_string(),
                        f(formed),
                        f(dist),
                        f(unassigned),
                        f(msgs),
                        f(msgs / organizers as f64),
                    ]);
                }
            }
        }
    }
    table
}
