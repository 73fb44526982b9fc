//! F1 — coalition vs single node: mean winning distance as the pool grows.
//!
//! Paper claim (§1, §4.1): "Coalition formation is necessary when a single
//! node cannot execute a specific service, but it may also be beneficial
//! when groups perform more efficiently." With more candidate nodes the
//! evaluation (§6) should find proposals closer to the user's preferences;
//! a single node's quality is flat (and often degraded).
//!
//! Two allocators over the *same* instance per replication: the §4.2
//! protocol (the engines on the zero-latency `DirectRuntime`, retry
//! rounds included) and the single-node baseline. Columns: `nodes`,
//! `coalition_dist`, `single_dist`, `coalition_accept`, `single_accept`,
//! `improvement`.

use qosc_baselines::{protocol_emulation, single_node};
use qosc_core::TieBreak;
use qosc_workloads::{AppTemplate, PopulationConfig};

use crate::instances::population_instance;
use crate::table::{f, mean, replicate, Table};

/// Replications per point (fewer at the 128/256-node scale, where each
/// replication already aggregates hundreds of proposal evaluations).
fn reps(nodes: usize) -> u64 {
    if nodes >= 128 {
        10
    } else {
        30
    }
}

/// Tasks per service.
const TASKS: usize = 3;

/// Runs F1 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "F1: mean proposal distance vs pool size (coalition vs single node)",
        &[
            "nodes",
            "coalition_dist",
            "single_dist",
            "coalition_accept",
            "single_accept",
            "improvement",
        ],
    );
    let population = PopulationConfig::constrained();
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let results = replicate(reps(n), |seed| {
            let inst = population_instance(
                &population,
                n,
                AppTemplate::VideoConference,
                TASKS,
                0xF1_0000 + seed * 1000 + n as u64,
            );
            let coalition = protocol_emulation(&inst, &TieBreak::default());
            let single = single_node(&inst);
            (
                coalition.mean_distance(),
                single.mean_distance(),
                coalition.acceptance_ratio(TASKS),
                single.acceptance_ratio(TASKS),
            )
        });
        let cd = mean(&results.iter().map(|r| r.0).collect::<Vec<_>>());
        let sd = mean(&results.iter().map(|r| r.1).collect::<Vec<_>>());
        let ca = mean(&results.iter().map(|r| r.2).collect::<Vec<_>>());
        let sa = mean(&results.iter().map(|r| r.3).collect::<Vec<_>>());
        let improvement = if cd > 0.0 { sd / cd } else { f64::INFINITY };
        table.row(vec![
            n.to_string(),
            f(cd),
            f(sd),
            f(ca),
            f(sa),
            f(improvement),
        ]);
    }
    table
}
