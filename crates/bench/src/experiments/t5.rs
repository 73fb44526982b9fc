//! T5 — open-loop saturation: offered load vs sustained formation rate
//! at ≥1024 nodes.
//!
//! Every other experiment submits a fixed batch and waits; T5 instead
//! drives the batched `DirectRuntime` with a *pre-sampled Poisson
//! arrival stream* (`qosc-load`): arrivals fire at their sampled
//! instants whether or not earlier negotiations have settled, so the
//! system is measured under offered load, not under the generator's
//! patience. Formed coalitions keep their resources for the rest of the
//! run (monitoring off, nothing dissolves), so offered rate translates
//! directly into concurrent held capacity: the saturation knee is where
//! cumulative admission outruns the pool and the formed ratio breaks
//! away from ~1.
//!
//! One cell = one offered rate of 4-task services over a fixed window
//! against a 64-deep organizer pool on the *constrained* population
//! (phones/PDAs only — the default dense 1024-node pool absorbs 40/s
//! of 2-task services with formed ratio 1.0, leaving no knee inside
//! any affordable grid). The sweep reports formed ratio, sustained
//! negotiations/sec and p50/p90/p99 formation latency from the
//! log-bucketed histogram, and marks the knee (highest offered rate
//! with formed ratio ≥ 0.95). Set `T5_SMOKE=1` for the one-cell CI
//! variant on a small dense pool.

use qosc_load::{LoadDriver, LoadPlan, LoadReport, PoissonArrivals, SaturationReport};
use qosc_netsim::SimDuration;
use qosc_workloads::{AppTemplate, Backend, ScenarioConfig};

use crate::table::{f, Table};

fn smoke() -> bool {
    std::env::var("T5_SMOKE").is_ok_and(|v| v != "0")
}

/// One offered-load cell: drive `rate` arrivals/s of `tasks`-task
/// services for `window` against `nodes` devices with an
/// `organizers`-deep pool.
fn cell(
    nodes: usize,
    organizers: u32,
    rate: f64,
    tasks: usize,
    population: qosc_workloads::PopulationConfig,
    window: SimDuration,
    seed: u64,
) -> LoadReport {
    let config = ScenarioConfig {
        organizer: qosc_core::OrganizerConfig {
            monitor: false, // formation cost only
            ..Default::default()
        },
        provider: qosc_core::ProviderConfig {
            heartbeat_interval: SimDuration::secs(3600),
            ..Default::default()
        },
        population,
        ..ScenarioConfig::dense(nodes, 0x75_0000 + seed * 31 + nodes as u64)
    };
    let mut rt = config.build_backend(Backend::DirectBatched);
    let plan = LoadPlan::sampled(
        &PoissonArrivals::new(rate),
        window,
        (0..organizers).collect(),
        AppTemplate::Surveillance,
        tasks,
        0x75_EEEE ^ seed ^ (rate * 16.0) as u64,
    );
    LoadDriver::new(&plan).run(rt.as_mut())
}

/// Runs T5 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "T5: open-loop saturation on batched DirectRuntime (Poisson arrivals of \
         4-task services, 64-organizer pool, constrained population; knee = \
         highest offered rate with formed ratio >= 0.95)",
        &[
            "nodes",
            "offered_per_s",
            "submitted",
            "formed_ratio",
            "sustained_per_s",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "messages",
            "knee",
        ],
    );
    // Full mode drives the constrained population (phones/PDAs only, a
    // fraction of the dense pool's aggregate CPU): the default dense
    // 1024-node pool absorbs this entire grid without breaking a sweat
    // (formed ratio 1.0 through 40/s of 2-task services), so the knee
    // would sit at the grid edge instead of inside it. Coalitions hold
    // their resources for the rest of the run, so cumulative admission
    // is what saturates the thin pool mid-grid.
    let (nodes, organizers, tasks, population, window, rates): (
        usize,
        u32,
        usize,
        qosc_workloads::PopulationConfig,
        SimDuration,
        &[f64],
    ) = if smoke() {
        (
            128,
            16,
            2,
            qosc_workloads::PopulationConfig::default(),
            SimDuration::secs(4),
            &[5.0],
        )
    } else {
        (
            1024,
            64,
            4,
            qosc_workloads::PopulationConfig::constrained(),
            SimDuration::secs(10),
            &[2.0, 5.0, 10.0, 20.0, 40.0],
        )
    };
    let mut reports: Vec<(f64, LoadReport)> = Vec::new();
    let sweep = SaturationReport::sweep(rates, |rate| {
        let report = cell(
            nodes,
            organizers,
            rate,
            tasks,
            population.clone(),
            window,
            7,
        );
        reports.push((rate, report.clone()));
        report
    });
    let knee_rate = sweep.knee(0.95).map(|p| p.offered_per_s);
    for point in &sweep.points {
        let messages = reports
            .iter()
            .find(|(r, _)| *r == point.offered_per_s)
            .map_or(0, |(_, rep)| rep.messages);
        let ms = |d: Option<qosc_netsim::SimDuration>| match d {
            Some(d) => f(d.as_secs_f64() * 1e3),
            None => "-".to_string(),
        };
        table.row(vec![
            nodes.to_string(),
            f(point.offered_per_s),
            point.submitted.to_string(),
            f(point.formed_ratio),
            f(point.sustained_per_s),
            ms(point.p50),
            ms(point.p90),
            ms(point.p99),
            messages.to_string(),
            if Some(point.offered_per_s) == knee_rate {
                "knee".to_string()
            } else {
                String::new()
            },
        ]);
    }
    table
}
