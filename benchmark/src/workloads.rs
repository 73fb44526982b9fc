//! The four workloads, their frozen sizes and host-speed exponents, and
//! the catalogue of every metric the benchmark prints.
//!
//! Sizes were frozen after the noise study in `baseline/noise-2c.json`
//! passed; change one and the baselines have to be measured again.

use crate::sut::{NegoKind, NegoSize};

/// What one repetition of a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `scenarios` freshly built negotiation worlds, each driven through
    /// `LoadDriver::run`.
    Nego {
        /// Size of each scenario.
        size: NegoSize,
        /// Scenarios per repetition, seeds derived from the run seed.
        scenarios: usize,
    },
    /// Beacon gossip on the sequential simulator.
    Gossip {
        /// Static nodes at constant density.
        nodes: usize,
        /// Simulated window, µs.
        window_us: u64,
        /// Successive `run_until` deadlines the window is cut into.
        chunks: u64,
    },
    /// One exhaustive proof of the dual-role 2×2 CFP round.
    Proof {
        /// Message-drop budget the explorer branches over.
        drops: u32,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Exponents of the host-speed correction: how strongly the workload
    /// slows when the reference slice's compute leg and memory leg do
    /// (README, "The fits").
    pub speed_exponents: [f64; 2],
    /// What a repetition runs.
    pub kind: Kind,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "t5_overload_1024",
    "nego_churn_4096",
    "gossip_4096",
    "mc_2x2_drop",
];

/// The workload called `name`; `smoke` cuts it to well under a second.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    let nego = |kind, nodes, organizers, arrivals, rate_per_s, scenarios| Kind::Nego {
        size: NegoSize {
            kind,
            nodes,
            organizers,
            arrivals,
            rate_per_s,
        },
        scenarios,
    };
    let gossip = |nodes, window_us| Kind::Gossip {
        nodes,
        window_us,
        chunks: 8,
    };
    // (name, exponents, frozen size, smoke size)
    let (name, speed_exponents, full, cut) = match name {
        "t5_overload_1024" => (
            "t5_overload_1024",
            [0.8, 0.0],
            nego(NegoKind::T5, 1024, 64, 5, 40.0, 4),
            nego(NegoKind::T5, 128, 16, 6, 40.0, 2),
        ),
        "nego_churn_4096" => (
            "nego_churn_4096",
            [0.6, 0.8],
            nego(NegoKind::Churn, 4096, 1024, 400, 200.0, 5),
            nego(NegoKind::Churn, 256, 64, 40, 200.0, 2),
        ),
        "gossip_4096" => (
            "gossip_4096",
            [0.9, 0.8],
            gossip(4096, 1_000_000),
            gossip(256, 200_000),
        ),
        "mc_2x2_drop" => (
            "mc_2x2_drop",
            [0.9, 0.1],
            Kind::Proof { drops: 1 },
            Kind::Proof { drops: 0 },
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        speed_exponents,
        kind: if smoke { cut } else { full },
    })
}

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 3] = [
    m("ops_per_s", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// The per-layer metrics, all from the traced pass. Simulated quantities
/// (`outcome.*`, `*_calls`, `*.events`, NetStats counts, `mc.*` counts,
/// `alloc.*`) repeat exactly for a seed; their direction says which way
/// is better if a change means to move them, and an unmeant move is a
/// finding either way.
pub const PER_LAYER: [MetricDef; 82] = [
    m("workloads.build_s", "s", Lower),
    m("workloads.service_gen_us", "us", Lower),
    m("load.plan_sample_s", "s", Lower),
    m("load.submit_s", "s", Lower),
    m("load.harvest_s", "s", Lower),
    m("load.histogram_record_ns", "ns", Lower),
    m("load.kickoff_lag_max_ms", "sim_ms", Lower),
    m("load.report_formed_overcount", "count", Lower),
    m("core.runtime.run_s", "s", Lower),
    m("core.runtime.events", "count", Lower),
    m("core.runtime.dispatch_s", "s", Lower),
    m("core.runtime.dispatch_ns_per_event", "ns", Lower),
    m("core.runtime.direct_unbatched_run_s", "s", Lower),
    m("core.provider.on_cfp_s", "s", Lower),
    m("core.provider.on_cfp_calls", "count", Lower),
    m("core.provider.on_award_s", "s", Lower),
    m("core.provider.on_award_calls", "count", Lower),
    m("core.provider.on_timer_s", "s", Lower),
    m("core.provider.on_timer_calls", "count", Lower),
    m("core.provider.proposals_per_cfp", "ratio", Higher),
    m("core.provider.award_accept_ratio", "ratio", Higher),
    m("core.organizer.kickoff_s", "s", Lower),
    m("core.organizer.kickoff_calls", "count", Lower),
    m("core.organizer.on_proposal_s", "s", Lower),
    m("core.organizer.on_proposal_calls", "count", Lower),
    m("core.organizer.on_deadline_s", "s", Lower),
    m("core.organizer.on_deadline_calls", "count", Lower),
    m("core.organizer.on_accept_s", "s", Lower),
    m("core.organizer.on_accept_calls", "count", Lower),
    m("core.organizer.on_heartbeat_s", "s", Lower),
    m("core.organizer.on_heartbeat_calls", "count", Lower),
    m("core.organizer.rounds_per_nego", "ratio", Lower),
    m("core.organizer.reconfigurations", "count", Lower),
    m("core.formulation.prepare_hit_ns", "ns", Lower),
    m("core.formulation.formulate_rich_ns", "ns", Lower),
    m("core.formulation.formulate_scarce_ns", "ns", Lower),
    m("core.formulation.shed_ns", "ns", Lower),
    m("core.compiled.compile_ns", "ns", Lower),
    m("core.compiled.evaluate_batch_ns_per_proposal", "ns", Lower),
    m(
        "core.formation.select_winners_ns_per_candidate",
        "ns",
        Lower,
    ),
    m("core.protocol.actions_per_callback", "ratio", Lower),
    m("spec.resolve_ns", "ns", Lower),
    m("resources.demand_ns", "ns", Lower),
    m("netsim.sim.self_s", "s", Lower),
    m("netsim.sim.events", "count", Lower),
    m("netsim.sim.ns_per_event", "ns", Lower),
    m("netsim.sim.mobility_s", "s", Lower),
    m("netsim.sim.broadcast_deliveries", "count", Lower),
    m("netsim.sim.unicasts_delivered", "count", Lower),
    m("netsim.sim.radio_lost", "count", Lower),
    m("netsim.sim.faults_dropped", "count", Lower),
    m("netsim.sim.partition_cuts", "count", Lower),
    m("netsim.grid.candidates_ns", "ns", Lower),
    m("netsim.grid.rebuild_us", "us", Lower),
    m("netsim.sim.neighbours_ns", "ns", Lower),
    m("netsim.shard.freeze_s", "s", Lower),
    m("netsim.shard.w1_events_per_s", "1/s", Higher),
    m("netsim.shard.w2_events_per_s", "1/s", Higher),
    m("netsim.shard.w2_speedup", "x", Higher),
    m("netsim.shard.host_cores", "count", Higher),
    m("mc.transitions", "count", Lower),
    m("mc.distinct_states", "count", Lower),
    m("mc.quiescent_states", "count", Higher),
    m("mc.max_depth", "count", Lower),
    m("mc.transitions_per_s", "1/s", Higher),
    m("mc.dedup_ratio", "ratio", Higher),
    m("outcome.formed_ratio", "ratio", Higher),
    m("outcome.sim_formation_p50_ms", "sim_ms", Lower),
    m("outcome.sim_formation_p90_ms", "sim_ms", Lower),
    m("outcome.sim_formation_p99_ms", "sim_ms", Lower),
    m("outcome.msgs_per_nego", "ratio", Lower),
    m("outcome.mean_distance", "ratio", Lower),
    m("outcome.unassigned_tasks_ratio", "ratio", Lower),
    m("alloc.count_per_op", "count", Lower),
    m("alloc.bytes_per_op", "count", Lower),
    m("alloc.peak_live_mb", "MB", Lower),
    m("trace.untraced_wall_s", "s", Lower),
    m("trace.traced_wall_s", "s", Lower),
    m("trace.overhead_ratio", "x", Lower),
    m("trace.spans", "count", Lower),
    m("host.slice_ms_median", "ms", Lower),
    m("host.slice_ms_iqr", "ms", Lower),
];
