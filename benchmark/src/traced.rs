//! The traced pass: one shot per workload, every per-layer metric.
//!
//! The same inputs go through (1) the untraced drive, (2) the `Runtime`
//! trait by hand with the stages timed apart, (3) the benchmark's own
//! probe host with a span around every engine callback, plus the
//! difference legs and unit costs of the layers on the workload's path.
//! Every leg must end in the same simulated state.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{self, derive_seed, Slice};
use crate::json::Json;
use crate::run::{Inputs, PassResult, Reading};
use crate::sut::{self, GossipWorld, NegoInputs, Outcomes, ProbeCounts, StageWalls};
use crate::trace::{out_dir, AllocCounts, Tracer};
use crate::workloads::{Kind, Workload, PER_LAYER};
use crate::ALLOC;

/// Iterations of each unit-cost loop (≥ 10⁴; fewer in smoke mode, where
/// only presence is checked).
fn unit_iterations(smoke: bool) -> u32 {
    if smoke {
        500
    } else {
        20_000
    }
}

/// Per-layer readings under construction: everything starts at 0, which
/// is what a layer that is not on the workload's path reports.
struct Layers {
    values: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
    notes: Vec<String>,
    slice: Slice,
    slices_ms: Vec<f64>,
}

impl Layers {
    fn new() -> Layers {
        let mut slice = Slice::new();
        slice.run();
        Layers {
            values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
            errors: Vec::new(),
            notes: Vec::new(),
            slice,
            slices_ms: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => self
                .errors
                .push(format!("`{name}` is not a per-layer metric")),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Samples the host's speed between legs.
    fn slice(&mut self) {
        let legs_ms = self.slice.run();
        self.slices_ms.push(legs_ms[0] + legs_ms[1]);
    }

    fn set_alloc(&mut self, counts: AllocCounts, ops: f64) {
        self.set("alloc.count_per_op", counts.count as f64 / ops);
        self.set("alloc.bytes_per_op", counts.bytes as f64 / ops);
        self.set(
            "alloc.peak_live_mb",
            counts.peak_live as f64 / (1024.0 * 1024.0),
        );
    }

    /// Unit costs of `core`, `spec` and `resources`, with the workloads'
    /// own spec, request and demand model.
    fn set_core_units(&mut self, smoke: bool) {
        match sut::core_unit_costs(unit_iterations(smoke)) {
            Ok(c) => {
                self.set("core.formulation.prepare_hit_ns", c.prepare_hit_ns);
                self.set("core.formulation.formulate_rich_ns", c.formulate_rich_ns);
                self.set(
                    "core.formulation.formulate_scarce_ns",
                    c.formulate_scarce_ns,
                );
                self.set("core.formulation.shed_ns", c.shed_ns);
                self.set("core.compiled.compile_ns", c.compile_ns);
                self.set(
                    "core.compiled.evaluate_batch_ns_per_proposal",
                    c.evaluate_batch_ns_per_proposal,
                );
                self.set(
                    "core.formation.select_winners_ns_per_candidate",
                    c.select_winners_ns_per_candidate,
                );
                self.set("spec.resolve_ns", c.resolve_ns);
                self.set("resources.demand_ns", c.demand_ns);
            }
            Err(e) => self.errors.push(format!("unit costs: {e}")),
        }
    }

    fn set_net_counts(&mut self, net: &sut::NetCounts) {
        self.set(
            "netsim.sim.broadcast_deliveries",
            net.broadcast_deliveries as f64,
        );
        self.set(
            "netsim.sim.unicasts_delivered",
            net.unicasts_delivered as f64,
        );
        self.set("netsim.sim.radio_lost", net.radio_lost as f64);
        self.set("netsim.sim.faults_dropped", net.faults_dropped as f64);
        self.set("netsim.sim.partition_cuts", net.partition_cuts as f64);
    }

    fn finish(mut self, attempted: u64, failed: u64, detail: Json) -> PassResult {
        let (q1, q2, q3) = host::quartiles(&self.slices_ms);
        self.set("host.slice_ms_median", q2);
        self.set("host.slice_ms_iqr", q3 - q1);
        let readings = PER_LAYER
            .iter()
            .map(|d| Reading {
                name: d.name,
                value: self.values[d.name],
            })
            .collect();
        let correct = self.errors.is_empty();
        let mut notes = self.errors;
        notes.extend(self.notes);
        PassResult {
            correct,
            attempted,
            failed,
            readings,
            notes,
            detail,
        }
    }
}

/// The traced pass of `workload`.
pub fn traced(workload: &Workload, seed: u64, smoke: bool) -> PassResult {
    match workload.kind {
        Kind::Nego { .. } => traced_nego(workload, seed, smoke),
        Kind::Gossip {
            nodes,
            window_us,
            chunks,
        } => traced_gossip(workload, seed, smoke, nodes, window_us, chunks),
        Kind::Proof { drops } => traced_proof(workload, seed, smoke, drops),
    }
}

fn write_trace(layers: &mut Layers, workload: &Workload, tracer: &Tracer) {
    let path = out_dir().join(format!("trace-{}.json", workload.name));
    match tracer.write(&path) {
        Ok(()) => layers.notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => layers.errors.push(format!("{}: {e}", path.display())),
    }
}

/// Exact nearest-rank percentile of a sorted list, µs → ms; 0 when the
/// list has fewer than `min_samples`.
fn percentile_ms(sorted_us: &[u64], q: f64, min_samples: usize) -> f64 {
    if sorted_us.is_empty() || sorted_us.len() < min_samples {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1e3
}

fn traced_nego(workload: &Workload, seed: u64, smoke: bool) -> PassResult {
    let mut layers = Layers::new();
    let t0 = Instant::now();
    let Inputs::Nego(scenarios) = Inputs::generate(workload, seed) else {
        unreachable!("negotiation workloads generate negotiation inputs");
    };
    layers.set("load.plan_sample_s", t0.elapsed().as_secs_f64());
    let is_t5 = scenarios.first().is_some_and(NegoInputs::is_t5);

    // Leg 1: untraced, through LoadDriver::run — the reference.
    let mut reference = Vec::new();
    let mut outcomes = Outcomes::default();
    let mut build_s = 0.0;
    let mut untraced_s = 0.0;
    let mut net = sut::NetCounts::default();
    let mut formed_events = 0usize;
    for (k, inputs) in scenarios.iter().enumerate() {
        layers.slice();
        let t = Instant::now();
        let mut world = inputs.build();
        build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = sut::drive(inputs, &mut world);
        untraced_s += t.elapsed().as_secs_f64();
        if let Err(e) = sut::verify_world(&world, inputs.nodes()) {
            layers
                .errors
                .push(format!("untraced leg, scenario {k}: {e}"));
        }
        outcomes.merge(&sut::outcomes(inputs, &world));
        net.add(&world.net_stats());
        formed_events += report.formed_events;
        reference.push((report, sut::world_digest(&world, inputs.nodes())));
    }
    layers.set("workloads.build_s", build_s);
    layers.set("trace.untraced_wall_s", untraced_s);

    // Leg 2: the same drive by hand, stages timed apart.
    let mut walls = StageWalls::default();
    let mut backend_events = 0u64;
    for (k, inputs) in scenarios.iter().enumerate() {
        layers.slice();
        let mut world = inputs.build();
        let (report, w) = sut::drive_by_hand(inputs, &mut world);
        walls.add(&w);
        backend_events += report.backend_events;
        let digest = sut::world_digest(&world, inputs.nodes());
        layers.check(report.same_outcome(&reference[k].0) && digest == reference[k].1, || {
            format!(
                "by-hand leg, scenario {k}: {report:?} / {digest:016x} differs from LoadDriver's {:?} / {:016x}",
                reference[k].0, reference[k].1
            )
        });
    }
    let negotiations = outcomes.submitted as f64;
    layers.set("load.submit_s", walls.submit_s);
    layers.set("load.harvest_s", walls.harvest_s);
    layers.set(
        "workloads.service_gen_us",
        walls.service_gen_s * 1e6 / negotiations,
    );
    layers.set(
        "load.histogram_record_ns",
        walls.histogram_s * 1e9 / (formed_events.max(1) as f64),
    );
    layers.set("core.runtime.run_s", walls.run_s);
    layers.set("core.runtime.events", backend_events as f64);

    // Leg 3: allocation counts of the untraced drive.
    let mut alloc = AllocCounts::default();
    for inputs in &scenarios {
        layers.slice();
        let mut world = inputs.build();
        ALLOC.start();
        sut::drive(inputs, &mut world);
        alloc.add(&ALLOC.stop());
    }
    layers.set_alloc(alloc, negotiations);

    // Leg 4: the difference legs. T5: the same negotiations with CFP
    // batching off (also the log the probe must reproduce). Churn: the
    // same worlds run idle, where mobility ticks are the only events.
    let mut unbatched = Vec::new();
    if is_t5 {
        let mut unbatched_run_s = 0.0;
        for (k, inputs) in scenarios.iter().enumerate() {
            layers.slice();
            let mut world = inputs.build_unbatched();
            let (report, w) = sut::drive_by_hand(inputs, &mut world);
            unbatched_run_s += w.run_s;
            let out = sut::outcomes(inputs, &world);
            layers.check(
                report.submitted == reference[k].0.submitted && out.without_verdict() == 0,
                || {
                    format!(
                        "unbatched leg, scenario {k}: {report:?}, {} without a verdict",
                        out.without_verdict()
                    )
                },
            );
            unbatched.push(sut::world_digest(&world, inputs.nodes()));
        }
        layers.set("core.runtime.direct_unbatched_run_s", unbatched_run_s);
    } else {
        layers.slice();
        let idle_s: f64 = scenarios.iter().map(NegoInputs::idle_run_s).sum();
        layers.set("netsim.sim.mobility_s", idle_s);
    }

    // Leg 5: the probe host, traced.
    let span_cost_ns = Tracer::span_cost_ns();
    let mut tracer = Tracer::new();
    let mut probe_run_s = 0.0;
    let mut sim_events = 0u64;
    let mut counts = ProbeCounts::default();
    for (k, inputs) in scenarios.iter().enumerate() {
        layers.slice();
        let mut probe = inputs.build_probe();
        let run = probe.drive(inputs, &mut tracer);
        probe_run_s += run.run_s;
        sim_events += run.sim_events;
        counts.add(&run.counts);
        let expected = if is_t5 { unbatched[k] } else { reference[k].1 };
        let digest = probe.digest();
        layers.check(digest == expected, || {
            format!(
                "probe leg, scenario {k}: digest {digest:016x}, the backend's is {expected:016x}"
            )
        });
    }
    layers.slice();
    write_trace(&mut layers, workload, &tracer);

    let totals: BTreeMap<&str, crate::trace::NameTotal> = tracer.totals().into_iter().collect();
    let secs = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0, |t| t.self_ns))
            .sum::<u64>() as f64
            / 1e9
    };
    let calls = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0, |t| t.calls))
            .sum::<u64>() as f64
    };
    let mut span_metric = |metric_s: &'static str, metric_calls: &'static str, names: &[&str]| {
        layers.set(metric_s, secs(names));
        layers.set(metric_calls, calls(names));
    };
    span_metric(
        "core.provider.on_cfp_s",
        "core.provider.on_cfp_calls",
        &["core.provider.on_cfp"],
    );
    span_metric(
        "core.provider.on_award_s",
        "core.provider.on_award_calls",
        &["core.provider.on_award"],
    );
    span_metric(
        "core.provider.on_timer_s",
        "core.provider.on_timer_calls",
        &[
            "core.provider.on_heartbeat_send",
            "core.provider.on_hold_expiry",
            "core.provider.on_lease_check",
        ],
    );
    span_metric(
        "core.organizer.kickoff_s",
        "core.organizer.kickoff_calls",
        &["core.organizer.kickoff"],
    );
    span_metric(
        "core.organizer.on_proposal_s",
        "core.organizer.on_proposal_calls",
        &["core.organizer.on_proposal"],
    );
    span_metric(
        "core.organizer.on_deadline_s",
        "core.organizer.on_deadline_calls",
        &[
            "core.organizer.on_proposal_deadline",
            "core.organizer.on_award_deadline",
        ],
    );
    span_metric(
        "core.organizer.on_accept_s",
        "core.organizer.on_accept_calls",
        &["core.organizer.on_accept"],
    );
    span_metric(
        "core.organizer.on_heartbeat_s",
        "core.organizer.on_heartbeat_calls",
        &[
            "core.organizer.on_heartbeat",
            "core.organizer.on_heartbeat_check",
        ],
    );
    let apply_s = totals
        .get("core.runtime.apply")
        .map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let callbacks_s: f64 = totals
        .iter()
        .filter(|(n, _)| **n != "core.runtime.apply")
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum();
    let tracing_s = tracer.spans.len() as f64 * span_cost_ns / 1e9;
    // The budget closes by construction. Churn, on the traced wall less
    // the tracer's own calibrated cost: callbacks + dispatch (the spans
    // around turning actions into simulator commands) + the simulator's
    // self time, which is whatever remains. T5, whose backend has no
    // simulator, on the untraced `Runtime::run` wall: everything outside
    // the callbacks is the runtime's dispatch.
    let (dispatch_s, sim_self_s, budget_wall_s) = if is_t5 {
        (walls.run_s - callbacks_s, 0.0, walls.run_s)
    } else {
        let rest = (probe_run_s - callbacks_s - apply_s - tracing_s).max(0.0);
        (apply_s, rest, probe_run_s - tracing_s)
    };
    layers.set("netsim.sim.self_s", sim_self_s);
    if !is_t5 {
        layers.set("netsim.sim.events", sim_events as f64);
        layers.set(
            "netsim.sim.ns_per_event",
            sim_self_s * 1e9 / sim_events.max(1) as f64,
        );
        layers.check(sim_events == backend_events, || {
            format!("probe simulator processed {sim_events} events, the backend {backend_events}")
        });
    }
    layers.set("core.runtime.dispatch_s", dispatch_s);
    layers.set(
        "core.runtime.dispatch_ns_per_event",
        dispatch_s * 1e9 / backend_events.max(1) as f64,
    );
    layers.set(
        "core.provider.proposals_per_cfp",
        counts.proposals_offered as f64 / counts.cfp_calls.max(1) as f64,
    );
    layers.set(
        "core.provider.award_accept_ratio",
        counts.accepts as f64 / counts.awards.max(1) as f64,
    );
    layers.set(
        "core.organizer.rounds_per_nego",
        counts.rounds as f64 / negotiations,
    );
    layers.set(
        "core.organizer.reconfigurations",
        outcomes.reconfigurations as f64,
    );
    layers.set(
        "core.protocol.actions_per_callback",
        counts.actions as f64 / counts.callbacks.max(1) as f64,
    );
    // The probe runs what the unbatched `DirectRuntime` runs on T5 and
    // what the backend itself runs on churn: that is the untraced wall
    // its own is compared with.
    let untraced_twin_s = if is_t5 {
        layers.values["core.runtime.direct_unbatched_run_s"]
    } else {
        walls.run_s
    };
    layers.set("trace.traced_wall_s", probe_run_s);
    layers.set("trace.overhead_ratio", probe_run_s / untraced_twin_s);
    layers.set("trace.spans", tracer.spans.len() as f64);

    // Counts from NetStats and the simulated outcomes of leg 1.
    layers.set_net_counts(&net);
    layers.set(
        "load.kickoff_lag_max_ms",
        outcomes.kickoff_lag_max_us as f64 / 1e3,
    );
    layers.set(
        "load.report_formed_overcount",
        formed_events as f64 - outcomes.ever_formed as f64,
    );
    layers.check(!is_t5 || formed_events == outcomes.ever_formed, || {
        format!(
            "monitoring is off, yet LoadReport.formed = {formed_events} for {} distinct formed negotiations",
            outcomes.ever_formed
        )
    });
    layers.set(
        "outcome.formed_ratio",
        outcomes.formed as f64 / negotiations,
    );
    layers.set(
        "outcome.sim_formation_p50_ms",
        percentile_ms(&outcomes.formation_us, 0.50, 1),
    );
    layers.set(
        "outcome.sim_formation_p90_ms",
        percentile_ms(&outcomes.formation_us, 0.90, 100),
    );
    layers.set(
        "outcome.sim_formation_p99_ms",
        percentile_ms(&outcomes.formation_us, 0.99, 1000),
    );
    layers.set(
        "outcome.msgs_per_nego",
        outcomes.messages as f64 / negotiations,
    );
    layers.set(
        "outcome.mean_distance",
        outcomes.distance_sum / outcomes.placed_tasks.max(1) as f64,
    );
    layers.set(
        "outcome.unassigned_tasks_ratio",
        outcomes.unassigned_tasks as f64 / outcomes.tasks_submitted.max(1) as f64,
    );

    // Unit costs of the layers on the path.
    layers.set_core_units(smoke);
    if !is_t5 {
        set_netsim_units(&mut layers, scenarios[0].nodes(), seed, smoke);
    }
    layers.slice();

    layers.notes.push(format!(
        "budget of {budget_wall_s:.6} s ({}): callbacks {callbacks_s:.6} + dispatch {dispatch_s:.6} + netsim {sim_self_s:.6}; untraced Runtime::run {:.6} s, probe run_until {probe_run_s:.6} s of which tracing {tracing_s:.6} s at {span_cost_ns:.1} ns/span",
        if is_t5 {
            "the untraced Runtime::run wall"
        } else {
            "the traced run_until wall less the tracer's own cost"
        },
        walls.run_s
    ));
    let detail = Json::obj([
        ("span_cost_ns", Json::Num(span_cost_ns)),
        ("callbacks_s", Json::Num(callbacks_s)),
        ("apply_s", Json::Num(apply_s)),
        (
            "span_totals",
            Json::Obj(
                totals
                    .iter()
                    .map(|(n, t)| {
                        (
                            n.to_string(),
                            Json::obj([
                                ("calls", Json::Num(t.calls as f64)),
                                ("self_s", Json::Num(t.self_ns as f64 / 1e9)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let attempted = outcomes.submitted as u64;
    let failed = outcomes.without_verdict() as u64;
    layers.finish(attempted, failed, detail)
}

fn set_netsim_units(layers: &mut Layers, nodes: usize, seed: u64, smoke: bool) {
    let n = sut::netsim_unit_costs(nodes, derive_seed(seed, 99), unit_iterations(smoke));
    layers.set("netsim.grid.candidates_ns", n.candidates_ns);
    layers.set("netsim.grid.rebuild_us", n.rebuild_us);
    layers.set("netsim.sim.neighbours_ns", n.neighbours_ns);
}

fn traced_gossip(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    nodes: usize,
    window_us: u64,
    chunks: u64,
) -> PassResult {
    let mut layers = Layers::new();
    let Inputs::Gossip(world_seed) = Inputs::generate(workload, seed) else {
        unreachable!("the gossip workload generates a gossip seed");
    };
    let chunked = |world: &mut GossipWorld| -> u64 {
        (1..=chunks)
            .map(|c| world.run_until(window_us * c / chunks))
            .sum()
    };

    // Untraced, chunked as the timed repetitions run it.
    layers.slice();
    let t = Instant::now();
    let mut world = GossipWorld::build(nodes, world_seed);
    layers.set("workloads.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let events = chunked(&mut world);
    let untraced_s = t.elapsed().as_secs_f64();
    let digest = world.digest();
    let net = world.net_stats();

    // One call to run_until must simulate the same thing.
    layers.slice();
    let mut whole = GossipWorld::build(nodes, world_seed);
    let whole_events = whole.run_until(window_us);
    layers.check(whole_events == events && whole.digest() == digest, || {
        format!("one-call run_until processed {whole_events} events, the chunked run {events}")
    });
    drop(whole);

    // Allocation counts of the chunked run.
    layers.slice();
    let mut counted = GossipWorld::build(nodes, world_seed);
    ALLOC.start();
    let counted_events = chunked(&mut counted);
    let alloc = ALLOC.stop();
    layers.check(counted_events == events, || {
        format!("the counted run processed {counted_events} events, the first {events}")
    });
    layers.set_alloc(alloc, events as f64);
    drop(counted);

    // Traced: a span around every beacon callback.
    layers.slice();
    let span_cost_ns = Tracer::span_cost_ns();
    let mut tracer = Tracer::new();
    let mut traced_world = GossipWorld::build(nodes, world_seed);
    let t = Instant::now();
    let mut traced_events = 0;
    let mut deliveries = 0;
    for c in 1..=chunks {
        let (e, d) = traced_world.run_until_traced(window_us * c / chunks, &mut tracer);
        traced_events += e;
        deliveries += d;
    }
    let traced_s = t.elapsed().as_secs_f64();
    layers.check(
        traced_events == events && traced_world.digest() == digest,
        || format!("the traced run processed {traced_events} events, the untraced {events}"),
    );
    layers.check(deliveries == net.broadcast_deliveries, || {
        format!(
            "the app saw {deliveries} deliveries, NetStats counts {}",
            net.broadcast_deliveries
        )
    });
    drop(traced_world);
    write_trace(&mut layers, workload, &tracer);
    let callbacks_s: f64 = tracer
        .totals()
        .iter()
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum();
    let tracing_s = tracer.spans.len() as f64 * span_cost_ns / 1e9;
    let sim_self_s = (traced_s - callbacks_s - tracing_s).max(0.0);
    layers.set("netsim.sim.self_s", sim_self_s);
    layers.set("netsim.sim.events", events as f64);
    layers.set(
        "netsim.sim.ns_per_event",
        sim_self_s * 1e9 / events.max(1) as f64,
    );
    layers.set_net_counts(&net);
    layers.set("trace.untraced_wall_s", untraced_s);
    layers.set("trace.traced_wall_s", traced_s);
    layers.set("trace.overhead_ratio", traced_s / untraced_s);
    layers.set("trace.spans", tracer.spans.len() as f64);

    // The sharded engine on the same window: one worker, then as many as
    // the host has cores, at most two.
    let cores = host::host_cores();
    layers.set("netsim.shard.host_cores", cores as f64);
    let mut shard_walls = Vec::new();
    for workers in [1, cores.min(2)] {
        layers.slice();
        let (freeze_s, run_s, shard_events) =
            sut::gossip_sharded(nodes, world_seed, workers, window_us);
        layers.check(shard_events == events, || {
            format!("{workers}-worker sharded run processed {shard_events} events, the sequential {events}")
        });
        if workers == 1 {
            layers.set("netsim.shard.freeze_s", freeze_s);
        }
        shard_walls.push(run_s);
    }
    layers.set(
        "netsim.shard.w1_events_per_s",
        events as f64 / shard_walls[0],
    );
    layers.set(
        "netsim.shard.w2_events_per_s",
        events as f64 / shard_walls[1],
    );
    layers.set("netsim.shard.w2_speedup", untraced_s / shard_walls[1]);

    set_netsim_units(&mut layers, nodes, seed, smoke);
    layers.slice();
    layers.notes.push(format!(
        "budget of the traced run_until wall {traced_s:.6} s: callbacks {callbacks_s:.6} + tracing {tracing_s:.6} ({span_cost_ns:.1} ns/span) + netsim {sim_self_s:.6}; untraced {untraced_s:.6} s; sharded walls {:.6} s (1 worker), {:.6} s ({} workers) on {cores} cores",
        shard_walls[0],
        shard_walls[1],
        cores.min(2)
    ));
    let detail = Json::obj([
        ("span_cost_ns", Json::Num(span_cost_ns)),
        ("callbacks_s", Json::Num(callbacks_s)),
        ("events", Json::Num(events as f64)),
    ]);
    layers.finish(1, 0, detail)
}

fn traced_proof(workload: &Workload, seed: u64, smoke: bool, drops: u32) -> PassResult {
    let mut layers = Layers::new();
    let Inputs::Proof(proof_seed) = Inputs::generate(workload, seed) else {
        unreachable!("the proof workload generates a proof seed");
    };
    layers.slice();
    let t = Instant::now();
    let proof = sut::prove_2x2(proof_seed, drops);
    let untraced_s = t.elapsed().as_secs_f64();
    layers.check(proof.verified, || "the proof did not verify".to_string());

    // The traced leg: one span around the check (the explorer offers no
    // boundary to the outside but its entry point).
    layers.slice();
    let mut tracer = Tracer::new();
    let name = tracer.name("mc.check");
    let t0 = tracer.now_ns();
    let again = sut::prove_2x2(proof_seed, drops);
    let t1 = tracer.now_ns();
    tracer.record(name, t0, t1, crate::trace::NO_PARENT, None);
    let traced_s = (t1 - t0) as f64 / 1e9;
    layers.check(again == proof, || {
        format!("second proof {again:?} differs from the first {proof:?}")
    });

    // Allocation counts of the same proof.
    layers.slice();
    ALLOC.start();
    let counted = sut::prove_2x2(proof_seed, drops);
    let alloc = ALLOC.stop();
    layers.check(counted == proof, || {
        format!("counted proof {counted:?} differs from the first {proof:?}")
    });
    write_trace(&mut layers, workload, &tracer);
    layers.set_alloc(alloc, 1.0);
    layers.set("mc.transitions", proof.transitions as f64);
    layers.set("mc.distinct_states", proof.distinct_states as f64);
    layers.set("mc.quiescent_states", proof.quiescent_states as f64);
    layers.set("mc.max_depth", proof.max_depth as f64);
    layers.set(
        "mc.transitions_per_s",
        proof.transitions as f64 / untraced_s,
    );
    layers.set(
        "mc.dedup_ratio",
        proof.distinct_states as f64 / proof.transitions.max(1) as f64,
    );
    layers.set("trace.untraced_wall_s", untraced_s);
    layers.set("trace.traced_wall_s", traced_s);
    layers.set("trace.overhead_ratio", traced_s / untraced_s);
    layers.set("trace.spans", tracer.spans.len() as f64);

    // The engines run inside the explorer at toy scale; their unit costs
    // say how much of a transition is theirs.
    layers.set_core_units(smoke);
    layers.slice();
    layers.notes.push(format!(
        "proof: {} transitions, {} distinct states, untraced {untraced_s:.6} s, under one span {traced_s:.6} s",
        proof.transitions, proof.distinct_states
    ));
    let detail = Json::obj([("transitions", Json::Num(proof.transitions as f64))]);
    layers.finish(1, u64::from(!proof.verified), detail)
}
