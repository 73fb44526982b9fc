//! B2 — the §5 degradation heuristic at increasing scarcity and task
//! counts (cost grows with the number of degradation steps).
//!
//! Two legs per joint-bundle point: `engine` is the heap-driven
//! [`Formulator`] with a warm compile cache (what a provider actually
//! runs per CFP round), `reference` is the retained pre-engine path
//! ([`formulate_reference`]: penalty tables rebuilt per call, per-step
//! argmin scan, quality vector rebuilt per step). Their ratio is the
//! engine speedup tracked by CI's BENCH_JSON artifact.
//!
//! The cold-start pair prices one CFP of a 4-task Surveillance service at
//! a freshly built provider: its first (compile cache and warm table
//! empty — what most nodes of a sparse world pay, since each hears only a
//! handful of CFPs) against its tenth. `main` gates their ratio.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use std::sync::Arc;
use std::time::{Duration, Instant};

use qosc_core::{
    formulate, formulate_reference, Formulator, LinearPenalty, Msg, NegoId, ProviderConfig,
    ProviderEngine, TaskAnnouncement, TaskInput,
};
use qosc_netsim::SimTime;
use qosc_resources::{
    av_demand_model, AdmissionControl, DemandModel, ResourceKind, ResourceVector, SchedulingPolicy,
};
use qosc_spec::{catalog, TaskId};

fn admission(cpu: f64) -> AdmissionControl {
    AdmissionControl::new(
        SchedulingPolicy::Edf,
        ResourceVector::new(cpu, 1_000_000.0, 10_000_000.0, 60_000.0, 10_000_000.0),
    )
}

fn bench_formulation(c: &mut Criterion) {
    let spec = catalog::av_spec();
    let request = catalog::video_conference_request()
        .resolve(&spec)
        .expect("catalog request matches catalog spec");
    let model = av_demand_model(&spec);
    let reward = LinearPenalty::default();

    let mut g = c.benchmark_group("formulation");
    // Scarcity sweep: fewer MIPS = more degradation steps.
    for cpu in [500.0, 60.0, 30.0] {
        let admission = admission(cpu);
        g.bench_with_input(
            BenchmarkId::new("single_task_cpu", cpu as u64),
            &cpu,
            |b, _| {
                b.iter(|| {
                    formulate(
                        &[TaskInput {
                            spec: black_box(&spec),
                            request: black_box(&request),
                            demand: &model,
                        }],
                        &admission,
                        &reward,
                    )
                })
            },
        );
    }
    // Joint task-set sweep at fixed capacity.
    for tasks in [1usize, 4, 16] {
        let admission = admission(120.0);
        let inputs: Vec<TaskInput<'_>> = (0..tasks)
            .map(|_| TaskInput {
                spec: &spec,
                request: &request,
                demand: &model,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("joint_tasks", tasks), &tasks, |b, _| {
            b.iter(|| formulate(black_box(&inputs), &admission, &reward))
        });
    }

    // Joint bundles, engine vs reference. Capacities derived from the
    // request's actual demand profile: `rich` fits every task at
    // preferred quality (zero degradation steps — measures setup cost),
    // `scarce` sits 2% above the fully-degraded bundle demand (near-
    // maximal degradation steps — measures the per-step loop).
    let preferred_cpu = {
        let qv = request
            .quality_vector(&spec, &vec![0; request.attr_count()])
            .expect("preferred levels are in-domain");
        model.demand(&spec, &qv).get(ResourceKind::Cpu)
    };
    let degraded_cpu = {
        let full: Vec<usize> = request.ladder_lengths().iter().map(|l| l - 1).collect();
        let qv = request
            .quality_vector(&spec, &full)
            .expect("floor levels are in-domain");
        model.demand(&spec, &qv).get(ResourceKind::Cpu)
    };
    let shared_model: Arc<dyn DemandModel> = Arc::new(av_demand_model(&spec));
    let announced = catalog::video_conference_request();
    for tasks in [8usize, 32, 64] {
        for (label, per_task) in [
            ("rich", preferred_cpu * 1.05),
            ("scarce", degraded_cpu * 1.02),
        ] {
            let admission = admission(per_task * tasks as f64);
            let inputs: Vec<TaskInput<'_>> = (0..tasks)
                .map(|_| TaskInput {
                    spec: &spec,
                    request: &request,
                    demand: &model,
                })
                .collect();
            // Sanity: both capacity points formulate successfully (the
            // scarce one after deep degradation).
            formulate_reference(&inputs, &admission, &reward).expect("bundle must fit");
            g.bench_with_input(
                BenchmarkId::new(format!("joint_{label}_reference"), tasks),
                &tasks,
                |b, _| b.iter(|| formulate_reference(black_box(&inputs), &admission, &reward)),
            );
            // The engine as providers run it: compile cache warmed by the
            // first CFP round, then one heap-driven pass per round.
            let mut engine = Formulator::new(Arc::new(LinearPenalty::default()));
            let prepared: Vec<_> = (0..tasks)
                .map(|_| {
                    engine
                        .prepare(&spec, &announced, &shared_model)
                        .expect("catalog request resolves")
                })
                .collect();
            let refs: Vec<&qosc_core::PreparedTask> = prepared.iter().map(|p| p.as_ref()).collect();
            g.bench_with_input(
                BenchmarkId::new(format!("joint_{label}_engine"), tasks),
                &tasks,
                |b, _| b.iter(|| engine.formulate(black_box(&refs), &admission)),
            );
        }
    }
    for (label, nth) in [("cold_start_first_cfp", 1), ("cold_start_tenth_cfp", 10)] {
        g.bench_function(BenchmarkId::new(label, COLD_START_TASKS), |b| {
            let mut provider = provider_after(nth - 1);
            let msg = cfp(nth);
            b.iter(|| provider.on_message(SimTime(1_000), 0, black_box(&msg)))
        });
    }
    g.finish();
}

const COLD_START_TASKS: u32 = 4;

/// The first CFP a provider prices may cost at most this many times its
/// tenth.
const COLD_START_CEILING: f64 = 3.0;

/// The `seq`-th negotiation's CFP for a 4-task Surveillance service.
fn cfp(seq: u32) -> Msg {
    Msg::CallForProposals {
        nego: NegoId { organizer: 0, seq },
        tasks: (0..COLD_START_TASKS)
            .map(|t| TaskAnnouncement {
                task: TaskId(t),
                spec: catalog::av_spec(),
                request: catalog::surveillance_request(),
                input_bytes: 100_000,
                output_bytes: 10_000,
            })
            .collect(),
        round: 0,
    }
}

/// A freshly built provider, roomy enough to hold ten bundles at
/// preferred quality, that has priced `priced` CFPs so far.
fn provider_after(priced: u32) -> ProviderEngine {
    let mut provider = ProviderEngine::new(
        1,
        ResourceVector::new(10_000.0, 1e6, 1e7, 6e4, 1e7),
        ProviderConfig::default(),
    );
    let spec = catalog::av_spec();
    provider.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
    for seq in 1..=priced {
        black_box(provider.on_message(SimTime(1_000), 0, &cfp(seq)));
    }
    provider
}

/// Median wall time of a fresh provider's first and tenth CFP, sampled
/// in alternation so host drift lands on both alike.
fn cold_start_medians() -> (Duration, Duration) {
    let time = |nth: u32| {
        let mut provider = provider_after(nth - 1);
        let msg = cfp(nth);
        let t0 = Instant::now();
        black_box(provider.on_message(SimTime(1_000), 0, &msg));
        t0.elapsed()
    };
    let median = |mut samples: Vec<Duration>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let (first, tenth): (Vec<_>, Vec<_>) = (0..501).map(|_| (time(1), time(10))).unzip();
    (median(first), median(tenth))
}

criterion_group!(benches, bench_formulation);

fn main() {
    benches();
    let (first, tenth) = cold_start_medians();
    let ratio = first.as_secs_f64() / tenth.as_secs_f64();
    println!(
        "formulation/cold_start_guard/{COLD_START_TASKS}: first {first:?} / tenth {tenth:?} = \
         {ratio:.2}x (ceiling {COLD_START_CEILING}x)"
    );
    if ratio > COLD_START_CEILING {
        eprintln!("a provider's first CFP costs more than the ceiling allows over its tenth");
        std::process::exit(1);
    }
}
