//! B2 — the §5 degradation heuristic at increasing scarcity and task
//! counts (cost grows with the number of degradation steps).
//!
//! Two legs per joint-bundle point: `engine` is the heap-driven
//! [`Formulator`] over tasks compiled once (the cold §5 loop a
//! `Sequential` provider runs per task), `reference` is the
//! `qosc_baselines` oracle ([`formulate_reference`]: penalties asked of
//! the reward model per probe, per-step argmin scan, quality vector
//! rebuilt per step). Their ratio is the engine speedup.
//!
//! The cold-start legs price one CFP of a 4-task Surveillance service at
//! the providers of one world, which share a book of bundle plans:
//! `world_first_cfp` is the very first pricing in the world (resolve,
//! compile, record the complete trajectory — paid once per world and
//! reported against an absolute ceiling); `second_node_first_cfp` is what
//! every other node pays for its first CFP (most nodes of a sparse world
//! hear only a handful), against the same node's tenth; and
//! `saturated_refusal` is a node with no room left — the T5 overload
//! case — against that priced tenth. `main` gates the two ratios.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use std::sync::Arc;
use std::time::{Duration, Instant};

use qosc_baselines::formulate_reference;
use qosc_core::{
    Formulator, LinearPenalty, Msg, NegoId, PreparedTask, ProviderConfig, ProviderEngine,
    TaskAnnouncement,
};
use qosc_netsim::SimTime;
use qosc_resources::{
    av_demand_model, AdmissionControl, DemandModel, ResourceKind, ResourceVector, SchedulingPolicy,
};
use qosc_spec::{catalog, QosSpec, ResolvedRequest, TaskId};

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
    let model: Arc<dyn DemandModel> = Arc::new(av_demand_model(&spec));
    let reward = LinearPenalty::default();
    // The cold engine: the task compiled once through the book, then one
    // heap-driven pass per call.
    let mut engine = Formulator::new(Arc::new(LinearPenalty::default()));
    let task = engine
        .prepare(&spec, &catalog::video_conference_request(), &model)
        .expect("catalog request resolves");

    let mut g = c.benchmark_group("formulation");
    // Scarcity sweep: fewer MIPS = more degradation steps.
    for cpu in [500.0, 60.0, 30.0] {
        let admission = admission(cpu);
        g.bench_with_input(
            BenchmarkId::new("single_task_cpu", cpu as u64),
            &cpu,
            |b, _| b.iter(|| engine.formulate(black_box(&[task.as_ref()]), &admission)),
        );
    }
    // Joint task-set sweep at fixed capacity.
    for tasks in [1usize, 4, 16] {
        let admission = admission(120.0);
        let refs: Vec<&PreparedTask> = vec![task.as_ref(); tasks];
        g.bench_with_input(BenchmarkId::new("joint_tasks", tasks), &tasks, |b, _| {
            b.iter(|| engine.formulate(black_box(&refs), &admission))
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
    for tasks in [8usize, 32, 64] {
        for (label, per_task) in [
            ("rich", preferred_cpu * 1.05),
            ("scarce", degraded_cpu * 1.02),
        ] {
            let admission = admission(per_task * tasks as f64);
            let inputs: Vec<(&QosSpec, &ResolvedRequest, &dyn DemandModel)> =
                vec![(&spec, &request, model.as_ref()); tasks];
            // Sanity: both capacity points formulate successfully (the
            // scarce one after deep degradation).
            formulate_reference(&inputs, &admission, &reward).expect("bundle must fit");
            g.bench_with_input(
                BenchmarkId::new(format!("joint_{label}_reference"), tasks),
                &tasks,
                |b, _| b.iter(|| formulate_reference(black_box(&inputs), &admission, &reward)),
            );
            let refs: Vec<&PreparedTask> = vec![task.as_ref(); tasks];
            g.bench_with_input(
                BenchmarkId::new(format!("joint_{label}_engine"), tasks),
                &tasks,
                |b, _| b.iter(|| engine.formulate(black_box(&refs), &admission)),
            );
        }
    }
    let mut leg = |label: &str, mut provider: ProviderEngine| {
        g.bench_function(BenchmarkId::new(label, COLD_START_TASKS), |b| {
            let msg = cfp(10);
            b.iter(|| provider.on_message(SimTime(1_000), 0, black_box(&msg)))
        });
    };
    leg("cold_start_world_first_cfp", World::new().roomy(0));
    leg("cold_start_second_node_first_cfp", World::warm().roomy(0));
    leg("cold_start_second_node_tenth_cfp", World::warm().roomy(9));
    leg("saturated_refusal", World::warm().saturated());
    g.finish();
}

const COLD_START_TASKS: u32 = 4;

/// The first pricing of a bundle in a world may take at most this long.
const WORLD_FIRST_CEILING: Duration = Duration::from_micros(20);

/// A node's first CFP, on a book that has the bundle's plan, may cost at
/// most this many times its tenth.
const SECOND_NODE_CEILING: f64 = 1.5;

/// Refusing a CFP for want of room may cost at most this fraction of
/// pricing one.
const REFUSAL_CEILING: f64 = 0.5;

/// The `seq`-th negotiation's CFP for a `COLD_START_TASKS`-task
/// Surveillance service.
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

/// What the providers of one world share: the book of bundle plans and
/// the demand model (a plan is filed under the model's identity).
struct World {
    book: Formulator,
    model: Arc<dyn DemandModel>,
}

impl World {
    fn new() -> Self {
        Self {
            book: Formulator::new(Arc::new(LinearPenalty::default())),
            model: Arc::new(av_demand_model(&catalog::av_spec())),
        }
    }

    /// A world in which one node has priced the bundle already.
    fn warm() -> Self {
        let world = Self::new();
        world.roomy(1);
        world
    }

    /// A provider of `cpu` MIPS.
    fn provider(&self, cpu: f64) -> ProviderEngine {
        let mut provider = ProviderEngine::new(
            1,
            ResourceVector::new(cpu, 1e6, 1e7, 6e4, 1e7),
            ProviderConfig {
                reward: Arc::clone(self.book.reward()),
                ..Default::default()
            },
        )
        .with_formulator(self.book.clone());
        provider.register_demand_model(catalog::av_spec().name(), Arc::clone(&self.model));
        provider
    }

    /// A provider roomy enough to hold ten bundles at preferred quality
    /// that has priced `priced` CFPs so far.
    fn roomy(&self, priced: u32) -> ProviderEngine {
        let mut provider = self.provider(10_000.0);
        for seq in 1..=priced {
            black_box(provider.on_message(SimTime(1_000), 0, &cfp(seq)));
        }
        provider
    }

    /// A provider whose CPU is committed down to less than one fully
    /// degraded task (~5.95 MIPS): the first bundle it priced took all
    /// but ~1 MIPS of its 74 at preferred quality (4 × ~18.25) and was
    /// awarded.
    fn saturated(&self) -> ProviderEngine {
        let mut provider = self.provider(74.0);
        let priced = provider.on_message(SimTime(1_000), 0, &cfp(1));
        assert!(!priced.is_empty(), "the bundle fits an empty node");
        let nego = NegoId {
            organizer: 0,
            seq: 1,
        };
        for t in 0..COLD_START_TASKS {
            let award = Msg::Award {
                nego,
                task: TaskId(t),
                round: 0,
            };
            black_box(provider.on_message(SimTime(2_000), 0, &award));
        }
        assert!(
            provider.on_message(SimTime(3_000), 0, &cfp(2)).is_empty(),
            "a saturated node refuses"
        );
        provider
    }
}

/// Median wall times of the world's first CFP, a second node's first and
/// tenth, and a saturated node's refusal, sampled in alternation so host
/// drift lands on all alike.
fn cold_start_medians() -> [Duration; 4] {
    let time = |mut provider: ProviderEngine| {
        let msg = cfp(10);
        let t0 = Instant::now();
        black_box(provider.on_message(SimTime(1_000), 0, &msg));
        t0.elapsed()
    };
    let mut samples: [Vec<Duration>; 4] = Default::default();
    for _ in 0..501 {
        let warm = World::warm();
        samples[0].push(time(World::new().roomy(0)));
        samples[1].push(time(warm.roomy(0)));
        samples[2].push(time(warm.roomy(9)));
        samples[3].push(time(warm.saturated()));
    }
    samples.map(|mut s| {
        s.sort_unstable();
        s[s.len() / 2]
    })
}

criterion_group!(benches, bench_formulation);

fn main() {
    benches();
    let [world_first, first, tenth, refusal] = cold_start_medians();
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    println!(
        "formulation/cold_start_guard/{COLD_START_TASKS}: world's first {world_first:?} (ceiling \
         {WORLD_FIRST_CEILING:?}); second node's first {first:?} / tenth {tenth:?} = {:.2}x \
         (ceiling {SECOND_NODE_CEILING}x); saturated refusal {refusal:?} / tenth = {:.2}x \
         (ceiling {REFUSAL_CEILING}x)",
        ratio(first, tenth),
        ratio(refusal, tenth),
    );
    let mut failed = false;
    if world_first > WORLD_FIRST_CEILING {
        eprintln!("the first pricing of a bundle in a world exceeds its ceiling");
        failed = true;
    }
    if ratio(first, tenth) > SECOND_NODE_CEILING {
        eprintln!(
            "a node's first CFP on a warm book costs more than the ceiling allows over its tenth"
        );
        failed = true;
    }
    if ratio(refusal, tenth) > REFUSAL_CEILING {
        eprintln!("refusing for want of room costs more than the ceiling allows of a priced CFP");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
