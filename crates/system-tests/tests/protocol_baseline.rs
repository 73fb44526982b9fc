//! The protocol baseline is the engines: `protocol_emulation*` on the
//! instances the F/T experiments draw keeps giving the allocations pinned
//! here, captured from the offline round loop the engines replaced, and an
//! instance's requests and chains are what the engines announce and consult.

use std::collections::BTreeMap;

use qosc_baselines::builders::small_instance;
use qosc_baselines::{
    protocol_emulation, protocol_emulation_with, run_on_engines, Allocation, Instance, OfflineTask,
    ProposalStrategy,
};
use qosc_bench::instances::population_instance;
use qosc_core::strategy::{BatteryGate, PatienceLimit, ReservePrice};
use qosc_core::{
    CoalitionNode, DifMode, DirectRuntime, EvalConfig, OrganizerConfig, OrganizerEngine,
    OrganizerStrategy, ProviderConfig, ProviderStrategy, Runtime, StableHasher, TieBreak,
    WeightScheme,
};
use qosc_netsim::SimTime;
use qosc_resources::ResourceKind;
use qosc_spec::{catalog, TaskId};
use qosc_system_tests::{av_provider_with, surveillance_service_sized};
use qosc_workloads::{AppTemplate, PopulationConfig};

/// Winner, ladder levels, eq. 2 distance, comm cost and five-component
/// demand per task, then the unassigned set — floats by bit pattern.
fn digest(alloc: &Allocation, h: &mut StableHasher) {
    h.write_usize(alloc.placements.len());
    for (task, p) in &alloc.placements {
        h.write_u32(task.0);
        h.write_u32(p.node);
        h.write_usize(p.levels.len());
        p.levels.iter().for_each(|&l| h.write_usize(l));
        h.write_f64(p.distance);
        h.write_f64(p.comm_cost);
        let demand = ResourceKind::ALL.iter().map(|&kind| p.demand.get(kind));
        demand.for_each(|d| h.write_f64(d));
    }
    h.write_usize(alloc.unassigned.len());
    alloc.unassigned.iter().for_each(|t| h.write_u32(t.0));
}

fn constrained(nodes: usize, template: AppTemplate, tasks: usize, seed: u64) -> Instance {
    let population = PopulationConfig::constrained();
    population_instance(&population, nodes, template, tasks, seed)
}

/// `(cells, digest)` per family, captured from the offline emulation.
const PINNED: [(usize, u64); 6] = [
    (70, 0x4f28756460d3ddf6),
    (50, 0xf7c0842160f5ed32),
    (80, 0x254eb3a3db5b4edb),
    (240, 0xac478f2200a1535f),
    (60, 0x65d8f5576815ab8d),
    (100, 0x8c5a848a03e63b07),
];

/// 600 cells on the instances F1, F2, F4, F6, T3 and T2 draw.
#[test]
fn pinned_sweep_matches_the_offline_emulation() {
    use AppTemplate::{Surveillance, VideoConference};
    let (paper, joint) = (TieBreak::default(), ProposalStrategy::Joint);
    let perms = TieBreak::permutations();
    let mut got = [(); 6].map(|_| (0, StableHasher::new()));
    let mut cell = |family: usize, inst: &Instance, tiebreak: &TieBreak, strategy| {
        let (cells, h) = &mut got[family];
        digest(&protocol_emulation_with(inst, tiebreak, strategy), h);
        *cells += 1;
    };
    // F1: 1-64 nodes, 3 conference tasks.
    for n in [1, 2, 4, 8, 16, 32, 64] {
        for seed in 0..10 {
            let seed = 0xF1_0000 + seed * 1000 + n as u64;
            cell(0, &constrained(n, VideoConference, 3, seed), &paper, joint);
        }
    }
    // F2: 2-40 surveillance tasks on 6 nodes.
    for tasks in [2, 5, 10, 20, 40] {
        for seed in 0..10 {
            let inst = constrained(6, Surveillance, tasks, 0xF2_0000 + seed);
            cell(1, &inst, &paper, joint);
        }
    }
    // F4: 4 nodes, 3 tasks, joint and sequential.
    for seed in 0..40 {
        let inst = constrained(4, VideoConference, 3, 0xF4_0000 + seed);
        cell(2, &inst, &paper, joint);
        cell(2, &inst, &paper, ProposalStrategy::Sequential);
    }
    // F6: 2-8 tasks on 8 nodes, six tie-breaks.
    for tasks in [2, 4, 6, 8] {
        for seed in 0..10 {
            let seed = 0xF6_0000 + seed * 13 + tasks as u64;
            let inst = constrained(8, Surveillance, tasks, seed);
            perms.iter().for_each(|tb| cell(3, &inst, tb, joint));
        }
    }
    // T3: 4 tasks on 8 nodes, six tie-breaks.
    for seed in 0..10 {
        let inst = constrained(8, VideoConference, 4, 0x73_0000 + seed);
        perms.iter().for_each(|tb| cell(4, &inst, tb, joint));
    }
    // T2: 3 tasks on 8 nodes, its four evaluation configs.
    for seed in 0..25 {
        let mut inst = constrained(8, VideoConference, 3, 0x72_0000 + seed);
        for (weights, dif) in [
            (WeightScheme::PaperLinear, DifMode::Absolute),
            (WeightScheme::Uniform, DifMode::Absolute),
            (WeightScheme::Harmonic, DifMode::Absolute),
            (WeightScheme::PaperLinear, DifMode::SignedPaperLiteral),
        ] {
            inst.eval = EvalConfig { weights, dif };
            cell(5, &inst, &paper, joint);
        }
    }
    let got = got.map(|(cells, h)| (cells, h.finish()));
    assert_eq!(got, PINNED, "{got:#018x?}");
}

/// Winner and scored distance per placed task, as the organizer recorded them.
fn winners(rt: &DirectRuntime) -> BTreeMap<TaskId, (u32, f64)> {
    let organizer = rt.node(0).and_then(|n| n.organizer());
    let organizer = organizer.expect("node 0 organizes");
    let metrics = organizer.metrics(organizer.nego_ids()[0]);
    let metrics = metrics.expect("a started negotiation has metrics");
    let placed = metrics.outcomes.iter();
    placed.map(|(t, o)| (*t, (o.node, o.distance))).collect()
}

#[test]
fn each_task_is_scored_under_its_own_request() {
    // Two requests over one spec with different ladders ([10,2,1,1] and
    // [21,3,3,2]), on nodes too weak for either's preferred level.
    let mut inst = small_instance(&[30.0, 40.0], 1);
    let (spec, conference) = (catalog::av_spec(), catalog::video_conference_request());
    let conference = OfflineTask::new(TaskId(1), spec, conference, 500_000, 50_000);
    inst.tasks.push(conference.unwrap());
    let (alloc, rt) = run_on_engines(&inst, &TieBreak::default(), ProposalStrategy::Joint);
    assert!(alloc.complete());
    assert!(alloc.total_distance() > 0.0, "someone had to degrade");
    // The organizer scored what was announced, the placement is priced
    // under the task's own request: equal only when they are one request.
    let scored = winners(&rt);
    for t in &inst.tasks {
        let p = &alloc.placements[&t.id];
        assert_eq!(p.levels.len(), t.request.attr_count());
        assert_eq!(p.distance, scored[&t.id].1);
    }
}

/// `small_instance(cpus, tasks)` with `provider(i)` on node `i` and
/// `organizer` on the requester, through the baseline and assembled by
/// hand on a `DirectRuntime`: the two must place alike.
fn with_chains(
    cpus: &[f64],
    tasks: usize,
    provider: impl Fn(u32) -> ProviderStrategy,
    organizer: OrganizerStrategy,
) -> Allocation {
    let mut rt = DirectRuntime::new();
    for (i, &cpu) in cpus.iter().enumerate() {
        let i = i as u32;
        let config = ProviderConfig {
            heartbeats: false,
            chain: provider(i),
            ..Default::default()
        };
        let mut node = CoalitionNode::new(i).with_provider(av_provider_with(i, cpu, config));
        if i == 0 {
            let config = OrganizerConfig {
                max_rounds: tasks as u32 + 1,
                monitor: false,
                chain: organizer.clone(),
                ..Default::default()
            };
            node = node.with_organizer(OrganizerEngine::new(0, config));
        }
        rt.add_node(node).expect("ids are unique");
    }
    let service = surveillance_service_sized("svc", tasks, 100_000, 10_000);
    rt.submit(0, service, SimTime(1_000))
        .expect("node 0 organizes");
    rt.run(SimTime(60_000_000));

    let mut inst = small_instance(cpus, tasks);
    for n in &mut inst.nodes {
        n.chain = provider(n.id);
    }
    inst.chain = organizer;
    let alloc = protocol_emulation(&inst, &TieBreak::default());
    let placed = alloc.placements.iter();
    let placed: BTreeMap<_, _> = placed.map(|(t, p)| (*t, (p.node, p.distance))).collect();
    assert_eq!(placed, winners(&rt));
    alloc
}

#[test]
fn instance_chains_are_the_engines_chains() {
    // A reserve above any reachable eq. 1 reward (4 at preferred levels)
    // on every node: every offer is withheld.
    let reserve = |_| ProviderStrategy::new().with(ReservePrice { min_reward: 100.0 });
    let alloc = with_chains(&[500.0, 500.0], 2, reserve, OrganizerStrategy::new());
    assert!(alloc.placements.is_empty());

    // A gate the requester can never pass: nothing is placed locally,
    // though it is rich enough to win everything on comm cost.
    let gate = |i| match i {
        0 => ProviderStrategy::new().with(BatteryGate {
            min_cpu_fraction: 1.5,
        }),
        _ => ProviderStrategy::new(),
    };
    let alloc = with_chains(&[1000.0, 1000.0], 2, gate, OrganizerStrategy::new());
    assert!(alloc.complete());
    assert!(alloc.placements.values().all(|p| p.node != 0));

    // Each node fits one fully degraded task, so joint pricing places one
    // task per round; patience for one round stops after the first.
    let (cpus, plain) = ([10.0, 10.0, 10.0], |_| ProviderStrategy::new());
    assert!(with_chains(&cpus, 3, plain, OrganizerStrategy::new()).complete());
    let impatient = OrganizerStrategy::new().with(PatienceLimit { rounds: 1 });
    assert_eq!(with_chains(&cpus, 3, plain, impatient).placements.len(), 1);
}
