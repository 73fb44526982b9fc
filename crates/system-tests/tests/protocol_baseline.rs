//! The protocol baseline is the engines: `protocol_emulation*` on the
//! instances the F/T experiments draw must keep giving the allocations
//! pinned here, which were captured from the hand-kept offline round loop
//! the engines replaced.

use proptest::prelude::*;

use qosc_baselines::{
    builders::{conference_instance, small_instance},
    protocol_emulation_with, protocol_run, Allocation, Instance, ProposalStrategy,
};
use qosc_bench::instances::population_instance;
use qosc_core::{DifMode, EvalConfig, StableHasher, TieBreak, WeightScheme};
use qosc_resources::ResourceKind;
use qosc_workloads::{AppTemplate, PopulationConfig};

/// T2's four evaluation configs.
const EVALS: [EvalConfig; 4] = [
    EvalConfig {
        weights: WeightScheme::PaperLinear,
        dif: DifMode::Absolute,
    },
    EvalConfig {
        weights: WeightScheme::Uniform,
        dif: DifMode::Absolute,
    },
    EvalConfig {
        weights: WeightScheme::Harmonic,
        dif: DifMode::Absolute,
    },
    EvalConfig {
        weights: WeightScheme::PaperLinear,
        dif: DifMode::SignedPaperLiteral,
    },
];

/// Winner, ladder levels, eq. 2 distance, comm cost and five-component
/// demand per task, then the unassigned set — floats by bit pattern.
fn digest(alloc: &Allocation, h: &mut StableHasher) {
    h.write_usize(alloc.placements.len());
    for (task, p) in &alloc.placements {
        h.write_u32(task.0);
        h.write_u32(p.node);
        h.write_usize(p.levels.len());
        for &l in &p.levels {
            h.write_usize(l);
        }
        h.write_f64(p.distance);
        h.write_f64(p.comm_cost);
        for kind in ResourceKind::ALL {
            h.write_f64(p.demand.get(kind));
        }
    }
    h.write_usize(alloc.unassigned.len());
    for t in &alloc.unassigned {
        h.write_u32(t.0);
    }
}

fn digest_of(alloc: &Allocation) -> u64 {
    let mut h = StableHasher::new();
    digest(alloc, &mut h);
    h.finish()
}

/// One family of the fixed sweep: its cells' allocations under one hash.
fn family(cells: impl Iterator<Item = Allocation>) -> (usize, u64) {
    let mut h = StableHasher::new();
    let mut n = 0;
    for alloc in cells {
        digest(&alloc, &mut h);
        n += 1;
    }
    (n, h.finish())
}

fn constrained(nodes: usize, template: AppTemplate, tasks: usize, seed: u64) -> Instance {
    population_instance(
        &PopulationConfig::constrained(),
        nodes,
        template,
        tasks,
        seed,
    )
}

/// 600 cells on the instances F1, F2, F4, F6, T3 and T2 draw.
#[test]
fn pinned_sweep_matches_the_offline_emulation() {
    let paper = TieBreak::default();
    let joint = ProposalStrategy::Joint;
    let run = protocol_emulation_with;
    let got = [
        (
            "F1: 1-64 nodes, 3 conference tasks",
            family([1usize, 2, 4, 8, 16, 32, 64].into_iter().flat_map(|n| {
                (0..10u64).map(move |seed| {
                    let inst = constrained(
                        n,
                        AppTemplate::VideoConference,
                        3,
                        0xF1_0000 + seed * 1000 + n as u64,
                    );
                    run(&inst, &paper, joint)
                })
            })),
        ),
        (
            "F2: 2-40 surveillance tasks on 6 nodes",
            family([2usize, 5, 10, 20, 40].into_iter().flat_map(|tasks| {
                (0..10u64).map(move |seed| {
                    let inst = constrained(6, AppTemplate::Surveillance, tasks, 0xF2_0000 + seed);
                    run(&inst, &paper, joint)
                })
            })),
        ),
        (
            "F4: 4 nodes, 3 tasks, joint and sequential",
            family((0..40u64).flat_map(|seed| {
                let inst = constrained(4, AppTemplate::VideoConference, 3, 0xF4_0000 + seed);
                [joint, ProposalStrategy::Sequential].map(|s| run(&inst, &paper, s))
            })),
        ),
        (
            "F6: 2-8 tasks on 8 nodes, six tie-breaks",
            family([2usize, 4, 6, 8].into_iter().flat_map(|tasks| {
                (0..10u64).flat_map(move |seed| {
                    let inst = constrained(
                        8,
                        AppTemplate::Surveillance,
                        tasks,
                        0xF6_0000 + seed * 13 + tasks as u64,
                    );
                    TieBreak::permutations()
                        .into_iter()
                        .map(move |tb| run(&inst, &tb, joint))
                        .collect::<Vec<_>>()
                })
            })),
        ),
        (
            "T3: 4 tasks on 8 nodes, six tie-breaks",
            family((0..10u64).flat_map(|seed| {
                let inst = constrained(8, AppTemplate::VideoConference, 4, 0x73_0000 + seed);
                TieBreak::permutations()
                    .into_iter()
                    .map(move |tb| run(&inst, &tb, joint))
                    .collect::<Vec<_>>()
            })),
        ),
        (
            "T2: 3 tasks on 8 nodes, four evaluation configs",
            family((0..25u64).flat_map(|seed| {
                let mut inst = constrained(8, AppTemplate::VideoConference, 3, 0x72_0000 + seed);
                EVALS.map(|eval| {
                    inst.eval = eval;
                    run(&inst, &paper, joint)
                })
            })),
        ),
    ];
    let pinned = [
        (70, 0x4f28756460d3ddf6),
        (50, 0xf7c0842160f5ed32),
        (80, 0x254eb3a3db5b4edb),
        (240, 0xac478f2200a1535f),
        (60, 0x65d8f5576815ab8d),
        (100, 0x8c5a848a03e63b07),
    ];
    let all = got.map(|(_, g)| g);
    for ((name, got), pinned) in got.into_iter().zip(pinned) {
        assert_eq!(got, pinned, "{name}; all (cells, digest): {all:#018x?}");
    }
}

/// A random instance: catalog builders over random CPUs, or a draw from
/// the constrained population.
fn instance(kind: usize, cpus: &[f64], tasks: usize, seed: u64) -> Instance {
    match kind {
        0 => small_instance(cpus, tasks),
        1 => conference_instance(cpus, tasks),
        k => constrained(cpus.len() * 2, AppTemplate::ALL[k - 2], tasks, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Old ≡ new at default chains: the offline round loop and the engines
    /// on `DirectRuntime` agree to the bit on every instance, tie-break,
    /// pricing strategy and evaluation config.
    #[test]
    fn offline_emulation_equals_the_engines(
        kind in 0usize..6,
        cpus in proptest::collection::vec(5.0f64..300.0, 1..7),
        tasks in 1usize..7,
        seed in 0u64..u64::MAX,
        // tie-break × evaluation config × pricing strategy
        variant in 0usize..48,
    ) {
        let mut inst = instance(kind, &cpus, tasks, seed);
        inst.eval = EVALS[variant / 6 % 4];
        let tiebreak = TieBreak::permutations()[variant % 6];
        let strategy = [ProposalStrategy::Joint, ProposalStrategy::Sequential][variant / 24];
        let old = protocol_emulation_with(&inst, &tiebreak, strategy);
        let (new, _) = protocol_run(&inst, &tiebreak, strategy);
        prop_assert_eq!(digest_of(&old), digest_of(&new), "old {:?}\nnew {:?}", old, new);
    }
}
