//! T2 — ablation of the eq. 3 weight scheme.
//!
//! Eq. 3's linear rank map `w_k = (n−k+1)/n` is one of many ways to turn a
//! qualitative preference order into weights. We re-run winner selection
//! under uniform and harmonic schemes (and the signed paper-literal dif of
//! eq. 5) and re-score every outcome under the default evaluator so the
//! numbers are comparable: how often does the alternative pick different
//! winners, and how much user-side distance does it cost or save?

use qosc_baselines::{protocol_emulation, Allocation, Evaluator, Instance};
use qosc_core::{DifMode, EvalConfig, TieBreak, WeightScheme};
use qosc_workloads::{AppTemplate, PopulationConfig};

use crate::instances::population_instance;
use crate::table::{f, mean, replicate, Table};

const REPS: u64 = 40;
const NODES: usize = 8;
const TASKS: usize = 3;

/// Re-scores an allocation's placements under the reference evaluator.
fn rescore(inst: &Instance, alloc: &Allocation) -> f64 {
    let reference = Evaluator::default();
    let mut total = 0.0;
    for (task, p) in &alloc.placements {
        let t = inst
            .tasks
            .iter()
            .find(|t| t.id == *task)
            .expect("placement refers to an instance task");
        total += reference
            .distance_of_levels(&t.spec, &t.request, &p.levels)
            .expect("placed levels are in-domain");
    }
    total
}

/// Runs T2 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "T2: weight-scheme / dif-mode ablation (rescored under eq.3 + |dif|)",
        &[
            "scheme",
            "mean_rescored_distance",
            "winner_agreement",
            "mean_members",
        ],
    );
    let variants: Vec<(&str, EvalConfig)> = vec![
        (
            "paper_linear",
            EvalConfig {
                weights: WeightScheme::PaperLinear,
                dif: DifMode::Absolute,
            },
        ),
        (
            "uniform",
            EvalConfig {
                weights: WeightScheme::Uniform,
                dif: DifMode::Absolute,
            },
        ),
        (
            "harmonic",
            EvalConfig {
                weights: WeightScheme::Harmonic,
                dif: DifMode::Absolute,
            },
        ),
        (
            "signed_literal",
            EvalConfig {
                weights: WeightScheme::PaperLinear,
                dif: DifMode::SignedPaperLiteral,
            },
        ),
    ];
    let population = PopulationConfig::constrained();
    let results = replicate(REPS, |seed| {
        let mut base = population_instance(
            &population,
            NODES,
            AppTemplate::VideoConference,
            TASKS,
            0x72_0000 + seed,
        );
        let mut per_variant = Vec::new();
        let mut reference_assignments = None;
        for (_, eval) in &variants {
            base.eval = *eval;
            let alloc = protocol_emulation(&base, &TieBreak::default());
            let rescored = rescore(&base, &alloc);
            let winners: Vec<(qosc_spec::TaskId, u32)> =
                alloc.placements.iter().map(|(t, p)| (*t, p.node)).collect();
            if reference_assignments.is_none() {
                reference_assignments = Some(winners.clone());
            }
            let agree = reference_assignments
                .as_ref()
                .map(|r| *r == winners)
                .unwrap_or(true);
            per_variant.push((rescored, agree, alloc.distinct_members() as f64));
        }
        per_variant
    });
    for (i, (name, _)) in variants.iter().enumerate() {
        let ds: Vec<f64> = results.iter().map(|r| r[i].0).collect();
        let agreement =
            results.iter().filter(|r| r[i].1).count() as f64 / results.len().max(1) as f64;
        let members: Vec<f64> = results.iter().map(|r| r[i].2).collect();
        table.row(vec![
            name.to_string(),
            f(mean(&ds)),
            f(agreement),
            f(mean(&members)),
        ]);
    }
    table
}
