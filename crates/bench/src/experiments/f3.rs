//! F3 — the §5 degradation heuristic: reward vs resource availability.
//!
//! Paper eq. 1 trades local reward for schedulability, degrading the
//! attribute with the minimal reward decrease first. We sweep one node's
//! CPU from 5 % to 100 % of the preferred-level demand of a demanding
//! request and record the reward, the user-side distance (eq. 2) of the
//! resulting configuration, and how many degradation steps were needed.

use std::sync::Arc;

use qosc_baselines::Evaluator;
use qosc_core::{Formulator, LinearPenalty, QuadraticPenalty, RewardModel};
use qosc_resources::{AdmissionControl, ResourceKind, ResourceVector, SchedulingPolicy};
use qosc_workloads::AppTemplate;

use crate::table::{f, Table};

/// Runs F3 and returns its table.
pub fn run() -> Table {
    let mut table = Table::new(
        "F3: local reward & distance vs CPU availability (degradation heuristic)",
        &[
            "cpu_fraction",
            "reward_linear",
            "distance_linear",
            "steps_linear",
            "reward_quadratic",
            "distance_quadratic",
            "steps_quadratic",
        ],
    );
    let t = AppTemplate::VideoConference;
    let spec = t.spec();
    let req = t
        .request()
        .resolve(&spec)
        .expect("template request matches its spec");
    let model = t.demand_model();
    let evaluator = Evaluator::default();
    // One engine and one compilation of the task per penalty.
    let mut engines: Vec<_> = [
        Arc::new(LinearPenalty::default()) as Arc<dyn RewardModel>,
        Arc::new(QuadraticPenalty::default()),
    ]
    .into_iter()
    .map(|reward| {
        let mut engine = Formulator::new(reward);
        let task = engine
            .prepare(&spec, &t.request(), &model)
            .expect("template request matches its spec");
        (engine, task)
    })
    .collect();
    // Preferred-level CPU demand = the 100 % point.
    let qv = req
        .quality_vector(&spec, &vec![0; req.attr_count()])
        .expect("preferred levels are in-domain");
    let full_cpu = model.demand(&spec, &qv).get(ResourceKind::Cpu);

    for pct in [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let cpu = full_cpu * pct as f64 / 100.0;
        let admission = AdmissionControl::new(
            SchedulingPolicy::Edf,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        );
        let mut cells = vec![f(pct as f64 / 100.0)];
        for (engine, task) in &mut engines {
            match engine.formulate(&[task.as_ref()], &admission) {
                Ok(out) => {
                    let d = evaluator
                        .distance_of_levels(&spec, &req, &out.levels[0])
                        .expect("formulated levels are in-domain");
                    cells.push(f(out.reward));
                    cells.push(f(d));
                    cells.push(out.degradations.to_string());
                }
                Err(_) => {
                    cells.push("infeasible".into());
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        table.row(cells);
    }
    table
}
