//! Property-based tests spanning the whole stack: random instances,
//! random preferences, random capacities — the invariants that must hold
//! regardless.

use std::sync::Arc;

use proptest::prelude::*;

use qosc_baselines::{
    builders::small_instance, exhaustive_optimal, protocol_emulation, protocol_emulation_with,
    run_on_engines, single_node, Evaluator, ProposalStrategy,
};
use qosc_core::{Formulator, LinearPenalty, PreparedTask, TieBreak};
use qosc_mc::{default_invariants, verify_runtime};
use qosc_resources::{
    av_demand_model, AdmissionControl, DemandModel, ResourceKind, ResourceVector, SchedulingPolicy,
};
use qosc_spec::catalog;

/// A formulation engine and the catalog's surveillance task prepared on it.
fn surveillance_engine() -> (Formulator, Arc<PreparedTask>) {
    let spec = catalog::av_spec();
    let model: Arc<dyn DemandModel> = Arc::new(av_demand_model(&spec));
    let mut engine = Formulator::new(Arc::new(LinearPenalty::default()));
    let task = engine
        .prepare(&spec, &catalog::surveillance_request(), &model)
        .expect("catalog request resolves");
    (engine, task)
}

fn cpu_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(5.0f64..300.0, 2..6)
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// Whatever the capacities, a formulated configuration is schedulable
    /// and within the request's ladders, and its reward never exceeds the
    /// attribute count.
    #[test]
    fn formulation_outcomes_are_always_feasible(cpu in 6.0f64..500.0, tasks in 1usize..4) {
        let (mut engine, task) = surveillance_engine();
        let admission = AdmissionControl::new(
            SchedulingPolicy::Edf,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        );
        if let Ok(out) = engine.formulate(&vec![task.as_ref(); tasks], &admission) {
            prop_assert!(admission.schedulable(&out.demands));
            for lv in &out.levels {
                for (l, len) in lv.iter().zip(task.ladder()) {
                    prop_assert!(l < len);
                }
            }
            prop_assert!(out.reward <= (tasks * task.request().attr_count()) as f64 + 1e-9);
        }
    }

    /// The evaluator is zero exactly at the preferred configuration and
    /// positive elsewhere (absolute mode).
    #[test]
    fn distance_is_a_premetric_over_ladders(
        l0 in 0usize..10, l1 in 0usize..2,
    ) {
        let spec = catalog::av_spec();
        let req = catalog::surveillance_request().resolve(&spec).unwrap();
        let ev = Evaluator::default();
        let d = ev.distance_of_levels(&spec, &req, &[l0, l1, 0, 0]).unwrap();
        if l0 == 0 && l1 == 0 {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
        // Monotone in each coordinate.
        if l0 + 1 < 10 {
            let d2 = ev.distance_of_levels(&spec, &req, &[l0 + 1, l1, 0, 0]).unwrap();
            prop_assert!(d2 >= d);
        }
    }

    /// Allocation policies never invent placements: every placed node is a
    /// real node, every distance finite and non-negative, and no node is
    /// overcommitted: the protocol's legs hold the checker's invariants on
    /// the runtime they ran on, the single node's demand fits in aggregate.
    #[test]
    fn allocations_are_structurally_sound(cpus in cpu_vec(), tasks in 1usize..5) {
        let inst = small_instance(&cpus, tasks);
        let ids: Vec<u32> = inst.nodes.iter().map(|n| n.id).collect();
        let mut allocs = Vec::new();
        for strategy in [ProposalStrategy::Joint, ProposalStrategy::Sequential] {
            let (alloc, rt) = run_on_engines(&inst, &TieBreak::default(), strategy);
            prop_assert_eq!(verify_runtime(&rt, &ids, &default_invariants(), true), Ok(()));
            allocs.push(alloc);
        }
        let single = single_node(&inst);
        let carried = single.placements.values().map(|p| p.demand.get(ResourceKind::Cpu));
        prop_assert!(carried.sum::<f64>() <= cpus[0] + 1e-6, "the single node is overcommitted");
        allocs.push(single);
        for alloc in allocs {
            for (task, p) in &alloc.placements {
                prop_assert!((p.node as usize) < cpus.len());
                prop_assert!(p.distance.is_finite() && p.distance >= 0.0);
                prop_assert!(p.comm_cost.is_finite() && p.comm_cost >= 0.0);
                prop_assert!(inst.tasks.iter().any(|t| t.id == *task));
            }
            // No task both placed and unassigned, and the counts add up.
            for t in &alloc.unassigned {
                prop_assert!(!alloc.placements.contains_key(t));
            }
            prop_assert_eq!(alloc.placements.len() + alloc.unassigned.len(), tasks);
        }
    }

    /// NaN, infinite and zero CPU capacities and zero, negative, NaN and
    /// infinite bandwidths on random nodes never panic the protocol
    /// baseline, and every task is accounted for.
    #[test]
    fn protocol_baseline_survives_hostile_nodes(
        cpus in cpu_vec(),
        tasks in 1usize..5,
        poison in proptest::collection::vec((0usize..5, 0usize..5), 6),
    ) {
        let mut inst = small_instance(&cpus, tasks);
        for (node, (cpu, link)) in inst.nodes.iter_mut().zip(poison) {
            let sane = node.capacity.get(ResourceKind::Cpu);
            let cpu = [sane, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0][cpu];
            node.capacity = ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0);
            node.link_kbps = [node.link_kbps, 0.0, -1.0, f64::NAN, f64::INFINITY][link];
        }
        for strategy in [ProposalStrategy::Joint, ProposalStrategy::Sequential] {
            let alloc = protocol_emulation_with(&inst, &TieBreak::default(), strategy);
            prop_assert_eq!(alloc.placements.len() + alloc.unassigned.len(), tasks);
        }
    }

    /// The provider's prefix-feasibility shedding picks a prefix that is
    /// (a) actually formulatable and schedulable, and (b) maximal: every
    /// longer prefix of the same bundle is infeasible.
    #[test]
    fn shedding_prefix_is_maximal_and_feasible(cpu in 1.0f64..200.0, tasks in 1usize..6) {
        let (mut engine, task) = surveillance_engine();
        let refs = vec![task.as_ref(); tasks];
        let admission = AdmissionControl::new(
            SchedulingPolicy::Edf,
            ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        );
        match engine.formulate_shedding(&refs, &admission) {
            Some((count, out)) => {
                prop_assert!(count >= 1 && count <= tasks);
                prop_assert_eq!(out.levels.len(), count);
                prop_assert!(admission.schedulable(&out.demands));
                prop_assert_eq!(&engine.formulate(&refs[..count], &admission), &Ok(out));
                for longer in (count + 1)..=tasks {
                    prop_assert!(engine.formulate(&refs[..longer], &admission).is_err());
                }
            }
            None => {
                prop_assert!(engine.formulate(&refs[..1], &admission).is_err());
            }
        }
    }

    /// On enumerable instances the exhaustive optimum lower-bounds the
    /// protocol whenever both are complete.
    #[test]
    fn optimum_is_lower_bound(cpus in proptest::collection::vec(10.0f64..120.0, 2..4)) {
        let inst = small_instance(&cpus, 2);
        let opt = exhaustive_optimal(&inst, 1_000_000).unwrap();
        let proto = protocol_emulation(&inst, &TieBreak::default());
        if opt.complete() && proto.complete() {
            prop_assert!(proto.total_distance() >= opt.total_distance() - 1e-9);
        }
        // And the optimum never places fewer tasks than the protocol.
        prop_assert!(opt.placements.len() >= proto.placements.len());
    }
}
