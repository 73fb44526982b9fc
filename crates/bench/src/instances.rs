//! Bridges populations/templates into allocation instances.

use std::collections::HashMap;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_baselines::{Instance, OfflineNode, OfflineTask};
use qosc_core::{
    EvalConfig, LinearPenalty, OrganizerStrategy, ProviderStrategy, QuadraticPenalty, RewardModel,
};
use qosc_resources::{ResourceKind, SchedulingPolicy};
use qosc_spec::TaskId;
use qosc_workloads::{AppTemplate, PopulationConfig};
use std::sync::Arc as StdArc;

/// Builds an offline instance: `n_nodes` drawn from `population` (node 0
/// is the requester), `n_tasks` instances of `template`.
pub fn population_instance(
    population: &PopulationConfig,
    n_nodes: usize,
    template: AppTemplate,
    n_tasks: usize,
    seed: u64,
) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let profiles = population.sample_many(n_nodes, &mut rng);
    let spec = template.spec();
    let model = template.demand_model();
    let nodes = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut models: HashMap<String, Arc<dyn qosc_resources::DemandModel>> = HashMap::new();
            models.insert(spec.name().to_string(), Arc::clone(&model));
            // Nodes run their own degradation policies (§5: penalty "can
            // be defined according to user's own criteria"): odd nodes
            // degrade quadratically, which shapes their offers differently
            // and exercises cross-dimension trade-offs in evaluation.
            let reward: StdArc<dyn RewardModel> = if i % 2 == 1 {
                StdArc::new(QuadraticPenalty::default())
            } else {
                StdArc::new(LinearPenalty::default())
            };
            OfflineNode {
                id: i as u32,
                capacity: p.capacity,
                link_kbps: p.capacity.get(ResourceKind::NetBandwidth),
                policy: SchedulingPolicy::Edf,
                models,
                reward: Some(reward),
                chain: ProviderStrategy::default(),
            }
        })
        .collect();
    let tasks = (0..n_tasks)
        .map(|i| {
            let (input_bytes, output_bytes) = template.payload(&mut rng);
            OfflineTask::new(
                TaskId(i as u32),
                spec.clone(),
                template.request(),
                input_bytes,
                output_bytes,
            )
            .expect("catalog requests resolve")
        })
        .collect();
    Instance {
        requester: 0,
        nodes,
        tasks,
        eval: EvalConfig::default(),
        chain: OrganizerStrategy::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_shape_matches_request() {
        let inst = population_instance(
            &PopulationConfig::default(),
            6,
            AppTemplate::Surveillance,
            3,
            42,
        );
        assert_eq!(inst.nodes.len(), 6);
        assert_eq!(inst.tasks.len(), 3);
        assert_eq!(inst.requester, 0);
        // Deterministic.
        let inst2 = population_instance(
            &PopulationConfig::default(),
            6,
            AppTemplate::Surveillance,
            3,
            42,
        );
        assert_eq!(inst.nodes[3].capacity, inst2.nodes[3].capacity);
        assert_eq!(inst.tasks[2].input_bytes, inst2.tasks[2].input_bytes);
    }

    #[test]
    fn instance_runs_as_a_protocol_scenario() {
        use qosc_baselines::{instance_runtime, instance_service, ProposalStrategy};
        use qosc_core::{NegoEvent, Runtime, TieBreak};
        use qosc_netsim::SimTime;
        let inst = population_instance(
            &PopulationConfig::default(),
            5,
            AppTemplate::Surveillance,
            2,
            7,
        );
        let mut rt = instance_runtime(&inst, &TieBreak::default(), ProposalStrategy::Joint);
        let svc = instance_service(&inst, "svc");
        rt.submit(inst.requester, svc, SimTime(1_000)).unwrap();
        rt.run(SimTime(30_000_000));
        assert!(
            rt.events().iter().any(|e| matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )),
            "the protocol must settle on the instance: {:?}",
            rt.events()
        );
    }
}
