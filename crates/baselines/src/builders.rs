//! Ready-made instance builders shared by tests, benches and the
//! experiment harness.

use std::collections::HashMap;
use std::sync::Arc;

use qosc_core::{EvalConfig, OrganizerStrategy, ProviderStrategy};
use qosc_resources::{av_demand_model, ResourceVector, SchedulingPolicy};
use qosc_spec::{catalog, TaskId};

use crate::instance::{Instance, OfflineNode, OfflineTask};

/// Builds an instance over the catalog's A/V spec: one node per entry of
/// `cpus` (node 0 = requester), each with the given CPU and generous other
/// resources, and `tasks` surveillance tasks.
pub fn small_instance(cpus: &[f64], tasks: usize) -> Instance {
    let spec = catalog::av_spec();
    let model: Arc<dyn qosc_resources::DemandModel> = Arc::new(av_demand_model(&spec));
    let nodes = cpus
        .iter()
        .enumerate()
        .map(|(i, &cpu)| {
            let mut models: HashMap<String, Arc<dyn qosc_resources::DemandModel>> = HashMap::new();
            models.insert(spec.name().to_string(), Arc::clone(&model));
            OfflineNode {
                id: i as u32,
                capacity: ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
                link_kbps: 1000.0,
                policy: SchedulingPolicy::Edf,
                models,
                reward: None,
                chain: ProviderStrategy::default(),
            }
        })
        .collect();
    let tasks = (0..tasks)
        .map(|i| {
            OfflineTask::new(
                TaskId(i as u32),
                spec.clone(),
                catalog::surveillance_request(),
                100_000,
                10_000,
            )
            .expect("catalog request matches catalog spec")
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

/// Same as [`small_instance`] but with the demanding video-conference
/// request, which needs ~64 MIPS at preferred quality.
pub fn conference_instance(cpus: &[f64], tasks: usize) -> Instance {
    let mut inst = small_instance(cpus, 0);
    let spec = catalog::av_spec();
    inst.tasks = (0..tasks)
        .map(|i| {
            OfflineTask::new(
                TaskId(i as u32),
                spec.clone(),
                catalog::video_conference_request(),
                500_000,
                50_000,
            )
            .expect("catalog request matches catalog spec")
        })
        .collect();
    inst
}
