//! The §7 offload decision: transcode locally or ship it to a neighbour?
//!
//! "Playing downloaded movies may require decompression ... such a default
//! action may suffer time penalty and, possibly, battery energy loss. ...
//! processing on the server may require additional data communication."
//! The coalition's tie-break (quality ≻ communication cost) makes that
//! call per task; this example shows the crossover as the payload grows.
//!
//! ```text
//! cargo run -p qosc-system-tests --example transcode_offload
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use qosc_baselines::{protocol_emulation, Instance, OfflineNode, OfflineTask};
use qosc_core::{EvalConfig, OrganizerStrategy, ProviderStrategy, TieBreak};
use qosc_resources::{DeviceClass, ResourceKind, SchedulingPolicy};
use qosc_spec::{catalog, TaskId};
use qosc_workloads::transcode_demand_model;

fn node(id: u32, class: DeviceClass) -> OfflineNode {
    let spec = catalog::transcode_spec();
    let mut models: HashMap<String, Arc<dyn qosc_resources::DemandModel>> = HashMap::new();
    models.insert(
        spec.name().to_string(),
        Arc::new(transcode_demand_model(&spec)),
    );
    let capacity = class.capacity();
    OfflineNode {
        id,
        capacity,
        link_kbps: capacity.get(ResourceKind::NetBandwidth),
        policy: SchedulingPolicy::Edf,
        models,
        reward: None,
        chain: ProviderStrategy::default(),
    }
}

fn main() {
    let spec = catalog::transcode_spec();
    println!("payload_mb | winner        | distance | comm_cost_s");
    println!("-----------|---------------|----------|------------");
    for mb in [0.5, 1.0, 2.0, 5.0, 10.0, 40.0] {
        let bytes = (mb * 1_000_000.0) as u64;
        let inst = Instance {
            requester: 0,
            nodes: vec![
                node(0, DeviceClass::Phone),  // the requester
                node(1, DeviceClass::Laptop), // a strong neighbour
            ],
            tasks: vec![OfflineTask::new(
                TaskId(0),
                spec.clone(),
                catalog::transcode_request(),
                bytes,
                bytes / 4,
            )
            .expect("catalog request matches catalog spec")],
            eval: EvalConfig::default(),
            chain: OrganizerStrategy::default(),
        };
        let a = protocol_emulation(&inst, &TieBreak::default());
        match a.placements.get(&TaskId(0)) {
            Some(p) => {
                let who = if p.node == 0 {
                    "local phone"
                } else {
                    "remote laptop"
                };
                println!(
                    "{mb:>10.1} | {who:<13} | {:>8.4} | {:>10.3}",
                    p.distance, p.comm_cost
                );
            }
            None => println!("{mb:>10.1} | unplaceable    |        - |          -"),
        }
    }
    println!(
        "\nthe laptop wins on quality whenever the phone must degrade; \
         quality dominates comm cost in the §4.2 tie-break, so the offload \
         persists even as shipping grows — exactly the paper's trade-off."
    );
}
