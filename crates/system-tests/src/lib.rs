//! Shared scenario builders for the cross-crate integration tests and
//! examples.
//!
//! Every integration test in `tests/` assembles the same three
//! ingredients: AV-capable [`ProviderEngine`]s, a multi-task
//! [`ServiceDef`] over the paper's surveillance request, and a runtime
//! backend to execute them on. The builders here keep those assemblies in
//! one place so the tests state only what they vary (capacities, byte
//! sizes, mobility, seeds, backend).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use qosc_core::{
    single_organizer_scenario, CoalitionNode, DesRuntime, Msg, OrganizerConfig, OrganizerEngine,
    ProviderConfig, ProviderEngine,
};
use qosc_netsim::{Area, Mobility, Point, SimConfig, SimDuration, Simulator};
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, ServiceDef, TaskDef};
use qosc_workloads::{PopulationConfig, Scenario, ScenarioConfig};

/// Builds an AV-capable provider with the standard ancillary resources
/// (512 MB memory, 10 GB storage, 60% battery, 10 Mbit/s) and the given
/// CPU capacity and engine configuration.
pub fn av_provider_with(id: u32, cpu: f64, config: ProviderConfig) -> ProviderEngine {
    let spec = catalog::av_spec();
    let mut p = ProviderEngine::new(
        id,
        ResourceVector::new(cpu, 512.0, 10_000.0, 60.0, 10_000.0),
        config,
    );
    p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
    p
}

/// A provider whose heartbeat is pushed out of any reasonable test
/// window (1 h), for tests that do exact message accounting.
pub fn quiet_provider(id: u32, cpu: f64) -> ProviderEngine {
    av_provider_with(
        id,
        cpu,
        ProviderConfig {
            heartbeat_interval: SimDuration::secs(3600),
            ..Default::default()
        },
    )
}

/// A `tasks`-task service over the §3.1 surveillance request with
/// explicit per-task transfer sizes.
pub fn surveillance_service_sized(
    name: &str,
    tasks: usize,
    input_bytes: u64,
    output_bytes: u64,
) -> ServiceDef {
    ServiceDef::new(
        name,
        (0..tasks)
            .map(|i| TaskDef {
                name: format!("t{i}"),
                spec: catalog::av_spec(),
                request: catalog::surveillance_request(),
                input_bytes,
                output_bytes,
            })
            .collect(),
    )
}

/// A simulator whose `n` static nodes sit on a 3 m-spaced line inside a
/// 40 m square — everyone in radio range of everyone.
pub fn dense_sim(n: usize) -> Simulator<Msg> {
    let mut sim = Simulator::new(SimConfig {
        area: Area::new(40.0, 40.0),
        seed: 99,
        ..Default::default()
    });
    for i in 0..n {
        sim.add_node(Point::new(3.0 * i as f64, 0.0), Mobility::Static);
    }
    sim
}

/// A dense workload [`Scenario`]: `nodes` devices from the default
/// population packed into a 50 m square, fully connected.
pub fn dense_scenario(seed: u64, nodes: usize) -> Scenario {
    Scenario::build(&ScenarioConfig {
        nodes,
        area: Area::new(50.0, 50.0),
        population: PopulationConfig::default(),
        seed,
        ..Default::default()
    })
}

/// The `qosc_core` lib.rs quickstart, as a function: three static nodes,
/// heterogeneous CPUs (100/250/400), one single-task demo service
/// kicked off after 1 ms, on the DES backend. Run it with
/// `rt.run(..)` and a coalition forms.
pub fn quickstart_scenario() -> DesRuntime {
    let mut sim = Simulator::new(SimConfig::default());
    for i in 0..3 {
        sim.add_node(Point::new(10.0 * i as f64, 0.0), Mobility::Static);
    }
    let providers = (0..3u32)
        .map(|i| av_provider_with(i, 100.0 + 150.0 * i as f64, ProviderConfig::default()))
        .collect();
    single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        quickstart_service(),
        SimDuration::millis(1),
    )
}

/// The quickstart's one-task demo service.
pub fn quickstart_service() -> ServiceDef {
    let spec = catalog::av_spec();
    ServiceDef::new(
        "demo",
        vec![TaskDef {
            name: "camera".into(),
            spec: spec.clone(),
            request: catalog::surveillance_request(),
            input_bytes: 50_000,
            output_bytes: 5_000,
        }],
    )
}

/// The quickstart's node set as a backend-agnostic description: three
/// AV-capable providers with CPUs 100/250/400, node 0 organizing.
pub fn quickstart_nodes() -> Vec<CoalitionNode> {
    (0..3u32)
        .map(|i| {
            let spec = catalog::av_spec();
            let mut p = ProviderEngine::new(
                i,
                ResourceVector::new(100.0 + 150.0 * i as f64, 256.0, 5000.0, 40.0, 4000.0),
                ProviderConfig::default(),
            );
            p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
            let node = CoalitionNode::new(i).with_provider(p);
            if i == 0 {
                node.with_organizer(OrganizerEngine::new(i, OrganizerConfig::default()))
            } else {
                node
            }
        })
        .collect()
}
