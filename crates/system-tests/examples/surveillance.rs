//! The paper's §3.1 running example, end to end.
//!
//! A remote-surveillance user prefers video over audio, frame rate over
//! colour depth, and accepts grey-scale low-rate video. We print the
//! request's expanded quality ladders, let a small heterogeneous cluster
//! negotiate, and show which quality the winning node actually offered —
//! including the eq. 2 evaluation that picked it.
//!
//! ```text
//! cargo run -p qosc-system-tests --example surveillance
//! ```

use std::sync::Arc;

use qosc_baselines::Evaluator;
use qosc_core::{
    single_organizer_scenario, NegoEvent, OrganizerConfig, ProviderConfig, ProviderEngine, Runtime,
};
use qosc_netsim::{Mobility, Point, SimConfig, SimDuration, SimTime, Simulator};
use qosc_resources::{av_demand_model, ResourceVector};
use qosc_spec::{catalog, ServiceDef, TaskDef};

fn main() {
    let spec = catalog::av_spec();
    let request = catalog::surveillance_request();
    let resolved = request.resolve(&spec).expect("catalog request resolves");

    println!("=== §3.1 service request (decreasing importance) ===");
    for (k, dim) in resolved.dimensions.iter().enumerate() {
        println!("{}. {}", k + 1, dim.name);
        for (i, attr) in dim.attributes.iter().enumerate() {
            let ladder: Vec<String> = attr.levels.iter().map(|v| v.to_string()).collect();
            println!(
                "   {}.{} {}: [{}]",
                k + 1,
                i + 1,
                attr.name,
                ladder.join(", ")
            );
        }
    }

    // Four nodes: requester phone + two PDAs + one laptop, all in range.
    let mut sim = Simulator::new(SimConfig::default());
    let cpus = [10.0, 24.0, 40.0, 300.0];
    for i in 0..4 {
        sim.add_node(Point::new(8.0 * i as f64, 0.0), Mobility::Static);
    }
    let providers = (0..4u32)
        .map(|i| {
            let mut p = ProviderEngine::new(
                i,
                ResourceVector::new(cpus[i as usize], 128.0, 2000.0, 20.0, 1500.0),
                ProviderConfig {
                    link_kbps: [0.0f64, 400.0, 800.0, 5000.0][i as usize].max(1.0),
                    ..Default::default()
                },
            );
            p.register_demand_model(spec.name(), Arc::new(av_demand_model(&spec)));
            p
        })
        .collect();

    let service = ServiceDef::new(
        "surveillance-feed",
        vec![TaskDef {
            name: "camera-decode".into(),
            spec: spec.clone(),
            request: request.clone(),
            input_bytes: 120_000,
            output_bytes: 12_000,
        }],
    );

    let mut rt = single_organizer_scenario(
        sim,
        OrganizerConfig::default(),
        providers,
        service,
        SimDuration::millis(1),
    );
    rt.run(SimTime(5_000_000));

    println!("\n=== negotiation outcome ===");
    let evaluator = Evaluator::default();
    for e in rt.events() {
        if let NegoEvent::Formed { metrics, .. } = &e.event {
            for (task, o) in &metrics.outcomes {
                println!(
                    "{task}: node {} wins at distance {:.4} (comm {:.3}s)",
                    o.node, o.distance, o.comm_cost
                );
            }
        }
    }
    // Show what each quality ladder level would have scored, for intuition.
    println!("\n=== eq. 2 distance per frame-rate level (others preferred) ===");
    for lvl in 0..resolved.dimensions[0].attributes[0].levels.len() {
        let d = evaluator
            .distance_of_levels(&spec, &resolved, &[lvl, 0, 0, 0])
            .expect("ladder levels are in-domain");
        println!(
            "frame_rate = {:>2} -> distance {:.4}",
            resolved.dimensions[0].attributes[0].levels[lvl], d
        );
    }
}
