//! Full DES scenario assembly.
//!
//! A [`Scenario`] wires a device population into a `qosc-netsim`
//! simulation: every node gets a [`ProviderEngine`] (capacity from its
//! hardware profile, link bandwidth from its radio class) and an
//! [`OrganizerEngine`] (any node may originate service requests), with all
//! application templates' demand models registered. Experiments then queue
//! services and run the simulator.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_core::{
    CoalitionNode, DesRuntime, DirectRuntime, Formulator, LoggedEvent, Msg, OrganizerConfig,
    OrganizerEngine, ProviderConfig, ProviderEngine, Runtime,
};
use qosc_netsim::{
    Area, Mobility, NetStats, PartitionPlan, RadioModel, SimConfig, SimDuration, SimTime, Simulator,
};
use qosc_resources::{DemandModel, NodeProfile, ResourceKind};
use qosc_spec::ServiceDef;

use crate::apps::AppTemplate;
use crate::population::PopulationConfig;

/// Execution backend a [`ScenarioConfig`] can be instantiated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic DES (`qosc-netsim`): geometry, latency, loss,
    /// mobility. The backend every experiment sweep uses.
    Des,
    /// The zero-latency in-memory runtime: no geometry (full
    /// connectivity), the fast path for tests and benches.
    Direct,
    /// [`Backend::Direct`] with same-instant CFP deliveries coalesced
    /// per provider into one batched pricing pass
    /// (`DirectRuntime::set_cfp_batching`) — the open-loop load-engine
    /// path, where many negotiations kick off in the same instant.
    DirectBatched,
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Simulation area.
    pub area: Area,
    /// Radio model.
    pub radio: RadioModel,
    /// Mobility applied to battery-powered nodes (`None` = everyone
    /// static); fixed servers never move.
    pub mobility: Option<Mobility>,
    /// Device mix.
    pub population: PopulationConfig,
    /// Organizer tunables (shared by all nodes).
    pub organizer: OrganizerConfig,
    /// Provider tunables (shared; per-node link bandwidth is derived from
    /// the hardware profile and overrides the template's value).
    pub provider: ProviderConfig,
    /// Link-level partition schedule, installed on whichever backend
    /// the scenario is built on. Empty by default.
    pub partitions: PartitionPlan,
    /// RNG seed (drives placement, population and the simulator).
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            nodes: 8,
            area: Area::new(120.0, 120.0),
            radio: RadioModel::default(),
            mobility: None,
            population: PopulationConfig::default(),
            organizer: OrganizerConfig::default(),
            provider: ProviderConfig::default(),
            partitions: PartitionPlan::none(),
            seed: 0,
        }
    }
}

impl ScenarioConfig {
    /// Dense-population preset: `nodes` devices packed into a 30 m square,
    /// comfortably inside the default radio range, so every node hears
    /// every CFP and every negotiation sees the full population's
    /// proposals. This is the preset the large F-series sweeps use to
    /// drive the batched evaluation path at 128–256 nodes; override any
    /// other field with struct-update syntax
    /// (`ScenarioConfig { population, ..ScenarioConfig::dense(256, seed) }`).
    pub fn dense(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            area: Area::new(30.0, 30.0),
            seed,
            ..Default::default()
        }
    }
}

impl ScenarioConfig {
    /// Builds each node's engines from its sampled hardware profile, in
    /// id order: a provider (capacity from the profile, payload bandwidth
    /// tied to the radio class, every application template's demand
    /// model registered) plus an organizer, since any node may originate
    /// service requests. The demand models and the formulation engine are
    /// built once here, so all nodes of a world share one allocation per
    /// template and price every announced bundle from one plan.
    fn coalition_nodes<'a>(
        &'a self,
        profiles: &'a [NodeProfile],
    ) -> impl Iterator<Item = CoalitionNode> + 'a {
        let models: Vec<(String, Arc<dyn DemandModel>)> = AppTemplate::ALL
            .iter()
            .map(|t| (t.spec().name().to_string(), t.demand_model()))
            .collect();
        let formulator = Formulator::new(Arc::clone(&self.provider.reward));
        profiles.iter().zip(0u32..).map(move |(profile, id)| {
            let link_kbps = profile.capacity.get(ResourceKind::NetBandwidth);
            let mut provider = ProviderEngine::new(
                id,
                profile.capacity,
                ProviderConfig {
                    link_kbps,
                    ..self.provider.clone()
                },
            )
            .with_formulator(formulator.clone());
            for (spec_name, model) in &models {
                provider.register_demand_model(spec_name.clone(), Arc::clone(model));
            }
            CoalitionNode::new(id)
                .with_provider(provider)
                .with_organizer(OrganizerEngine::new(id, self.organizer.clone()))
        })
    }

    /// The full population as backend-agnostic nodes, drawn with exactly
    /// the seed derivation [`Scenario::build`] uses — so every backend
    /// sees the same device mix.
    fn population_nodes(&self) -> Vec<CoalitionNode> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x5eed_cafe);
        let profiles = self.population.sample_many(self.nodes, &mut rng);
        self.coalition_nodes(&profiles).collect()
    }

    /// Instantiates the scenario description on any [`Runtime`] backend.
    /// The population draw is identical across backends (profiles are
    /// sampled before any backend-specific randomness); geometry and
    /// mobility only exist on the DES backend — the Direct ones are
    /// fully connected.
    pub fn build_backend(&self, backend: Backend) -> Box<dyn Runtime> {
        let mut rt: Box<dyn Runtime> = match backend {
            Backend::Des => return Box::new(Scenario::build(self).runtime),
            Backend::Direct => Box::new(DirectRuntime::new()),
            Backend::DirectBatched => {
                let mut direct = DirectRuntime::new();
                direct.set_cfp_batching(true);
                Box::new(direct)
            }
        };
        for node in self.population_nodes() {
            rt.add_node(node).expect("sequential ids are unique");
        }
        if !self.partitions.is_none() {
            let applied = rt.set_partition_plan(&self.partitions);
            debug_assert!(applied, "backend {backend:?} rejected the partition plan");
        }
        rt
    }
}

/// An assembled DES simulation ready to accept services.
///
/// `Scenario` keeps the concrete [`DesRuntime`] so DES-only controls
/// (failure injection, positions, network counters) stay reachable; use
/// [`ScenarioConfig::build_backend`] when any backend will do.
pub struct Scenario {
    /// The DES runtime hosting the engines.
    pub runtime: DesRuntime,
    /// Hardware profile per node (index = node id).
    pub profiles: Vec<NodeProfile>,
}

impl Scenario {
    /// Builds a scenario from the config.
    pub fn build(config: &ScenarioConfig) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5eed_cafe);
        let mut sim: Simulator<Msg> = Simulator::new(SimConfig {
            area: config.area,
            radio: config.radio.clone(),
            seed: config.seed,
            ..Default::default()
        });
        let profiles = config.population.sample_many(config.nodes, &mut rng);
        for profile in profiles.iter() {
            let mobility = match (&config.mobility, profile.class.battery_powered()) {
                (Some(m), true) => m.clone(),
                _ => Mobility::Static,
            };
            sim.add_node(config.area.sample(&mut rng), mobility);
        }
        let mut runtime = DesRuntime::new(sim);
        for node in config.coalition_nodes(&profiles) {
            runtime.add_node(node).expect("sequential ids are unique");
        }
        if !config.partitions.is_none() {
            runtime.set_partition_plan(&config.partitions);
        }
        Scenario { runtime, profiles }
    }

    /// Queues `service` at `node` and schedules its negotiation to start
    /// at `at` (absolute, must be ≥ current sim time).
    pub fn submit(&mut self, node: u32, service: ServiceDef, at: SimTime) {
        self.runtime
            .submit(node, service, at)
            .expect("node ids come from the population");
    }

    /// Convenience: run to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.runtime.run(deadline)
    }

    /// Everything the engines reported, in emission order.
    pub fn events(&self) -> &[LoggedEvent] {
        self.runtime.events()
    }

    /// The provider engine of `node`, if registered.
    pub fn provider(&self, node: u32) -> Option<&ProviderEngine> {
        self.runtime.node(node).and_then(CoalitionNode::provider)
    }

    /// Network counters accumulated so far.
    pub fn net_stats(&self) -> &NetStats {
        self.runtime.net_stats()
    }

    /// The underlying simulator (positions, failure injection).
    pub fn sim(&self) -> &Simulator<Msg> {
        self.runtime.sim()
    }

    /// Mutable simulator access (e.g. `schedule_down`).
    pub fn sim_mut(&mut self) -> &mut Simulator<Msg> {
        self.runtime.sim_mut()
    }

    /// Total CPU capacity across the population.
    pub fn aggregate_cpu(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.capacity.get(ResourceKind::Cpu))
            .sum()
    }
}

/// Convenience mobility constructor: pedestrian random waypoint.
pub fn pedestrian(speed_ms: f64) -> Mobility {
    Mobility::RandomWaypoint {
        min_speed: (speed_ms * 0.5).max(0.1),
        max_speed: speed_ms.max(0.1),
        pause: SimDuration::secs(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_core::NegoEvent;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dense_static_scenario_forms_coalitions() {
        let config = ScenarioConfig {
            nodes: 6,
            area: Area::new(60.0, 60.0), // everyone within the 50 m range
            seed: 7,
            ..Default::default()
        };
        let mut scenario = Scenario::build(&config);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let svc = AppTemplate::Surveillance.service("svc", 2, &mut rng);
        scenario.submit(0, svc, SimTime(1_000));
        scenario.run_until(SimTime(5_000_000));
        assert!(scenario.events().iter().any(|e| matches!(
            e.event,
            NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
        )));
    }

    #[test]
    fn partition_plan_cuts_links_and_heals() {
        let split = |partitions: PartitionPlan| {
            let config = ScenarioConfig {
                nodes: 6,
                area: Area::new(60.0, 60.0),
                seed: 7,
                partitions,
                ..Default::default()
            };
            let mut scenario = Scenario::build(&config);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let svc = AppTemplate::Surveillance.service("svc", 2, &mut rng);
            scenario.submit(0, svc, SimTime(1_000));
            scenario.run_until(SimTime(5_000_000));
            (
                scenario.net_stats().partition_cuts,
                scenario.events().iter().any(|e| {
                    matches!(
                        e.event,
                        NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
                    )
                }),
            )
        };
        // A cut through the formation window drops deliveries; after the
        // heal the round still concludes, one way or the other.
        let plan = PartitionPlan::none()
            .partition_at(SimTime(2_000), vec![vec![0, 1, 2], vec![3, 4, 5]])
            .heal_at(SimTime(300_000));
        let (cuts, settled) = split(plan);
        assert!(cuts > 0, "the mid-CFP cut must block deliveries");
        assert!(settled, "the negotiation must conclude after the heal");
        // An empty plan leaves the run untouched.
        let (cuts, settled) = split(PartitionPlan::none());
        assert_eq!(cuts, 0);
        assert!(settled);
    }

    #[test]
    fn profiles_align_with_node_ids() {
        let config = ScenarioConfig {
            nodes: 5,
            seed: 3,
            ..Default::default()
        };
        let scenario = Scenario::build(&config);
        assert_eq!(scenario.profiles.len(), 5);
        assert_eq!(scenario.sim().node_count(), 5);
        assert!(scenario.aggregate_cpu() > 0.0);
    }

    #[test]
    fn scenarios_are_seed_deterministic() {
        let run = |seed: u64| {
            let config = ScenarioConfig {
                nodes: 8,
                seed,
                mobility: Some(pedestrian(2.0)),
                ..Default::default()
            };
            let mut scenario = Scenario::build(&config);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let svc = AppTemplate::VideoConference.service("svc", 3, &mut rng);
            scenario.submit(0, svc, SimTime(1_000));
            scenario.run_until(SimTime(10_000_000));
            (
                format!("{:?}", scenario.events()),
                scenario.net_stats().messages_sent(),
            )
        };
        assert_eq!(run(11), run(11));
        // And different seeds genuinely vary the world: the full event
        // log (timings, winners, metrics) can't coincide across seeds.
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn mobile_nodes_move_static_servers_do_not() {
        let config = ScenarioConfig {
            nodes: 20,
            seed: 5,
            mobility: Some(pedestrian(10.0)),
            population: PopulationConfig {
                class_weights: [0.5, 0.0, 0.0, 0.5],
                jitter: 0.0,
            },
            ..Default::default()
        };
        let mut scenario = Scenario::build(&config);
        let before: Vec<_> = (0..20)
            .map(|i| scenario.sim().position(qosc_netsim::NodeId(i)).unwrap())
            .collect();
        scenario.run_until(SimTime(30_000_000));
        for (i, profile) in scenario.profiles.iter().enumerate() {
            let after = scenario
                .sim()
                .position(qosc_netsim::NodeId(i as u32))
                .unwrap();
            let moved = before[i].distance(&after) > 1.0;
            if profile.class.battery_powered() {
                // Pedestrian nodes almost surely moved within 30 s.
                assert!(moved, "node {i} ({:?}) should move", profile.class);
            } else {
                assert!(!moved, "fixed server {i} must not move");
            }
        }
    }
}
