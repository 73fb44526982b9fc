//! Property-based equivalence of the heap-driven formulation engine and
//! the reference scan ([`qosc_baselines::formulate_reference`]): across
//! random specs, ladders, dependencies, demand models, reward models and
//! capacities — and the catalog's video-conference bundle — the two must
//! produce identical levels, demands, rewards and degradation counts,
//! and prefix-feasibility shedding must match the old
//! shed-one-task-and-reformulate loop. Pricing from a shared
//! [`qosc_core::BundlePlan`] (recorded trajectories, floor refusals) must
//! in turn equal the cold [`Formulator`] path on every input, monotone or
//! not, NaN included.

use proptest::prelude::*;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use std::sync::Arc;

use qosc_baselines::formulate_reference;
use qosc_core::{
    BundlePlan, FormulationError, Formulator, LinearPenalty, PreparedTask, QuadraticPenalty,
    RewardModel,
};
use qosc_resources::{
    av_demand_model, AdmissionControl, DemandModel, DemandTerm, Feature, LinearDemandModel,
    ResourceKind, ResourceVector, SchedulingPolicy,
};
use qosc_spec::{
    catalog, Attribute, Dependency, DependencyKind, Dimension, Domain, LevelSpec, QosSpec,
    QualityVector, ResolvedRequest, ServiceRequest, Value,
};

const VAL_MAX: i64 = 40;

/// One random world: a spec (with occasional dependencies), a demand
/// model over it and a bundle of requests, as announced (`sources`) and
/// resolved against the spec (`requests`).
struct World {
    spec: QosSpec,
    model: Arc<dyn DemandModel>,
    sources: Vec<ServiceRequest>,
    requests: Vec<ResolvedRequest>,
}

/// Builds a random spec over integer domains, a non-negative linear
/// demand model, and `tasks` random requests. With `monotone` the
/// ladders are sorted best-value-first, which (with non-negative
/// coefficients) makes demand non-increasing along degradation — the
/// documented contract the §5 heuristic and the shedding pre-check rely
/// on. Without it, ladders are shuffled freely (fine for pinning the
/// heap against the scan, which must agree on *any* input).
fn random_world(seed: u64, tasks: usize, monotone: bool) -> World {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    let dims = rng.gen_range(1usize..=2);
    let mut builder = QosSpec::builder(format!("spec-{seed}"));
    let mut names: Vec<(String, Vec<String>)> = Vec::new();
    for d in 0..dims {
        let attrs = rng.gen_range(1usize..=3);
        let attr_names: Vec<String> = (0..attrs).map(|a| format!("a{d}_{a}")).collect();
        builder = builder.dimension(Dimension::new(
            format!("d{d}"),
            attr_names
                .iter()
                .map(|n| {
                    Attribute::new(
                        n.clone(),
                        Domain::ContinuousInt {
                            min: 0,
                            max: VAL_MAX,
                        },
                    )
                })
                .collect(),
        ));
        names.push((format!("d{d}"), attr_names));
    }
    // Occasionally couple two attributes so the dependency paths (both
    // the mid-trajectory checks and the deps-fail-at-full-degradation
    // shedding fallback) are exercised.
    let all_paths: Vec<(usize, usize)> = names
        .iter()
        .enumerate()
        .flat_map(|(d, (_, attrs))| (0..attrs.len()).map(move |a| (d, a)))
        .collect();
    if all_paths.len() >= 2 && rng.gen_bool(0.5) {
        let mut pick = all_paths.clone();
        pick.shuffle(rng);
        let a = qosc_spec::AttrPath::new(pick[0].0, pick[0].1);
        let b = qosc_spec::AttrPath::new(pick[1].0, pick[1].1);
        let kind = if rng.gen_bool(0.5) {
            DependencyKind::LinearBudget {
                terms: vec![(a, 1.0), (b, 1.0)],
                max: rng.gen_range(0..=2 * VAL_MAX) as f64,
            }
        } else {
            let set = |rng: &mut ChaCha8Rng| -> Vec<Value> {
                let lo = rng.gen_range(0..=VAL_MAX);
                let hi = rng.gen_range(lo..=VAL_MAX);
                (lo..=hi).map(Value::Int).collect()
            };
            DependencyKind::Implication {
                a,
                when_in: set(rng),
                b,
                require_in: set(rng),
            }
        };
        builder = builder.dependency(Dependency::new("dep", kind));
    }
    let spec = builder.build().expect("random spec is structurally valid");

    // Demand: non-negative base + one non-negative numeric term per
    // attribute (some zero-coefficient so unconstrained attrs occur).
    let terms: Vec<DemandTerm> = spec
        .paths()
        .map(|path| DemandTerm {
            path,
            feature: Feature::Numeric,
            kind: if rng.gen_bool(0.8) {
                ResourceKind::Cpu
            } else {
                ResourceKind::Memory
            },
            coeff: rng.gen_range(0..=20) as f64 / 10.0,
        })
        .collect();
    let base = ResourceVector::new(rng.gen_range(0..=20) as f64 / 10.0, 1.0, 1.0, 0.1, 1.0);
    let model: Arc<dyn DemandModel> = Arc::new(LinearDemandModel::new(base, terms));

    let sources: Vec<ServiceRequest> = (0..tasks)
        .map(|t| {
            let mut dims = names.clone();
            dims.shuffle(rng);
            let keep = rng.gen_range(1usize..=dims.len());
            let mut req = ServiceRequest::builder(format!("req-{seed}-{t}"));
            for (dname, mut attrs) in dims.into_iter().take(keep) {
                attrs.shuffle(rng);
                let keep_attrs = rng.gen_range(1usize..=attrs.len());
                req = req.dimension(dname);
                for aname in attrs.into_iter().take(keep_attrs) {
                    let mut ladder: Vec<i64> = (0..rng.gen_range(1usize..=6))
                        .map(|_| rng.gen_range(0..=VAL_MAX))
                        .collect();
                    ladder.dedup();
                    if monotone {
                        ladder.sort_unstable_by(|x, y| y.cmp(x));
                        ladder.dedup();
                    }
                    req = req.attribute(
                        aname,
                        ladder
                            .into_iter()
                            .map(|v| LevelSpec::value(Value::Int(v)))
                            .collect(),
                    );
                }
            }
            req.build()
        })
        .collect();
    let requests = sources
        .iter()
        .map(|r| {
            r.resolve(&spec)
                .expect("ladder values are drawn from the domains")
        })
        .collect();
    World {
        spec,
        model,
        sources,
        requests,
    }
}

/// `tasks` copies of the catalog's video-conference request over the AV
/// spec and its demand model (monotone: every ladder runs best-first).
fn catalog_world(tasks: usize) -> World {
    let spec = catalog::av_spec();
    let sources = vec![catalog::video_conference_request(); tasks];
    let requests = sources
        .iter()
        .map(|r| r.resolve(&spec).expect("catalog request resolves"))
        .collect();
    World {
        model: Arc::new(av_demand_model(&spec)),
        spec,
        sources,
        requests,
    }
}

/// The catalog world when `catalog` is 0, else a random one.
fn world_of(catalog: u8, seed: u64, tasks: usize, monotone: bool) -> World {
    if catalog == 0 {
        catalog_world(tasks)
    } else {
        random_world(seed, tasks, monotone)
    }
}

/// A reward model that reports NaN penalties for one attribute — the
/// regression case for the old `decrease < d - 1e-15` comparison, which
/// silently skipped or retained candidates under NaN.
struct NanReward;

impl RewardModel for NanReward {
    fn penalty(
        &self,
        _dim_rank: usize,
        _dim_count: usize,
        attr_rank: usize,
        _attr_count: usize,
        level: usize,
        ladder_len: usize,
    ) -> f64 {
        if attr_rank == 0 && level > 0 {
            f64::NAN
        } else if ladder_len <= 1 {
            0.0
        } else {
            level as f64 / (ladder_len - 1) as f64
        }
    }
}

/// The shipped penalties, and one that emits NaN, by index.
fn reward_model(index: u8) -> Box<dyn RewardModel> {
    match index {
        0 => Box::new(LinearPenalty::default()),
        1 => Box::new(QuadraticPenalty::default()),
        _ => Box::new(NanReward),
    }
}

fn admission(cpu: f64) -> AdmissionControl {
    AdmissionControl::new(
        SchedulingPolicy::Edf,
        ResourceVector::new(cpu, 10_000.0, 10_000.0, 600.0, 10_000.0),
    )
}

/// The world's bundle as the reference prices it.
fn inputs_of(world: &World) -> Vec<(&QosSpec, &ResolvedRequest, &dyn DemandModel)> {
    world
        .requests
        .iter()
        .map(|request| (&world.spec, request, world.model.as_ref()))
        .collect()
}

/// The world's bundle compiled under `reward`.
fn prepared_of(world: &World, reward: &dyn RewardModel) -> Vec<PreparedTask> {
    world
        .requests
        .iter()
        .map(|request| {
            PreparedTask::compile(
                world.spec.clone(),
                Arc::new(request.clone()),
                reward,
                Arc::clone(&world.model),
            )
        })
        .collect()
}

/// A formulation engine under the default reward model. Pricing prepared
/// tasks reads their own compiled penalties, so this one engine serves
/// tasks compiled under any model.
fn engine() -> Formulator {
    Formulator::new(Arc::new(LinearPenalty::default()))
}

fn refs_of(tasks: &[Arc<PreparedTask>]) -> Vec<&PreparedTask> {
    tasks.iter().map(Arc::as_ref).collect()
}

/// A demand model that reports a NaN CPU demand at some quality levels
/// (a pure function of the inner model's answer), so recorded
/// trajectories carry NaN totals from some step on.
struct NanDemand(Arc<dyn DemandModel>);

impl DemandModel for NanDemand {
    fn demand(&self, spec: &QosSpec, qv: &QualityVector) -> ResourceVector {
        let mut d = self.0.demand(spec, qv);
        if (d.get(ResourceKind::Cpu) * 10.0).round() as i64 % 3 == 0 {
            d[ResourceKind::Cpu] = f64::NAN;
        }
        d
    }
}

/// [`random_world`], with its demand model wrapped in [`NanDemand`] when
/// `nan` is set.
fn plan_world(seed: u64, tasks: usize, monotone: bool, nan: bool) -> World {
    let mut world = random_world(seed, tasks, monotone);
    if nan {
        world.model = Arc::new(NanDemand(world.model));
    }
    world
}

/// The plan of the first `len` announcements of `world`, from
/// `formulator`'s book. Every source of a random world resolves, so the
/// plan's tasks are the announcements, one for one.
fn plan_of(formulator: &Formulator, world: &World, len: usize) -> Arc<BundlePlan> {
    let plan = formulator
        .plan_for(
            world.sources[..len].iter().map(|r| (&world.spec, r)),
            |_| Some(&world.model),
        )
        .expect("random sources resolve");
    assert_eq!(plan.tasks().len(), len);
    plan
}

/// An outcome by its `Debug` rendering: floats print their shortest
/// round-trip form, so equal renderings are equal bits — and, unlike
/// `==`, a NaN demand an accepted configuration may carry equals itself.
fn bits(outcome: &impl std::fmt::Debug) -> String {
    format!("{outcome:?}")
}

/// `cpus` as admission controls, plus the corners: no CPU at all, a NaN
/// CPU capacity, the all-zero capacity vector and a rich node.
fn capacities(cpus: Vec<f64>) -> Vec<AdmissionControl> {
    let mut out: Vec<AdmissionControl> = cpus
        .into_iter()
        .chain([0.0, f64::NAN, 1e6])
        .map(admission)
        .collect();
    out.push(AdmissionControl::new(
        SchedulingPolicy::Edf,
        ResourceVector::ZERO,
    ));
    out
}

proptest! {
    // Default config: 64 cases locally, PROPTEST_CASES=256 in CI.
    #![proptest_config(ProptestConfig::default())]

    /// The heap-driven engine reproduces the reference scan bit-for-bit:
    /// identical levels, demands, reward and degradation count (or the
    /// identical `Infeasible`), on arbitrary (even non-monotone) inputs
    /// and the catalog bundle, under both shipped penalties and one that
    /// emits NaN (`total_cmp` sorts the NaN steps after every finite
    /// decrease, so both take them last; a NaN reward compares by bits).
    #[test]
    fn heap_engine_matches_reference_scan(
        seed in 0u64..(1 << 48), tasks in 1usize..=4, cpu in 0.0f64..60.0,
        catalog in 0u8..4, reward in 0u8..3,
    ) {
        let world = world_of(catalog, seed, tasks, false);
        let reward = reward_model(reward);
        let inputs = inputs_of(&world);
        let prepared = prepared_of(&world, reward.as_ref());
        let refs: Vec<&PreparedTask> = prepared.iter().collect();
        let mut cold = engine();
        for adm in capacities(vec![cpu]) {
            let reference = formulate_reference(&inputs, &adm, reward.as_ref());
            prop_assert_eq!(bits(&cold.formulate(&refs, &adm)), bits(&reference));
            if let Ok(out) = reference {
                prop_assert!(adm.schedulable(&out.demands));
            }
        }
    }

    /// Prefix-feasibility shedding returns exactly what the old
    /// "formulate, drop the tail task on Infeasible, retry" loop did:
    /// same surviving prefix length, same formulation — on monotone
    /// bundles (the demand-model contract), including ones whose
    /// dependencies fail only at full degradation, and the catalog bundle.
    #[test]
    fn prefix_shedding_matches_iterative_loop(
        seed in 0u64..(1 << 48), tasks in 1usize..=5, cpu in 0.0f64..40.0, catalog in 0u8..4,
    ) {
        let world = world_of(catalog, seed, tasks, true);
        let inputs = inputs_of(&world);
        let prepared = prepared_of(&world, &LinearPenalty::default());
        let refs: Vec<&PreparedTask> = prepared.iter().collect();
        let mut cold = engine();
        for adm in capacities(vec![cpu]) {
            let mut count = inputs.len();
            let old = loop {
                if count == 0 {
                    break None;
                }
                match formulate_reference(&inputs[..count], &adm, &LinearPenalty::default()) {
                    Ok(f) => break Some((count, f)),
                    Err(FormulationError::Infeasible) => count -= 1,
                }
            };
            prop_assert_eq!(cold.formulate_shedding(&refs, &adm), old);
        }
    }

    /// Pricing a prefix from its plan is bit-identical to the cold
    /// prepared path: the complete trajectory is recorded once and every
    /// capacity — starved to rich, NaN, all-zero — is answered from it by
    /// the floor test or the walk, for every prefix of the bundle, on
    /// monotone and non-monotone worlds and under a demand model that
    /// emits NaN (the debug build re-checks each floor refusal against
    /// the walk).
    #[test]
    fn warm_start_matches_cold_path(
        seed in 0u64..(1 << 48), tasks in 1usize..=5, monotone in 0u8..2, nan in 0u8..4,
        cpus in proptest::collection::vec(0.0f64..60.0, 1..6),
    ) {
        let world = plan_world(seed, tasks, monotone == 1, nan == 0);
        let mut formulator = engine();
        let plan = plan_of(&formulator, &world, tasks);
        let refs = refs_of(plan.tasks());
        for adm in capacities(cpus) {
            for c in 0..=tasks {
                let cold = formulator.formulate(&refs[..c], &adm);
                prop_assert_eq!(bits(&plan.formulate_prefix(c, &adm)), bits(&cold), "prefix {}", c);
            }
        }
        prop_assert_eq!(formulator.cached(), 1);
    }

    /// Shedding from a plan returns exactly what the cold
    /// [`Formulator::formulate_shedding`] does — same surviving prefix, same
    /// formulation — when several bundles, prefixes of them and
    /// capacities interleave through one book shared by two engines:
    /// a plan is keyed by what is priced, never by who asks or in which
    /// order, and both engines are served the same instance. The shed
    /// structure is the same code over an equal `formulate_prefix`, so
    /// this holds without the monotone contract too.
    #[test]
    fn warm_shedding_matches_cold_shedding(
        seed in 0u64..(1 << 48), monotone in 0u8..2, nan in 0u8..4,
        sizes in proptest::collection::vec(1usize..=5, 1..=3),
        calls in proptest::collection::vec((0usize..3, 1usize..=5, 0.0f64..40.0), 1..12),
    ) {
        let worlds: Vec<World> = sizes
            .iter()
            .enumerate()
            .map(|(w, &tasks)| plan_world(seed.wrapping_add(w as u64), tasks, monotone == 1, w == 0 && nan == 0))
            .collect();
        let mut formulator = engine();
        let other = formulator.clone();
        for (w, len, cpu) in calls {
            let world = &worlds[w % worlds.len()];
            let len = len.min(world.sources.len());
            let plan = plan_of(&formulator, world, len);
            prop_assert!(Arc::ptr_eq(&plan, &plan_of(&other, world, len)), "one plan per bundle");
            let refs = refs_of(plan.tasks());
            for adm in capacities(vec![cpu]) {
                let cold = formulator.formulate_shedding(&refs, &adm);
                prop_assert_eq!(bits(&plan.formulate_shedding(&adm)), bits(&cold));
            }
        }
    }

    /// The compile cache is keyed by what a handle *says*, not where it
    /// lives: a second allocation of equal content is `==`, hashes equal
    /// and is served the first one's compilation, while equal names over
    /// different content miss and compile afresh.
    #[test]
    fn equal_content_shares_a_compilation(seed in 0u64..(1 << 48), tasks in 1usize..=3) {
        let (a, b) = (random_world(seed, tasks, true), random_world(seed, tasks, true));
        prop_assert!(!std::ptr::eq(a.spec.name(), b.spec.name()), "two allocations");
        prop_assert_eq!(&a.spec, &b.spec);
        prop_assert_eq!(a.spec.content_hash(), b.spec.content_hash());
        let mut formulator = engine();
        for (ra, rb) in a.sources.iter().zip(&b.sources) {
            prop_assert_eq!(ra, rb);
            prop_assert_eq!(ra.content_hash(), rb.content_hash());
            let first = formulator.prepare(&a.spec, ra, &a.model).expect("resolves");
            let again = formulator.prepare(&b.spec, rb, &a.model).expect("resolves");
            prop_assert!(Arc::ptr_eq(&first, &again), "equal content must hit");
            // Same request name, one more (least-preferred) level.
            let attr = &ra.dimensions()[0].attributes[0];
            let mut levels = attr.levels.clone();
            levels.push(LevelSpec::value(Value::Int(VAL_MAX + 1)));
            let other = ServiceRequest::builder(ra.name())
                .dimension(ra.dimensions()[0].dimension.clone())
                .attribute(attr.attribute.clone(), levels)
                .build();
            prop_assert_ne!(&other, ra);
            let miss = formulator.prepare(&a.spec, &other, &a.model);
            prop_assert!(miss.is_none_or(|m| !Arc::ptr_eq(&m, &first)), "changed content must miss");
        }
        prop_assert_eq!(formulator.cached(), {
            let mut distinct: Vec<u64> = a.sources.iter().map(|r| r.content_hash()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        });
    }
}

/// The book is bounded by [`Formulator::WARM_CAP`] alone: nothing forgets
/// a bundle when its negotiation ends, so the cap must hold over any
/// number of distinct bundles (10⁴ here) — and pricing stays exact across
/// the clears it triggers.
#[test]
fn warm_table_stays_within_its_cap() {
    let world = random_world(11, 1, true);
    let dim = &world.sources[0].dimensions()[0];
    let requests: Vec<ServiceRequest> = (0..100)
        .map(|i| {
            let mut b =
                ServiceRequest::builder(format!("req-{i}")).dimension(dim.dimension.clone());
            for a in &dim.attributes {
                b = b.attribute(a.attribute.clone(), a.levels.clone());
            }
            b.build()
        })
        .collect();
    let adm = admission(1_000.0);
    let mut formulator = engine();
    for a in &requests {
        for b in &requests {
            let plan = formulator
                .plan_for([a, b].into_iter().map(|r| (&world.spec, r)), |_| {
                    Some(&world.model)
                })
                .expect("both resolve");
            let refs = refs_of(plan.tasks());
            assert_eq!(
                plan.formulate_prefix(1, &adm),
                formulator.formulate(&refs[..1], &adm)
            );
            plan.formulate_prefix(2, &adm).expect("two tasks fit");
            assert!(formulator.cached() <= Formulator::WARM_CAP);
        }
    }
    assert!(formulator.cached() > 0);
}
