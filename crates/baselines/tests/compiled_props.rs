//! Property-based equivalence of the compiled batch evaluator and the
//! reference [`Evaluator`]: across random specs, requests and proposals —
//! including single-level ladders, zero-span continuous domains, both
//! [`DifMode`]s and the catalog's surveillance request — the two
//! implementations must agree within 1e-12, and both must refuse a level
//! vector of the wrong length.

use proptest::prelude::*;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qosc_baselines::Evaluator;
use qosc_core::{CompiledRequest, DifMode, EvalConfig, WeightScheme};
use qosc_spec::{
    catalog, Attribute, Dimension, Domain, LevelSpec, QosSpec, ResolvedRequest, ServiceRequest,
    Value,
};

/// Draws one random domain: discrete int/float/str (length 1–5, so
/// single-level ladders occur) or continuous int/float (possibly with a
/// zero-width interval).
fn random_domain(rng: &mut ChaCha8Rng) -> Domain {
    match rng.gen_range(0u8..5) {
        0 => {
            let len = rng.gen_range(1usize..=5);
            let mut pool: Vec<i64> = (-4..=12).collect();
            pool.shuffle(rng);
            pool.truncate(len);
            Domain::DiscreteInt(pool)
        }
        1 => {
            let len = rng.gen_range(1usize..=4);
            let mut pool: Vec<f64> = (0..10).map(|i| i as f64 * 0.75 - 2.0).collect();
            pool.shuffle(rng);
            pool.truncate(len);
            Domain::discrete_float(pool)
        }
        2 => {
            let len = rng.gen_range(1usize..=4);
            let mut pool = vec!["h264", "mpeg2", "mjpeg", "av1", "raw"];
            pool.shuffle(rng);
            pool.truncate(len);
            Domain::discrete_str(pool)
        }
        3 => {
            let min = rng.gen_range(-5i64..=5);
            // Width 0 sometimes: the zero-span guard must kick in.
            let max = min + rng.gen_range(0i64..=20);
            Domain::ContinuousInt { min, max }
        }
        _ => {
            let min = rng.gen_range(-2.0f64..2.0);
            // Width 0.0 sometimes (zero-span continuous float).
            let max = min + f64::from(rng.gen_range(0u8..=4)) * 0.5;
            Domain::ContinuousFloat { min, max }
        }
    }
}

/// Random in-domain values (candidate ladder levels / proposal values).
fn random_values(domain: &Domain, n: usize, rng: &mut ChaCha8Rng) -> Vec<Value> {
    (0..n)
        .map(|_| match domain {
            Domain::DiscreteInt(v) => Value::Int(v[rng.gen_range(0..v.len())]),
            Domain::DiscreteFloat(v) => Value::Float(v[rng.gen_range(0..v.len())]),
            Domain::DiscreteStr(v) => Value::str(v[rng.gen_range(0..v.len())].clone()),
            Domain::ContinuousInt { min, max } => Value::Int(rng.gen_range(*min..=*max)),
            Domain::ContinuousFloat { min, max } => {
                // Clamp so fp interpolation can never escape the interval.
                let t: f64 = rng.gen_range(0.0..=1.0);
                Value::float((min + (max - min) * t).clamp(*min, *max))
            }
        })
        .collect()
}

/// Builds a random spec + resolved request over it. The request covers a
/// random non-empty subset of dimensions/attributes in random preference
/// order, with random acceptance ladders (drawn with repetition —
/// `resolve()` drops duplicate levels, keeping the first rank).
fn random_instance(seed: u64) -> (QosSpec, ResolvedRequest) {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    let dims = rng.gen_range(1usize..=3);
    let mut builder = QosSpec::builder(format!("spec-{seed}"));
    let mut names: Vec<(String, Vec<(String, Domain)>)> = Vec::new();
    for d in 0..dims {
        let attrs = rng.gen_range(1usize..=3);
        let mut attr_list = Vec::new();
        for a in 0..attrs {
            attr_list.push((format!("a{d}_{a}"), random_domain(rng)));
        }
        builder = builder.dimension(Dimension::new(
            format!("d{d}"),
            attr_list
                .iter()
                .map(|(n, dom)| Attribute::new(n.clone(), dom.clone()))
                .collect(),
        ));
        names.push((format!("d{d}"), attr_list));
    }
    let spec = builder.build().expect("random spec is structurally valid");

    // Request over a random subset, in random order.
    names.shuffle(rng);
    let keep_dims = rng.gen_range(1usize..=names.len());
    let mut req = ServiceRequest::builder(format!("req-{seed}"));
    for (dname, mut attrs) in names.into_iter().take(keep_dims) {
        attrs.shuffle(rng);
        let keep_attrs = rng.gen_range(1usize..=attrs.len());
        req = req.dimension(dname);
        for (aname, domain) in attrs.into_iter().take(keep_attrs) {
            let ladder = random_values(&domain, rng.gen_range(1usize..=4), rng);
            req = req.attribute(aname, ladder.into_iter().map(LevelSpec::Value).collect());
        }
    }
    let request = req
        .build()
        .resolve(&spec)
        .expect("ladder values are drawn from the domains");
    (spec, request)
}

/// One random proposal in `iter_attrs` order: mostly ladder values
/// (admissible), sometimes arbitrary domain values (often inadmissible).
fn random_proposal(spec: &QosSpec, request: &ResolvedRequest, rng: &mut ChaCha8Rng) -> Vec<Value> {
    request
        .iter_attrs()
        .map(|(_, pref)| {
            if rng.gen_bool(0.7) {
                pref.levels[rng.gen_range(0..pref.levels.len())].clone()
            } else {
                let domain = &spec
                    .attribute_at(pref.path)
                    .expect("request paths resolve against their spec")
                    .domain;
                random_values(domain, 1, rng)
                    .pop()
                    .expect("one value requested")
            }
        })
        .collect()
}

/// The catalog's surveillance request, offered its preferred values,
/// degraded ladder values, and values outside its ladders.
fn catalog_instance() -> (QosSpec, ResolvedRequest, Vec<Vec<Value>>) {
    let spec = catalog::av_spec();
    let request = catalog::surveillance_request()
        .resolve(&spec)
        .expect("catalog request resolves");
    let offers = [[10, 3, 8, 8], [5, 1, 8, 8], [1, 3, 8, 8], [20, 24, 8, 8]];
    let proposals = offers
        .iter()
        .map(|o| o.iter().map(|&v| Value::Int(v)).collect())
        .collect();
    (spec, request, proposals)
}

proptest! {
    /// The compiled tables replicate the reference evaluator: identical
    /// admissibility verdicts, distances within 1e-12 (values and level
    /// indexes), `None` from both for a level vector one short or one
    /// long, and a batch winner that minimises the reference score.
    #[test]
    fn compiled_matches_reference(seed in 0u64..(1 << 48), catalog in 0u8..4) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C4);
        let (spec, request, proposals) = if catalog == 0 {
            catalog_instance()
        } else {
            let (spec, request) = random_instance(seed);
            let proposals: Vec<Vec<Value>> = (0..rng.gen_range(1usize..=6))
                .map(|_| random_proposal(&spec, &request, rng))
                .collect();
            (spec, request, proposals)
        };
        for dif in [DifMode::Absolute, DifMode::SignedPaperLiteral] {
            for weights in [
                WeightScheme::PaperLinear,
                WeightScheme::Uniform,
                WeightScheme::Harmonic,
            ] {
                let config = EvalConfig { weights, dif };
                let reference = Evaluator::new(config);
                let compiled = CompiledRequest::compile(&spec, &request, config);
                prop_assert_eq!(compiled.attr_count(), request.attr_count());

                let mut ref_scores = Vec::new();
                for p in &proposals {
                    let admissible = reference.admissible(&request, p);
                    prop_assert_eq!(compiled.admissible(p), admissible.clone());
                    let d_ref = reference.distance(&spec, &request, p);
                    let d_new = compiled.distance(p);
                    prop_assert!(
                        (d_ref - d_new).abs() < 1e-12,
                        "seed {seed}: {d_ref} vs {d_new}"
                    );
                    ref_scores.push((admissible.is_ok(), d_ref));
                }

                // Level-index pricing agrees with value pricing.
                let levels: Vec<usize> = request
                    .iter_attrs()
                    .map(|(_, a)| rng.gen_range(0..a.levels.len()))
                    .collect();
                let d_ref = reference
                    .distance_of_levels(&spec, &request, &levels)
                    .expect("indexes in range");
                let d_new = compiled
                    .distance_of_levels(&levels)
                    .expect("indexes in range");
                prop_assert!((d_ref - d_new).abs() < 1e-12);
                let long: Vec<usize> = levels.iter().copied().chain([0]).collect();
                for wrong in [&levels[..levels.len() - 1], &long[..]] {
                    prop_assert_eq!(reference.distance_of_levels(&spec, &request, wrong), None);
                    prop_assert_eq!(compiled.distance_of_levels(wrong), None);
                }

                // Batch evaluation: inadmissible ⇒ ∞; the winner is
                // admissible and minimises the reference score.
                let (best, scores) = compiled.evaluate_batch(&proposals);
                prop_assert_eq!(scores.len(), proposals.len());
                let min_ref = ref_scores
                    .iter()
                    .filter(|(ok, _)| *ok)
                    .map(|(_, d)| *d)
                    .fold(f64::INFINITY, f64::min);
                for (s, (ok, d)) in scores.iter().zip(ref_scores.iter()) {
                    if *ok {
                        prop_assert!((s - d).abs() < 1e-12);
                    } else {
                        prop_assert!(s.is_infinite());
                    }
                }
                match best {
                    Some(i) => {
                        prop_assert!(ref_scores[i].0, "winner must be admissible");
                        prop_assert!(ref_scores[i].1 <= min_ref + 1e-12);
                    }
                    None => prop_assert!(min_ref.is_infinite(), "no admissible proposal"),
                }
            }
        }
    }
}
