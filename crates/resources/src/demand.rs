//! Mapping QoS choices to resource requirements (paper §5).
//!
//! "Each individual QoS Provider must map QoS constraints to resource
//! requirements ... This mapping is inherently difficult. To address this
//! problem we (for now) assume that applications make a reasonably accurate
//! analysis of their resource requirements, made a priori through resource
//! monitoring tools."
//!
//! [`DemandModel`] is that a-priori analysis: a function from a quality
//! vector to a [`ResourceVector`]. [`LinearDemandModel`] is the concrete
//! family we ship — a base cost plus per-attribute terms, each term scaling
//! a resource kind by a *feature* of the chosen value. Features keep the
//! model meaningful for non-numeric attributes: a string-valued codec choice
//! contributes through its quality-index position, not through arithmetic on
//! the string.

use qosc_spec::{AttrPath, QosSpec, QualityVector};

use crate::kind::{ResourceKind, ResourceVector};

/// How a chosen value is turned into a scalar feature for a demand term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// The numeric value itself (frame rate 25 → 25.0). Invalid for string
    /// domains; such terms evaluate to 0 and are caught by `validate`.
    Numeric,
    /// Quality-index position mapped to `[0, 1]`: the *first* declared
    /// domain value (highest quality) → 1.0, the last → 0.0. Works for any
    /// discrete domain, including strings.
    QualityIndex,
}

/// One additive term of a [`LinearDemandModel`]:
/// `demand[kind] += coeff × feature(value at path)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandTerm {
    /// Attribute whose chosen value drives the term.
    pub path: AttrPath,
    /// Which scalar feature of the chosen value to use.
    pub feature: Feature,
    /// Resource kind the term contributes to.
    pub kind: ResourceKind,
    /// Multiplier applied to the feature.
    pub coeff: f64,
}

/// The a-priori quality→resource analysis of one application class.
///
/// # Contract: monotone along degradation
///
/// Implementations must not *increase* any resource demand when a
/// requested attribute degrades one ladder level (toward the user's
/// less-preferred values). The §5 heuristic assumes degrading frees
/// resources, and the provider's prefix-feasibility shedding pre-check
/// uses the fully-degraded demand as each task's floor — a non-monotone
/// model can make it shed a prefix the full degradation loop would have
/// served. [`LinearDemandModel`] satisfies the contract when its
/// coefficients are non-negative and ladders are declared best quality
/// first.
pub trait DemandModel: Send + Sync {
    /// Resource demand of running one task at the given quality.
    fn demand(&self, spec: &QosSpec, qv: &QualityVector) -> ResourceVector;
}

/// Base cost + linear per-attribute terms. Monotone in each attribute as
/// long as coefficients are non-negative and domains are declared best
/// quality first, which is what the degradation heuristic relies on
/// (degrading a level never increases demand).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDemandModel {
    /// Fixed cost paid regardless of quality (task bookkeeping, buffers).
    pub base: ResourceVector,
    /// Additive terms.
    pub terms: Vec<DemandTerm>,
}

impl LinearDemandModel {
    /// Creates a model.
    pub fn new(base: ResourceVector, terms: Vec<DemandTerm>) -> Self {
        Self { base, terms }
    }

    /// Checks every term references an existing attribute and that
    /// `Numeric` features are only used on numeric domains.
    pub fn validate(&self, spec: &QosSpec) -> bool {
        self.terms.iter().all(|t| match spec.attribute_at(t.path) {
            None => false,
            Some(attr) => match t.feature {
                Feature::Numeric => attr.domain.ty() != qosc_spec::ValueType::String,
                Feature::QualityIndex => attr.domain.is_discrete(),
            },
        })
    }

    fn feature_of(&self, spec: &QosSpec, qv: &QualityVector, term: &DemandTerm) -> f64 {
        let Some(attr) = spec.attribute_at(term.path) else {
            return 0.0;
        };
        let Some(v) = qv.get(spec, term.path) else {
            return 0.0;
        };
        match term.feature {
            Feature::Numeric => v.as_f64().unwrap_or(0.0),
            Feature::QualityIndex => {
                let Some(len) = attr.domain.len() else {
                    return 0.0;
                };
                if len <= 1 {
                    return 1.0;
                }
                match attr.domain.position(v) {
                    Some(pos) => 1.0 - pos as f64 / (len - 1) as f64,
                    None => 0.0,
                }
            }
        }
    }
}

impl DemandModel for LinearDemandModel {
    fn demand(&self, spec: &QosSpec, qv: &QualityVector) -> ResourceVector {
        let mut d = self.base;
        for t in &self.terms {
            d[t.kind] += t.coeff * self.feature_of(spec, qv, t);
        }
        d
    }
}

/// Canonical demand model for the catalog's audio/video spec: CPU grows
/// with frame rate × colour-depth quality, bandwidth with both audio
/// attributes, plus small fixed costs. Used by examples, tests and the
/// workload generator.
pub fn av_demand_model(spec: &QosSpec) -> LinearDemandModel {
    let fr = spec
        .path("Video Quality", "frame_rate")
        .expect("av spec has frame_rate");
    let cd = spec
        .path("Video Quality", "color_depth")
        .expect("av spec has color_depth");
    let sr = spec
        .path("Audio Quality", "sampling_rate")
        .expect("av spec has sampling_rate");
    let sb = spec
        .path("Audio Quality", "sample_bits")
        .expect("av spec has sample_bits");
    LinearDemandModel::new(
        ResourceVector::new(2.0, 8.0, 16.0, 0.5, 20.0),
        vec![
            // Decoding cost: ~1.2 MIPS per frame/s, plus up to +18 MIPS at
            // the deepest colour depth.
            DemandTerm {
                path: fr,
                feature: Feature::Numeric,
                kind: ResourceKind::Cpu,
                coeff: 1.2,
            },
            DemandTerm {
                path: cd,
                feature: Feature::Numeric,
                kind: ResourceKind::Cpu,
                coeff: 0.75,
            },
            // Frame buffers: memory with colour depth.
            DemandTerm {
                path: cd,
                feature: Feature::Numeric,
                kind: ResourceKind::Memory,
                coeff: 1.5,
            },
            // Stream bandwidth with frame rate.
            DemandTerm {
                path: fr,
                feature: Feature::Numeric,
                kind: ResourceKind::NetBandwidth,
                coeff: 12.0,
            },
            // Audio pipeline: CPU and bandwidth with rate × bits.
            DemandTerm {
                path: sr,
                feature: Feature::Numeric,
                kind: ResourceKind::Cpu,
                coeff: 0.25,
            },
            DemandTerm {
                path: sr,
                feature: Feature::Numeric,
                kind: ResourceKind::NetBandwidth,
                coeff: 2.0,
            },
            DemandTerm {
                path: sb,
                feature: Feature::Numeric,
                kind: ResourceKind::NetBandwidth,
                coeff: 1.0,
            },
            // Energy roughly follows CPU.
            DemandTerm {
                path: fr,
                feature: Feature::Numeric,
                kind: ResourceKind::Energy,
                coeff: 6.0,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_spec::{catalog, Value};

    fn spec_and_model() -> (QosSpec, LinearDemandModel) {
        let spec = catalog::av_spec();
        let model = av_demand_model(&spec);
        (spec, model)
    }

    fn qv(spec: &QosSpec, fr: i64, cd: i64, sr: i64, sb: i64) -> QualityVector {
        QualityVector::new(
            spec,
            vec![
                Value::Int(fr),
                Value::Int(cd),
                Value::Int(sr),
                Value::Int(sb),
            ],
        )
        .unwrap()
    }

    #[test]
    fn av_model_validates() {
        let (spec, model) = spec_and_model();
        assert!(model.validate(&spec));
    }

    #[test]
    fn demand_is_monotone_in_frame_rate() {
        let (spec, model) = spec_and_model();
        let low = model.demand(&spec, &qv(&spec, 5, 3, 8, 8));
        let high = model.demand(&spec, &qv(&spec, 30, 3, 8, 8));
        assert!(low.get(ResourceKind::Cpu) < high.get(ResourceKind::Cpu));
        assert!(low.get(ResourceKind::NetBandwidth) < high.get(ResourceKind::NetBandwidth));
        assert!(low.fits_within(&high));
    }

    #[test]
    fn demand_includes_base_cost() {
        let (spec, model) = spec_and_model();
        let d = model.demand(&spec, &qv(&spec, 1, 1, 8, 8));
        assert!(d.get(ResourceKind::Cpu) > 2.0); // base 2.0 + terms
        assert!(d.get(ResourceKind::Memory) >= 8.0);
    }

    #[test]
    fn quality_index_feature_maps_positions() {
        // Build a model over color_depth using QualityIndex: domain is
        // {1,3,8,16,24} declared low→high, so pos 0 (value 1) → 1.0 and
        // pos 4 (value 24) → 0.0.
        let spec = catalog::av_spec();
        let cd = spec.path("Video Quality", "color_depth").unwrap();
        let model = LinearDemandModel::new(
            ResourceVector::ZERO,
            vec![DemandTerm {
                path: cd,
                feature: Feature::QualityIndex,
                kind: ResourceKind::Cpu,
                coeff: 10.0,
            }],
        );
        let d1 = model.demand(&spec, &qv(&spec, 1, 1, 8, 8));
        let d24 = model.demand(&spec, &qv(&spec, 1, 24, 8, 8));
        assert!((d1.get(ResourceKind::Cpu) - 10.0).abs() < 1e-9);
        assert!((d24.get(ResourceKind::Cpu) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_terms() {
        let spec = catalog::transcode_spec();
        let codec = spec.path("Fidelity", "codec").unwrap();
        // Numeric feature on a string attribute is invalid.
        let bad = LinearDemandModel::new(
            ResourceVector::ZERO,
            vec![DemandTerm {
                path: codec,
                feature: Feature::Numeric,
                kind: ResourceKind::Cpu,
                coeff: 1.0,
            }],
        );
        assert!(!bad.validate(&spec));
        // QualityIndex on the same attribute is fine.
        let ok = LinearDemandModel::new(
            ResourceVector::ZERO,
            vec![DemandTerm {
                path: codec,
                feature: Feature::QualityIndex,
                kind: ResourceKind::Cpu,
                coeff: 1.0,
            }],
        );
        assert!(ok.validate(&spec));
        // Dangling path.
        let dangling = LinearDemandModel::new(
            ResourceVector::ZERO,
            vec![DemandTerm {
                path: AttrPath::new(9, 9),
                feature: Feature::QualityIndex,
                kind: ResourceKind::Cpu,
                coeff: 1.0,
            }],
        );
        assert!(!dangling.validate(&spec));
    }
}
