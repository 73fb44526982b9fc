//! Preference-ordered service requests (paper §3.1).
//!
//! The user does not assign numeric utilities. Instead the request imposes a
//! *relative decreasing order of importance* on dimensions, on attributes
//! within each dimension, and on acceptable values within each attribute —
//! "elements identified by lower indexes are more important than elements
//! identified by higher indexes".
//!
//! The paper's remote-surveillance example is expressed as:
//!
//! ```
//! use qosc_spec::{ServiceRequest, LevelSpec, Value};
//! let req = ServiceRequest::builder("surveillance")
//!     .dimension("Video Quality")
//!         .attribute("frame_rate", vec![
//!             LevelSpec::int_range(10, 5),   // [10,...,5] preferred block
//!             LevelSpec::int_range(4, 1),    // [4,...,1] fallback block
//!         ])
//!         .attribute("color_depth", vec![
//!             LevelSpec::value(3), LevelSpec::value(1),
//!         ])
//!     .dimension("Audio Quality")
//!         .attribute("sampling_rate", vec![LevelSpec::value(8)])
//!         .attribute("sample_bits", vec![LevelSpec::value(8)])
//!     .build();
//! assert_eq!(req.dimensions().len(), 2);
//! ```
//!
//! A raw [`ServiceRequest`] is name-based; [`ServiceRequest::resolve`] binds
//! it to a [`QosSpec`], validating every name and value and expanding range
//! preferences into explicit ordered quality levels `Q_k1 ≻ Q_k2 ≻ …` —
//! the ladder the §5 degradation heuristic walks down.

use std::fmt;

use crate::error::SpecError;
use crate::handle::Handle;
use crate::spec::{AttrPath, QosSpec, QualityVector};
use crate::value::{Value, F64};

/// One block of acceptable values for an attribute, in preference order.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelSpec {
    /// A single acceptable value.
    Value(Value),
    /// An inclusive integer run `from → to`, enumerated in that direction
    /// (so `[10..5]` means 10 is preferred over 9 over … over 5, exactly
    /// the paper's `frame rate: [10,...,5]` notation).
    IntRange {
        /// Most-preferred end.
        from: i64,
        /// Least-preferred end (inclusive).
        to: i64,
    },
    /// An inclusive float run sampled at `steps` evenly spaced points from
    /// `from` (most preferred) to `to` (least preferred).
    FloatRange {
        /// Most-preferred end.
        from: f64,
        /// Least-preferred end (inclusive).
        to: f64,
        /// Number of sample points (≥ 2 to include both ends).
        steps: usize,
    },
}

impl LevelSpec {
    /// Single integer value.
    pub fn value(v: impl Into<Value>) -> Self {
        LevelSpec::Value(v.into())
    }

    /// Integer run in preference order (`from` preferred).
    pub fn int_range(from: i64, to: i64) -> Self {
        LevelSpec::IntRange { from, to }
    }

    /// Expands the block into explicit values, preserving preference order.
    pub fn expand(&self) -> Vec<Value> {
        match self {
            LevelSpec::Value(v) => vec![v.clone()],
            LevelSpec::IntRange { from, to } => {
                if from <= to {
                    (*from..=*to).map(Value::Int).collect()
                } else {
                    (*to..=*from).rev().map(Value::Int).collect()
                }
            }
            LevelSpec::FloatRange { from, to, steps } => {
                let n = (*steps).max(1);
                if n == 1 {
                    return vec![Value::Float(F64::of(*from))];
                }
                (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        Value::Float(F64::of(from + (to - from) * t))
                    })
                    .collect()
            }
        }
    }
}

/// Preference entry for one attribute: blocks of acceptable values in
/// decreasing preference order.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrPref {
    /// Attribute name (resolved against the spec's dimension).
    pub attribute: String,
    /// Acceptable-value blocks, most preferred first.
    pub levels: Vec<LevelSpec>,
}

/// Preference entry for one dimension: its attributes in decreasing
/// importance order.
#[derive(Debug, Clone, PartialEq)]
pub struct DimPref {
    /// Dimension name (resolved against the spec).
    pub dimension: String,
    /// Attribute preferences, most important first.
    pub attributes: Vec<AttrPref>,
}

/// A user's service request: dimensions in decreasing importance order,
/// attributes within each dimension likewise, and explicit acceptable
/// values per attribute (paper §3.1).
///
/// Like [`QosSpec`], an immutable shared handle: `clone()` is O(1), `==`
/// is pointer-first with content hash and then content as the fallback,
/// and the `Debug` rendering (`ServiceRequest { name, dimensions }`, the
/// input of the content hash) feeds every state digest.
#[derive(Clone, PartialEq)]
pub struct ServiceRequest(Handle<RequestData>);

#[derive(PartialEq)]
struct RequestData {
    name: String,
    dimensions: Vec<DimPref>,
}

impl fmt::Debug for RequestData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRequest")
            .field("name", &self.name)
            .field("dimensions", &self.dimensions)
            .finish()
    }
}

impl fmt::Debug for ServiceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (*self.0).fmt(f)
    }
}

impl ServiceRequest {
    /// Starts building a request.
    pub fn builder(name: impl Into<String>) -> ServiceRequestBuilder {
        ServiceRequestBuilder {
            name: name.into(),
            dims: Vec::new(),
        }
    }

    /// Label for logs and experiment output.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Dimension preferences in decreasing importance order.
    pub fn dimensions(&self) -> &[DimPref] {
        &self.0.dimensions
    }

    /// Hash of the request's content, computed once at
    /// [`ServiceRequestBuilder::build`]: equal for equal content in any
    /// allocation, process or run.
    pub fn content_hash(&self) -> u64 {
        self.0.content_hash()
    }

    /// Binds the request to a spec, validating names, types and domain
    /// membership, and expanding all level blocks.
    pub fn resolve(&self, spec: &QosSpec) -> Result<ResolvedRequest, SpecError> {
        let dimensions = self.dimensions();
        let mut dims = Vec::with_capacity(dimensions.len());
        for (i, dp) in dimensions.iter().enumerate() {
            if dimensions[..i].iter().any(|x| x.dimension == dp.dimension) {
                return Err(SpecError::DuplicateRequestEntry(dp.dimension.clone()));
            }
            let (di, dim) = spec
                .dimension(&dp.dimension)
                .ok_or_else(|| SpecError::UnknownDimension(dp.dimension.clone()))?;
            let mut attrs = Vec::with_capacity(dp.attributes.len());
            for (j, ap) in dp.attributes.iter().enumerate() {
                if dp.attributes[..j]
                    .iter()
                    .any(|x| x.attribute == ap.attribute)
                {
                    return Err(SpecError::DuplicateRequestEntry(ap.attribute.clone()));
                }
                let (ai, attr) =
                    dim.attribute(&ap.attribute)
                        .ok_or_else(|| SpecError::UnknownAttribute {
                            dimension: dp.dimension.clone(),
                            attribute: ap.attribute.clone(),
                        })?;
                let mut levels = Vec::new();
                for block in &ap.levels {
                    for v in block.expand() {
                        if v.ty() != attr.domain.ty() {
                            return Err(SpecError::TypeMismatch {
                                dimension: dp.dimension.clone(),
                                attribute: ap.attribute.clone(),
                            });
                        }
                        if !attr.domain.contains(&v) {
                            return Err(SpecError::ValueOutsideDomain {
                                dimension: dp.dimension.clone(),
                                attribute: ap.attribute.clone(),
                                value: v.to_string(),
                            });
                        }
                        // Duplicate levels would make the degradation ladder
                        // re-visit a level; drop silently (first occurrence
                        // keeps the higher preference).
                        if !levels.contains(&v) {
                            levels.push(v);
                        }
                    }
                }
                if levels.is_empty() {
                    return Err(SpecError::EmptyPreference {
                        dimension: dp.dimension.clone(),
                        attribute: ap.attribute.clone(),
                    });
                }
                attrs.push(ResolvedAttrPref {
                    path: AttrPath::new(di, ai),
                    name: ap.attribute.clone(),
                    levels,
                });
            }
            if attrs.is_empty() {
                return Err(SpecError::EmptySpec);
            }
            dims.push(ResolvedDimPref {
                dim_index: di,
                name: dp.dimension.clone(),
                attributes: attrs,
            });
        }
        if dims.is_empty() {
            return Err(SpecError::EmptySpec);
        }
        Ok(ResolvedRequest {
            name: self.name().to_string(),
            dimensions: dims,
        })
    }
}

/// Builder with a small fluent DSL mirroring the paper's indented request
/// notation: `.dimension(..)` then `.attribute(..)` calls attach to the most
/// recent dimension.
#[derive(Debug)]
pub struct ServiceRequestBuilder {
    name: String,
    dims: Vec<DimPref>,
}

impl ServiceRequestBuilder {
    /// Opens a new (next-less-important) dimension.
    pub fn dimension(mut self, name: impl Into<String>) -> Self {
        self.dims.push(DimPref {
            dimension: name.into(),
            attributes: Vec::new(),
        });
        self
    }

    /// Adds the next-less-important attribute of the current dimension.
    ///
    /// # Panics
    /// Panics if called before any `.dimension(..)`.
    pub fn attribute(mut self, name: impl Into<String>, levels: Vec<LevelSpec>) -> Self {
        self.dims
            .last_mut()
            .expect("attribute() requires a preceding dimension()")
            .attributes
            .push(AttrPref {
                attribute: name.into(),
                levels,
            });
        self
    }

    /// Finishes the (unvalidated) request; validation happens at
    /// [`ServiceRequest::resolve`].
    pub fn build(self) -> ServiceRequest {
        ServiceRequest(Handle::new(RequestData {
            name: self.name,
            dimensions: self.dims,
        }))
    }
}

/// An attribute preference bound to a spec: explicit ordered levels.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAttrPref {
    /// Location of the attribute in the spec.
    pub path: AttrPath,
    /// Attribute name (for diagnostics).
    pub name: String,
    /// Quality ladder `Q_k1 ≻ Q_k2 ≻ …` — validated, deduplicated,
    /// most-preferred first. `levels[0]` is the user's preferred value
    /// `Pref_ki` of eq. 5.
    pub levels: Vec<Value>,
}

/// A dimension preference bound to a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedDimPref {
    /// Index of the dimension in the spec.
    pub dim_index: usize,
    /// Dimension name.
    pub name: String,
    /// Attribute preferences in decreasing importance (`i = 1…attr_k`).
    pub attributes: Vec<ResolvedAttrPref>,
}

/// A service request bound to a [`QosSpec`]: every name resolved, every
/// value validated, every range expanded. This is the object the
/// negotiation protocol ships and the heuristics consume.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedRequest {
    /// Request label.
    pub name: String,
    /// Dimensions in decreasing importance (`k = 1…n`).
    pub dimensions: Vec<ResolvedDimPref>,
}

impl ResolvedRequest {
    /// Number of requested dimensions (`n` of eq. 2).
    pub fn dim_count(&self) -> usize {
        self.dimensions.len()
    }

    /// Total number of requested attributes.
    pub fn attr_count(&self) -> usize {
        self.dimensions.iter().map(|d| d.attributes.len()).sum()
    }

    /// Iterates `(importance-rank pair, attribute preference)` over all
    /// requested attributes: `((k, i), pref)` with 0-based `k` (dimension
    /// rank) and `i` (attribute rank within the dimension).
    pub fn iter_attrs(&self) -> impl Iterator<Item = ((usize, usize), &ResolvedAttrPref)> {
        self.dimensions.iter().enumerate().flat_map(|(k, d)| {
            d.attributes
                .iter()
                .enumerate()
                .map(move |(i, a)| ((k, i), a))
        })
    }

    /// The user's most-preferred choice for every requested attribute, as
    /// `(path, value)` pairs — the §5 heuristic's starting point ("start by
    /// selecting user's preferred values for all QoS dimensions").
    pub fn preferred_choices(&self) -> Vec<(AttrPath, Value)> {
        self.iter_attrs()
            .map(|(_, a)| (a.path, a.levels[0].clone()))
            .collect()
    }

    /// Builds a full quality vector over `spec` from per-attribute level
    /// indexes into this request's ladders (one index per requested
    /// attribute, in [`ResolvedRequest::iter_attrs`] order). Attributes of
    /// the spec that the request does not mention are filled with the first
    /// value of their domain.
    ///
    /// Returns `None` if `level_indexes` has the wrong length or any index
    /// is out of range for its ladder.
    pub fn quality_vector(&self, spec: &QosSpec, level_indexes: &[usize]) -> Option<QualityVector> {
        if level_indexes.len() != self.attr_count() {
            return None;
        }
        // Default: first domain value for unmentioned attributes.
        let mut values: Vec<Value> = Vec::with_capacity(spec.attr_count());
        for path in spec.paths() {
            let attr = spec.attribute_at(path)?;
            values.push(attr.domain.first()?);
        }
        for ((_, a), &idx) in self.iter_attrs().zip(level_indexes.iter()) {
            let v = a.levels.get(idx)?.clone();
            let flat = spec.flat_index(a.path)?;
            values[flat] = v;
        }
        Some(QualityVector::from_values_unchecked(values))
    }

    /// The number of levels in each requested attribute's ladder, in
    /// `iter_attrs` order. Used by degradation loops and by exhaustive
    /// search.
    pub fn ladder_lengths(&self) -> Vec<usize> {
        self.iter_attrs().map(|(_, a)| a.levels.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn surveillance() -> (QosSpec, ServiceRequest) {
        (catalog::av_spec(), catalog::surveillance_request())
    }

    #[test]
    fn level_spec_expansion_orders() {
        assert_eq!(
            LevelSpec::int_range(10, 5).expand(),
            (5..=10).rev().map(Value::Int).collect::<Vec<_>>()
        );
        assert_eq!(
            LevelSpec::int_range(1, 3).expand(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(LevelSpec::value(7i64).expand(), vec![Value::Int(7)]);
        let f = LevelSpec::FloatRange {
            from: 1.0,
            to: 0.0,
            steps: 3,
        }
        .expand();
        assert_eq!(
            f,
            vec![Value::float(1.0), Value::float(0.5), Value::float(0.0)]
        );
    }

    #[test]
    fn paper_example_resolves() {
        let (spec, req) = surveillance();
        let r = req.resolve(&spec).unwrap();
        assert_eq!(r.dim_count(), 2);
        assert_eq!(r.attr_count(), 4);
        // frame_rate ladder: 10..5 then 4..1 => 10 levels, 10 first.
        let fr = &r.dimensions[0].attributes[0];
        assert_eq!(fr.levels.len(), 10);
        assert_eq!(fr.levels[0], Value::Int(10));
        assert_eq!(fr.levels[9], Value::Int(1));
        // color_depth ladder: 3 then 1.
        let cd = &r.dimensions[0].attributes[1];
        assert_eq!(cd.levels, vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn preferred_choices_take_ladder_heads() {
        let (spec, req) = surveillance();
        let r = req.resolve(&spec).unwrap();
        let pref = r.preferred_choices();
        assert_eq!(pref.len(), 4);
        assert_eq!(pref[0].1, Value::Int(10)); // frame_rate
        assert_eq!(pref[1].1, Value::Int(3)); // color_depth
        assert_eq!(pref[2].1, Value::Int(8)); // sampling_rate
        assert_eq!(pref[3].1, Value::Int(8)); // sample_bits
    }

    #[test]
    fn resolve_rejects_unknown_names() {
        let (spec, _) = surveillance();
        let bad = ServiceRequest::builder("x")
            .dimension("Nope")
            .attribute("frame_rate", vec![LevelSpec::value(10i64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::UnknownDimension(_))
        ));

        let bad = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute("nope", vec![LevelSpec::value(10i64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn resolve_rejects_out_of_domain_values() {
        let (spec, _) = surveillance();
        let bad = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::value(45i64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::ValueOutsideDomain { .. })
        ));
        // color_depth 5 is not in {1,3,8,16,24}
        let bad = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute("color_depth", vec![LevelSpec::value(5i64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::ValueOutsideDomain { .. })
        ));
    }

    #[test]
    fn resolve_rejects_type_mismatch_and_duplicates() {
        let (spec, _) = surveillance();
        let bad = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::value(10.0f64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::TypeMismatch { .. })
        ));

        let bad = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::value(10i64)])
            .dimension("Video Quality")
            .attribute("frame_rate", vec![LevelSpec::value(10i64)])
            .build();
        assert!(matches!(
            bad.resolve(&spec),
            Err(SpecError::DuplicateRequestEntry(_))
        ));
    }

    #[test]
    fn overlapping_blocks_deduplicate_keeping_first_rank() {
        let (spec, _) = surveillance();
        let req = ServiceRequest::builder("x")
            .dimension("Video Quality")
            .attribute(
                "frame_rate",
                vec![LevelSpec::int_range(10, 8), LevelSpec::int_range(9, 6)],
            )
            .build();
        let r = req.resolve(&spec).unwrap();
        assert_eq!(
            r.dimensions[0].attributes[0].levels,
            [10, 9, 8, 7, 6].map(Value::Int).to_vec()
        );
    }

    #[test]
    fn quality_vector_from_level_indexes() {
        let (spec, req) = surveillance();
        let r = req.resolve(&spec).unwrap();
        let qv = r.quality_vector(&spec, &[0, 0, 0, 0]).unwrap();
        let fr = spec.path("Video Quality", "frame_rate").unwrap();
        assert_eq!(qv.get(&spec, fr), Some(&Value::Int(10)));
        // Degrade frame_rate two steps.
        let qv = r.quality_vector(&spec, &[2, 0, 0, 0]).unwrap();
        assert_eq!(qv.get(&spec, fr), Some(&Value::Int(8)));
        // Bad shapes.
        assert!(r.quality_vector(&spec, &[0, 0, 0]).is_none());
        assert!(r.quality_vector(&spec, &[99, 0, 0, 0]).is_none());
    }

    #[test]
    fn ladder_lengths_match_expansion() {
        let (spec, req) = surveillance();
        let r = req.resolve(&spec).unwrap();
        assert_eq!(r.ladder_lengths(), vec![10, 2, 1, 1]);
    }
}
