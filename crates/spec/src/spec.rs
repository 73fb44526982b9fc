//! The QoS requirements representation (paper §3).
//!
//! `QoS = {Dim, Attr, Val, DAr, AVr, Deps}`:
//! * [`Dimension`] — an element of `Dim`, owning its attributes (`DAr`).
//! * [`Attribute`] — an element of `Attr`, owning its value domain (`AVr`).
//! * [`crate::Domain`] / [`crate::Value`] — `Val`.
//! * [`crate::Dependency`] — `Deps`.
//!
//! [`QosSpec`] ties the sets together and provides validated lookup by
//! name or by [`AttrPath`].

use std::fmt;

use crate::dependency::Dependency;
use crate::domain::Domain;
use crate::error::SpecError;
use crate::handle::Handle;
use crate::value::Value;

/// Stable coordinates of one attribute inside a [`QosSpec`]:
/// `(dimension index, attribute index within the dimension)`.
///
/// Paths are only meaningful relative to the spec that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrPath {
    /// Index of the dimension in declaration order.
    pub dim: u16,
    /// Index of the attribute within its dimension, in declaration order.
    pub attr: u16,
}

impl AttrPath {
    /// Builds a path from raw indexes.
    pub fn new(dim: usize, attr: usize) -> Self {
        Self {
            dim: dim as u16,
            attr: attr as u16,
        }
    }

    /// Dimension index as `usize`.
    pub(crate) fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Attribute index as `usize`.
    pub(crate) fn attr(&self) -> usize {
        self.attr as usize
    }
}

/// One QoS attribute: a name plus its declared value domain (`AVr`).
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute identifier, unique within its dimension.
    pub name: String,
    /// Declared admissible values, in quality order for discrete domains.
    pub domain: Domain,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        Self {
            name: name.into(),
            domain,
        }
    }
}

/// One QoS dimension and the attributes assigned to it (`DAr`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    /// Dimension identifier, unique within the spec.
    pub name: String,
    /// Attributes of this dimension, in declaration order.
    pub attributes: Vec<Attribute>,
}

impl Dimension {
    /// Creates a dimension from its attributes.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        Self {
            name: name.into(),
            attributes,
        }
    }

    /// Looks an attribute up by name.
    pub fn attribute(&self, name: &str) -> Option<(usize, &Attribute)> {
        self.attributes
            .iter()
            .enumerate()
            .find(|(_, a)| a.name == name)
    }
}

/// A complete, validated QoS requirements representation for one
/// application class (paper §3).
///
/// ```
/// use qosc_spec::{QosSpec, Dimension, Attribute, Domain};
/// let spec = QosSpec::builder("video app")
///     .dimension(Dimension::new("Video Quality", vec![
///         Attribute::new("frame_rate", Domain::ContinuousInt { min: 1, max: 30 }),
///         Attribute::new("color_depth", Domain::DiscreteInt(vec![1, 3, 8, 16, 24])),
///     ]))
///     .build()
///     .unwrap();
/// assert_eq!(spec.attr_count(), 2);
/// ```
///
/// A `QosSpec` is an immutable shared handle: `clone()` is O(1) (a
/// refcount bump on the one allocation [`QosSpecBuilder::build`] made),
/// and `==` holds when both handles point at the same allocation or,
/// failing that, when their content hashes and then their content agree —
/// so equal specs built twice are equal, and unequal ones are told apart
/// without a structural walk. The `Debug` rendering is that of the plain
/// field tree (`QosSpec { name, dimensions, dependencies }`); the content
/// hash is computed over it, so it feeds every state digest.
#[derive(Clone, PartialEq)]
pub struct QosSpec(Handle<SpecData>);

#[derive(PartialEq)]
struct SpecData {
    name: String,
    dimensions: Vec<Dimension>,
    dependencies: Vec<Dependency>,
}

impl fmt::Debug for SpecData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosSpec")
            .field("name", &self.name)
            .field("dimensions", &self.dimensions)
            .field("dependencies", &self.dependencies)
            .finish()
    }
}

impl fmt::Debug for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (*self.0).fmt(f)
    }
}

impl QosSpec {
    /// Starts building a spec.
    pub fn builder(name: impl Into<String>) -> QosSpecBuilder {
        QosSpecBuilder {
            name: name.into(),
            dimensions: Vec::new(),
            dependencies: Vec::new(),
        }
    }

    /// Application-class name of this spec.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Dimensions in declaration order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.0.dimensions
    }

    /// Declared inter-attribute dependencies (`Deps`).
    pub(crate) fn dependencies(&self) -> &[Dependency] {
        &self.0.dependencies
    }

    /// Hash of the spec's content, computed once at
    /// [`QosSpecBuilder::build`]: equal for equal content in any
    /// allocation, process or run.
    pub fn content_hash(&self) -> u64 {
        self.0.content_hash()
    }

    /// Number of dimensions.
    pub fn dim_count(&self) -> usize {
        self.dimensions().len()
    }

    /// Total number of attributes across all dimensions.
    pub fn attr_count(&self) -> usize {
        self.dimensions().iter().map(|d| d.attributes.len()).sum()
    }

    /// Looks a dimension up by name.
    pub(crate) fn dimension(&self, name: &str) -> Option<(usize, &Dimension)> {
        self.dimensions()
            .iter()
            .enumerate()
            .find(|(_, d)| d.name == name)
    }

    /// Resolves an `(dimension, attribute)` name pair to a path.
    pub fn path(&self, dimension: &str, attribute: &str) -> Option<AttrPath> {
        let (di, d) = self.dimension(dimension)?;
        let (ai, _) = d.attribute(attribute)?;
        Some(AttrPath::new(di, ai))
    }

    /// The attribute at `path`, if in bounds.
    pub fn attribute_at(&self, path: AttrPath) -> Option<&Attribute> {
        self.dimensions()
            .get(path.dim())
            .and_then(|d| d.attributes.get(path.attr()))
    }

    /// Iterates all attribute paths in dimension-major declaration order —
    /// the canonical flattening used by quality vectors.
    pub fn paths(&self) -> impl Iterator<Item = AttrPath> + '_ {
        self.dimensions()
            .iter()
            .enumerate()
            .flat_map(|(di, d)| (0..d.attributes.len()).map(move |ai| AttrPath::new(di, ai)))
    }

    /// Flat index of `path` in [`QosSpec::paths`] order.
    pub fn flat_index(&self, path: AttrPath) -> Option<usize> {
        self.attribute_at(path)?;
        let before: usize = self.dimensions()[..path.dim()]
            .iter()
            .map(|d| d.attributes.len())
            .sum();
        Some(before + path.attr())
    }
}

/// Builder for [`QosSpec`]; validation happens in [`QosSpecBuilder::build`].
#[derive(Debug, Clone)]
pub struct QosSpecBuilder {
    name: String,
    dimensions: Vec<Dimension>,
    dependencies: Vec<Dependency>,
}

impl QosSpecBuilder {
    /// Adds a dimension (declaration order is preserved).
    pub fn dimension(mut self, d: Dimension) -> Self {
        self.dimensions.push(d);
        self
    }

    /// Adds an inter-attribute dependency.
    pub fn dependency(mut self, dep: Dependency) -> Self {
        self.dependencies.push(dep);
        self
    }

    /// Validates and finishes the spec.
    ///
    /// Rules enforced: at least one dimension; at least one attribute per
    /// dimension; unique dimension names; unique attribute names within a
    /// dimension; every domain structurally valid; every dependency
    /// references in-bounds attribute paths.
    pub fn build(self) -> Result<QosSpec, SpecError> {
        if self.dimensions.is_empty() {
            return Err(SpecError::EmptySpec);
        }
        for (i, d) in self.dimensions.iter().enumerate() {
            if d.attributes.is_empty() {
                return Err(SpecError::EmptySpec);
            }
            if self.dimensions[..i].iter().any(|x| x.name == d.name) {
                return Err(SpecError::DuplicateName(d.name.clone()));
            }
            for (j, a) in d.attributes.iter().enumerate() {
                if d.attributes[..j].iter().any(|x| x.name == a.name) {
                    return Err(SpecError::DuplicateName(a.name.clone()));
                }
                a.domain.validate()?;
            }
        }
        let spec = QosSpec(Handle::new(SpecData {
            name: self.name,
            dimensions: self.dimensions,
            dependencies: self.dependencies,
        }));
        for dep in spec.dependencies() {
            dep.validate(&spec)?;
        }
        Ok(spec)
    }
}

/// A complete assignment of one value to every attribute of a spec, in
/// [`QosSpec::paths`] (dimension-major) order.
///
/// This is the object proposals carry: "this node offers to run the task at
/// exactly these quality choices".
#[derive(Debug, Clone, PartialEq)]
pub struct QualityVector {
    values: Vec<Value>,
}

impl QualityVector {
    /// Builds a vector from values in flattening order.
    ///
    /// Returns `None` when the length does not match `spec.attr_count()`
    /// or any value falls outside its attribute's domain.
    pub fn new(spec: &QosSpec, values: Vec<Value>) -> Option<Self> {
        if values.len() != spec.attr_count() {
            return None;
        }
        for (path, v) in spec.paths().zip(values.iter()) {
            if !spec.attribute_at(path)?.domain.contains(v) {
                return None;
            }
        }
        Some(Self { values })
    }

    /// Builds a vector without membership checks. Intended for hot paths
    /// that already guarantee validity (e.g. degradation over request
    /// levels, which are validated at resolution time).
    pub(crate) fn from_values_unchecked(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Value at `path`, given the spec that defines the flattening.
    pub fn get(&self, spec: &QosSpec, path: AttrPath) -> Option<&Value> {
        self.values.get(spec.flat_index(path)?)
    }

    /// Replaces the value at `path`. Returns false if out of bounds or the
    /// new value is outside the attribute's domain.
    #[cfg(test)]
    pub(crate) fn set(&mut self, spec: &QosSpec, path: AttrPath, v: Value) -> bool {
        let Some(idx) = spec.flat_index(path) else {
            return false;
        };
        let Some(attr) = spec.attribute_at(path) else {
            return false;
        };
        if !attr.domain.contains(&v) {
            return false;
        }
        self.values[idx] = v;
        true
    }

    /// Replaces the value at a flat index without membership checks.
    /// Intended for hot paths that substitute values drawn from a resolved
    /// request's ladder (valid by construction), e.g. the degradation
    /// engine mutating one attribute per step instead of rebuilding the
    /// whole vector. Returns `false` when `idx` is out of range.
    pub fn set_flat_unchecked(&mut self, idx: usize, v: Value) -> bool {
        match self.values.get_mut(idx) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Checks every declared dependency of `spec` against this assignment.
    pub fn satisfies_dependencies(&self, spec: &QosSpec) -> bool {
        spec.dependencies().iter().all(|d| d.holds(spec, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video_spec() -> QosSpec {
        QosSpec::builder("video")
            .dimension(Dimension::new(
                "Video Quality",
                vec![
                    Attribute::new("frame_rate", Domain::ContinuousInt { min: 1, max: 30 }),
                    Attribute::new("color_depth", Domain::DiscreteInt(vec![1, 3, 8, 16, 24])),
                ],
            ))
            .dimension(Dimension::new(
                "Audio Quality",
                vec![
                    Attribute::new("sampling_rate", Domain::DiscreteInt(vec![8, 16, 24, 44])),
                    Attribute::new("sample_bits", Domain::DiscreteInt(vec![8, 16, 24])),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn build_paper_example_spec() {
        let s = video_spec();
        assert_eq!(s.dim_count(), 2);
        assert_eq!(s.attr_count(), 4);
        assert_eq!(s.name(), "video");
    }

    #[test]
    fn lookup_by_name_and_path() {
        let s = video_spec();
        let p = s.path("Audio Quality", "sample_bits").unwrap();
        assert_eq!(p, AttrPath::new(1, 1));
        assert_eq!(s.attribute_at(p).unwrap().name, "sample_bits");
        assert!(s.path("Audio Quality", "nope").is_none());
        assert!(s.path("nope", "sample_bits").is_none());
    }

    #[test]
    fn flat_index_is_dimension_major() {
        let s = video_spec();
        let order: Vec<_> = s.paths().collect();
        assert_eq!(
            order,
            vec![
                AttrPath::new(0, 0),
                AttrPath::new(0, 1),
                AttrPath::new(1, 0),
                AttrPath::new(1, 1)
            ]
        );
        assert_eq!(s.flat_index(AttrPath::new(1, 0)), Some(2));
        assert_eq!(s.flat_index(AttrPath::new(2, 0)), None);
    }

    #[test]
    fn builder_rejects_duplicates_and_empties() {
        let err = QosSpec::builder("x").build().unwrap_err();
        assert_eq!(err, SpecError::EmptySpec);

        let err = QosSpec::builder("x")
            .dimension(Dimension::new("d", vec![]))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::EmptySpec);

        let err = QosSpec::builder("x")
            .dimension(Dimension::new(
                "d",
                vec![Attribute::new("a", Domain::DiscreteInt(vec![1]))],
            ))
            .dimension(Dimension::new(
                "d",
                vec![Attribute::new("a", Domain::DiscreteInt(vec![1]))],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::DuplicateName("d".into()));

        let err = QosSpec::builder("x")
            .dimension(Dimension::new(
                "d",
                vec![
                    Attribute::new("a", Domain::DiscreteInt(vec![1])),
                    Attribute::new("a", Domain::DiscreteInt(vec![2])),
                ],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::DuplicateName("a".into()));
    }

    #[test]
    fn builder_propagates_domain_validation() {
        let err = QosSpec::builder("x")
            .dimension(Dimension::new(
                "d",
                vec![Attribute::new("a", Domain::DiscreteInt(vec![]))],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::EmptyDomain);
    }

    #[test]
    fn quality_vector_roundtrip() {
        let s = video_spec();
        let qv = QualityVector::new(
            &s,
            vec![
                Value::Int(25),
                Value::Int(24),
                Value::Int(44),
                Value::Int(16),
            ],
        )
        .unwrap();
        let p = s.path("Video Quality", "color_depth").unwrap();
        assert_eq!(qv.get(&s, p), Some(&Value::Int(24)));
    }

    #[test]
    fn quality_vector_rejects_bad_shapes() {
        let s = video_spec();
        assert!(QualityVector::new(&s, vec![Value::Int(25)]).is_none());
        // 2 is not an admissible colour depth
        assert!(QualityVector::new(
            &s,
            vec![
                Value::Int(25),
                Value::Int(2),
                Value::Int(44),
                Value::Int(16)
            ]
        )
        .is_none());
    }

    #[test]
    fn quality_vector_set_respects_domain() {
        let s = video_spec();
        let mut qv = QualityVector::new(
            &s,
            vec![
                Value::Int(25),
                Value::Int(24),
                Value::Int(44),
                Value::Int(16),
            ],
        )
        .unwrap();
        let p = s.path("Video Quality", "frame_rate").unwrap();
        assert!(qv.set(&s, p, Value::Int(10)));
        assert!(!qv.set(&s, p, Value::Int(31)));
        assert_eq!(qv.get(&s, p), Some(&Value::Int(10)));
    }
}
