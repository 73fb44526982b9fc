//! Inter-attribute dependencies (paper §3: `Deps`).
//!
//! The paper defines `Deps = {Dep_ij}` with `Dep_ij = f(Val_ki, Val_kj)` —
//! constraints coupling the values of two (or more) attributes. §4.2 insists
//! the negotiation "has to be able to deal with those inter-dependencies,
//! reaching a coherent solution", so dependencies are first-class here and
//! are checked by proposal formulation and by admissibility tests.
//!
//! Three constraint shapes cover the couplings multimedia specs need:
//!
//! * [`DependencyKind::Implication`] — `a ∈ A ⇒ b ∈ B` (e.g. "24-bit colour
//!   requires frame rate ≤ 15").
//! * [`DependencyKind::Exclusion`] — `¬(a ∈ A ∧ b ∈ B)`.
//! * [`DependencyKind::LinearBudget`] — `Σ coeff_i · numeric(attr_i) ≤ max`
//!   (e.g. a pixel-rate budget coupling frame rate and colour depth).

use crate::error::SpecError;
use crate::spec::{AttrPath, QosSpec, QualityVector};
use crate::value::Value;

/// The constraint body of a [`Dependency`].
#[derive(Debug, Clone, PartialEq)]
pub enum DependencyKind {
    /// If attribute `a` takes a value in `when_in`, attribute `b` must take
    /// a value in `require_in`.
    Implication {
        /// Antecedent attribute.
        a: AttrPath,
        /// Antecedent trigger set.
        when_in: Vec<Value>,
        /// Consequent attribute.
        b: AttrPath,
        /// Values `b` is then restricted to.
        require_in: Vec<Value>,
    },
    /// Attributes `a` and `b` may not simultaneously take values from
    /// `a_in` and `b_in`.
    Exclusion {
        /// First attribute.
        a: AttrPath,
        /// Forbidden set for `a`.
        a_in: Vec<Value>,
        /// Second attribute.
        b: AttrPath,
        /// Forbidden set for `b`.
        b_in: Vec<Value>,
    },
    /// `Σ coeff · value ≤ max` over numeric attributes. Non-numeric
    /// attributes are invalid here and rejected at validation time.
    LinearBudget {
        /// `(attribute, coefficient)` terms.
        terms: Vec<(AttrPath, f64)>,
        /// Inclusive upper bound on the weighted sum.
        max: f64,
    },
}

/// A named inter-attribute dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependency {
    /// Human-readable label, used in diagnostics.
    pub name: String,
    /// The constraint body.
    pub kind: DependencyKind,
}

impl Dependency {
    /// Creates a named dependency.
    pub fn new(name: impl Into<String>, kind: DependencyKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Checks that every referenced path exists in `spec` and that linear
    /// budgets only reference numeric attributes.
    pub(crate) fn validate(&self, spec: &QosSpec) -> Result<(), SpecError> {
        let check = |p: &AttrPath| -> Result<(), SpecError> {
            spec.attribute_at(*p)
                .map(|_| ())
                .ok_or(SpecError::DanglingDependency)
        };
        match &self.kind {
            DependencyKind::Implication { a, b, .. } | DependencyKind::Exclusion { a, b, .. } => {
                check(a)?;
                check(b)
            }
            DependencyKind::LinearBudget { terms, .. } => {
                for (p, _) in terms {
                    check(p)?;
                    let attr = spec.attribute_at(*p).expect("checked above");
                    if attr.domain.ty() == crate::value::ValueType::String {
                        return Err(SpecError::DanglingDependency);
                    }
                }
                Ok(())
            }
        }
    }

    /// Evaluates the constraint against a complete assignment.
    pub(crate) fn holds(&self, spec: &QosSpec, qv: &QualityVector) -> bool {
        let val = |p: AttrPath| qv.get(spec, p);
        match &self.kind {
            DependencyKind::Implication {
                a,
                when_in,
                b,
                require_in,
            } => match (val(*a), val(*b)) {
                (Some(va), Some(vb)) => !when_in.contains(va) || require_in.contains(vb),
                _ => false,
            },
            DependencyKind::Exclusion { a, a_in, b, b_in } => match (val(*a), val(*b)) {
                (Some(va), Some(vb)) => !(a_in.contains(va) && b_in.contains(vb)),
                _ => false,
            },
            DependencyKind::LinearBudget { terms, max } => {
                let mut sum = 0.0;
                for (p, c) in terms {
                    match val(*p).and_then(Value::as_f64) {
                        Some(x) => sum += c * x,
                        None => return false,
                    }
                }
                sum <= *max + 1e-9
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::spec::{Attribute, Dimension};

    fn spec_with(dep: Option<Dependency>) -> Result<QosSpec, SpecError> {
        let mut b = QosSpec::builder("s").dimension(Dimension::new(
            "Video",
            vec![
                Attribute::new("frame_rate", Domain::ContinuousInt { min: 1, max: 30 }),
                Attribute::new("color_depth", Domain::DiscreteInt(vec![1, 3, 8, 16, 24])),
            ],
        ));
        if let Some(d) = dep {
            b = b.dependency(d);
        }
        b.build()
    }

    fn qv(spec: &QosSpec, fr: i64, cd: i64) -> QualityVector {
        QualityVector::new(spec, vec![Value::Int(fr), Value::Int(cd)]).unwrap()
    }

    #[test]
    fn implication_high_depth_caps_frame_rate() {
        let dep = Dependency::new(
            "24bit caps fps",
            DependencyKind::Implication {
                a: AttrPath::new(0, 1),
                when_in: vec![Value::Int(24)],
                b: AttrPath::new(0, 0),
                require_in: (1..=15).map(Value::Int).collect(),
            },
        );
        let s = spec_with(Some(dep)).unwrap();
        assert!(qv(&s, 10, 24).satisfies_dependencies(&s));
        assert!(!qv(&s, 30, 24).satisfies_dependencies(&s));
        // Antecedent not triggered: anything goes.
        assert!(qv(&s, 30, 8).satisfies_dependencies(&s));
    }

    #[test]
    fn exclusion_blocks_combination() {
        let dep = Dependency::new(
            "no 30fps at 24bit",
            DependencyKind::Exclusion {
                a: AttrPath::new(0, 0),
                a_in: vec![Value::Int(30)],
                b: AttrPath::new(0, 1),
                b_in: vec![Value::Int(24)],
            },
        );
        let s = spec_with(Some(dep)).unwrap();
        assert!(!qv(&s, 30, 24).satisfies_dependencies(&s));
        assert!(qv(&s, 30, 16).satisfies_dependencies(&s));
        assert!(qv(&s, 29, 24).satisfies_dependencies(&s));
    }

    #[test]
    fn linear_budget_pixel_rate() {
        // frame_rate + 0.5*color_depth <= 35
        let dep = Dependency::new(
            "pixel budget",
            DependencyKind::LinearBudget {
                terms: vec![(AttrPath::new(0, 0), 1.0), (AttrPath::new(0, 1), 0.5)],
                max: 35.0,
            },
        );
        let s = spec_with(Some(dep)).unwrap();
        assert!(qv(&s, 20, 24).satisfies_dependencies(&s)); // 32 <= 35
        assert!(!qv(&s, 30, 24).satisfies_dependencies(&s)); // 42 > 35
    }

    #[test]
    fn validate_rejects_dangling_paths() {
        let dep = Dependency::new(
            "dangling",
            DependencyKind::Implication {
                a: AttrPath::new(5, 0),
                when_in: vec![],
                b: AttrPath::new(0, 0),
                require_in: vec![],
            },
        );
        assert_eq!(
            spec_with(Some(dep)).unwrap_err(),
            SpecError::DanglingDependency
        );
    }

    #[test]
    fn validate_rejects_string_attr_in_budget() {
        let dep = Dependency::new(
            "bad budget",
            DependencyKind::LinearBudget {
                terms: vec![(AttrPath::new(0, 0), 1.0)],
                max: 1.0,
            },
        );
        let s = QosSpec::builder("s")
            .dimension(Dimension::new(
                "d",
                vec![Attribute::new("codec", Domain::discrete_str(["h264"]))],
            ))
            .dependency(dep)
            .build();
        assert_eq!(s.unwrap_err(), SpecError::DanglingDependency);
    }

    #[test]
    fn no_dependencies_always_satisfied() {
        let s = spec_with(None).unwrap();
        assert!(qv(&s, 30, 24).satisfies_dependencies(&s));
    }
}
