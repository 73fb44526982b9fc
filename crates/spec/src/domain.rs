//! Attribute value domains (paper §3: `Domain = {continuous, discrete}`).
//!
//! A [`Domain`] is the full set of values an attribute may take, as declared
//! by the *application* in its QoS requirements representation. The order in
//! which a discrete domain lists its values is meaningful: it is the
//! *quality order* used by the Quality-Index mapping of the evaluation
//! metric (paper eq. 5, following Lee et al. [12]) — `pos(v)` is the index
//! of `v` in this declaration.

use crate::error::SpecError;
use crate::value::{Value, ValueType, F64};

/// The declared set of admissible values for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// A discrete, quality-ordered set of integers, e.g. colour depth
    /// `{1, 3, 8, 16, 24}`.
    DiscreteInt(Vec<i64>),
    /// A discrete, quality-ordered set of floats.
    DiscreteFloat(Vec<F64>),
    /// A discrete, quality-ordered set of symbols, e.g. codec names.
    DiscreteStr(Vec<String>),
    /// A continuous (dense) integer interval, e.g. frame rate `[1..=30]`.
    ContinuousInt {
        /// Smallest admissible value.
        min: i64,
        /// Largest admissible value (inclusive).
        max: i64,
    },
    /// A continuous real interval.
    ContinuousFloat {
        /// Smallest admissible value.
        min: f64,
        /// Largest admissible value (inclusive).
        max: f64,
    },
}

impl Domain {
    /// Convenience constructor: discrete float domain from raw floats.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn discrete_float(vals: impl IntoIterator<Item = f64>) -> Self {
        Domain::DiscreteFloat(vals.into_iter().map(F64::of).collect())
    }

    /// Convenience constructor: discrete string domain.
    pub fn discrete_str<S: Into<String>>(vals: impl IntoIterator<Item = S>) -> Self {
        Domain::DiscreteStr(vals.into_iter().map(Into::into).collect())
    }

    /// The value type this domain ranges over (paper §3: `Type`).
    pub fn ty(&self) -> ValueType {
        match self {
            Domain::DiscreteInt(_) | Domain::ContinuousInt { .. } => ValueType::Integer,
            Domain::DiscreteFloat(_) | Domain::ContinuousFloat { .. } => ValueType::Float,
            Domain::DiscreteStr(_) => ValueType::String,
        }
    }

    /// Whether the domain is discrete (paper §3: `Domain`).
    pub fn is_discrete(&self) -> bool {
        matches!(
            self,
            Domain::DiscreteInt(_) | Domain::DiscreteFloat(_) | Domain::DiscreteStr(_)
        )
    }

    /// Number of values in a discrete domain (`length(Qk)` in eq. 5);
    /// `None` for continuous domains.
    pub fn len(&self) -> Option<usize> {
        match self {
            Domain::DiscreteInt(v) => Some(v.len()),
            Domain::DiscreteFloat(v) => Some(v.len()),
            Domain::DiscreteStr(v) => Some(v.len()),
            _ => None,
        }
    }

    /// True when a discrete domain has no values (always false for
    /// continuous domains; those are validated to be non-empty intervals).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Membership test.
    pub fn contains(&self, v: &Value) -> bool {
        match (self, v) {
            (Domain::DiscreteInt(d), Value::Int(i)) => d.contains(i),
            (Domain::DiscreteFloat(d), Value::Float(f)) => d.contains(f),
            (Domain::DiscreteStr(d), Value::Str(s)) => d.iter().any(|x| x == s),
            (Domain::ContinuousInt { min, max }, Value::Int(i)) => (min..=max).contains(&i),
            (Domain::ContinuousFloat { min, max }, Value::Float(f)) => {
                let x = f.get();
                *min <= x && x <= *max
            }
            _ => false,
        }
    }

    /// Quality-Index position of `v` in a discrete domain (paper eq. 5:
    /// `pos(·)`). `None` if the domain is continuous or `v` is absent.
    pub fn position(&self, v: &Value) -> Option<usize> {
        match (self, v) {
            (Domain::DiscreteInt(d), Value::Int(i)) => d.iter().position(|x| x == i),
            (Domain::DiscreteFloat(d), Value::Float(f)) => d.iter().position(|x| x == f),
            (Domain::DiscreteStr(d), Value::Str(s)) => d.iter().position(|x| x == s),
            _ => None,
        }
    }

    /// Width `max(Qk) − min(Qk)` of a continuous domain (the normaliser in
    /// the continuous branch of eq. 5). `None` for discrete domains.
    pub fn span(&self) -> Option<f64> {
        match self {
            Domain::ContinuousInt { min, max } => Some((max - min) as f64),
            Domain::ContinuousFloat { min, max } => Some(max - min),
            _ => None,
        }
    }

    /// The numeric bounds of a continuous domain.
    #[cfg(test)]
    pub(crate) fn bounds(&self) -> Option<(f64, f64)> {
        match self {
            Domain::ContinuousInt { min, max } => Some((*min as f64, *max as f64)),
            Domain::ContinuousFloat { min, max } => Some((*min, *max)),
            _ => None,
        }
    }

    /// Structural validation: discrete domains must be non-empty and free
    /// of duplicates (pos(·) must be a bijection per the Quality-Index
    /// construction); continuous domains must have `min ≤ max` and finite
    /// bounds.
    pub fn validate(&self) -> Result<(), SpecError> {
        fn no_dups<T: PartialEq>(v: &[T]) -> bool {
            v.iter()
                .enumerate()
                .all(|(i, x)| !v[..i].iter().any(|y| y == x))
        }
        match self {
            Domain::DiscreteInt(v) => {
                if v.is_empty() {
                    return Err(SpecError::EmptyDomain);
                }
                if !no_dups(v) {
                    return Err(SpecError::DuplicateDomainValue);
                }
            }
            Domain::DiscreteFloat(v) => {
                if v.is_empty() {
                    return Err(SpecError::EmptyDomain);
                }
                if !no_dups(v) {
                    return Err(SpecError::DuplicateDomainValue);
                }
            }
            Domain::DiscreteStr(v) => {
                if v.is_empty() {
                    return Err(SpecError::EmptyDomain);
                }
                if !no_dups(v) {
                    return Err(SpecError::DuplicateDomainValue);
                }
            }
            Domain::ContinuousInt { min, max } => {
                if min > max {
                    return Err(SpecError::InvalidInterval);
                }
            }
            Domain::ContinuousFloat { min, max } => {
                if !(min.is_finite() && max.is_finite()) || min > max {
                    return Err(SpecError::InvalidInterval);
                }
            }
        }
        Ok(())
    }

    /// The head of [`Domain::enumerate`] — the first declared value of a
    /// discrete domain, the lower bound of a continuous one — without
    /// building the enumeration.
    pub(crate) fn first(&self) -> Option<Value> {
        match self {
            Domain::DiscreteInt(v) => v.first().copied().map(Value::Int),
            Domain::DiscreteFloat(v) => v.first().copied().map(Value::Float),
            Domain::DiscreteStr(v) => v.first().cloned().map(Value::Str),
            Domain::ContinuousInt { min, .. } => Some(Value::Int(*min)),
            Domain::ContinuousFloat { min, .. } => Some(Value::float(*min)),
        }
    }

    /// Enumerates a discrete domain's values in quality order, or samples a
    /// continuous one at `steps` evenly spaced points (used by generators
    /// and the exhaustive baseline; the negotiation protocol itself never
    /// needs to enumerate continuous domains).
    pub fn enumerate(&self, steps: usize) -> Vec<Value> {
        match self {
            Domain::DiscreteInt(v) => v.iter().copied().map(Value::Int).collect(),
            Domain::DiscreteFloat(v) => v.iter().copied().map(Value::Float).collect(),
            Domain::DiscreteStr(v) => v.iter().cloned().map(Value::Str).collect(),
            Domain::ContinuousInt { min, max } => {
                let n = ((max - min) as usize + 1).min(steps.max(1));
                if n <= 1 {
                    return vec![Value::Int(*min)];
                }
                (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        Value::Int(min + ((*max - *min) as f64 * t).round() as i64)
                    })
                    .collect()
            }
            Domain::ContinuousFloat { min, max } => {
                let n = steps.max(1);
                if n == 1 {
                    return vec![Value::float(*min)];
                }
                (0..n)
                    .map(|i| {
                        let t = i as f64 / (n - 1) as f64;
                        Value::float(min + (max - min) * t)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_contains_and_position() {
        let d = Domain::DiscreteInt(vec![1, 3, 8, 16, 24]);
        assert!(d.contains(&Value::Int(8)));
        assert!(!d.contains(&Value::Int(2)));
        assert_eq!(d.position(&Value::Int(8)), Some(2));
        assert_eq!(d.position(&Value::Int(2)), None);
        assert_eq!(d.len(), Some(5));
        assert!(d.is_discrete());
        assert_eq!(d.ty(), ValueType::Integer);
    }

    #[test]
    fn type_mismatch_is_not_member() {
        let d = Domain::DiscreteInt(vec![1, 2]);
        assert!(!d.contains(&Value::float(1.0)));
        assert!(!d.contains(&Value::str("1")));
    }

    #[test]
    fn continuous_contains_and_span() {
        let d = Domain::ContinuousInt { min: 1, max: 30 };
        assert!(d.contains(&Value::Int(1)));
        assert!(d.contains(&Value::Int(30)));
        assert!(!d.contains(&Value::Int(0)));
        assert_eq!(d.span(), Some(29.0));
        assert_eq!(d.bounds(), Some((1.0, 30.0)));
        assert!(!d.is_discrete());
        assert_eq!(d.len(), None);
    }

    #[test]
    fn continuous_float_membership() {
        let d = Domain::ContinuousFloat { min: 0.0, max: 1.0 };
        assert!(d.contains(&Value::float(0.5)));
        assert!(!d.contains(&Value::float(1.5)));
        assert_eq!(d.span(), Some(1.0));
    }

    #[test]
    fn string_domain() {
        let d = Domain::discrete_str(["h264", "mpeg2", "mjpeg"]);
        assert_eq!(d.position(&Value::str("mpeg2")), Some(1));
        assert_eq!(d.ty(), ValueType::String);
    }

    #[test]
    fn validate_rejects_bad_domains() {
        assert!(Domain::DiscreteInt(vec![]).validate().is_err());
        assert!(Domain::DiscreteInt(vec![1, 1]).validate().is_err());
        assert!(Domain::ContinuousInt { min: 5, max: 1 }.validate().is_err());
        assert!(Domain::ContinuousFloat {
            min: 0.0,
            max: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(Domain::DiscreteInt(vec![1, 2]).validate().is_ok());
        assert!(Domain::ContinuousInt { min: 1, max: 1 }.validate().is_ok());
    }

    #[test]
    fn enumerate_discrete_preserves_quality_order() {
        let d = Domain::DiscreteInt(vec![24, 16, 8]);
        assert_eq!(
            d.enumerate(100),
            vec![Value::Int(24), Value::Int(16), Value::Int(8)]
        );
    }

    #[test]
    fn enumerate_continuous_int_covers_endpoints() {
        let d = Domain::ContinuousInt { min: 1, max: 30 };
        let vs = d.enumerate(4);
        assert_eq!(vs.first(), Some(&Value::Int(1)));
        assert_eq!(vs.last(), Some(&Value::Int(30)));
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn enumerate_continuous_small_interval_does_not_duplicate() {
        let d = Domain::ContinuousInt { min: 3, max: 3 };
        assert_eq!(d.enumerate(10), vec![Value::Int(3)]);
    }

    #[test]
    fn enumerate_continuous_float() {
        let d = Domain::ContinuousFloat { min: 0.0, max: 1.0 };
        let vs = d.enumerate(3);
        assert_eq!(
            vs,
            vec![Value::float(0.0), Value::float(0.5), Value::float(1.0)]
        );
    }

    #[test]
    fn first_is_the_head_of_any_enumeration() {
        for d in [
            Domain::DiscreteInt(vec![24, 8, 1]),
            Domain::DiscreteInt(vec![]),
            Domain::discrete_float([0.9, 0.3]),
            Domain::discrete_str(["h264", "mjpeg"]),
            Domain::ContinuousInt { min: 3, max: 3 },
            Domain::ContinuousInt { min: -2, max: 30 },
            Domain::ContinuousFloat { min: 0.5, max: 2.0 },
        ] {
            for steps in [0, 1, 2, 7] {
                assert_eq!(d.first(), d.enumerate(steps).first().cloned(), "{d:?}");
            }
        }
    }
}
