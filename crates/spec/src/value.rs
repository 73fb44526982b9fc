//! Attribute values and their types.
//!
//! The paper (§3) defines `Val = {Type, Domain}` with
//! `Type = {integer, float, string}`. [`Value`] is one concrete value of an
//! attribute; [`ValueType`] is its type tag. Floats are wrapped in
//! [`F64`], a total-order wrapper, so values can live in ordered
//! collections and be compared deterministically.

use std::cmp::Ordering;
use std::fmt;

/// A finite, non-NaN `f64` with a total order.
///
/// QoS attribute values are user-supplied configuration, not the result of
/// numeric computation, so rejecting NaN at construction is both safe and
/// ergonomic: every stored float is totally ordered and hashable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64(f64);

impl F64 {
    /// Wraps a float, returning `None` for NaN.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            Some(Self(v))
        }
    }

    /// Wraps a float, panicking on NaN. Intended for literals in specs.
    pub(crate) fn of(v: f64) -> Self {
        Self::new(v).expect("QoS attribute values must not be NaN")
    }

    /// The underlying float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64 {}

impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Non-NaN by construction, so partial_cmp is total here.
        self.0.partial_cmp(&other.0).expect("F64 is never NaN")
    }
}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // -0.0 and 0.0 compare equal; normalise so they hash equal too.
        let v = if self.0 == 0.0 { 0.0f64 } else { self.0 };
        v.to_bits().hash(state);
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for F64 {
    fn from(v: f64) -> Self {
        Self::of(v)
    }
}

/// Type tag of an attribute value (paper §3: `Type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Signed integer values (e.g. colour depth in bits).
    Integer,
    /// Floating-point values (e.g. a compression ratio).
    Float,
    /// Symbolic values (e.g. a codec name).
    String,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Integer => write!(f, "integer"),
            ValueType::Float => write!(f, "float"),
            ValueType::String => write!(f, "string"),
        }
    }
}

/// One concrete attribute value.
///
/// ```
/// use qosc_spec::Value;
/// let v = Value::Int(24);
/// assert_eq!(v.ty(), qosc_spec::ValueType::Integer);
/// assert_eq!(v.as_f64(), Some(24.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A float value (total-ordered, never NaN).
    Float(F64),
    /// A string value. Order between strings follows the domain
    /// declaration, not lexicographic order; `Ord` here only provides a
    /// stable total order for collections.
    Str(String),
}

impl Value {
    /// Convenience constructor for float values.
    pub fn float(v: f64) -> Self {
        Value::Float(F64::of(v))
    }

    /// Convenience constructor for string values.
    pub fn str(v: impl Into<String>) -> Self {
        Value::Str(v.into())
    }

    /// The type tag of this value.
    pub fn ty(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Integer,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::String,
        }
    }

    /// Numeric view of the value, if it has one. Used by the continuous
    /// branch of the evaluation metric (paper eq. 5).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            Value::Str(_) => None,
        }
    }

    /// Integer view, if this is an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, if this is a string value.
    #[cfg(test)]
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn f64_rejects_nan() {
        assert!(F64::new(f64::NAN).is_none());
        assert!(F64::new(1.5).is_some());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn f64_of_panics_on_nan() {
        let _ = F64::of(f64::NAN);
    }

    #[test]
    fn f64_total_order() {
        let mut v = vec![F64::of(3.0), F64::of(-1.0), F64::of(2.5)];
        v.sort();
        assert_eq!(v, vec![F64::of(-1.0), F64::of(2.5), F64::of(3.0)]);
    }

    #[test]
    fn f64_zero_hash_consistent() {
        assert_eq!(F64::of(0.0), F64::of(-0.0));
        assert_eq!(hash_of(&F64::of(0.0)), hash_of(&F64::of(-0.0)));
    }

    #[test]
    fn value_type_tags() {
        assert_eq!(Value::Int(1).ty(), ValueType::Integer);
        assert_eq!(Value::float(1.0).ty(), ValueType::Float);
        assert_eq!(Value::str("pcm").ty(), ValueType::String);
    }

    #[test]
    fn value_numeric_views() {
        assert_eq!(Value::Int(8).as_f64(), Some(8.0));
        assert_eq!(Value::float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Int(8).as_i64(), Some(8));
        assert_eq!(Value::float(2.5).as_i64(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(24).to_string(), "24");
        assert_eq!(Value::float(1.5).to_string(), "1.5");
        assert_eq!(Value::str("h264").to_string(), "h264");
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(0.5f64), Value::float(0.5));
        assert_eq!(Value::from("a"), Value::str("a"));
    }
}
