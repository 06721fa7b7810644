//! Attribute values.
//!
//! The simulated databases store three kinds of attribute: integers (join
//! keys, years), floats (similarity scores), and interned strings (names,
//! terms). `Value` is totally ordered and hashable so it can serve directly
//! as a join key in the access-module hash tables.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single attribute value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL. Nulls never join (they compare equal for ordering purposes
    /// but a null join key never matches anything, per [`Value::joins_with`]).
    Null,
    /// 64-bit integer (join keys, identifiers, years).
    Int(i64),
    /// 64-bit float (similarity scores, weights). NaN is normalized to
    /// negative infinity on construction via [`Value::float`].
    Float(f64),
    /// Interned string (cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Build a float value, normalizing NaN so that `Value` stays totally
    /// ordered.
    #[inline]
    pub fn float(f: f64) -> Value {
        if f.is_nan() {
            Value::Float(f64::NEG_INFINITY)
        } else {
            Value::Float(f)
        }
    }

    /// Build an interned string value.
    #[inline]
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The float payload, coercing integers.
    #[cfg(test)]
    #[inline]
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this value, used as a join key, matches `other`.
    ///
    /// Follows SQL semantics: NULL never joins with anything, including
    /// another NULL.
    #[inline]
    pub fn joins_with(&self, other: &Value) -> bool {
        !matches!(self, Value::Null) && !matches!(other, Value::Null) && self == other
    }

    /// A small discriminant used for canonical ordering across variants.
    #[inline]
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tag().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_never_joins() {
        assert!(!Value::Null.joins_with(&Value::Null));
        assert!(!Value::Null.joins_with(&Value::Int(1)));
        assert!(!Value::Int(1).joins_with(&Value::Null));
        assert!(Value::Int(1).joins_with(&Value::Int(1)));
        assert!(!Value::Int(1).joins_with(&Value::Int(2)));
    }

    #[test]
    fn string_equality_and_join() {
        let a = Value::str("plasma membrane");
        let b = Value::str("plasma membrane");
        assert!(a.joins_with(&b));
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_normalized() {
        let v = Value::float(f64::NAN);
        assert_eq!(v, Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = [
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::float(1.5),
            Value::Int(-1),
            Value::str("a"),
        ];
        vals.sort();
        // Null < ints < floats < strings, and within-variant ordering holds.
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[3], Value::float(1.5));
        assert_eq!(vals[4], Value::str("a"));
        assert_eq!(vals[5], Value::str("b"));
    }

    #[test]
    fn int_float_coercion_for_scores() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::float(0.25).as_float(), Some(0.25));
        assert_eq!(Value::str("x").as_float(), None);
    }
}
