//! Dynamically-typed field values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A fact field value: string, number or boolean.
///
/// A string is shared, not owned: cloning a value (into a binding, a
/// join row, another fact) bumps a count instead of copying the text,
/// and a producer that already holds a name as an `Arc<str>` asserts it
/// without a copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// String value.
    Str(Arc<str>),
    /// Numeric value (all numbers are `f64`, as in the source data).
    Num(f64),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// String view, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean view, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total ordering comparison within a type; `None` across types.
    pub fn partial_cmp_same_type(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Num(n) => {
                // Print integers without a trailing ".0" for readability
                // in rule output.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_views() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(2.5).as_num(), Some(2.5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_num(), None);
        assert_eq!(Value::from(1.0).as_bool(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(16.0).to_string(), "16");
        assert_eq!(Value::from(0.25).to_string(), "0.25");
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(Value::from(false).to_string(), "false");
    }

    #[test]
    fn same_type_ordering() {
        use std::cmp::Ordering::*;
        assert_eq!(
            Value::from(1.0).partial_cmp_same_type(&Value::from(2.0)),
            Some(Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_same_type(&Value::from("a")),
            Some(Greater)
        );
        assert_eq!(
            Value::from(true).partial_cmp_same_type(&Value::from(true)),
            Some(Equal)
        );
        assert_eq!(
            Value::from(1.0).partial_cmp_same_type(&Value::from("1")),
            None
        );
    }
}
