//! Typed attribute values.

use std::fmt;

/// The type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (also the type of all keys).
    Int,
    /// 64-bit float (prices, rates).
    Float,
    /// UTF-8 text (names, titles, comments).
    Text,
}

/// A single attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
}

impl Value {
    /// The value's type, or `None` for NULL.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Text(_) => Some(ValueType::Text),
        }
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric content: `Int` widened to `f64`, or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Text content, if this is a `Text`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is compatible with the given column type
    /// (NULL is compatible with every type).
    pub fn matches(&self, ty: ValueType) -> bool {
        match self.value_type() {
            None => true,
            Some(t) => t == ty,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.2}"),
            Value::Text(s) => write!(f, "{s}"),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::Float(1.0).value_type(), Some(ValueType::Float));
        assert_eq!(Value::from("x").value_type(), Some(ValueType::Text));
        assert_eq!(Value::Null.value_type(), None);
    }

    #[test]
    fn null_matches_every_type() {
        for ty in [ValueType::Int, ValueType::Float, ValueType::Text] {
            assert!(Value::Null.matches(ty));
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from("hi").as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(1.5).to_string(), "1.50");
    }
}
