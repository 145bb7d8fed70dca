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
        ValueRef::from(self).as_int()
    }

    /// Numeric content: `Int` widened to `f64`, or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        ValueRef::from(self).as_f64()
    }

    /// Text content, if this is a `Text`.
    pub fn as_str(&self) -> Option<&str> {
        ValueRef::from(self).as_str()
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
        ValueRef::from(self).fmt(f)
    }
}

/// A borrowed view of one stored cell: what [`crate::Table::value`]
/// returns. Tables hold typed columns, not `Value`s, so there is no
/// `&Value` to hand out; this is the `Copy` stand-in with the same
/// accessor names. [`Value`] stays the owned form that mutations, the
/// WAL and the wire carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value, borrowed from its column.
    Text(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Integer content, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric content: `Int` widened to `f64`, or `Float`.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(v) => Some(v as f64),
            ValueRef::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Text content, if this is a `Text`.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The owned copy of the cell.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == ValueRef::from(other)
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v:.2}"),
            ValueRef::Text(s) => write!(f, "{s}"),
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
    fn borrowed_view_mirrors_the_owned_value() {
        assert!(std::mem::size_of::<ValueRef>() <= 24);
        for v in [Value::Null, Value::Int(-3), Value::Float(2.5), Value::from("hi")] {
            let r = ValueRef::from(&v);
            assert_eq!(r, v);
            assert_eq!(r.to_value(), v);
            assert_eq!((r.as_int(), r.as_f64(), r.as_str()), (v.as_int(), v.as_f64(), v.as_str()));
            assert_eq!(r.to_string(), v.to_string());
        }
        assert_ne!(ValueRef::Int(1), Value::Float(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::from("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(1.5).to_string(), "1.50");
    }
}
