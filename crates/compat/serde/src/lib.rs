//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! serialization interface the workspace relies on: [`Serialize`] /
//! [`Deserialize`] traits and `#[derive(Serialize, Deserialize)]` macros
//! (behind the usual `derive` feature). Instead of serde's visitor
//! architecture, values round-trip through an explicit JSON-like [`Value`]
//! tree; the companion `serde_json` crate renders and parses that tree.
//! The derive macros mirror serde's external JSON representation: structs
//! become objects, unit enum variants become strings, and struct variants
//! become single-key objects. The `#[serde(skip)]` field attribute is
//! honoured (skipped on write, `Default::default()` on read).

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like tree. Object fields keep insertion order so serialized output
/// is stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// One-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
}

impl Error {
    /// Build an error from anything displayable.
    pub fn custom(message: impl std::fmt::Display) -> Self {
        Error {
            message: message.to_string(),
        }
    }

    /// A "expected X, found Y" mismatch error.
    pub fn mismatch(expected: &str, found: &Value) -> Self {
        Error::custom(format!("expected {expected}, found {}", found.kind()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Encode `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Decode a `Self` from a [`Value`].
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

// `Value` round-trips through itself, so callers can hold raw JSON trees
// inside otherwise-typed structs (and `serde_json::to_string(&value)` works).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::mismatch("bool", value))
    }
}

// `$holds(n, MIN, MAX)` says whether `n` is one of the type's values.
// Floats take any number (the cast rounds). Integers arrive from outside the
// program (request bodies), so a number the type cannot hold is an error,
// never a silent truncation or saturation; their bounds are inclusive in
// `f64` because `MAX as f64` rounds up to a power of two for the 64-bit
// types, which is exactly what `MAX` serializes to — `usize::MAX` still
// round-trips (the cast saturates it back).
macro_rules! impl_serde_number {
    ($holds:expr; $($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_f64().ok_or_else(|| Error::mismatch("number", value))?;
                let holds: fn(f64, f64, f64) -> bool = $holds;
                if !holds(n, <$t>::MIN as f64, <$t>::MAX as f64) {
                    let expected = concat!("a number that fits ", stringify!($t));
                    return Err(Error::mismatch(expected, value));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_serde_number!(|_, _, _| true; f32, f64);
impl_serde_number!(|n, min, max| n.fract() == 0.0 && min <= n && n <= max;
    u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::mismatch("string", value))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::mismatch("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| Error::mismatch("array", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected a {expected}-element array, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(usize::from_value(&42usize.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&2.5f64.to_value()).unwrap(), 2.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<(usize, usize)> = vec![(1, 2), (3, 4)];
        assert_eq!(Vec::<(usize, usize)>::from_value(&v.to_value()).unwrap(), v);
        assert_eq!(Option::<usize>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<usize>::from_value(&7usize.to_value()).unwrap(),
            Some(7)
        );
    }

    #[test]
    fn integers_reject_what_they_cannot_hold_and_floats_keep_casting() {
        for bad in [-5.0, 2.7, 1e30, f64::NAN, f64::INFINITY] {
            let err = u64::from_value(&Value::Number(bad)).unwrap_err();
            assert!(err.message.contains("fits u64"), "{bad}: {err}");
            assert!(usize::from_value(&Value::Number(bad)).is_err(), "{bad}");
        }
        assert!(u8::from_value(&Value::Number(256.0)).is_err());
        assert!(i8::from_value(&Value::Number(-129.0)).is_err());
        assert_eq!(i8::from_value(&Value::Number(-128.0)).unwrap(), -128);
        assert_eq!(i64::from_value(&Value::Number(-5.0)).unwrap(), -5);
        assert_eq!(u64::from_value(&Value::Number(0.0)).unwrap(), 0);
        // The extremes survive their own serialization.
        assert_eq!(
            usize::from_value(&usize::MAX.to_value()).unwrap(),
            usize::MAX
        );
        assert_eq!(i64::from_value(&i64::MIN.to_value()).unwrap(), i64::MIN);
        assert_eq!(f32::from_value(&Value::Number(2.7)).unwrap(), 2.7f32);
        assert!(f64::from_value(&Value::Number(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn object_lookup_and_errors() {
        let obj = Value::Object(vec![("a".into(), Value::Number(1.0))]);
        assert_eq!(obj.get("a").and_then(Value::as_f64), Some(1.0));
        assert!(obj.get("b").is_none());
        let err = usize::from_value(&Value::String("x".into())).unwrap_err();
        assert!(err.to_string().contains("expected number"));
    }
}
