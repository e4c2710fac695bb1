//! Vendored shim for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The workspace builds hermetically (no registry access), so `serde`
//! resolves to this local shim. Instead of real serde's zero-copy
//! `Serializer`/`Deserializer` visitors, the shim routes everything through
//! one in-memory data model, [`Value`]: [`Serialize`] renders a value *into*
//! a [`Value`] tree, [`Deserialize`] rebuilds a value *from* one. The
//! companion `serde_json` shim parses and prints JSON text to and from the
//! same tree, and the `serde_derive` shim generates impls of these traits
//! for structs and enums (externally-tagged, honoring
//! `#[serde(rename_all = "snake_case")]` and
//! `#[serde(skip_serializing_if = "...")]`).
//!
//! The surface intentionally covers only what the workspace uses; extend it
//! here (with tests) when a new call-site needs more.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;

mod value;

pub use value::{Number, Value};

/// Serialization/deserialization error: a message, as in `serde`'s
/// `de::Error::custom`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error from a message.
    pub fn custom(msg: impl std::fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be rendered into the [`Value`] data model.
pub trait Serialize {
    /// Render `self` as a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// `self` as a [`Value`] tree, borrowed when it already is one: the
    /// JSON printers walk the result in place, so printing a `Value`
    /// never deep-clones it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Types that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u128(*self as u128))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_number()
                    .and_then(Number::as_u128)
                    .ok_or_else(|| type_error(v, stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i128(*self as i128))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_number()
                    .and_then(Number::as_i128)
                    .ok_or_else(|| type_error(v, stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, u128, usize);
impl_serde_int!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_f64(*self as f64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| type_error(v, stringify!($t)))
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| type_error(v, "bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| type_error(v, "string"))
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

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| type_error(v, "array"))?
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
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:literal;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| type_error(v, "tuple"))?;
                if a.len() != $len {
                    return Err(Error::custom(format!(
                        "expected array of length {}, got {}",
                        $len,
                        a.len()
                    )));
                }
                Ok(($($name::from_value(&a[$idx])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

fn type_error(v: &Value, want: &str) -> Error {
    Error::custom(format!("expected {want}, found {}", v.kind()))
}

/// Look up `key` in an object's fields and deserialize it.
///
/// Missing keys deserialize from [`Value::Null`], which makes `Option`
/// fields implicitly optional (matching real serde's derive behavior) while
/// everything else reports a missing field.
pub fn de_field<T: Deserialize>(fields: &[(String, Value)], key: &str) -> Result<T, Error> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| Error::custom(format!("field `{key}`: {e}")))
        }
        None => T::from_value(&Value::Null)
            .map_err(|_| Error::custom(format!("missing field `{key}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<(u64, u64)> = vec![(1, 900), (4, 700)];
        assert_eq!(Vec::<(u64, u64)>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn values_are_borrowed_not_rendered() {
        let v = Value::Array(vec![Value::Bool(true)]);
        assert!(matches!(v.as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!((&&v).as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(7u64.as_value(), Cow::Owned(Value::Number(_))));
    }

    #[test]
    fn out_of_range_rejected() {
        let big = u64::MAX.to_value();
        assert!(u32::from_value(&big).is_err());
        assert!(i64::from_value(&big).is_err());
    }

    #[test]
    fn option_fields_default_to_none() {
        let got: Option<f64> = de_field(&[], "absent").unwrap();
        assert_eq!(got, None);
        let missing: Result<u64, _> = de_field(&[], "absent");
        assert!(missing.is_err());
    }
}
