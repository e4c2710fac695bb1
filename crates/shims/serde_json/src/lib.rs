//! Vendored shim for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: JSON text to and from the `serde` shim's [`Value`] data model.
//!
//! Provides the subset the workspace uses — [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], the [`json!`] macro,
//! and [`Value`] itself (re-exported from the `serde` shim, where it lives
//! so the derive macros can target it without a circular dependency).
//! [`Reader`] is the tree parser's cursor as a pull reader, for callers
//! that read a known shape straight into their own types; the [`borrow`]
//! module adds a zero-copy parser ([`from_slice`] → [`BorrowedValue`]).
//! All three share one grammar, and refuse nesting deeper than 128
//! arrays or objects with `recursion limit exceeded at byte N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::{Error, Number, Value};

pub mod borrow;
mod parse;
mod print;

pub use borrow::{from_slice, BorrowedValue};
pub use parse::Reader;

/// Render any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to compact JSON text.
///
/// Infallible for this shim's data model; the `Result` matches the real
/// `serde_json` signature so call sites are source-compatible.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::compact(&value.as_value()))
}

/// Serialize to human-readable JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::pretty(&value.as_value()))
}

/// Parse JSON text and rebuild a value from it.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse::parse(text)?;
    T::from_value(&value)
}

/// Build a [`Value`] from JSON-looking syntax.
///
/// Supports the shapes the workspace writes: `null`, object literals with
/// string-literal keys, array literals, and arbitrary serializable
/// expressions (including nested `json!` calls) in value position.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = json!({
            "name": "two-shelf",
            "machines": 1024u64,
            "ratio": 1.5f64,
            "ok": true,
            "tags": vec!["a".to_string(), "b".to_string()],
            "nested": json!([1u64, 2u64]),
            "nothing": Value::Null,
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_round_trip() {
        let v = json!({ "jobs": json!([json!({"constant": 5u64})]), "m": 8u64 });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s": "a\\b\"c\nA", "n": -12, "f": 2.5e2}"#).unwrap();
        assert_eq!(v["s"].as_str(), Some("a\\b\"c\nA"));
        assert_eq!(v["n"].as_i64(), Some(-12));
        assert_eq!(v["f"].as_f64(), Some(250.0));
    }

    #[test]
    fn multibyte_utf8_round_trips() {
        let original = json!({ "s": "γ_j(t) ≤ ω — 🦀" });
        let back: Value = from_str(&to_string(&original).unwrap()).unwrap();
        assert_eq!(original, back);
        assert_eq!(back["s"].as_str(), Some("γ_j(t) ≤ ω — 🦀"));
    }

    #[test]
    fn prints_escapes_and_numbers_exactly() {
        let v = json!({
            "s": "a\"b\\c\n\r\t\u{1}\u{1f}γ🦀 ",
            "u": u128::MAX,
            "zero": 0u64,
            "u64": u64::MAX,
            "i": -12i64,
            "f": 2.5f64,
            "whole": 3.0f64,
            "nan": f64::NAN,
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"s":"a\"b\\c\n\r\t\u0001\u001fγ🦀 ","u":340282366920938463463374607431768211455,"zero":0,"u64":18446744073709551615,"i":-12,"f":2.5,"whole":3.0,"nan":null}"#
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn u128_numbers_survive() {
        let big = u128::MAX;
        let text = to_string(&big).unwrap();
        let back: u128 = from_str(&text).unwrap();
        assert_eq!(back, big);
    }
}
