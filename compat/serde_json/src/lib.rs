//! In-tree stand-in for `serde_json`.
//!
//! The two entry points the workspace uses, over the JSON-only serde
//! shim: [`to_string`] has the value append its JSON text to one
//! `String`, and [`from_str`] has the type read itself off a
//! [`serde::Deserializer`] over the text, then checks that nothing but
//! whitespace follows. Neither builds a [`serde::Value`] tree unless the
//! type asked for is `Value` itself.
//!
//! Number formatting (the serde shim's): integers (fract == 0,
//! below 9e15 in magnitude) print without a fractional part; other finite
//! floats print via `{:?}` (Rust's shortest round-trip form, which is
//! valid JSON); non-finite floats print as `null`, matching upstream
//! serde_json's behavior.

#![warn(missing_docs)]

use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// Error from JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error { msg: e.0 }
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Parses a JSON string into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(s);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Value, MAX_DEPTH};

    fn parse_value_complete(s: &str) -> Result<Value, Error> {
        from_str(s)
    }

    fn err(msg: &str) -> Error {
        Error { msg: msg.into() }
    }

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("hello \"world\"\n".into())),
            ("count".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(0.125)),
            ("neg".into(), Value::Num(-3.5)),
            ("flag".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
            (
                "items".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)]),
            ),
        ]);
        let text = to_string(&v).unwrap();
        let back = parse_value_complete(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn a_high_surrogate_joins_only_a_low_one() {
        let parse = |s: &str| parse_value_complete(s);
        assert_eq!(
            parse("\"\\uD83D\\uDE00\""),
            Ok(Value::Str("\u{1F600}".into()))
        );
        assert_eq!(
            parse("\"\\uDBFF\\uDFFF\""),
            Ok(Value::Str("\u{10FFFF}".into()))
        );
        // A second high surrogate, or a code point past the low range,
        // once decoded silently to U+FFFF / U+10400.
        for bad in [
            "\"\\uD800\\uDBFF\"",
            "\"\\uD800\\uE000\"",
            "\"\\uD800\\u0041\"",
            "\"\\uD800x\"",
        ] {
            assert_eq!(parse(bad), Err(err("unpaired surrogate")), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value_complete(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_value_complete(&nested(MAX_DEPTH + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse_value_complete(&objects(MAX_DEPTH)).is_ok());
        assert!(parse_value_complete(&objects(MAX_DEPTH + 1)).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(parse_value_complete(&"[".repeat(100_000)).is_err());
        // Depth is nesting, not count: many siblings at one level are fine.
        let wide = format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH));
        assert!(parse_value_complete(&wide).is_ok());
    }

    #[test]
    fn typed_round_trip_via_traits() {
        let data: Vec<(String, f32)> = vec![("a".into(), 1.5), ("b".into(), -0.25)];
        let text = to_string(&data).unwrap();
        let back: Vec<(String, f32)> = from_str(&text).unwrap();
        assert_eq!(data, back);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(to_string(&7u32).unwrap(), "7");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<f64>("{").is_err());
        assert!(from_str::<f64>("12 34").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<bool>("truex").is_err());
    }

    #[test]
    fn parses_nested_whitespace_heavy_json() {
        let text = "\n{ \"a\" : [ 1 , { \"b\" : null } ] ,\t\"c\" : \"\\u0041\\u00e9\" }";
        let v = parse_value_complete(text).unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![
                (
                    "a".into(),
                    Value::Arr(vec![
                        Value::Num(1.0),
                        Value::Obj(vec![("b".into(), Value::Null)])
                    ])
                ),
                ("c".into(), Value::Str("Aé".into())),
            ])
        );
    }
}
