//! In-tree stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal serde-shaped layer that speaks JSON only: a
//! [`Serialize`] type appends its JSON text to a `String`, and a
//! [`Deserialize`] type takes itself off a [`Deserializer`], a byte
//! cursor over the document. Neither side builds an intermediate tree;
//! [`Value`] is only a type a caller can decode into (or encode) when it
//! wants the document's shape rather than a typed value.
//! `#[derive(Serialize, Deserialize)]` is provided by the sibling
//! `serde_derive` proc-macro (re-exported here, as upstream does), and
//! the sibling `serde_json` shim is the `to_string` / `from_str` front.
//!
//! The surface intentionally covers only what this workspace uses:
//! structs with named fields, enums with unit, newtype and struct
//! variants, and the std containers below. The JSON is self-consistent
//! rather than upstream-identical in every corner (e.g. non-finite
//! floats serialize as `null`, and every number is written and read as
//! an `f64`).

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod de;

pub use de::{Deserializer, Variant, MAX_DEPTH};

/// A JSON value tree, for callers that want a document's shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (stored as `f64`; integers are exact up to 2^53).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object, in document order.
    Obj(Vec<(String, Value)>),
}

/// Deserialization error: a human-readable description of the mismatch
/// or syntax error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON text to `out`.
    fn serialize(&self, out: &mut String);
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Takes one value of `Self` off the cursor.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError>;
}

/// Writes a JSON number: an integral value under 9e15 without a
/// fractional part, any other finite value in Rust's shortest
/// round-trip form (`{:?}`), and a non-finite one as `null`.
fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

/// Writes a JSON string literal.
fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `items` as a JSON array.
fn write_seq<T: Serialize>(items: impl IntoIterator<Item = T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize(out),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => write_seq(items, out),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.serialize(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        de.value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        de.bool()
    }
}

// Every number goes through `f64` both ways: written from `self as f64`,
// read as an `f64` and cast (saturating, truncating) to the target. A
// `null` reads as NaN for a float and is an error for an integer.
macro_rules! impl_num {
    ($($t:ty: $null:expr),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                write_number(*self as f64, out)
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
                match de.number()? {
                    Some(n) => Ok(n as $t),
                    None => $null,
                }
            }
        }
    )*};
}

fn null_number<T>() -> Result<T, DeError> {
    Err(DeError("expected number, got null".into()))
}

impl_num!(
    u8: null_number(), u16: null_number(), u32: null_number(), u64: null_number(),
    usize: null_number(), i8: null_number(), i16: null_number(), i32: null_number(),
    i64: null_number(), isize: null_number(), f32: Ok(f32::NAN), f64: Ok(f64::NAN)
);

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_string(self, out)
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        de.string().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_string(self, out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(x) => x.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        if de.eat_null()? {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(self, out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        de.array("array", |de| {
            items.push(T::deserialize(de)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(self, out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(self, out)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::deserialize(de)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident $v:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut String) {
                let items: [&dyn Serialize; [$(stringify!($n)),+].len()] = [$(&self.$n),+];
                write_seq(items, out)
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
                const EXPECT: usize = [$(stringify!($n)),+].len();
                $(let mut $v: Option<$t> = None;)+
                let mut len = 0usize;
                de.array("tuple array", |de| {
                    match len {
                        $($n => $v = Some($t::deserialize(de)?),)+
                        _ => de.skip_value()?,
                    }
                    len += 1;
                    Ok(())
                })?;
                match ($($v,)+) {
                    ($(Some($v),)+) if len == EXPECT => Ok(($($v,)+)),
                    _ => Err(DeError(format!(
                        "expected {EXPECT}-tuple, got array of {len}"))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (0 A a)
    (0 A a, 1 B b)
    (0 A a, 1 B b, 2 C c)
    (0 A a, 1 B b, 2 C c, 3 D d)
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        T::deserialize(de).map(Box::new)
    }
}

/// Map keys convertible to/from JSON object keys (strings). Mirrors
/// `serde_json`'s stringification of integer map keys.
pub trait MapKey: Sized {
    /// Renders the key as a JSON object key.
    fn to_key(&self) -> String;
    /// Parses the key back from a JSON object key.
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse::<$t>()
                    .map_err(|_| DeError(format!("invalid integer map key {key:?}")))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Writes `(key, value)` entries as a JSON object, in the given order.
fn write_map<'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (String, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&k, out);
        out.push(':');
        v.serialize(out);
    }
    out.push('}');
}

/// Reads a JSON object into any map; a repeated key keeps its last value.
fn read_map<K: MapKey, V: Deserialize, M: Default + Extend<(K, V)>>(
    de: &mut Deserializer<'_>,
) -> Result<M, DeError> {
    let mut map = M::default();
    de.object("object", |de, key| {
        let key = K::from_key(key)?;
        map.extend([(key, V::deserialize(de)?)]);
        Ok(())
    })?;
    Ok(map)
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        write_map(self.iter().map(|(k, v)| (k.to_key(), v)), out)
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        read_map(de)
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize(&self, out: &mut String) {
        // Sort keys so serialization is deterministic.
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_key(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        write_map(entries, out)
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        read_map(de)
    }
}

/// Support code referenced by `serde_derive` expansions; not public API.
pub mod __private {
    use super::DeError;

    /// The error for a struct field the document does not carry.
    pub fn missing_field(key: &str) -> DeError {
        DeError(format!("missing field {key:?}"))
    }

    /// The error for a variant name `ty` does not have (in that form).
    pub fn unknown_variant(tag: &str, ty: &str) -> DeError {
        DeError(format!("unknown variant {tag:?} of {ty}"))
    }
}
