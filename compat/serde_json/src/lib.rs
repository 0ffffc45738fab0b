//! In-tree stand-in for `serde_json`.
//!
//! Serializes the [`serde::Value`] data model of the in-tree serde shim to
//! JSON text and parses it back. Only the two entry points the workspace
//! uses are provided: [`to_string`] and [`from_str`].
//!
//! Number formatting: integers (fract == 0, within `i64`) print without a
//! fractional part; other finite floats print via `{:?}` (Rust's shortest
//! round-trip form, which is valid JSON); non-finite floats print as
//! `null`, matching upstream serde_json's behavior.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error from JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.0)
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Parses a JSON string into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_complete(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array / object nesting the parser accepts (upstream
/// serde_json's default). The parser recurses once per level, so without
/// a cap one line of `[`s overflows a thread's stack; the cap also bounds
/// the recursive drop of the parsed [`Value`].
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

fn parse_value_complete(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character {:?} at offset {}",
                c as char, self.pos
            ))),
        }
    }

    /// Parses one array or object with `parse`, one level deeper; past
    /// [`MAX_DEPTH`] levels it is an error instead.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Safe: we started from valid UTF-8 and only stopped on ASCII.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: join a high surrogate with the
                            // following \uXXXX low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let text = {
            let mut s = String::new();
            write_value(&v, &mut s);
            s
        };
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
            assert_eq!(parse(bad), Err(Error::new("unpaired surrogate")), "{bad}");
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
