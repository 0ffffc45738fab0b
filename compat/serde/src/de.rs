//! The JSON reader behind every [`Deserialize`](crate::Deserialize) impl:
//! a byte cursor over one document that typed decoders take values off
//! directly, with no intermediate tree.
//!
//! What it accepts is what a parse into [`Value`] accepts. Every value of
//! the document is either decoded or, when no field wants it (an unknown
//! field, a later duplicate, an array's surplus element), parsed and
//! dropped, so a syntax error anywhere is still an error, and nesting
//! past [`MAX_DEPTH`] is refused wherever it occurs.

use std::borrow::Cow;

use crate::{DeError, Value};

/// Deepest array / object nesting the reader accepts (upstream
/// serde_json's default). Parsing recurses once per level, so without a
/// cap one line of `[`s overflows a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A cursor over one JSON document.
pub struct Deserializer<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// The head of an externally tagged enum value (see
/// [`Deserializer::variant`]).
pub enum Variant<'a> {
    /// A bare string: a unit variant's name.
    Unit(Cow<'a, str>),
    /// A one-field object's key; its value is next on the cursor, and
    /// [`Deserializer::end_variant`] closes the object after it.
    Tagged(Cow<'a, str>),
}

fn err(msg: impl Into<String>) -> DeError {
    DeError(msg.into())
}

impl<'a> Deserializer<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Deserializer {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that nothing but whitespace follows the value just read.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(err(format!("trailing characters at offset {}", self.pos)))
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn keyword<T>(&mut self, kw: &str, value: T) -> Result<T, DeError> {
        if self.eat_keyword(kw) {
            Ok(value)
        } else {
            Err(err(format!("invalid token at offset {}", self.pos)))
        }
    }

    /// The error for a value of the wrong kind where `what` was wanted:
    /// the value's own syntax error if it has one, else `expected
    /// {what}, got {kind}`.
    fn mismatch(&mut self, what: &str) -> DeError {
        self.skip_ws();
        let kind = match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            _ => "number",
        };
        match self.skip_value() {
            Err(e) => e,
            Ok(()) => err(format!("expected {what}, got {kind}")),
        }
    }

    /// Consumes a `null` if one is next (`Ok(true)`); leaves any other
    /// value in place.
    pub(crate) fn eat_null(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", true),
            _ => Ok(false),
        }
    }

    /// Reads a boolean.
    pub(crate) fn bool(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.keyword("true", true),
            Some(b'f') => self.keyword("false", false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Reads a number, or `None` for `null` (which only float targets
    /// accept).
    pub(crate) fn number(&mut self) -> Result<Option<f64>, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.parse_number().map(Some),
            Some(b'n') => self.keyword("null", None),
            _ => Err(self.mismatch("number")),
        }
    }

    /// Reads a string, borrowed from the document unless it holds
    /// escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string(),
            _ => Err(self.mismatch("string")),
        }
    }

    /// Reads an array, handing `each` the cursor once per element; `each`
    /// must consume exactly one value. `what` names the expected type in
    /// a mismatch error.
    pub(crate) fn array(
        &mut self,
        what: &str,
        mut each: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.mismatch(what));
        }
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.close();
        }
        loop {
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.close(),
                _ => return Err(err(format!("expected ',' or ']' at offset {}", self.pos))),
            }
        }
    }

    /// Reads an object, handing `each` the cursor and the key once per
    /// entry, in document order; `each` must consume exactly the entry's
    /// value. `what` names the expected type in a mismatch error.
    pub fn object(
        &mut self,
        what: &str,
        mut each: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.mismatch(what));
        }
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.close();
        }
        loop {
            let key = self.key()?;
            each(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.close(),
                _ => return Err(err(format!("expected ',' or '}}' at offset {}", self.pos))),
            }
        }
    }

    /// Reads the head of an externally tagged enum (`"Unit"` or
    /// `{"Tag": ...}`); `what` names the enum in errors. An object that
    /// is not exactly one entry long is a mismatch.
    pub fn variant(&mut self, what: &str) -> Result<Variant<'a>, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string().map(Variant::Unit),
            Some(b'{') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    return Err(err(format!("expected {what}, got object")));
                }
                self.key().map(Variant::Tagged)
            }
            _ => Err(self.mismatch(what)),
        }
    }

    /// Closes the object a [`Variant::Tagged`] opened, after its value.
    pub fn end_variant(&mut self, what: &str) -> Result<(), DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => self.close(),
            Some(b',') => Err(err(format!("expected {what}, got object"))),
            _ => Err(err(format!("expected ',' or '}}' at offset {}", self.pos))),
        }
    }

    /// Parses and drops one value.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        self.value().map(drop)
    }

    /// Parses one value into a [`Value`] tree.
    pub(crate) fn value(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        match self.peek() {
            None => Err(err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array("array", |de| {
                    items.push(de.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object("object", |de, key| {
                    fields.push((key.to_string(), de.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number().map(Value::Num),
            Some(c) => Err(err(format!(
                "unexpected character {:?} at offset {}",
                c as char, self.pos
            ))),
        }
    }

    /// Steps into the `[` or `{` at the cursor, one level deeper; past
    /// [`MAX_DEPTH`] levels it is an error instead.
    fn open(&mut self) -> Result<(), DeError> {
        if self.depth == MAX_DEPTH {
            return Err(err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Steps past the `]` or `}` at the cursor, one level up.
    fn close(&mut self) -> Result<(), DeError> {
        self.depth -= 1;
        self.pos += 1;
        Ok(())
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.skip_ws();
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            // A run of plain bytes. It starts and stops at ASCII bytes
            // (or the end), so it is a whole `str` slice.
            while let Some(&b) = self.bytes().get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: join a high surrogate with
                            // the following \uXXXX low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_keyword("\\u") {
                                    return Err(err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(err("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| err("invalid \\u escape"))?
                            };
                            s.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(err("invalid escape sequence")),
                    };
                    s.push(c);
                    self.pos += 1;
                }
                _ => return Err(err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<f64, DeError> {
        let start = self.pos;
        let digits = |de: &mut Self| {
            while matches!(de.peek(), Some(b'0'..=b'9')) {
                de.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        // Every byte consumed is ASCII, so this is a whole `str` slice.
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| err(format!("invalid number {text:?}")))
    }
}
