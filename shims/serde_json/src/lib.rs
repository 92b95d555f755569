//! Offline stand-in for the `serde_json` crate: a JSON writer and a pull
//! parser for the serde shim's event model.
//!
//! Supports exactly the surface the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and an [`Error`] type. Output
//! matches real `serde_json` conventions (compact form has no whitespace,
//! pretty form indents by two spaces). [`to_string`] writes text straight
//! from a type's [`Serialize`] impl, and [`from_str`] hands tokens
//! straight to its [`Deserialize`] impl, so neither builds a
//! [`serde::Value`] unless the type asks for one.

#![forbid(unsafe_code)]

use serde::de::{self, MapAccess, SeqAccess, Visitor};
use serde::ser::{SerializeMap, SerializeSeq};
#[cfg(test)]
use serde::Value;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Errors from rendering or parsing JSON.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut Writer::new(&mut out, None, 0))?;
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut Writer::new(&mut out, Some(2), 0))?;
    Ok(out)
}

/// How deeply arrays and objects may nest in parsed text — real
/// `serde_json`'s default recursion limit. The parser recurses once per
/// level, so without a cap one line of `[`s overflows the stack, which
/// aborts the process (`catch_unwind` cannot catch it); past the cap
/// parsing fails like any other malformed input. Values the parser only
/// skips (unknown fields) or buffers (a tagged object whose tag is not
/// first) go through the same parser and the same cap.
const MAX_DEPTH: usize = 128;

/// Deserializes a value from JSON text.
///
/// A syntax error anywhere in the text, the nesting cap and trailing
/// characters included, is reported before any type error: a type error
/// does not stop the parser, which reads on to the end of the text (a
/// [`Deserializer`] consumes every value it hands out), and the first
/// syntax error it meets stays the answer.
pub fn from_str<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, Error> {
    let mut parser = Parser::new(text);
    let value = T::deserialize(&mut parser);
    if let Some(e) = parser.syntax.take() {
        return Err(e);
    }
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    value
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------
/// Repeats a byte in every lane of a little-endian word.
const fn lanes(byte: u8) -> u64 {
    u64::from_le_bytes([byte; 8])
}

/// Whether one of the eight bytes of `word` is `"`, `\` or a control byte
/// (below 0x20), by the "has a zero byte" bit trick on little-endian lanes.
/// A matching lane always sets its top bit; a borrow out of it can also
/// flag a lane above it. The answer for the word is therefore exact, but
/// the flags do not say which byte matched: the byte path finds that.
fn word_needs_care(word: &[u8]) -> bool {
    let word = u64::from_le_bytes(word.try_into().expect("an eight-byte word"));
    let zero_lane = |w: u64| w.wrapping_sub(lanes(1)) & !w;
    let below_space = word.wrapping_sub(lanes(0x20)) & !word;
    (zero_lane(word ^ lanes(b'"')) | zero_lane(word ^ lanes(b'\\')) | below_space) & lanes(0x80)
        != 0
}

/// The index of the first byte at or after `from` that `is_special`
/// accepts, or `bytes.len()` if there is none. Words that
/// [`word_needs_care`] clears are skipped whole; the bytes of any other
/// word, and of the short tail, are tested one at a time. `is_special`
/// must accept only bytes that `word_needs_care` looks for.
fn next_special(bytes: &[u8], mut from: usize, is_special: impl Fn(u8) -> bool) -> usize {
    while from < bytes.len() {
        let end = match bytes.get(from..from + 8) {
            Some(word) if !word_needs_care(word) => {
                from += 8;
                continue;
            }
            Some(_) => from + 8,
            None => bytes.len(),
        };
        if let Some(n) = bytes[from..end].iter().position(|&b| is_special(b)) {
            return from + n;
        }
        from = end;
    }
    bytes.len()
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    // `bytes[clean..at]` needs no escaping. Every special byte is ASCII,
    // so both ends always fall on character boundaries.
    let mut clean = 0;
    loop {
        let at = next_special(bytes, clean, |b| b == b'"' || b == b'\\' || b < 0x20);
        out.push_str(&s[clean..at]);
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = at + 1;
    }
    out.push('"');
}

/// Appends the decimal digits of `v`.
fn write_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("digits are ASCII"));
}

/// The JSON [`Serializer`]: appends each event's text to `out`.
struct Writer<'a> {
    out: &'a mut String,
    /// Spaces per level in pretty form; `None` for compact.
    indent: Option<usize>,
    /// Arrays and objects open around the next value.
    depth: usize,
}

impl<'a> Writer<'a> {
    fn new(out: &'a mut String, indent: Option<usize>, depth: usize) -> Self {
        Writer { out, indent, depth }
    }

    /// Starts a line at the current depth, in pretty form.
    fn newline(&mut self) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', w * self.depth));
        }
    }

    fn open(&mut self, bracket: char) -> Compound<'_, 'a> {
        self.out.push(bracket);
        self.depth += 1;
        Compound {
            writer: self,
            empty: true,
        }
    }
}

/// An array or object being written.
struct Compound<'w, 'a> {
    writer: &'w mut Writer<'a>,
    empty: bool,
}

impl Compound<'_, '_> {
    /// Separates the next element from the previous one.
    fn next(&mut self) {
        if !self.empty {
            self.writer.out.push(',');
        }
        self.empty = false;
        self.writer.newline();
    }

    fn close(self, bracket: char) -> Result<(), Error> {
        self.writer.depth -= 1;
        if !self.empty {
            self.writer.newline();
        }
        self.writer.out.push(bracket);
        Ok(())
    }
}

impl<'w, 'a> Serializer for &'w mut Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'w, 'a>;
    type SerializeMap = Compound<'w, 'a>;

    fn serialize_null(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        write_u64(v, self.out);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        if v < 0 {
            self.out.push('-');
        }
        write_u64(v.unsigned_abs(), self.out);
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        if v.fract() == 0.0 && v.is_finite() {
            let _ = write!(self.out, "{v:.1}");
        } else {
            let _ = write!(self.out, "{v}");
        }
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_escaped(v, self.out);
        Ok(())
    }

    fn serialize_seq(self, _: Option<usize>) -> Result<Compound<'w, 'a>, Error> {
        Ok(self.open('['))
    }

    fn serialize_map(self, _: Option<usize>) -> Result<Compound<'w, 'a>, Error> {
        Ok(self.open('{'))
    }
}

impl SerializeSeq for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.next();
        value.serialize(&mut *self.writer)
    }

    fn end(self) -> Result<(), Error> {
        self.close(']')
    }
}

impl SerializeMap for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<T: Serialize + ?Sized>(
        &mut self,
        key: &str,
        value: &T,
    ) -> Result<(), Error> {
        self.next();
        write_escaped(key, self.writer.out);
        self.writer.out.push_str(if self.writer.indent.is_some() {
            ": "
        } else {
            ":"
        });
        value.serialize(&mut *self.writer)
    }

    fn end(self) -> Result<(), Error> {
        self.close('}')
    }
}

/// Renders a [`Value`] tree, `depth` levels in.
#[cfg(test)]
fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    value
        .serialize(&mut Writer::new(out, indent, depth))
        .expect("rendering never fails");
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A number as the text spells it.
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

/// The JSON [`Deserializer`]: a pull parser over one text.
struct Parser<'de> {
    /// The input; kept as `&str` so runs of string content can be lent or
    /// copied without re-validating UTF-8.
    text: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
    /// The first syntax error met. Once set, every further read fails
    /// with it, so no caller can read past it, and [`from_str`] reports
    /// it in place of any type error.
    syntax: Option<Error>,
}

impl<'de> Parser<'de> {
    fn new(text: &'de str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            syntax: None,
        }
    }

    /// Records a syntax error and returns it.
    fn fail(&mut self, msg: impl Into<String>) -> Error {
        self.syntax.get_or_insert_with(|| Error::new(msg)).clone()
    }

    /// Fails with the recorded syntax error, if any.
    fn check(&self) -> Result<(), Error> {
        match &self.syntax {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    /// Opens an array or object, one level deeper than its parent.
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.fail(format!("invalid literal at offset {}", self.pos)))
        }
    }

    /// The error for a byte that starts no value.
    fn unexpected(&mut self) -> Error {
        match self.peek() {
            Some(c) => self.fail(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            )),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Skips one value, checking it as strictly as reading it would.
    fn skip_value(&mut self) -> Result<(), Error> {
        de::IgnoredAny::deserialize(self).map(drop)
    }

    /// Reads one value as a tree.
    #[cfg(test)]
    fn parse_value(&mut self) -> Result<Value, Error> {
        Value::deserialize(self)
    }

    /// A number. Up to nineteen digits with no sign, fraction or
    /// exponent are built in place: they stay below 10^19 < u64::MAX, so
    /// they cannot overflow. Anything else goes to `str::parse`.
    fn number(&mut self) -> Result<Number, Error> {
        let mut end = self.pos;
        let mut value = 0u64;
        while let Some(&d) = self.bytes.get(end) {
            if !d.is_ascii_digit() || end - self.pos == 19 {
                break;
            }
            value = value * 10 + u64::from(d - b'0');
            end += 1;
        }
        let next = self.bytes.get(end);
        if end > self.pos && !matches!(next, Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.pos = end;
            return Ok(Number::UInt(value));
        }
        self.number_slow()
    }

    /// Any number past [`Parser::number`]'s fast path, the way
    /// `str::parse` reads it.
    fn number_slow(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let digits = &self.bytes[start..self.pos];
        let text = std::str::from_utf8(digits).expect("number bytes are ASCII");
        let number = if is_float {
            text.parse::<f64>()
                .map(Number::Float)
                .map_err(|e| e.to_string())
        } else if text.starts_with('-') {
            // Parsed with its sign, so i64::MIN, whose magnitude is no
            // i64, is accepted.
            text.parse::<i64>()
                .map(Number::Int)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<u64>()
                .map(Number::UInt)
                .map_err(|e| e.to_string())
        };
        number.map_err(|e| self.fail(format!("invalid number `{text}`: {e}")))
    }

    /// A string: lent from the input when it has no escapes, built
    /// otherwise.
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        // The run up to the next quote or escape needs no copy. Both
        // delimiters are ASCII, so the run ends on a character boundary
        // of the (already valid) input. Raw control bytes are accepted as
        // content.
        let run = next_special(self.bytes, self.pos, |b| b == b'"' || b == b'\\');
        if self.bytes.get(run) != Some(&b'"') {
            return self.string_escaped().map(Cow::Owned);
        }
        let text = self.text;
        let content = &text[self.pos..run];
        self.pos = run + 1;
        Ok(Cow::Borrowed(content))
    }

    /// The rest of a string that holds an escape (or never ends).
    fn string_escaped(&mut self) -> Result<String, Error> {
        let mut out = String::new();
        loop {
            let run = next_special(self.bytes, self.pos, |b| b == b'"' || b == b'\\');
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: one escape.
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
                            out.push(self.unicode_escape()?);
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of the `\u` escape whose `u` is at `pos`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let Some(hex) = self.bytes.get(self.pos + 1..self.pos + 5) else {
            return Err(self.fail("truncated \\u escape"));
        };
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
        let Some(code) = code else {
            return Err(self.fail("invalid \\u escape"));
        };
        char::from_u32(code).ok_or_else(|| self.fail("invalid \\u code point"))
    }
}

impl<'de> Deserializer<'de> for &mut Parser<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.check()?;
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.enter()?;
                let mut object = Object::new(self);
                let value = visitor.visit_map(&mut object);
                object.finish()?;
                self.depth -= 1;
                value
            }
            Some(b'[') => {
                self.enter()?;
                let mut array = Array::new(self);
                let value = visitor.visit_seq(&mut array);
                array.finish()?;
                self.depth -= 1;
                value
            }
            Some(b'"') => match self.string()? {
                Cow::Borrowed(s) => visitor.visit_str(s),
                Cow::Owned(s) => visitor.visit_string(s),
            },
            Some(b't') => {
                self.keyword("true")?;
                visitor.visit_bool(true)
            }
            Some(b'f') => {
                self.keyword("false")?;
                visitor.visit_bool(false)
            }
            Some(b'n') => {
                self.keyword("null")?;
                visitor.visit_null()
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => match self.number()? {
                Number::UInt(v) => visitor.visit_u64(v),
                Number::Int(v) => visitor.visit_i64(v),
                Number::Float(v) => visitor.visit_f64(v),
            },
            _ => Err(self.unexpected()),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.check()?;
        self.skip_ws();
        if self.peek() == Some(b'n') {
            self.keyword("null")?;
            visitor.visit_null()
        } else {
            visitor.visit_some(self)
        }
    }
}

/// The elements of an array being read.
struct Array<'p, 'de> {
    parser: &'p mut Parser<'de>,
    first: bool,
    done: bool,
}

impl<'p, 'de> Array<'p, 'de> {
    fn new(parser: &'p mut Parser<'de>) -> Self {
        Array {
            parser,
            first: true,
            done: false,
        }
    }

    /// Steps to the next element: `true` when one follows, `false` once
    /// past the closing bracket.
    fn advance(&mut self) -> Result<bool, Error> {
        if self.done {
            return Ok(false);
        }
        let p = &mut *self.parser;
        p.check()?;
        p.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match p.peek() {
            Some(b']') => {
                p.pos += 1;
                self.done = true;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                p.pos += 1;
                Ok(true)
            }
            _ => Err(p.fail(format!("expected `,` or `]` at offset {}", p.pos))),
        }
    }

    /// Skips whatever the visitor left unread, through the bracket.
    fn finish(&mut self) -> Result<(), Error> {
        while self.advance()? {
            self.parser.skip_value()?;
        }
        Ok(())
    }
}

impl<'de> SeqAccess<'de> for &mut Array<'_, 'de> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        if !self.advance()? {
            return Ok(None);
        }
        T::deserialize(&mut *self.parser).map(Some)
    }
}

/// The entries of an object being read.
struct Object<'p, 'de> {
    parser: &'p mut Parser<'de>,
    first: bool,
    /// A key has been read and its value has not.
    value_due: bool,
    done: bool,
}

impl<'p, 'de> Object<'p, 'de> {
    fn new(parser: &'p mut Parser<'de>) -> Self {
        Object {
            parser,
            first: true,
            value_due: false,
            done: false,
        }
    }

    /// Reads the next key, skipping the last one's value if it went
    /// unread; `None` once past the closing brace.
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if std::mem::replace(&mut self.value_due, false) {
            self.parser.skip_value()?;
        }
        if self.done {
            return Ok(None);
        }
        let p = &mut *self.parser;
        p.check()?;
        p.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match p.peek() {
            Some(b'}') => {
                p.pos += 1;
                self.done = true;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                p.pos += 1;
                p.skip_ws();
            }
            _ => return Err(p.fail(format!("expected `,` or `}}` at offset {}", p.pos))),
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        self.value_due = true;
        Ok(Some(key))
    }

    /// Skips whatever the visitor left unread, through the brace.
    fn finish(&mut self) -> Result<(), Error> {
        while self.next_key()?.is_some() {}
        Ok(())
    }
}

impl<'de> MapAccess<'de> for &mut Object<'_, 'de> {
    type Error = Error;

    fn next_key_with<R>(&mut self, classify: impl FnOnce(&str) -> R) -> Result<Option<R>, Error> {
        Ok(self.next_key()?.map(|key| classify(&key)))
    }

    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, Error> {
        self.value_due = false;
        T::deserialize(&mut *self.parser)
    }

    fn next_value_with<V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value, Error> {
        self.value_due = false;
        (&mut *self.parser).deserialize_any(visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_vec_matches_serde_json_convention() {
        let v: Vec<u32> = vec![0, 322];
        assert_eq!(to_string(&v).unwrap(), "[0,322]");
    }

    #[test]
    fn round_trip_nested() {
        let text = r#"{"a":[1,2,{"b":true}],"c":"x\ny","d":-5,"e":null}"#;
        let v: serde::Value = {
            let mut p = Parser::new(text);
            p.parse_value().unwrap()
        };
        let mut out = String::new();
        write_value(&v, None, 0, &mut out);
        assert_eq!(out, text);
    }

    #[test]
    fn pretty_contains_indent() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("library".to_string(), vec![1u64]);
        let pretty = to_string_pretty(&map).unwrap();
        assert!(pretty.contains("\"library\""));
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<Vec<u32>>("[1] x").is_err());
        assert!(from_str::<bool>("maybe").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deepest = from_str::<serde::Value>(&nest(MAX_DEPTH));
        assert!(deepest.is_ok(), "{MAX_DEPTH} levels parse");
        let mixed = "{\"a\":".repeat(MAX_DEPTH / 2) + &"[".repeat(MAX_DEPTH / 2) + "1";
        let mixed = mixed + &"]".repeat(MAX_DEPTH / 2) + &"}".repeat(MAX_DEPTH / 2);
        assert!(
            from_str::<serde::Value>(&mixed).is_ok(),
            "objects count too"
        );
        let err = from_str::<serde::Value>(&nest(MAX_DEPTH + 1)).expect_err("one level past");
        assert!(err.to_string().contains("nesting"), "got: {err}");
        // Deep enough to overflow a 2 MiB thread stack without the cap;
        // parsed on such a thread, it must come back as an error.
        let line = "[".repeat(200_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_str::<serde::Value>(&line).is_err())
            .expect("spawn")
            .join()
            .expect("the parser must not overflow the stack");
        assert!(parsed, "unterminated deep nesting is an error");
    }

    #[test]
    fn large_u64_survives() {
        let v = vec![u64::MAX];
        let text = to_string(&v).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn every_escape_round_trips_mixed_with_multibyte_utf8() {
        let text = r#""é\"ß\\中\/𝄞\n\r\t\b\f\u0001é end""#;
        let parsed: String = from_str(text).unwrap();
        assert_eq!(parsed, "é\"ß\\中/𝄞\n\r\t\u{8}\u{c}\u{1}é end");
        let back: String = from_str(&to_string(&parsed).unwrap()).unwrap();
        assert_eq!(back, parsed);
    }

    /// Reference escaper, one character at a time.
    fn escape_bytewise(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Reference unescaper, one character at a time, for the escapes
    /// `escape_bytewise` writes; anything else is taken as content.
    fn unescape_bytewise(json: &str) -> String {
        let body = &json[1..json.len() - 1];
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next().expect("an escaped character") {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap()
                }
                c => c,
            });
        }
        out
    }

    /// Every ASCII byte and a 2-, 3- and 4-byte character, at each offset
    /// 0..=16 of fillers 0..=24 bytes long, so each lands in every lane of
    /// a first and second word and in the short tail. The filler holds the
    /// near misses of each word test: a space, `!` and `#` around `"`, and
    /// `[` and `]` around `\`.
    #[test]
    fn strings_encode_and_decode_like_the_bytewise_reference_at_every_word_offset() {
        let filler: Vec<char> = "x !#[]".chars().collect();
        let specials = (0u8..0x80).map(char::from).chain(['é', '中', '𝄞']);
        for c in specials {
            for len in 0..=24 {
                for at in 0..=len.min(16) {
                    let mut s: String = filler.iter().cycle().take(len).collect();
                    s.insert(at, c);
                    let encoded = to_string(&s).unwrap();
                    assert_eq!(encoded, escape_bytewise(&s), "{c:?} at {at} of {len}");
                    let decoded: String = from_str(&encoded).unwrap();
                    assert_eq!(decoded, s, "{c:?} at {at} of {len}");
                    assert_eq!(decoded, unescape_bytewise(&encoded));
                    if c != '"' && c != '\\' {
                        // Raw in the input, control bytes included.
                        let raw = format!("\"{s}\"");
                        assert_eq!(from_str::<String>(&raw).unwrap(), s, "raw {c:?} at {at}");
                    }
                }
            }
        }
    }

    /// Reference integer parser: every integer through `str::parse`.
    fn integer_by_str_parse(text: &str) -> Option<serde::Value> {
        if text.starts_with('-') {
            text.parse::<i64>().ok().map(Value::Int)
        } else {
            text.parse::<u64>().ok().map(Value::UInt)
        }
    }

    #[test]
    fn integers_parse_or_fail_exactly_as_through_str_parse() {
        let cases = [
            "0",
            "9",
            "10",
            "1000000000000000000",
            "9999999999999999999",
            "10000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "007",
            "-0",
            "-9223372036854775807",
            "-9223372036854775808",
        ];
        for text in cases {
            let parsed = from_str::<serde::Value>(text).ok();
            assert_eq!(parsed, integer_by_str_parse(text), "`{text}`");
            let in_array = from_str::<serde::Value>(&format!("[{text}]")).ok();
            assert_eq!(in_array, parsed.map(|v| Value::Seq(vec![v])), "`[{text}]`");
        }
        assert_eq!(
            from_str::<serde::Value>("9999999999999999999").unwrap(),
            Value::UInt(9_999_999_999_999_999_999)
        );
        assert_eq!(from_str::<serde::Value>("007").unwrap(), Value::UInt(7));
        assert_eq!(from_str::<serde::Value>("-0").unwrap(), Value::Int(0));
        assert_eq!(
            from_str::<serde::Value>("-9223372036854775808").unwrap(),
            Value::Int(i64::MIN)
        );
        assert!(from_str::<serde::Value>("-9223372036854775809").is_err());
        assert!(from_str::<serde::Value>("-").is_err());
        // Negative integers round-trip, as a `Value` and as an i64.
        for v in [i64::MIN, i64::MIN + 1, -1] {
            let json = to_string(&Value::Int(v)).unwrap();
            assert_eq!(from_str::<serde::Value>(&json).unwrap(), Value::Int(v));
            assert_eq!(from_str::<i64>(&to_string(&v).unwrap()).unwrap(), v);
        }
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        // Quadratic parsing took ~20 s at this size; linear takes ~1 ms.
        let big = "aé中".repeat(1 << 18);
        assert!(big.len() >= 1 << 20);
        let json = to_string(&big).unwrap();
        let started = std::time::Instant::now();
        let parsed: String = from_str(&json).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, big);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a 1.5 MiB string took {elapsed:?} to parse"
        );
    }
}
