//! Offline stand-in for the `serde_json` crate: renders the serde shim's
//! [`serde::Value`] model to JSON text and parses it back.
//!
//! Supports exactly the surface the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and an [`Error`] type. Output
//! matches real `serde_json` conventions (compact form has no whitespace,
//! pretty form indents by two spaces).

#![forbid(unsafe_code)]

use serde::{de, Deserialize, Serialize, Value, ValueDeserializer};
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
        Error(msg.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&serde::to_value(value), None, 0, &mut out);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&serde::to_value(value), Some(2), 0, &mut out);
    Ok(out)
}

/// How deeply arrays and objects may nest in parsed text — real
/// `serde_json`'s default recursion limit. The parser recurses once per
/// level, so without a cap one line of `[`s overflows the stack, which
/// aborts the process (`catch_unwind` cannot catch it); past the cap
/// parsing fails like any other malformed input.
const MAX_DEPTH: usize = 128;

/// Deserializes a value from JSON text.
pub fn from_str<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T, Error> {
    let mut parser = Parser::new(text);
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::deserialize(ValueDeserializer(value)).map_err(|e| Error(e.to_string()))
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

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    let (nl, pad, pad_in, colon) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * depth),
            " ".repeat(w * (depth + 1)),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Float(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                out.push_str(&format!("{v:.1}"));
            } else {
                out.push_str(&v.to_string());
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(item, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(key, out);
                out.push_str(colon);
                write_value(item, indent, depth + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The input; kept as `&str` so runs of string content can be copied
    /// without re-validating UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
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
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at offset {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    /// Parses one array or object, one level deeper than its parent.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        // Nineteen digits stay below 10^19 < u64::MAX, so they cannot
        // overflow; a sign, a fraction or a longer number goes to `parse`.
        if !is_float && digits[0] != b'-' && digits.len() <= 19 {
            let value = digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            return Ok(Value::UInt(value));
        }
        let text = std::str::from_utf8(digits).expect("number bytes are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
        } else if text.starts_with('-') {
            // Parsed with its sign, so i64::MIN, whose magnitude is no
            // i64, is accepted.
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote or escape in one
            // step. Both delimiters are ASCII, so the run ends on a
            // character boundary of the (already valid) input. Raw control
            // bytes are accepted as content.
            let run = next_special(self.bytes, self.pos, |b| b == b'"' || b == b'\\');
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
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
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
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
