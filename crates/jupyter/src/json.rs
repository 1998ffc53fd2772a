//! A small, self-contained JSON codec.
//!
//! The Jupyter messaging protocol serializes headers and content as JSON.
//! No offline serializer crate is available, so this module implements the
//! subset of JSON the protocol needs (objects, arrays, strings with escapes,
//! numbers, booleans, null) from scratch: a recursive-descent parser and a
//! canonical encoder (object keys sorted, which `BTreeMap` gives us for
//! free).
//!
//! # What the fast paths rely on
//!
//! Strings are most of a message's bytes (a cell's source travels as one
//! string), so both directions move them a run at a time rather than a
//! character at a time:
//!
//! * **Encode.** Every byte that must be escaped — `"`, `\` and the
//!   controls below U+0020 — is ASCII, so a 256-entry table classifies
//!   bytes without decoding UTF-8: every byte of a multi-byte character is
//!   ≥ 0x80 and maps to "copy". The bytes between two escapes are therefore
//!   whole characters and are appended with one `push_str`.
//! * **Parse.** The parser keeps the `&str` it was given. Inside a string
//!   the only bytes that end a run are `"` and `\`, both ASCII, and an
//!   ASCII byte never occurs inside a multi-byte character, so the text up
//!   to the next stop is a valid `&str` slice and is copied as one —
//!   already-validated UTF-8 is never validated again.
//!
//! Neither needs `unsafe` (the crate forbids it). The per-character encoder
//! these replaced survives as the oracle of this module's differential
//! tests.
//!
//! # Input from outside
//!
//! `\uXXXX` escapes of a surrogate pair (how Python's `json.dumps` writes
//! every character beyond the BMP) combine into the character; a lone
//! surrogate becomes U+FFFD. Containers nest at most [`MAX_DEPTH`] deep —
//! the parser recurses, and a frame of nothing but `[` must not be able to
//! overflow the stack of the thread that reads it. Non-finite numbers, which
//! JSON cannot express, encode as `null`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; the protocol's numbers are small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Builder-style insert; only meaningful on objects.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::with on non-object"),
        }
        self
    }

    /// Looks up `key` on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Encodes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        encode_into(self, &mut s);
        s
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn encode_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => encode_number(*n, out),
        Json::Str(s) => encode_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_string(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Writes a number: integral values without a fraction, non-finite ones
/// (which JSON cannot express and [`Json::parse`] refuses) as `null`.
pub(crate) fn encode_number(n: f64, out: &mut String) {
    // Writing to a `String` cannot fail.
    let _ = if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Per byte: 0 = copy as is, `u` = write as `\u00XX`, anything else = the
/// character that follows the backslash of a two-character escape.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut control = 0;
    while control < 0x20 {
        table[control] = b'u';
        control += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table
};

/// Lowercase hex digits (`\u00XX` escapes here, the wire signature there).
pub(crate) const HEX: &[u8; 16] = b"0123456789abcdef";

/// Writes `s` as a JSON string: clean runs copied whole, escapes from the
/// table (module docs, "What the fast paths rely on"). Public so that a
/// writer that lays out its own document (`core::sweep`'s reports) escapes
/// its labels with this function instead of a second one.
pub fn encode_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    // One pass that remembers where the run began, not a `position` search
    // per run: equal in isolation, but end to end this form measured ≈3 µs
    // a round trip faster on `serve-large` (README, "Wire path").
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[b as usize];
        if escape == 0 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        if escape == b'u' {
            out.push_str("\\u00");
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        } else {
            out.push('\\');
            out.push(escape as char);
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = container(self);
        self.depth -= 1;
        parsed
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // A run ends at the next `"` or `\`; both are ASCII, so the run
            // is whole characters and `text` can be sliced there.
            let run = &self.bytes()[self.pos..];
            let Some(stop) = run.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            s.push_str(&self.text[self.pos..self.pos + stop]);
            self.pos += stop + 1;
            if run[stop] == b'"' {
                return Ok(s);
            }
            match self.bump() {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'b') => s.push('\u{8}'),
                Some(b'f') => s.push('\u{c}'),
                Some(b'u') => s.push(self.unicode_escape()?),
                _ => return Err(self.err("bad escape")),
            }
        }
    }

    /// The four hex digits of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16
                + (d as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("bad hex digit"))?;
        }
        Ok(code)
    }

    /// The character of a `\uXXXX` escape whose `\u` has been consumed. A
    /// high surrogate directly followed by an escaped low surrogate is one
    /// character beyond the BMP; a surrogate without its partner is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes()[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
                // Not a pair: the second escape is read again on its own.
                self.pos = after_high;
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().encode()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(round_trip("null"), "null");
        assert_eq!(round_trip("true"), "true");
        assert_eq!(round_trip("false"), "false");
        assert_eq!(round_trip("42"), "42");
        assert_eq!(round_trip("-3.5"), "-3.5");
        assert_eq!(round_trip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(round_trip("[1,2,[3]]"), "[1,2,[3]]");
        assert_eq!(round_trip("{}"), "{}");
        assert_eq!(round_trip("[]"), "[]");
        // Keys are canonicalized (sorted).
        assert_eq!(round_trip("{\"b\":1,\"a\":2}"), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\nb\t\"q\"A""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"q\"A");
        // Control characters are re-escaped on encode.
        assert_eq!(Json::Str("a\u{1}b".into()).encode(), "\"a\\u0001b\"");
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo ☃");
        assert_eq!(v.encode(), "\"héllo ☃\"");
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("2.5E-1").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn accessors() {
        let v = Json::object()
            .with("s", "x")
            .with("n", 4u64)
            .with("b", true)
            .with("a", Json::Arr(vec![Json::Num(1.0)]));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn display_matches_encode() {
        let v = Json::object().with("k", 1u64);
        assert_eq!(format!("{v}"), v.encode());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_scalar_panics() {
        let _ = Json::Null.with("k", 1u64);
    }
    /// The encoder this module had before byte runs: one `char` at a time.
    /// Kept verbatim as the oracle the table-driven encoder is compared
    /// against, `format!` temporaries and all.
    #[allow(clippy::format_push_string)]
    fn encode_string_per_char(s: &str) -> String {
        let mut out = String::new();
        out.push('"');
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

    fn encoded(s: &str) -> String {
        let mut out = String::new();
        encode_string(s, &mut out);
        out
    }

    fn assert_matches_oracle(s: &str) {
        let oracle = encode_string_per_char(s);
        assert_eq!(encoded(s), oracle, "{s:?}");
        assert_eq!(Json::parse(&oracle).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn every_escape_at_every_position() {
        // Each escaped byte alone, first, last, doubled, and between
        // characters of every UTF-8 width.
        let escaped: Vec<char> = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        for &e in &escaped {
            for s in [
                format!("{e}"),
                format!("{e}tail"),
                format!("head{e}"),
                format!("{e}{e}"),
                format!("a{e}{e}b{e}"),
                format!("é{e}☃{e}😀{e}\u{7f}"),
            ] {
                assert_matches_oracle(&s);
            }
        }
        assert_matches_oracle("");
        assert_matches_oracle("no escapes at all: é☃😀\u{7f}\u{80}\u{ffff}");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_do_not() {
        // What Python's json.dumps writes for 😀 by default.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
        assert_eq!(
            Json::parse(r#""a\uD83D\uDE00b""#).unwrap().as_str(),
            Some("a😀b")
        );
        // U+10000 and U+10FFFF, the ends of the range.
        assert_eq!(
            Json::parse(r#""\ud800\udc00\udbff\udfff""#)
                .unwrap()
                .as_str(),
            Some("\u{10000}\u{10ffff}")
        );
        // Lone halves, a high half before an ordinary escape, two highs.
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        assert!(
            Json::parse(r#""\ud83d\u12""#).is_err(),
            "short second escape"
        );
        assert!(Json::parse(r#""\ud83d\uzzzz""#).is_err());
    }

    #[test]
    fn nesting_is_capped_with_the_offset_of_the_first_bracket_too_deep() {
        let deep = |n: usize, open: &str, close: &str| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH, "[", "]")).is_ok());
        let at_cap = "{\"k\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let e = Json::parse(&deep(MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        // Siblings do not count: depth is what is open, not what was seen.
        let wide = format!("[{}]", vec!["[[]]"; 500].join(","));
        assert!(Json::parse(&wide).is_ok());
        // The 10 KB frame that used to overflow a spawned thread's stack.
        let hostile = "[".repeat(10_000);
        let verdict = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(move || Json::parse(&hostile))
            .unwrap()
            .join()
            .expect("parser returns instead of overflowing the stack");
        assert_eq!(verdict.unwrap_err().offset, MAX_DEPTH);
        let mixed = "[{\"a\":".repeat(5_000);
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(Json::Num(n).encode(), "null");
        }
        let v = Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN), Json::Num(-2.0)]);
        assert_eq!(v.encode(), "[1.5,null,-2]");
        assert!(Json::parse(&v.encode()).is_ok(), "own encoding parses");
    }

    #[test]
    fn numbers_encode_as_before() {
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (42.0, "42"),
            (-3.5, "-3.5"),
            (8.9e15, "8900000000000000"),
            (9.0e15, "9000000000000000"),
            (1e16, "10000000000000000"),
            (0.1, "0.1"),
        ] {
            assert_eq!(Json::Num(n).encode(), text);
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Everything the encoder treats specially, next to characters of
        /// every UTF-8 width that it must copy untouched.
        const ALPHABET: [char; 24] = [
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\0',
            '\u{1}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            ' ',
            '/',
            'a',
            'Z',
            '~',
            '\u{7f}',
            '\u{80}',
            'é',
            '\u{7ff}',
            '☃',
            '\u{ffff}',
            '😀',
            '\u{10000}',
            '\u{10ffff}',
        ];

        fn arb_string() -> impl Strategy<Value = String> {
            proptest::collection::vec(0..ALPHABET.len(), 0..48)
                .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn byte_run_encoder_equals_the_per_char_oracle(s in arb_string()) {
                prop_assert_eq!(encoded(&s), encode_string_per_char(&s));
            }

            #[test]
            fn strings_round_trip_exactly(s in arb_string()) {
                let parsed = Json::parse(&encoded(&s)).expect("own encoding parses");
                prop_assert_eq!(parsed, Json::Str(s));
            }

            /// Printable text: the shim's `\\PC` is ASCII (so `"` and `\\`
            /// too) with 2-, 3- and 4-byte characters mixed in.
            #[test]
            fn printable_strings_agree_too(s in "\\PC{0,64}") {
                let oracle = encode_string_per_char(&s);
                prop_assert_eq!(encoded(&s), oracle.clone());
                prop_assert_eq!(Json::parse(&oracle).expect("parses"), Json::Str(s));
            }
        }
    }
}
