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
//!   already-validated UTF-8 is never validated again. A string with no
//!   escape is that one slice, so it is not copied at all until a value
//!   needs to own it: object keys, and the values a reader borrows
//!   ("Reading in place"), stay slices of the text.
//! * **An absorber underneath.** The encoder and the parser are generic
//!   over a crate-private `Absorb`er that is fed every byte of the text, in
//!   order, as it is written or read. The wire signature is one
//!   (`crate::wire`'s module docs); `()` is the other, a no-op, and the
//!   public [`Json::encode`], [`Json::parse`] and [`encode_string`] use it,
//!   so they compile to the plain loops. There is one encoder and one
//!   string scanner, not a signing copy of each. The parser absorbs a
//!   string's bytes in its scan and catches up on the few bytes between
//!   strings (punctuation, numbers, escapes) before the next run and at
//!   the end of the text.
//!
//! The absorber is called *per byte*, inside the loop that classifies the
//! byte, not once per run after the run's end is found. The signature is a
//! serial chain of about four cycles a byte; classifying a byte needs
//! nothing from that chain, so in the same iteration the core runs both
//! and the codec costs almost nothing on top of the chain. Absorbing a run
//! once it is found is a second loop over bytes the first has just read,
//! and the chain cannot start on them until the scan reaches the run's
//! end. Measured on the `serve-large` ledger's kind of cell (8 KiB of
//! printable ASCII, one byte in sixteen escaped; 8.9 KB once escaped) on a
//! 2-core Xeon VM, best of 10 × 5 × 2 000 calls: the signature alone
//! 9.2–9.6 µs, escape alone 5.1–5.2, escape then sign as two passes
//! 14.4–15.1, absorbing per run 12.6–12.9, absorbing per byte 10.0–10.2.
//!
//! None of this needs `unsafe` (the crate forbids it). The per-character
//! encoder these replaced survives as the oracle of this module's
//! differential tests.
//!
//! # Reading in place
//!
//! The parser has one object loop, `Parser::members`, and every object
//! goes through it. [`Json::parse`] builds each member's value into the
//! dict; a reader of a few fields — the wire's header reader, and through
//! `wire::decode_in_place` the gateway's request reader — is handed each
//! member's key and its [`Value`] instead, and does one of three things:
//!
//! * **borrows a string** ([`Value::str`]): a slice of the text, owned only
//!   when the string holds an escape. The parser's text and its absorber
//!   have lifetimes of their own, so the slice outlives the absorber — the
//!   wire signer — that checked it;
//! * **reads a number** ([`Value::u64`]), as [`Json::as_u64`] would once
//!   the number was parsed;
//! * **leaves it**, and the parser checks it and skips it, building
//!   nothing.
//!
//! Building and skipping are one function, `Parser::value`, whose `BUILD`
//! parameter says whether strings, arrays and objects are built, and the
//! one string scanner's `KEEP` says whether an escaped string's characters
//! are kept. A skipped value therefore has the grammar, the errors, their
//! offsets and the [`MAX_DEPTH`] of a parsed one, and allocates nothing
//! (a key that holds an escape, inside a skipped object, is still decoded).
//! A syntax error inside a value fails the read that handed the value out,
//! whatever the reader did with it: the reader sees `None`, never the
//! error, so it cannot drop it.
//!
//! # Input from outside
//!
//! `\uXXXX` escapes of a surrogate pair (how Python's `json.dumps` writes
//! every character beyond the BMP) combine into the character; a lone
//! surrogate becomes U+FFFD. Containers nest at most [`MAX_DEPTH`] deep —
//! the parser recurses, and a frame of nothing but `[` must not be able to
//! overflow the stack of the thread that reads it. Non-finite numbers, which
//! JSON cannot express, encode as `null`.

use std::borrow::Cow;
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

    /// The value as `u64`, if it is a non-negative integral number below
    /// 2^64 (a larger one does not fit, and does not saturate either).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(f64_as_u64)
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
        let mut out = String::new();
        self.encode_with(&mut out, &mut ());
        out
    }

    /// Appends [`Json::encode`]'s text to `out`, feeding every byte of it
    /// to `absorber`, in order, as it is written.
    pub(crate) fn encode_with<A: Absorb>(&self, out: &mut String, absorber: &mut A) {
        match self {
            Json::Null => put("null", out, absorber),
            Json::Bool(true) => put("true", out, absorber),
            Json::Bool(false) => put("false", out, absorber),
            Json::Num(n) => encode_number(*n, out, absorber),
            Json::Str(s) => encode_string_with(s, out, absorber),
            Json::Arr(items) => {
                put_ascii(b'[', out, absorber);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        put_ascii(b',', out, absorber);
                    }
                    item.encode_with(out, absorber);
                }
                put_ascii(b']', out, absorber);
            }
            Json::Obj(map) => {
                put_ascii(b'{', out, absorber);
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        put_ascii(b',', out, absorber);
                    }
                    encode_string_with(k, out, absorber);
                    put_ascii(b':', out, absorber);
                    v.encode_with(out, absorber);
                }
                put_ascii(b'}', out, absorber);
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with(text, &mut ())
    }

    /// [`Json::parse`], with every byte of `text` also fed to `absorber`,
    /// in order, as it is read. On an error the absorber has seen some
    /// prefix of `text` and should be dropped.
    pub(crate) fn parse_with<A: Absorb>(text: &str, absorber: &mut A) -> Result<Json, JsonError> {
        Parser::whole(text, absorber, Parser::value::<true>)
    }
}

/// A number as a `u64`, if it is non-negative, integral and below 2^64 (a
/// larger one does not fit, and does not saturate either).
fn f64_as_u64(n: f64) -> Option<u64> {
    // 2^64 is exact as an `f64`; `u64::MAX` is not, and rounds up to it.
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    ((0.0..TWO_POW_64).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

/// Reads a text whose top-level object is not built: each member's key and
/// value go to `reader`, in text order, duplicates included (module docs,
/// "Reading in place"). A key is borrowed from `text` unless it holds an
/// escape. Any other top-level value is checked and skipped. Returns the
/// number of members, or `None` when the text is not an object. Errors,
/// their texts and offsets, and [`MAX_DEPTH`] are those of [`Json::parse`].
pub(crate) fn read_members_with<'t, A: Absorb>(
    text: &'t str,
    absorber: &mut A,
    mut reader: impl FnMut(&str, Value<'_, 't>),
) -> Result<Option<usize>, JsonError> {
    Parser::whole(text, absorber, |p| {
        if p.peek() != Some(b'{') {
            return p.skip().map(|()| None);
        }
        p.nested(|p| {
            p.members(|p, key| {
                let start = p.pos;
                let mut error = None;
                reader(
                    &key,
                    Value {
                        parser: p,
                        error: &mut error,
                    },
                );
                match error {
                    Some(e) => Err(e),
                    // Every value is at least a byte long: one the reader
                    // did not take is still at `start`.
                    None if p.pos == start => p.skip(),
                    None => Ok(()),
                }
            })
        })
        .map(Some)
    })
}

/// One member's value, handed to a reader of an object read in place
/// (module docs, "Reading in place"). The reader takes it as a string or
/// as a number, or leaves it, and then the parser checks it and skips it.
/// Either way the parser has read the whole value, and a syntax error in
/// it fails the read that handed it out; the reader only sees `None`.
pub struct Value<'p, 't> {
    parser: &'p mut dyn ReadValue<'t>,
    error: &'p mut Option<JsonError>,
}

impl<'t> Value<'_, 't> {
    /// The value if it is a string: a slice of the text, owned only when
    /// the string holds an escape. `None` for any other value.
    pub fn str(self) -> Option<Cow<'t, str>> {
        let read = self.parser.str_value();
        Self::settle(read, self.error)
    }

    /// The value as [`Json::as_u64`] would read it once parsed: a
    /// non-negative integral number below 2^64. `None` for any other value.
    pub fn u64(self) -> Option<u64> {
        let read = self.parser.u64_value();
        Self::settle(read, self.error)
    }

    fn settle<T>(read: Result<Option<T>, JsonError>, error: &mut Option<JsonError>) -> Option<T> {
        read.unwrap_or_else(|e| {
            *error = Some(e);
            None
        })
    }
}

/// What a [`Value`] asks of the parser underneath it, whatever it absorbs
/// into: one call per member, so the absorber's per-byte loops stay
/// monomorphic below it.
trait ReadValue<'t> {
    fn str_value(&mut self) -> Result<Option<Cow<'t, str>>, JsonError>;
    fn u64_value(&mut self) -> Result<Option<u64>, JsonError>;
}

impl<'t, A: Absorb> ReadValue<'t> for Parser<'t, '_, A> {
    fn str_value(&mut self) -> Result<Option<Cow<'t, str>>, JsonError> {
        if self.peek() == Some(b'"') {
            self.string::<true>().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    fn u64_value(&mut self) -> Result<Option<u64>, JsonError> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(f64_as_u64)
        } else {
            self.skip().map(|()| None)
        }
    }
}

/// Sees every byte the codec writes or reads, in text order: the wire
/// signature (`wire::Signer`), or `()`, which sees nothing and leaves the
/// public [`Json::encode`] and [`Json::parse`] their plain loops.
pub(crate) trait Absorb {
    /// Takes in the next byte of the text.
    fn absorb(&mut self, byte: u8);

    /// Takes in the next bytes of the text.
    fn absorb_all(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.absorb(byte);
        }
    }
}

impl Absorb for () {
    #[inline(always)]
    fn absorb(&mut self, _byte: u8) {}
}

/// Writes `text` to `out` and feeds it to `absorber`.
pub(crate) fn put<A: Absorb>(text: &str, out: &mut String, absorber: &mut A) {
    out.push_str(text);
    absorber.absorb_all(text.as_bytes());
}

/// Writes the ASCII byte `byte` to `out` and feeds it to `absorber`.
fn put_ascii<A: Absorb>(byte: u8, out: &mut String, absorber: &mut A) {
    out.push(char::from(byte));
    absorber.absorb(byte);
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

/// Writes a number: integral values without a fraction, non-finite ones
/// (which JSON cannot express and [`Json::parse`] refuses) as `null`.
pub(crate) fn encode_number<A: Absorb>(n: f64, out: &mut String, absorber: &mut A) {
    let start = out.len();
    // Writing to a `String` cannot fail.
    let _ = if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    absorber.absorb_all(&out.as_bytes()[start..]);
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
    encode_string_with(s, out, &mut ());
}

/// [`encode_string`], feeding `absorber` each byte it writes.
pub(crate) fn encode_string_with<A: Absorb>(s: &str, out: &mut String, absorber: &mut A) {
    out.reserve(s.len() + 2);
    put_ascii(b'"', out, absorber);
    // One pass that remembers where the run began, not a `position` search
    // per run: equal in isolation, but end to end this form measured ≈3 µs
    // a round trip faster on `serve-large` (README, "Wire path"). A clean
    // byte is absorbed as it is classified, not with its run once the run
    // ends (module docs, "What the fast paths rely on").
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[b as usize];
        if escape == 0 {
            absorber.absorb(b);
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        if escape == b'u' {
            put("\\u00", out, absorber);
            put_ascii(HEX[(b >> 4) as usize], out, absorber);
            put_ascii(HEX[(b & 0xf) as usize], out, absorber);
        } else {
            put_ascii(b'\\', out, absorber);
            put_ascii(escape, out, absorber);
        }
    }
    out.push_str(&s[run_start..]);
    put_ascii(b'"', out, absorber);
}

/// The text's one reader. `'t` is the text, which strings are borrowed
/// from; `'s` is the absorber, which is only lent for the read, so a
/// borrowed string outlives it (`wire::decode_in_place` hands its reader
/// slices of the frames after the signer is gone).
struct Parser<'t, 's, A> {
    text: &'t str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
    absorber: &'s mut A,
    /// `text[..absorbed]` has been fed to `absorber`. Strings absorb their
    /// runs as they scan them; the few bytes between strings (punctuation,
    /// numbers, escapes) are caught up before the next run and at the end.
    /// Never past `pos`, so the surrogate backtrack need not undo it.
    absorbed: usize,
}

impl<'t, 's, A: Absorb> Parser<'t, 's, A> {
    /// Reads all of `text` with `top`, whitespace around it allowed,
    /// feeding `absorber` every byte.
    fn whole<T>(
        text: &'t str,
        absorber: &'s mut A,
        top: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
            absorber,
            absorbed: 0,
        };
        p.skip_ws();
        let v = top(&mut p)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        p.absorb_to(text.len());
        Ok(v)
    }

    /// Feeds `absorber` the text up to `end`.
    fn absorb_to(&mut self, end: usize) {
        // `get`, not an index: the no-op absorber leaves no bounds check.
        if let Some(unabsorbed) = self.bytes().get(self.absorbed..end) {
            self.absorber.absorb_all(unabsorbed);
        }
        self.absorbed = end;
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn bytes(&self) -> &'t [u8] {
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

    /// One value, built when `BUILD`. Otherwise it is checked and skipped:
    /// the same grammar, errors and depth limit, but no string, array or
    /// object is built, so nothing is allocated (module docs, "Reading in
    /// place"), and what is returned is a placeholder.
    fn value<const BUILD: bool>(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => {
                let s = self.string::<BUILD>()?;
                Ok(if BUILD {
                    Json::Str(s.into_owned())
                } else {
                    Json::Null
                })
            }
            Some(b'[') => self.nested(Self::array::<BUILD>),
            Some(b'{') => self.nested(Self::object::<BUILD>),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Checks one value and moves past it, building nothing.
    fn skip(&mut self) -> Result<(), JsonError> {
        self.value::<false>().map(drop)
    }

    /// Parses one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let parsed = container(self);
        self.depth -= 1;
        parsed
    }

    /// The one string scanner: a string, borrowed from `text` when it holds
    /// no escape. With `KEEP` false an escaped string is still read to its
    /// end and each escape checked, but its characters go nowhere and `""`
    /// comes back.
    fn string<const KEEP: bool>(&mut self) -> Result<Cow<'t, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut s = String::new();
        loop {
            self.absorb_to(self.pos);
            // A run ends at the next `"` or `\`; both are ASCII, so the run
            // is whole characters and `text` can be sliced there. Each byte
            // is absorbed in the loop that classifies it, the stop included.
            let run = &self.bytes()[self.pos..];
            let absorber = &mut *self.absorber;
            let Some(stop) = run.iter().position(|&b| {
                absorber.absorb(b);
                b == b'"' || b == b'\\'
            }) else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            let chars = &self.text[self.pos..self.pos + stop];
            let unescaped = self.pos == start;
            self.pos += stop + 1;
            self.absorbed = self.pos;
            if run[stop] == b'"' {
                if unescaped {
                    return Ok(Cow::Borrowed(chars));
                }
                if !KEEP {
                    return Ok(Cow::Borrowed(""));
                }
                s.push_str(chars);
                return Ok(Cow::Owned(s));
            }
            let escaped = match self.bump() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            };
            if KEEP {
                s.push_str(chars);
                s.push(escaped);
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

    fn number(&mut self) -> Result<f64, JsonError> {
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
            .map_err(|_| self.err("invalid number"))
    }

    fn array<const BUILD: bool>(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value::<BUILD>()?;
            if BUILD {
                items.push(item);
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object<const BUILD: bool>(&mut self) -> Result<Json, JsonError> {
        let mut map = BTreeMap::new();
        self.members(|p, key| {
            let value = p.value::<BUILD>()?;
            if BUILD {
                map.insert(key.into_owned(), value);
            }
            Ok(())
        })?;
        Ok(Json::Obj(map))
    }

    /// The one object loop: hands each member's key to `member`, which
    /// reads the value that follows it, in text order, and returns how many
    /// members there were.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'t, str>) -> Result<(), JsonError>,
    ) -> Result<usize, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.skip_ws();
            let key = self.string::<true>()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            count += 1;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(count),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    fn as_u64_refuses_what_does_not_fit_instead_of_saturating() {
        let two_pow_64 = 2f64.powi(64);
        // The largest `f64` below 2^64, 2^64 − 2^11, is the last that fits.
        let below = two_pow_64 - 2048.0;
        assert_eq!(Json::Num(below).as_u64(), Some(u64::MAX - 2047));
        for n in [two_pow_64, 1e20, f64::MAX, f64::INFINITY, f64::NAN, -1.0] {
            assert_eq!(Json::Num(n).as_u64(), None, "{n}");
        }
        assert_eq!(Json::Num(-0.0).as_u64(), Some(0));
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
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

    pub(crate) mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Everything the encoder treats specially, next to characters of
        /// every UTF-8 width that it must copy untouched. The wire's
        /// differential tests draw their cells from it too.
        pub(crate) const ALPHABET: [char; 24] = [
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
