//! A self-contained JSON codec: value type, parser, serializer, and the
//! [`ToJson`]/[`FromJson`] traits that replace the serde derives.
//!
//! The encoding conventions mirror serde's externally-tagged default
//! closely enough that the emitted files stay human-readable:
//!
//! * structs → objects keyed by field name;
//! * unit enum variants → their name as a string;
//! * tuple enum variants → `{"Variant": [field, ...]}`;
//! * struct enum variants → `{"Variant": {"field": ..., ...}}`;
//! * maps → objects (non-string keys are embedded as their compact JSON
//!   encoding, and recovered on the way back in).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Integers and floats are kept apart so that `u64`/`i64` round-trip
/// exactly; [`FromJson`] for float types accepts either.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error from parsing or decoding JSON.
///
/// Parse errors carry the 1-based `line`/`col` of the offending byte;
/// decode (shape-mismatch) errors report position `0:0`.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
    /// 1-based line of a parse error, 0 for decode errors.
    pub line: usize,
    /// 1-based column of a parse error, 0 for decode errors.
    pub col: usize,
}

impl JsonError {
    /// A decode (shape) error with no source position.
    pub fn decode(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            line: 0,
            col: 0,
        }
    }

    /// The standard "expected X, got Y" decode error.
    pub fn type_mismatch(ty: &str, want: &str, got: &Json) -> Self {
        JsonError::decode(format!("{ty}: expected {want}, got {}", got.kind_name()))
    }

    fn parse(msg: impl Into<String>, line: usize, col: usize) -> Self {
        JsonError {
            msg: msg.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {} column {}", self.msg, self.line, self.col)
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The value's kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// `Some` for `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some` for `Int`, and for `Float` with an exactly-integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => Some(*x as i64),
            _ => None,
        }
    }

    /// `Some` for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// `Some` for `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `Some` for `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// `Some` for `Object`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Parses a JSON document. The whole input must be consumed.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Reader::parse_document(text.as_bytes())
    }

    /// Two-space-indented serialization.
    pub fn to_string_pretty(&self) -> String {
        self.rendered(Some(0))
    }

    /// The tree rendered by [`write_json`] (see there for `indent`).
    fn rendered(&self, indent: Option<usize>) -> String {
        let mut out = Vec::new();
        write_json(&mut out, self, indent);
        String::from_utf8(out).expect("JSON rendering is UTF-8")
    }
}

/// Compact serialization (`to_string()` comes with it via `ToString`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered(None))
    }
}

/// Byte of the two-character escapes (`\n`, `\t`, ...), `b'u'` for the
/// generic `\u00xx` form, or 0 for "no escape needed".
const fn escape_class(b: u8) -> u8 {
    match b {
        b'"' => b'"',
        b'\\' => b'\\',
        b'\n' => b'n',
        b'\r' => b'r',
        b'\t' => b't',
        0x08 => b'b',
        0x0c => b'f',
        0x00..=0x1f => b'u',
        _ => 0,
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// One-pass string escaping: contiguous runs of safe bytes are copied with
/// `extend_from_slice`; control characters go through a static hex table
/// (no per-character `format!` allocation). Emits the surrounding quotes.
pub fn escape_str_into(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut safe_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let class = escape_class(b);
        if class == 0 {
            continue;
        }
        out.extend_from_slice(&bytes[safe_from..i]);
        safe_from = i + 1;
        if class == b'u' {
            out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX_DIGITS[(b >> 4) as usize],
                HEX_DIGITS[(b & 0xf) as usize],
            ]);
        } else {
            out.extend_from_slice(&[b'\\', class]);
        }
    }
    out.extend_from_slice(&bytes[safe_from..]);
    out.push(b'"');
}

/// Exact byte length [`escape_str_into`] would emit for `s`, including
/// the surrounding quotes — lets byte budgeting run without rendering.
pub fn escaped_len(s: &str) -> usize {
    2 + s
        .bytes()
        .map(|b| match escape_class(b) {
            0 => 1,
            b'u' => 6,
            _ => 2,
        })
        .sum::<usize>()
}

/// Stack-buffer size for [`fmt_i64`]: `i64::MIN` renders to 20 bytes.
pub const I64_BUF: usize = 20;

/// Stack-buffer size for [`fmt_f64`]: the longest shortest-round-trip
/// `{:?}` rendering of a finite `f64` is 24 bytes
/// (`-2.2250738585072014e-308`); 40 leaves margin.
pub const F64_BUF: usize = 40;

/// Formats `v` into the caller's stack buffer without allocating, returning
/// the rendered digits (itoa-style; shared by [`write_json`] and
/// [`Writer`]).
pub fn fmt_i64(buf: &mut [u8; I64_BUF], v: i64) -> &str {
    let mut n = v;
    let mut i = buf.len();
    loop {
        i -= 1;
        // `%` rounds toward zero, so the remainder digits of a negative
        // value come out negative: `unsigned_abs` folds both signs.
        buf[i] = b'0' + (n % 10).unsigned_abs() as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

/// Formats a finite `v` with `{:?}` semantics (trailing `.0` kept on
/// integral floats) into the caller's stack buffer without allocating.
pub fn fmt_f64(buf: &mut [u8; F64_BUF], v: f64) -> &str {
    struct Sink<'a> {
        buf: &'a mut [u8; F64_BUF],
        len: usize,
    }
    impl fmt::Write for Sink<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            if end > self.buf.len() {
                return Err(fmt::Error);
            }
            self.buf[self.len..end].copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut sink = Sink { buf, len: 0 };
    use fmt::Write as _;
    write!(sink, "{v:?}").expect("finite f64 debug repr fits F64_BUF bytes");
    let len = sink.len;
    std::str::from_utf8(&buf[..len]).expect("float rendering is ASCII")
}

// ---------------------------------------------------------------------------
// The one parser and the one serializer.
//
// `Reader` is a borrowing pull-parser: `Json::parse` is
// `Reader::parse_document`, and the daemon's request decoder walks the
// same reader field by field, handing out `&str` slices of the input
// wherever no escape forces an owned copy. `write_json` renders every
// `Json` tree (compact and pretty) into a `Vec<u8>`, and `Writer` streams
// tree-free replies through the same escaper, so a warm buffer
// round-trips with zero allocations.

const MAX_DEPTH: usize = 128;

use std::borrow::Cow;

/// A number token read by [`Reader`], keeping the int/float distinction of
/// [`Json::Int`]/[`Json::Float`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
}

/// A borrowing pull-parser over a byte slice, and the one JSON parser.
///
/// [`Json::parse`] is [`Reader::parse_document`]. Errors carry 1-based
/// line/column positions, computed lazily from the consumed prefix so
/// the happy path never tracks lines. Strings come back as
/// [`Cow::Borrowed`] slices of the input unless an escape sequence forces
/// an owned copy.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Parses a whole document into a [`Json`] tree (what
    /// [`Json::parse`] runs).
    pub fn parse_document(bytes: &'a [u8]) -> Result<Json, JsonError> {
        let mut r = Reader::new(bytes);
        r.skip_ws();
        let v = r.read_value(0)?;
        r.end()?;
        Ok(v)
    }

    /// Current byte offset into the input.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// A parse error at the current position; line/col are recovered by
    /// scanning the consumed prefix (error path only).
    pub fn err(&self, msg: impl Into<String>) -> JsonError {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + consumed.iter().filter(|&&b| b == b'\n').count();
        let line_start = consumed
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        JsonError::parse(msg, line, self.pos - line_start + 1)
    }

    /// The next byte, without consuming it.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` or errors.
    pub fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Skips whitespace, then requires end of input.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// Consumes `{` (the caller should [`Self::skip_ws`] first).
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')
    }

    /// Advances to the next member of the current object and returns its
    /// key, leaving the reader positioned at the value; `None` once the
    /// object closes. `index` is the number of members already read (0 on
    /// the first call, when no separating comma is expected).
    pub fn next_key(&mut self, index: usize) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if index == 0 {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(None);
                }
                Some(_) => return Err(self.err("expected ',' or '}' in object")),
                // At end of input the error points at the last byte, not
                // one past it, as in `read_value`.
                None => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
            self.skip_ws();
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key in object"));
        }
        let key = self.read_str()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Reads a string token. Escape-free strings borrow from the input;
    /// escapes fall back to an owned decode.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut i = start;
        while i < self.bytes.len() {
            let b = self.bytes[i];
            if b == b'"' {
                if let Ok(s) = std::str::from_utf8(&self.bytes[start..i]) {
                    self.pos = i + 1;
                    return Ok(Cow::Borrowed(s));
                }
                // Invalid UTF-8: re-scan on the slow path for the exact
                // error position and message.
                break;
            }
            if b == b'\\' || b < 0x20 {
                break;
            }
            i += 1;
        }
        self.read_str_slow().map(Cow::Owned)
    }

    /// The escape-bearing slow path of [`Self::read_str`]; starts after
    /// the opening quote.
    fn read_str_slow(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 in string"));
                    }
                    match std::str::from_utf8(&self.bytes[start..start + len]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape (need 4 hex digits)")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Reads a number token plus the raw text it was parsed from (for
    /// callers that want to echo the exact input bytes back).
    pub fn read_number_with_span(&mut self) -> Result<(Number, &'a str), JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok((Number::Int(i), text));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok((Number::Float(x), text)),
            Err(_) => Err(self.err("number out of range")),
        }
    }

    /// Reads a number token.
    pub fn read_number(&mut self) -> Result<Number, JsonError> {
        self.read_number_with_span().map(|(n, _)| n)
    }

    /// Reads `true` or `false`.
    pub fn read_bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            _ => self.keyword("false").map(|()| false),
        }
    }

    /// Reads `null`.
    pub fn read_null(&mut self) -> Result<(), JsonError> {
        self.keyword("null")
    }

    fn keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    /// Reads any value into a [`Json`] tree (the fallback when a caller
    /// hits a shape it has no borrowed representation for).
    pub fn read_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null").map(|()| Json::Null),
            Some(b't') => self.keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.read_str()?.into_owned())),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.read_value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Array(items)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.err("expected ',' or ']' in array"));
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected string key in object"));
                    }
                    let key = self.read_str()?.into_owned();
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.read_value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Object(members)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.err("expected ',' or '}' in object"));
                        }
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => Ok(match self.read_number()? {
                Number::Int(i) => Json::Int(i),
                Number::Float(x) => Json::Float(x),
            }),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    /// Validates and consumes any value without building a tree, returning
    /// the raw input span it occupied (whitespace-trimmed at both ends).
    /// Accepts exactly what [`Self::read_value`] accepts.
    pub fn skip_value(&mut self, depth: usize) -> Result<&'a [u8], JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        let start = self.pos;
        match self.peek() {
            None => return Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null")?,
            Some(b't') => self.keyword("true")?,
            Some(b'f') => self.keyword("false")?,
            Some(b'"') => {
                self.read_str()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.read_number()?;
            }
            Some(open @ (b'[' | b'{')) => {
                let close = if open == b'[' { b']' } else { b'}' };
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(close) {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        if open == b'{' {
                            if self.peek() != Some(b'"') {
                                return Err(self.err("expected string key in object"));
                            }
                            self.read_str()?;
                            self.skip_ws();
                            self.expect(b':')?;
                            self.skip_ws();
                        }
                        self.skip_value(depth + 1)?;
                        self.skip_ws();
                        match self.bump() {
                            Some(b',') => continue,
                            Some(b) if b == close => break,
                            _ => {
                                self.pos = self.pos.saturating_sub(1);
                                return Err(self.err(if open == b'[' {
                                    "expected ',' or ']' in array"
                                } else {
                                    "expected ',' or '}' in object"
                                }));
                            }
                        }
                    }
                }
            }
            Some(c) => return Err(self.err(format!("unexpected character {:?}", c as char))),
        }
        Ok(&self.bytes[start..self.pos])
    }
}

/// Serializes a [`Json`] tree into `out` — the one tree serializer behind
/// `to_string()`, [`Json::to_string_pretty`], [`encode`],
/// [`encode_pretty`] and [`Writer::json_value`]. `indent` is `None` for
/// the compact form, or `Some(level)` for the two-space pretty form
/// starting at nesting `level` (callers pass `Some(0)`). Empty containers
/// render as `[]`/`{}` in both forms.
pub fn write_json(out: &mut Vec<u8>, v: &Json, indent: Option<usize>) {
    let inner = indent.map(|level| level + 1);
    match v {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Bool(true) => out.extend_from_slice(b"true"),
        Json::Bool(false) => out.extend_from_slice(b"false"),
        Json::Int(i) => out.extend_from_slice(fmt_i64(&mut [0u8; I64_BUF], *i).as_bytes()),
        Json::Float(x) => {
            if x.is_finite() {
                // `{:?}` keeps a trailing `.0` on integral floats, so the
                // reader can't silently lose the number's float-ness.
                out.extend_from_slice(fmt_f64(&mut [0u8; F64_BUF], *x).as_bytes());
            } else {
                out.extend_from_slice(b"null");
            }
        }
        Json::Str(s) => escape_str_into(out, s),
        Json::Array(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                line_break(out, inner);
                write_json(out, item, inner);
            }
            if !items.is_empty() {
                line_break(out, indent);
            }
            out.push(b']');
        }
        Json::Object(members) => {
            out.push(b'{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                line_break(out, inner);
                escape_str_into(out, k);
                out.extend_from_slice(if indent.is_some() { b": " } else { b":" });
                write_json(out, v, inner);
            }
            if !members.is_empty() {
                line_break(out, indent);
            }
            out.push(b'}');
        }
    }
}

/// The pretty form's newline plus two spaces per `level`; nothing in the
/// compact form.
fn line_break(out: &mut Vec<u8>, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push(b'\n');
        out.resize(out.len() + 2 * level, b' ');
    }
}

/// Deepest container nesting [`Writer`] supports (one bit of comma state
/// per level).
pub const WRITER_MAX_DEPTH: usize = 256;

/// A tree-free compact JSON serializer over a caller-owned `Vec<u8>`.
///
/// Comma placement is tracked in a fixed-size per-depth bitmap, so a warm
/// (pre-grown) output buffer is written with zero allocations. Output is
/// byte-identical to building the equivalent [`Json`] tree and calling
/// `to_string()`.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    depth: usize,
    has_items: [u64; WRITER_MAX_DEPTH / 64],
    is_object: [u64; WRITER_MAX_DEPTH / 64],
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            depth: 0,
            has_items: [0; WRITER_MAX_DEPTH / 64],
            is_object: [0; WRITER_MAX_DEPTH / 64],
        }
    }

    fn bit(map: &[u64], depth: usize) -> bool {
        map[depth / 64] & (1 << (depth % 64)) != 0
    }

    fn set_bit(map: &mut [u64], depth: usize, on: bool) {
        if on {
            map[depth / 64] |= 1 << (depth % 64);
        } else {
            map[depth / 64] &= !(1 << (depth % 64));
        }
    }

    /// Emits the separating comma a value needs in array context (keys own
    /// the comma inside objects; top level has no separators).
    fn value_separator(&mut self) {
        if self.depth > 0 && !Self::bit(&self.is_object, self.depth) {
            if Self::bit(&self.has_items, self.depth) {
                self.out.push(b',');
            }
            Self::set_bit(&mut self.has_items, self.depth, true);
        }
    }

    fn open(&mut self, is_object: bool, delim: u8) {
        self.value_separator();
        self.depth += 1;
        assert!(self.depth < WRITER_MAX_DEPTH, "Writer nesting too deep");
        Self::set_bit(&mut self.is_object, self.depth, is_object);
        Self::set_bit(&mut self.has_items, self.depth, false);
        self.out.push(delim);
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.open(true, b'{');
    }

    /// Closes the current object (`}`).
    pub fn end_object(&mut self) {
        debug_assert!(self.depth > 0 && Self::bit(&self.is_object, self.depth));
        self.out.push(b'}');
        self.depth -= 1;
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.open(false, b'[');
    }

    /// Closes the current array (`]`).
    pub fn end_array(&mut self) {
        debug_assert!(self.depth > 0 && !Self::bit(&self.is_object, self.depth));
        self.out.push(b']');
        self.depth -= 1;
    }

    /// Writes a member key (with its separating comma and `:`); the next
    /// value call supplies the member's value.
    pub fn key(&mut self, k: &str) {
        debug_assert!(
            self.depth > 0 && Self::bit(&self.is_object, self.depth),
            "key outside object"
        );
        if Self::bit(&self.has_items, self.depth) {
            self.out.push(b',');
        }
        Self::set_bit(&mut self.has_items, self.depth, true);
        escape_str_into(self.out, k);
        self.out.push(b':');
    }

    /// Writes a string value.
    pub fn str_value(&mut self, s: &str) {
        self.value_separator();
        escape_str_into(self.out, s);
    }

    /// Writes an integer value.
    pub fn int_value(&mut self, i: i64) {
        self.value_separator();
        self.out
            .extend_from_slice(fmt_i64(&mut [0u8; I64_BUF], i).as_bytes());
    }

    /// Writes a float value (`{:?}` rendering; non-finite becomes `null`,
    /// matching `write_json`).
    pub fn float_value(&mut self, x: f64) {
        self.value_separator();
        if x.is_finite() {
            self.out
                .extend_from_slice(fmt_f64(&mut [0u8; F64_BUF], x).as_bytes());
        } else {
            self.out.extend_from_slice(b"null");
        }
    }

    /// Writes a boolean value.
    pub fn bool_value(&mut self, b: bool) {
        self.value_separator();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes `null`.
    pub fn null_value(&mut self) {
        self.value_separator();
        self.out.extend_from_slice(b"null");
    }

    /// Splices pre-rendered JSON into value position. The caller
    /// guarantees `raw` is one complete, valid compact JSON value.
    pub fn raw_value(&mut self, raw: &[u8]) {
        self.value_separator();
        self.out.extend_from_slice(raw);
    }

    /// Writes a [`Json`] tree in value position (the escape hatch for
    /// payloads that only exist as trees, e.g. echoed request ids).
    pub fn json_value(&mut self, v: &Json) {
        self.value_separator();
        write_json(self.out, v, None);
    }
}

/// Serialize into a [`Json`] tree. The replacement for `serde::Serialize`.
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Json;
}

/// Rebuild from a [`Json`] tree. The replacement for `serde::Deserialize`.
pub trait FromJson: Sized {
    /// Decodes the value, reporting shape mismatches as errors.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Compact-encodes any [`ToJson`] value.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().rendered(None)
}

/// Pretty-encodes any [`ToJson`] value.
pub fn encode_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().rendered(Some(0))
}

/// Parses and decodes in one step.
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

// ---------------------------------------------------------------------------
// Trait impls for the primitive vocabulary the workspace uses.

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::type_mismatch("bool", "bool", v))
    }
}

macro_rules! json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v
                    .as_i64()
                    .ok_or_else(|| JsonError::type_mismatch(stringify!($ty), "integer", v))?;
                <$ty>::try_from(i).map_err(|_| {
                    JsonError::decode(format!("{i} out of range for {}", stringify!($ty)))
                })
            }
        }
    )+};
}

json_int!(i8, i16, i32, i64, isize, u8, u16, u32);

macro_rules! json_big_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::Float(*self as f64),
                }
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v
                    .as_i64()
                    .ok_or_else(|| JsonError::type_mismatch(stringify!($ty), "integer", v))?;
                <$ty>::try_from(i).map_err(|_| {
                    JsonError::decode(format!("{i} out of range for {}", stringify!($ty)))
                })
            }
        }
    )+};
}

json_big_uint!(u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::type_mismatch("f64", "number", v))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::type_mismatch("String", "string", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::type_mismatch("Vec", "array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::type_mismatch("tuple", "2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::type_mismatch("tuple", "3-element array", v)),
        }
    }
}

impl<K: ToJson + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter()
                .map(|(k, v)| {
                    let key = match k.to_json() {
                        Json::Str(s) => s,
                        other => other.to_string(),
                    };
                    (key, v.to_json())
                })
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| JsonError::type_mismatch("map", "object", v))?;
        let mut out = BTreeMap::new();
        for (k, val) in obj {
            // String-like keys decode directly; structured keys were embedded
            // as their compact JSON encoding.
            let key = match K::from_json(&Json::Str(k.clone())) {
                Ok(key) => key,
                Err(first) => match Json::parse(k) {
                    Ok(parsed) => K::from_json(&parsed)?,
                    Err(_) => return Err(first),
                },
            };
            out.insert(key, V::from_json(val)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Helpers used by the derive-replacement macros.

/// Looks up a struct field, treating a missing member as `null` (so
/// `Option` fields may be omitted, as with serde's `default`).
pub fn field<T: FromJson>(
    obj: &[(String, Json)],
    name: &str,
    ty: &str,
) -> Result<T, JsonError> {
    let value = obj
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(&Json::Null);
    T::from_json(value).map_err(|e| JsonError::decode(format!("{ty}.{name}: {e}")))
}

/// Pulls the next element of a tuple-variant payload.
pub fn seq_next<T: FromJson>(
    it: &mut std::slice::Iter<'_, Json>,
    ctx: &str,
) -> Result<T, JsonError> {
    let v = it
        .next()
        .ok_or_else(|| JsonError::decode(format!("{ctx}: missing tuple element")))?;
    T::from_json(v).map_err(|e| JsonError::decode(format!("{ctx}: {e}")))
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields, as an
/// object keyed by field name — the replacement for
/// `#[derive(Serialize, Deserialize)]` on structs.
///
/// ```
/// struct P { x: i64, label: String }
/// foundation::impl_json_struct!(P { x, label });
/// # use foundation::json::{decode, encode};
/// let p: P = decode(&encode(&P { x: 3, label: "a".into() })).unwrap();
/// assert_eq!(p.x, 3);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let obj = v.as_object().ok_or_else(|| {
                    $crate::json::JsonError::type_mismatch(stringify!($ty), "object", v)
                })?;
                Ok($ty {
                    $($field: $crate::json::field(obj, stringify!($field), stringify!($ty))?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct as
/// the transparent encoding of its inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($ty($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum, using serde's
/// externally-tagged shape: unit variants as strings, tuple variants as
/// `{"Variant": [..]}`, struct variants as `{"Variant": {..}}`. Tuple
/// variants take placeholder binder names (one per field):
///
/// ```
/// # #[derive(PartialEq, Debug)]
/// enum E { A, Pair(i64, i64), At { x: i64 } }
/// foundation::impl_json_enum!(E { A, Pair(a, b), At { x } });
/// # use foundation::json::{decode, encode};
/// assert_eq!(decode::<E>(&encode(&E::Pair(1, 2))).unwrap(), E::Pair(1, 2));
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $( $var:ident
        $( ( $($tf:ident),+ $(,)? ) )?
        $( { $($sf:ident),+ $(,)? } )?
    ),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(
                        $ty::$var $( ( $($tf),+ ) )? $( { $($sf),+ } )? => {
                            #[allow(unused_mut, unused_assignments)]
                            let mut payload: Option<$crate::json::Json> = None;
                            $({
                                let arr: Vec<$crate::json::Json> =
                                    vec![$($crate::json::ToJson::to_json($tf)),+];
                                payload = Some($crate::json::Json::Array(arr));
                            })?
                            $({
                                let fields: Vec<(String, $crate::json::Json)> = vec![$((
                                    stringify!($sf).to_string(),
                                    $crate::json::ToJson::to_json($sf),
                                )),+];
                                payload = Some($crate::json::Json::Object(fields));
                            })?
                            match payload {
                                None => $crate::json::Json::Str(stringify!($var).to_string()),
                                Some(p) => $crate::json::Json::Object(vec![(
                                    stringify!($var).to_string(),
                                    p,
                                )]),
                            }
                        }
                    )+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $crate::json::Json::Str(s) => {
                        $($crate::__impl_json_enum_from_str!(
                            $ty, $var, s, $( ( $($tf),+ ) )? $( { $($sf),+ } )?
                        );)+
                        Err($crate::json::JsonError::decode(format!(
                            "unknown {} variant {s:?}",
                            stringify!($ty)
                        )))
                    }
                    $crate::json::Json::Object(obj) if obj.len() == 1 => {
                        let (tag, payload) = &obj[0];
                        $($crate::__impl_json_enum_from_payload!(
                            $ty, $var, tag, payload, $( ( $($tf),+ ) )? $( { $($sf),+ } )?
                        );)+
                        Err($crate::json::JsonError::decode(format!(
                            "unknown {} variant {tag:?}",
                            stringify!($ty)
                        )))
                    }
                    other => Err($crate::json::JsonError::type_mismatch(
                        stringify!($ty),
                        "string or single-key object",
                        other,
                    )),
                }
            }
        }
    };
}

/// Internal: the unit-variant arm of [`impl_json_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __impl_json_enum_from_str {
    ($ty:ident, $var:ident, $s:ident,) => {
        if $s == stringify!($var) {
            return Ok($ty::$var);
        }
    };
    ($ty:ident, $var:ident, $s:ident, ( $($tf:ident),+ )) => {};
    ($ty:ident, $var:ident, $s:ident, { $($sf:ident),+ }) => {};
}

/// Internal: the payload-variant arm of [`impl_json_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __impl_json_enum_from_payload {
    ($ty:ident, $var:ident, $tag:ident, $payload:ident,) => {};
    ($ty:ident, $var:ident, $tag:ident, $payload:ident, ( $($tf:ident),+ )) => {
        if $tag == stringify!($var) {
            let arr = $payload.as_array().ok_or_else(|| {
                $crate::json::JsonError::type_mismatch(
                    stringify!($ty),
                    "array payload",
                    $payload,
                )
            })?;
            let want = [$(stringify!($tf)),+].len();
            if arr.len() != want {
                return Err($crate::json::JsonError::decode(format!(
                    "{}::{} expects {want} fields, got {}",
                    stringify!($ty),
                    stringify!($var),
                    arr.len()
                )));
            }
            let mut it = arr.iter();
            return Ok($ty::$var(
                $($crate::json::seq_next(&mut it, stringify!($tf))?),+
            ));
        }
    };
    ($ty:ident, $var:ident, $tag:ident, $payload:ident, { $($sf:ident),+ }) => {
        if $tag == stringify!($var) {
            let fields = $payload.as_object().ok_or_else(|| {
                $crate::json::JsonError::type_mismatch(
                    stringify!($ty),
                    "object payload",
                    $payload,
                )
            })?;
            return Ok($ty::$var {
                $($sf: $crate::json::field(fields, stringify!($sf), stringify!($ty))?,)+
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-1.5e-2").unwrap(), Json::Float(-0.015));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_collections() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nbreak \"quoted\" back\\slash \t µ 😀 \u{1}";
        let encoded = Json::Str(original.into()).to_string();
        assert_eq!(Json::parse(&encoded).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""µ 😀""#).unwrap(),
            Json::Str("µ 😀".into())
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let e = Json::parse("{\"a\": 1,\n  nope}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        let e = Json::parse("[1, 2").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn numbers_keep_their_kind() {
        let v = Json::parse("[1, 1.0, 9223372036854775807, 1e20]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Float(1.0));
        assert_eq!(a[2], Json::Int(i64::MAX));
        assert!(matches!(a[3], Json::Float(_)));
        // The serializer keeps floats recognizable.
        assert_eq!(Json::Float(1.0).to_string(), "1.0");
        assert_eq!(Json::Int(1).to_string(), "1");
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u32,
        tag: String,
        opt: Option<f64>,
    }
    impl_json_struct!(Demo { n, tag, opt });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(f64, f64),
        Poly { sides: u32, label: String },
    }
    impl_json_enum!(Shape {
        Dot,
        Line(a, b),
        Poly { sides, label }
    });

    // Ord for the map-key test only: order by encoded form.
    impl Eq for Shape {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for Shape {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            encode(self).cmp(&encode(other))
        }
    }
    impl PartialOrd for Shape {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    #[test]
    fn struct_macro_roundtrips() {
        let d = Demo {
            n: 9,
            tag: "t".into(),
            opt: None,
        };
        assert_eq!(decode::<Demo>(&encode(&d)).unwrap(), d);
        // A missing Option member decodes as None.
        assert_eq!(
            decode::<Demo>(r#"{"n": 9, "tag": "t"}"#).unwrap(),
            Demo { n: 9, tag: "t".into(), opt: None }
        );
        // A missing required member is an error naming the field.
        let e = decode::<Demo>(r#"{"tag": "t"}"#).unwrap_err();
        assert!(e.to_string().contains("Demo.n"), "{e}");
    }

    #[test]
    fn enum_macro_roundtrips_all_shapes() {
        for s in [
            Shape::Dot,
            Shape::Line(1.5, -2.0),
            Shape::Poly {
                sides: 6,
                label: "hex".into(),
            },
        ] {
            let text = encode(&s);
            assert_eq!(decode::<Shape>(&text).unwrap(), s, "{text}");
        }
        assert_eq!(encode(&Shape::Dot), "\"Dot\"");
        assert!(decode::<Shape>("\"Nope\"").is_err());
        assert!(decode::<Shape>(r#"{"Line": [1]}"#).is_err());
    }

    #[test]
    fn fmt_i64_matches_to_string() {
        for v in [0, 1, -1, 7, -10, 42, i64::MAX, i64::MIN, 1_000_000_007] {
            assert_eq!(fmt_i64(&mut [0u8; I64_BUF], v), v.to_string());
        }
    }

    #[test]
    fn fmt_f64_matches_debug() {
        for v in [
            0.0,
            -0.0,
            1.0,
            8.0,
            -2.5,
            22.4224,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN,
            -2.2250738585072014e-308,
        ] {
            assert_eq!(fmt_f64(&mut [0u8; F64_BUF], v), format!("{v:?}"));
        }
    }

    #[test]
    fn escaping_uses_hex_table() {
        let mut wire = Vec::new();
        escape_str_into(&mut wire, "a\u{1}b\u{1f}c\"d\\e\nf");
        assert_eq!(wire, b"\"a\\u0001b\\u001fc\\\"d\\\\e\\nf\"");
    }

    #[test]
    fn reader_borrows_escape_free_strings() {
        let mut r = Reader::new(br#""plain text \z"#);
        assert!(r.read_str().is_err());
        let mut r = Reader::new("\"plain µ 😀 text\"".as_bytes());
        match r.read_str().unwrap() {
            Cow::Borrowed(s) => assert_eq!(s, "plain µ 😀 text"),
            Cow::Owned(_) => panic!("escape-free string should borrow"),
        }
        let mut r = Reader::new(br#""esc\naped""#);
        match r.read_str().unwrap() {
            Cow::Owned(s) => assert_eq!(s, "esc\naped"),
            Cow::Borrowed(_) => panic!("escaped string must own"),
        }
    }

    #[test]
    fn reader_skip_value_returns_span() {
        let text = br#"{"id": {"a":[1,2],"b":"x"} , "z":1}"#;
        let mut r = Reader::new(text);
        r.skip_ws();
        r.begin_object().unwrap();
        let key = r.next_key(0).unwrap().unwrap();
        assert_eq!(&*key, "id");
        let span = r.skip_value(0).unwrap();
        assert_eq!(span, br#"{"a":[1,2],"b":"x"}"#);
        assert_eq!(&*r.next_key(1).unwrap().unwrap(), "z");
        assert_eq!(r.read_number().unwrap(), Number::Int(1));
        assert!(r.next_key(2).unwrap().is_none());
        assert!(r.end().is_ok());
    }

    #[test]
    fn writer_matches_tree_serializer() {
        let compact = r#"{"ok":true,"id":7,"vals":[1,-2,8.0,"µ \"q\" \u0007"],"empty":{},"none":null,"ea":[]}"#;
        let tree = Json::parse(compact).unwrap();
        assert_eq!(tree.to_string(), compact);
        assert_eq!(
            tree.to_string_pretty(),
            "{\n  \"ok\": true,\n  \"id\": 7,\n  \"vals\": [\n    1,\n    -2,\n    8.0,\n    \
             \"µ \\\"q\\\" \\u0007\"\n  ],\n  \"empty\": {},\n  \"none\": null,\n  \"ea\": []\n}"
        );

        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.begin_object();
        w.key("ok");
        w.bool_value(true);
        w.key("id");
        w.int_value(7);
        w.key("vals");
        w.begin_array();
        w.int_value(1);
        w.int_value(-2);
        w.float_value(8.0);
        w.str_value("µ \"q\" \u{7}");
        w.end_array();
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.key("none");
        w.null_value();
        w.key("ea");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(String::from_utf8(out).unwrap(), compact);
    }

    #[test]
    fn writer_reuses_buffer_without_allocating_state() {
        let mut out = Vec::with_capacity(256);
        for _ in 0..3 {
            out.clear();
            let mut w = Writer::new(&mut out);
            w.begin_array();
            for i in 0..4 {
                w.int_value(i);
            }
            w.end_array();
            assert_eq!(out, b"[0,1,2,3]");
        }
    }

    #[test]
    fn maps_with_structured_keys_roundtrip() {
        let mut m: BTreeMap<Shape, u32> = BTreeMap::new();
        m.insert(Shape::Dot, 1);
        m.insert(
            Shape::Poly {
                sides: 3,
                label: "tri".into(),
            },
            2,
        );
        let back: BTreeMap<Shape, u32> = decode(&encode(&m)).unwrap();
        assert_eq!(back, m);
    }
}
