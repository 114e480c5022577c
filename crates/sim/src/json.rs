//! A small, dependency-free JSON tree: parser, writers, builders, and the
//! one field reader every input document is decoded through.
//!
//! The repo is built to compile offline, so instead of `serde` every
//! serializable type converts itself to and from [`Value`] explicitly.
//! Integers are kept as `i128` so the full `u64` range round-trips without
//! the precision loss a float-only representation would introduce (ranks
//! and nanosecond timestamps both live near the top of `u64`).
//!
//! Every input document is decoded through one field reader: an [`Obj`]
//! is opened with the keys its object may hold and refuses any other key
//! first, so a misspelt key is named as such; each typed read names its
//! key, an absent key and `null` both read as absent, and integers are
//! range-checked into their type ([`Field`]). String enums ([`one_of`]),
//! externally tagged objects ([`variant`]) and objects tagged by a key
//! ([`tagged`]) name the vocabulary they allow. Errors are [`FieldError`]s
//! naming the field's dotted [`Path`], spelled out only when an error is
//! reported. Parsing refuses nesting deeper than 128 arrays and objects.

use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent.
    Int(i128),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved so output is deterministic.
    Object(Vec<(String, Value)>),
}

/// Where and why parsing failed. `at` is a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// How deep arrays and objects may nest in a parsed document. The deepest
/// committed document nests 10 deep; the bound keeps one hostile line from
/// overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// An empty object (builder entry point).
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Insert or replace a key in an object; panics on non-objects.
    pub fn set(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = value.into();
                } else {
                    entries.push((key.to_string(), value.into()));
                }
            }
            other => panic!("Value::set on non-object {other:?}"),
        }
        self
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As `u64`, if this is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// As `i64`, if this is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// As `f64` (integers convert; large magnitudes round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// True if `null`.
    fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{}` omits ".0" for integral floats; keep the float
                    // shape so the value re-parses as a Float.
                    let text = format!("{f}");
                    out.push_str(&text);
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i128)
    }
}
impl From<crate::Nanos> for Value {
    fn from(v: crate::Nanos) -> Value {
        Value::Int(v.0 as i128)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i128)
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Value {
        Value::Int(v as i128)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v as i128)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an array or object one level deeper, refusing it at its
    /// opening byte past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape, or
                    // control byte, validating only the run as UTF-8 —
                    // validating from here to end-of-input per character
                    // made parsing quadratic on large documents.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Where a field sits in a document. Paths live on the decoder's stack and
/// are spelled out (`workloads.0.poisson.flows`) only when an error names
/// one, so reading a well-formed document builds no path strings.
#[derive(Clone, Copy, Debug)]
pub enum Path<'a> {
    /// The document itself, by name; an empty name is left out of paths
    /// below it (`tenants.1.rank_max`, not `.tenants.1.rank_max`).
    Root(&'a str),
    /// A key of an object.
    Key(&'a Path<'a>, &'a str),
    /// An element of an array.
    Index(&'a Path<'a>, usize),
}

impl Path<'_> {
    /// The field at this path is wrong: `msg` says how.
    pub fn error(&self, msg: impl Into<String>) -> FieldError {
        FieldError {
            path: self.to_string(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (parent, segment): (&Path, &dyn fmt::Display) = match self {
            Path::Root(name) => return f.write_str(name),
            Path::Key(parent, key) => (parent, key),
            Path::Index(parent, i) => (parent, i),
        };
        if !matches!(parent, Path::Root("")) {
            write!(f, "{parent}.")?;
        }
        segment.fmt(f)
    }
}

/// A document field that is missing, unknown, of the wrong type or out of
/// range, by its dotted path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldError {
    /// Dotted path to the field (empty: the document itself).
    pub path: String,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "document: {}", self.msg)
        } else {
            write!(f, "field `{}`: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for FieldError {}

/// A type a document field reads as.
pub trait Field<'v>: Sized {
    /// Read `v`, found at `at`.
    fn read(v: &'v Value, at: Path<'_>) -> Result<Self, FieldError>;
}

impl<'v> Field<'v> for &'v Value {
    fn read(v: &'v Value, _: Path<'_>) -> Result<Self, FieldError> {
        Ok(v)
    }
}

impl<'v> Field<'v> for &'v str {
    fn read(v: &'v Value, at: Path<'_>) -> Result<Self, FieldError> {
        v.as_str().ok_or_else(|| at.error("must be a string"))
    }
}

impl Field<'_> for String {
    fn read(v: &Value, at: Path<'_>) -> Result<Self, FieldError> {
        <&str>::read(v, at).map(str::to_string)
    }
}

impl Field<'_> for u64 {
    fn read(v: &Value, at: Path<'_>) -> Result<Self, FieldError> {
        v.as_u64()
            .ok_or_else(|| at.error("must be an unsigned integer"))
    }
}

impl Field<'_> for f64 {
    fn read(v: &Value, at: Path<'_>) -> Result<Self, FieldError> {
        v.as_f64().ok_or_else(|| at.error("must be a number"))
    }
}

/// Narrower unsigned integers: an integer that does not fit is refused,
/// never truncated.
macro_rules! narrow_field {
    ($($t:ty),*) => {$(
        impl Field<'_> for $t {
            fn read(v: &Value, at: Path<'_>) -> Result<Self, FieldError> {
                <$t>::try_from(u64::read(v, at)?)
                    .map_err(|_| at.error(concat!("must fit a ", stringify!($t))))
            }
        }
    )*};
}
narrow_field!(u32, u16, usize);

impl<'v, T: Field<'v>> Field<'v> for Vec<T> {
    fn read(v: &'v Value, at: Path<'_>) -> Result<Self, FieldError> {
        list(v, at, T::read)
    }
}

/// An array, each element read by `read` at its index.
pub fn list<'v, T>(
    v: &'v Value,
    at: Path<'_>,
    mut read: impl FnMut(&'v Value, Path<'_>) -> Result<T, FieldError>,
) -> Result<Vec<T>, FieldError> {
    let items = v.as_array().ok_or_else(|| at.error("must be an array"))?;
    (items.iter().enumerate())
        .map(|(i, item)| read(item, Path::Index(&at, i)))
        .collect()
}

/// A pair is a two-element array, `[a, b]`.
impl<'v, A: Field<'v>, B: Field<'v>> Field<'v> for (A, B) {
    fn read(v: &'v Value, at: Path<'_>) -> Result<Self, FieldError> {
        match v.as_array() {
            Some([a, b]) => Ok((
                A::read(a, Path::Index(&at, 0))?,
                B::read(b, Path::Index(&at, 1))?,
            )),
            _ => Err(at.error("must be a two-element array")),
        }
    }
}

/// A string from a fixed vocabulary, as the value `table` pairs it with.
pub fn one_of<T: Copy>(v: &Value, at: Path<'_>, table: &[(&str, T)]) -> Result<T, FieldError> {
    let s = <&str>::read(v, at)?;
    match table.iter().find(|(name, _)| *name == s) {
        Some(&(_, value)) => Ok(value),
        None => {
            let allowed: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            Err(at.error(format!(
                "unknown value '{s}' (allowed: {})",
                allowed.join(", ")
            )))
        }
    }
}

/// An externally tagged object, `{"tag": {...}}`: `table` pairs each tag
/// with the keys its body holds and what the tag reads as.
pub fn variant<'v, 'p, T: Copy>(
    v: &'v Value,
    at: &'p Path<'p>,
    table: &[(&'static str, (&'static [&'static str], T))],
) -> Result<(Obj<'v, 'p>, T), FieldError> {
    let tags = || {
        let tags: Vec<&str> = table.iter().map(|(tag, _)| *tag).collect();
        tags.join(", ")
    };
    let entries = v
        .as_object()
        .ok_or_else(|| at.error("must be a single-key object"))?;
    let [(key, body)] = entries else {
        return Err(at.error(format!("must have exactly one key of: {}", tags())));
    };
    match table.iter().find(|(tag, _)| tag == key) {
        Some(&(tag, (keys, read))) => Ok((Obj::new(body, Path::Key(at, tag), keys)?, read)),
        None => Err(Path::Key(at, key).error(format!("unknown variant (allowed: {})", tags()))),
    }
}

/// An object being decoded, opened with the keys it may hold: any other key
/// is refused before a field is read, so a misspelt key is named as such
/// rather than as the required field it was meant to be.
pub struct Obj<'v, 'p> {
    entries: &'v [(String, Value)],
    path: Path<'p>,
    keys: &'static [&'static str],
}

impl<'v, 'p> Obj<'v, 'p> {
    /// Open `v`, found at `path`, as an object of `keys`; the refusal of
    /// any other key lists them in this order.
    pub fn new(
        v: &'v Value,
        path: Path<'p>,
        keys: &'static [&'static str],
    ) -> Result<Obj<'v, 'p>, FieldError> {
        let entries = v
            .as_object()
            .ok_or_else(|| path.error("must be an object"))?;
        if let Some((key, _)) = entries.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            return Err(Path::Key(&path, key).error(match keys {
                [] => "unknown field (allowed: none)".to_string(),
                _ => format!("unknown field (allowed: {})", keys.join(", ")),
            }));
        }
        Ok(Obj {
            entries,
            path,
            keys,
        })
    }

    /// A required field.
    pub fn req<T: Field<'v>>(&self, key: &'static str) -> Result<T, FieldError> {
        self.req_with(key, T::read)
    }

    /// An optional field: absent and `null` read as `None`.
    pub fn opt<T: Field<'v>>(&self, key: &'static str) -> Result<Option<T>, FieldError> {
        self.opt_with(key, T::read)
    }

    /// An optional field with a default.
    pub fn or<T: Field<'v>>(&self, key: &'static str, default: T) -> Result<T, FieldError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// A required field, read by `read`.
    pub fn req_with<T>(
        &self,
        key: &'static str,
        read: impl FnOnce(&'v Value, Path<'_>) -> Result<T, FieldError>,
    ) -> Result<T, FieldError> {
        self.opt_with(key, read)?
            .ok_or_else(|| Path::Key(&self.path, key).error("missing required field"))
    }

    /// An optional field, read by `read`: absent and `null` read as `None`.
    pub fn opt_with<T>(
        &self,
        key: &'static str,
        read: impl FnOnce(&'v Value, Path<'_>) -> Result<T, FieldError>,
    ) -> Result<Option<T>, FieldError> {
        debug_assert!(self.keys.contains(&key), "`{key}` is read but not declared");
        match lookup(self.entries, key) {
            Some(v) => read(v, Path::Key(&self.path, key)).map(Some),
            None => Ok(None),
        }
    }
}

/// The non-`null` value at `key`.
fn lookup<'v>(entries: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    (entries.iter().find(|(k, _)| k == key)).and_then(|(_, v)| (!v.is_null()).then_some(v))
}

/// An object tagged by the string at its `tag` key: `table` pairs each
/// tag with the object's keys (`tag` among them) and what the tag reads
/// as.
pub fn tagged<'v, 'p, T: Copy>(
    v: &'v Value,
    at: Path<'p>,
    tag: &'static str,
    table: &[(&str, (&'static [&'static str], T))],
) -> Result<(Obj<'v, 'p>, T), FieldError> {
    let entries = v.as_object().ok_or_else(|| at.error("must be an object"))?;
    let name =
        lookup(entries, tag).ok_or_else(|| Path::Key(&at, tag).error("missing required field"))?;
    let (keys, read) = one_of(name, Path::Key(&at, tag), table)?;
    Ok((Obj::new(v, at, keys)?, read))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            Value::parse("\"hi\\nthere\"").unwrap(),
            Value::Str("hi\nthere".into())
        );
    }

    #[test]
    fn u64_range_roundtrips() {
        let v = Value::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let back = Value::parse(&v.to_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_runs_copy_correctly() {
        // Unescaped runs are copied in bulk; escapes, multi-byte UTF-8,
        // and adjacent content must all survive the fast path.
        let v = Value::parse("\"plain µ run \\t tab ü end\"").unwrap();
        assert_eq!(v.as_str(), Some("plain µ run \t tab ü end"));
        let v = Value::parse("[\"a\",\"béta\",\"c\\\\d\"]").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[1].as_str(), Some("béta"));
        assert_eq!(arr[2].as_str(), Some("c\\d"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "{oops", "[1,", "\"unterminated", "12x", "", "{}{}"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let e = Value::parse("[1, oops]").unwrap_err();
        assert!(e.at >= 4, "offset {} should point at the bad token", e.at);
    }

    #[test]
    fn builder_and_writers() {
        let v = Value::object()
            .set("name", "q\"1\"")
            .set("count", 3u64)
            .set("rate", 0.5)
            .set("items", Value::Array(vec![Value::Int(1), Value::Int(2)]));
        let compact = v.to_compact();
        assert_eq!(Value::parse(&compact).unwrap(), v);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"count\": 3"));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn float_shape_survives_roundtrip() {
        let v = Value::Float(2.0);
        let text = v.to_compact();
        assert_eq!(Value::parse(&text).unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn set_replaces_existing_key() {
        let v = Value::object().set("a", 1u64).set("a", 2u64);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Value::parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(Value::parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
    }

    #[test]
    fn option_conversion() {
        let v = Value::object()
            .set("some", Some(5u64))
            .set("none", Option::<u64>::None);
        assert_eq!(v.get("some").and_then(Value::as_u64), Some(5));
        assert!(v.get("none").unwrap().is_null());
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_byte() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert_eq!(e.msg, format!("nesting deeper than {MAX_DEPTH}"));
        let deep_object = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(Value::parse(&deep_object).unwrap_err().at, 5 * MAX_DEPTH);
        // Far past the bound: refused, not a stack overflow.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        label: String,
        tags: Vec<u16>,
        weight: f64,
    }

    impl Field<'_> for Point {
        fn read(v: &Value, at: Path<'_>) -> Result<Point, FieldError> {
            let o = Obj::new(v, at, &["x", "label", "tags", "weight"])?;
            Ok(Point {
                x: o.req("x")?,
                label: o.or("label", "none".to_string())?,
                tags: o.opt("tags")?.unwrap_or_default(),
                weight: o.or("weight", 1.0)?,
            })
        }
    }

    fn point(text: &str) -> Result<Point, FieldError> {
        Vec::<Point>::read(&Value::parse(text).unwrap(), Path::Root("points"))
            .map(|mut points| points.remove(0))
    }

    #[test]
    fn the_reader_decodes_typed_fields_with_defaults() {
        let p = point(r#"[{"x": 3, "tags": [1, 2], "weight": null}]"#).unwrap();
        let want = Point {
            x: 3,
            label: "none".into(),
            tags: vec![1, 2],
            weight: 1.0,
        };
        assert_eq!(p, want);
    }

    #[test]
    fn the_reader_names_each_refusal_by_its_path() {
        let refused = |text: &str| point(text).unwrap_err().to_string();
        assert_eq!(
            refused(r#"[{"x": 1, "lable": "a"}]"#),
            "field `points.0.lable`: unknown field (allowed: x, label, tags, weight)"
        );
        assert_eq!(
            refused(r#"[{"label": "a"}]"#),
            "field `points.0.x`: missing required field"
        );
        assert_eq!(
            refused(r#"[{"x": 4294967296}]"#),
            "field `points.0.x`: must fit a u32"
        );
        assert_eq!(
            refused(r#"[{"x": -1}]"#),
            "field `points.0.x`: must be an unsigned integer"
        );
        assert_eq!(
            refused(r#"[{"x": 1, "tags": [1, 70000]}]"#),
            "field `points.0.tags.1`: must fit a u16"
        );
        assert_eq!(
            refused(r#"[{"x": 1, "label": 7}]"#),
            "field `points.0.label`: must be a string"
        );
        assert_eq!(refused("[5]"), "field `points.0`: must be an object");
        let unnamed = Point::read(&Value::Int(5), Path::Root("")).unwrap_err();
        assert_eq!(unnamed.to_string(), "document: must be an object");
    }

    #[test]
    fn enums_and_variants_name_their_vocabulary() {
        let table = [("red", 1), ("green", 2)];
        let at = Path::Root("colour");
        assert_eq!(one_of(&Value::from("green"), at, &table), Ok(2));
        assert_eq!(
            one_of(&Value::from("blue"), at, &table)
                .unwrap_err()
                .to_string(),
            "field `colour`: unknown value 'blue' (allowed: red, green)"
        );
        type Read = fn(&Obj<'_, '_>) -> Result<u64, FieldError>;
        let shapes: [(&str, (&[&str], Read)); 2] = [
            ("dot", (&[], |_| Ok(0))),
            ("line", (&["len"], |o| o.req("len"))),
        ];
        let read = |text: &str| {
            let v = Value::parse(text).unwrap();
            let at = Path::Root("shape");
            let (o, read) = variant(&v, &at, &shapes)?;
            read(&o)
        };
        assert_eq!(read(r#"{"line": {"len": 4}}"#), Ok(4));
        assert_eq!(
            read(r#"{"dot": {"len": 4}}"#).unwrap_err().to_string(),
            "field `shape.dot.len`: unknown field (allowed: none)"
        );
        assert_eq!(
            read(r#"{"arc": {}}"#).unwrap_err().to_string(),
            "field `shape.arc`: unknown variant (allowed: dot, line)"
        );
        assert!(read(r#"{"dot": {}, "line": {}}"#)
            .unwrap_err()
            .to_string()
            .contains("exactly one key of: dot, line"));
        let tagged_read = |text: &str| {
            let v = Value::parse(text).unwrap();
            let tags = [("line", (&["kind", "len"][..], ()))];
            let (o, ()) = tagged(&v, Path::Root(""), "kind", &tags)?;
            o.req::<u64>("len")
        };
        assert_eq!(tagged_read(r#"{"kind": "line", "len": 2}"#), Ok(2));
        assert_eq!(
            tagged_read(r#"{"len": 2}"#).unwrap_err().to_string(),
            "field `kind`: missing required field"
        );
    }
}
