//! The repository's one JSON codec: a value type with one writer, a
//! small recursive-descent parser, and the field readers the per-type
//! `to_json`/`from_json` functions of the other crates are written with.
//! Every JSON document the repository writes is built as a [`Json`] and
//! rendered here — the exporters (`trace.json`, `events.jsonl`,
//! `metrics.json`, the flight files, `telemetry.json`), the CLI's
//! `--json` reports, and — since the workspace has no external
//! dependencies — every JSON header on the wire. Integers are written
//! digit for digit; floats as Rust's shortest round-trip text (`{:?}`,
//! so `3.0` stays `3.0`), non-finite ones as `null`.
//!
//! Wire headers come from peers, so the parser assumes a hostile one:
//! nesting is bounded ([`MAX_DEPTH`]), integer literals are kept exact
//! (`u64`/`i64` apart from `f64`, so ids and digest words survive), and
//! malformed input is an `Err`, never a panic. Objects preserve key
//! order and allow duplicate keys (last one wins on lookup).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
fn write_str(out: &mut String, s: &str) {
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
// Values
// ---------------------------------------------------------------------------

/// A JSON value. Integer literals keep their exact value: non-negative
/// ones are `UInt`, negative ones `Int`; everything with a fraction or
/// an exponent (and integers beyond 64 bits) is `Num`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An object from dynamic `(key, value)` pairs, in iteration order.
    pub fn map<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array of whatever converts into a value.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields
                .iter_mut()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }
    /// Sets `key` of an object, replacing an existing entry in place.
    /// No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.get_mut(key) {
            *slot = value;
        } else if let Json::Obj(fields) = self {
            fields.push((key.to_owned(), value));
        }
    }
    /// Removes every entry named `key` from an object; returns the last.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let Json::Obj(fields) = self else { return None };
        let mut removed = None;
        fields.retain_mut(|(k, v)| {
            if k == key {
                removed = Some(std::mem::replace(v, Json::Null));
                false
            } else {
                true
            }
        });
        removed
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    /// Any number, integers converted (and so rounded beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// A non-negative integer literal, exactly; `None` for `7.0`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
    /// An integer literal that fits `i64`, exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::UInt(n) => i64::try_from(*n).ok(),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Reads the required field `key` of an object with `read`.
    pub fn req<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        read(v).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// Reads the field `key` of an `Option`, written as `null` when
    /// `None`: absent or `null` is `None`. A field the writer always
    /// fills is read with [`Json::req`].
    pub fn opt<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => read(v).map(Some).map_err(|e| format!("field `{key}`: {e}")),
        }
    }

    /// Two-space indented text, keys in stored order.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the compact form to `out`: how line-oriented writers
    /// render one record at a time without holding the whole document.
    pub fn append(&self, out: &mut String) {
        self.write(out, None);
    }

    /// `indent` is the current depth when pretty-printing, `None` for
    /// the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        let inner = indent.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest text that reads back as the same
            // f64 and always looks like a float (`1.0`, `1e-7`).
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = inner {
                        newline(out, d);
                    }
                    item.write(out, inner);
                }
                if let (Some(d), false) = (indent, items.is_empty()) {
                    newline(out, d);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = inner {
                        newline(out, d);
                    }
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if let (Some(d), false) = (indent, fields.is_empty()) {
                    newline(out, d);
                }
                out.push('}');
            }
        }
    }
}

/// The compact form (no whitespace), e.g. for wire headers.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.append(&mut out);
        f.write_str(&out)
    }
}

/// Renders `{<head fields>,"<key>":[...]}` with the array's items one
/// per line, each written as `items` yields it, so a long array (a
/// trace's events) is never held as one tree.
pub fn object_with_lines(
    head: &[(&str, Json)],
    key: &str,
    items: impl IntoIterator<Item = Json>,
) -> String {
    let mut out = String::from("{");
    for (k, v) in head {
        write_str(&mut out, k);
        out.push(':');
        v.append(&mut out);
        out.push(',');
    }
    write_str(&mut out, key);
    out.push_str(":[");
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        item.append(&mut out);
    }
    out.push_str("\n]}");
    out
}

macro_rules! json_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::UInt(v as u64)
            }
        }
    )*};
}
json_from_uint!(u32, u64, usize);

/// Non-negative values are `UInt`, as the parser reads them back.
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        u64::try_from(v).map_or(Json::Int(v), Json::UInt)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
/// Through the shortest text of the `f32`, so `0.1f32` is written `0.1`
/// and not as the digits of its `f64` widening.
impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(format!("{v:?}").parse().unwrap_or(v as f64))
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

// ---------------------------------------------------------------------------
// Readers for `Json::req` / `Json::opt`
// ---------------------------------------------------------------------------

pub fn u64(v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| "expected an unsigned integer".to_owned())
}
pub fn u32(v: &Json) -> Result<u32, String> {
    u64(v)?
        .try_into()
        .map_err(|_| "integer out of range for u32".to_owned())
}
pub fn usize(v: &Json) -> Result<usize, String> {
    u64(v)?
        .try_into()
        .map_err(|_| "integer out of range for usize".to_owned())
}
pub fn f64(v: &Json) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| "expected a number".to_owned())
}
pub fn bool(v: &Json) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| "expected a boolean".to_owned())
}
pub fn string(v: &Json) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| "expected a string".to_owned())
}
/// An array, each element read with `read`.
pub fn list<T>(v: &Json, read: impl Fn(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items = v.as_arr().ok_or("expected an array")?;
    items.iter().map(read).collect()
}
/// A two-element array (a tuple on the wire).
pub fn pair<A, B>(
    v: &Json,
    first: impl FnOnce(&Json) -> Result<A, String>,
    second: impl FnOnce(&Json) -> Result<B, String>,
) -> Result<(A, B), String> {
    match v.as_arr() {
        Some([a, b]) => Ok((first(a)?, second(b)?)),
        _ => Err("expected a two-element array".to_owned()),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a line of `[` overflows the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{} at byte {}", msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{}'", lit)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("bad unicode escape"))?);
                            // hex4 leaves pos just past the digits; the
                            // `pos += 1` below is for the escape char we
                            // normally consume, so back off by one.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let mut v = 0;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad unicode escape"))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits()?;
        let mut integer = true;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // The scanned bytes are ASCII.
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if integer && s != "-0" {
            if let Ok(n) = s.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = s.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        // `-0`, fractions, exponents and integers beyond 64 bits.
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_escapes_roundtrip() {
        let original = "quote\" slash\\ nl\n tab\t unicode\u{263A} ctrl\u{1}";
        let mut encoded = String::new();
        write_str(&mut encoded, original);
        assert_eq!(parse(&encoded).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // BMP escape.
        assert_eq!(parse("\"caf\\u00e9\"").unwrap(), Json::Str("café".into()));
        // Surrogate pair escape for U+1F600.
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Raw (unescaped) multibyte UTF-8 passes through.
        assert_eq!(parse("\"😀\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "a2": true}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert!(arr[2].is_null());
        assert_eq!(v.get("a2").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("7.0").unwrap().as_u64(), None, "a float is not an id");
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn integer_literals_are_exact() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some(9007199254740993)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        // One past either end is still a number, just not an exact one.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
        assert_eq!(parse("-9223372036854775809").unwrap().as_i64(), None);
        // Every integer is written back digit for digit.
        for text in [
            "0",
            "9007199254740993",
            "18446744073709551615",
            "-9223372036854775808",
        ] {
            assert_eq!(parse(text).unwrap().to_string(), text);
        }
        match parse("-0").unwrap() {
            Json::Num(z) => assert!(z == 0.0 && z.is_sign_negative()),
            other => panic!("-0 parsed as {other:?}"),
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        // Siblings do not count towards the depth.
        let wide = format!("[{}[]]", "[],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn hostile_input_is_an_error_never_a_panic() {
        for bad in [
            "1e400",
            "-1e400",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud800\\ud800\"",
            "\"\\u12",
            "\"\\u+123\"",
            "\"\\",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "[1",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1,",
            "tru",
            "\u{0}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Every prefix of a valid document is an error or a value.
        let doc = r#"{"a":[1,-2,3.5e-1,"x\u00e9\ud83d\ude00"],"b":{"c":null,"d":true}}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                let _ = parse(&doc[..cut]);
            }
        }
    }

    #[test]
    fn writer_forms() {
        let v = Json::obj([
            ("id", 7u64.into()),
            ("neg", Json::Int(-3)),
            ("ratio", 1.0.into()),
            ("tiny", 1e-7.into()),
            ("frac", 0.1f32.into()),
            ("nan", f64::NAN.into()),
            ("none", Option::<u64>::None.into()),
            ("some", Some("x").into()),
            ("list", Json::arr([1u32, 2])),
            ("empty", Json::Arr(Vec::new())),
            ("nested", Json::obj([])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"id":7,"neg":-3,"ratio":1.0,"tiny":1e-7,"frac":0.1,"nan":null,"none":null,"some":"x","list":[1,2],"empty":[],"nested":{}}"#
        );
        assert_eq!(
            Json::obj([
                ("a", Json::arr([1u32])),
                ("b", Json::obj([("c", true.into())]))
            ])
            .pretty(),
            "{\n  \"a\": [\n    1\n  ],\n  \"b\": {\n    \"c\": true\n  }\n}"
        );
        assert_eq!(
            Json::obj([("a", Json::Arr(Vec::new()))]).pretty(),
            "{\n  \"a\": []\n}"
        );
        // What is written reads back as the same value.
        let mut back = parse(&v.pretty()).unwrap();
        assert_eq!(back.remove("nan"), Some(Json::Null));
        let mut want = v.clone();
        want.remove("nan");
        assert_eq!(back, want);
    }

    #[test]
    fn object_surgery_and_field_readers() {
        let mut v =
            parse(r#"{"job":3,"name":"iso","w":[1,2],"pair":[4,"x"],"gone":null}"#).unwrap();
        assert_eq!(v.req("job", u64), Ok(3));
        assert_eq!(v.req("name", string), Ok("iso".to_owned()));
        assert_eq!(v.req("w", |w| list(w, usize)), Ok(vec![1, 2]));
        assert_eq!(
            v.req("pair", |p| pair(p, u32, string)),
            Ok((4, "x".to_owned()))
        );
        assert_eq!(v.opt("gone", u64), Ok(None), "null reads as absent");
        assert_eq!(v.opt("absent", u64), Ok(None));
        assert!(v
            .req("absent", u64)
            .unwrap_err()
            .contains("missing field `absent`"));
        assert!(v.req("name", u64).unwrap_err().contains("field `name`"));
        assert!(
            v.opt("name", f64).is_err(),
            "a present field of the wrong type is an error"
        );
        assert!(
            parse("300").unwrap().as_u64().is_some() && u32(&parse("4294967296").unwrap()).is_err()
        );
        v.set("job", 9u64.into());
        v.set("new", true.into());
        assert_eq!(v.req("job", u64), Ok(9));
        assert_eq!(v.req("new", bool), Ok(true));
        assert_eq!(v.remove("job"), Some(Json::UInt(9)));
        assert_eq!(v.get("job"), None);
        assert_eq!(v.remove("job"), None);
    }
}
