//! The workspace's single JSON reader/writer (pure `std`).
//!
//! The hermetic-build policy (`cargo xtask lint`, lint H1) keeps
//! `serde`/`serde_json` out of the default build, and the interchange
//! surfaces that need JSON — the CLI's instance/solution files, the
//! `sap serve` request loop, telemetry and report exports, and the
//! experiment harness's `--json` tables — only need flat objects of
//! integers, strings and arrays. This module implements exactly that
//! subset plus enough of the rest of the grammar (floats, escapes,
//! null) to reject malformed input with a position-annotated error
//! instead of panicking. It is the **only** JSON parser in the
//! workspace; `storage_alloc::json` and the bench harness re-use it.
//!
//! Because the values this format carries are trusted inputs to solvers
//! and validators, the parser is deliberately strict:
//!
//! * numbers follow the RFC 8259 grammar exactly — no leading zeros
//!   (`01`), no bare decimal points (`1.`, `.5`), no empty exponents
//!   (`1e`, `1.e5`);
//! * duplicate keys inside one object are a parse error. Standard JSON
//!   semantics are last-wins while [`Json::get`] returns the first
//!   match, so accepting duplicates would make `{"weight":1,"weight":2}`
//!   decode ambiguously — this is a deterministic interchange format,
//!   not a lenient reader;
//! * non-negative integers are kept as `u64` and negative integers as
//!   `i64`, so capacities near `u64::MAX` and signed values down to
//!   `i64::MIN` round-trip losslessly. Only non-integral numbers (and
//!   integers beyond those ranges) degrade to `f64`.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64` (lossless).
    UInt(u64),
    /// A negative integer that fits in `i64` (lossless).
    Int(i64),
    /// Any other number (non-integral, or an integer outside the
    /// `u64`/`i64` lossless ranges).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and keys are unique (the
    /// parser rejects duplicates).
    Object(Vec<(String, Json)>),
}

/// A parse or decode error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
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

impl Json {
    /// Looks up a key in an object. Keys are unique by construction for
    /// parsed documents, so "first match" is unambiguous.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(x) => Some(x),
            Json::Int(x) => u64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(x) => Some(x),
            Json::UInt(x) => i64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number. Integers above 2^53
    /// lose precision in the conversion — use [`Json::as_u64`] /
    /// [`Json::as_i64`] when exactness matters.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(x) => Some(x),
            Json::UInt(x) => Some(x as f64),
            Json::Int(x) => Some(x as f64),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(x) => out.push_str(&x.to_string()),
            Json::Int(x) => out.push_str(&x.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    // JSON has no Inf/NaN; null is the conventional fallback.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Escapes a string for embedding in a JSON document (the body only —
/// the caller supplies the surrounding quotes). Used by the hand-rolled
/// writers in the bench harness.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_str(s));
    out.push('"');
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

/// Nesting depth cap: the interchange formats are a handful of levels
/// deep, so this mainly guards against stack exhaustion on hostile
/// input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.consume(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate key {key:?} in object"),
                });
            }
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.consume(b'\\')?;
                                self.consume(b'u')?;
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
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// RFC 8259 number grammar, applied exactly:
    ///
    /// ```text
    /// number = [ "-" ] int [ frac ] [ exp ]
    /// int    = "0" / digit1-9 *DIGIT
    /// frac   = "." 1*DIGIT
    /// exp    = ("e"/"E") [ "-"/"+" ] 1*DIGIT
    /// ```
    ///
    /// Rust's `f64::from_str` is more lenient than this (it accepts
    /// `1.`, `1.e5`, `01`, …), so digit presence and the leading-zero
    /// rule are validated here before the text ever reaches `parse`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if negative {
                if let Ok(x) = text.parse::<i64>() {
                    // "-0" normalises to the unsigned zero so that equal
                    // values compare equal after a round trip.
                    return Ok(if x == 0 { Json::UInt(0) } else { Json::Int(x) });
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(Json::UInt(x));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { offset: start, message: "invalid number".to_string() })
    }
}

/// Length of a UTF-8 sequence from its first byte; `None` for
/// continuation/invalid lead bytes.
fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_flat_objects() {
        let doc = Json::Object(vec![
            ("capacities".into(), Json::Array(vec![Json::UInt(4), Json::UInt(6)])),
            (
                "tasks".into(),
                Json::Array(vec![Json::Object(vec![
                    ("lo".into(), Json::UInt(0)),
                    ("hi".into(), Json::UInt(2)),
                ])]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn big_u64_is_lossless() {
        let x = u64::MAX - 3;
        let parsed = parse(&x.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(x));
    }

    #[test]
    fn signed_integers_are_lossless() {
        for x in [i64::MIN, i64::MIN + 1, -1, i64::MAX] {
            let parsed = parse(&x.to_string()).unwrap();
            if x < 0 {
                assert_eq!(parsed, Json::Int(x));
            }
            assert_eq!(parsed.as_i64(), Some(x), "{x}");
            let round = parse(&parsed.to_string_compact()).unwrap();
            assert_eq!(round.as_i64(), Some(x), "{x}");
        }
        // beyond the i64 range a negative integer degrades to f64
        assert!(matches!(parse("-9223372036854775809").unwrap(), Json::Float(_)));
        // u64::MAX stays unsigned and exact
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert!(matches!(parse("18446744073709551616").unwrap(), Json::Float(_)));
    }

    #[test]
    fn minus_zero_normalises_to_zero() {
        assert_eq!(parse("-0").unwrap(), Json::UInt(0));
        assert_eq!(parse("-0.0").unwrap(), Json::Float(-0.0));
    }

    #[test]
    fn parses_floats_negatives_and_exponents() {
        assert_eq!(parse("-1.5e2").unwrap(), Json::Float(-150.0));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(parse("0e0").unwrap(), Json::Float(0.0));
        assert_eq!(parse("1E+2").unwrap(), Json::Float(100.0));
    }

    #[test]
    fn rejects_non_rfc8259_numbers() {
        for bad in [
            "01", "-01", "00", "1.", "-1.", ".5", "-.5", "1.e5", "1e", "1e+", "1e-", "-",
            "+1", "0x1", "1..2", "1ee2", "--1", "9e", "01.5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        for bad in [
            r#"{"weight":1,"weight":2}"#,
            r#"{"a":1,"b":2,"a":3}"#,
            r#"{"outer":{"k":1,"k":1}}"#,
            r#"[{"x":0,"x":0}]"#,
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("duplicate key"), "{bad:?}: {err}");
        }
        // same key in *different* objects is fine
        assert!(parse(r#"[{"x":0},{"x":0}]"#).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\tÿ☃ \u{1}\u{1F600}".to_string());
        assert_eq!(parse(&original.to_string_compact()).unwrap(), original);
        // Standard escape forms parse too.
        assert_eq!(
            parse(r#""\u0041\u00ff\ud83d\ude00\/""#).unwrap().as_str(),
            Some("Aÿ😀/")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "01x", "[1]]", "{\"a\":}",
            "\"\\u12\"", "\"\\q\"", "[1,]", "12x", "{}g", "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let fine = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn whitespace_and_empty_containers() {
        assert_eq!(parse(" { } ").unwrap(), Json::Object(vec![]));
        assert_eq!(parse("\n[\t]\r").unwrap(), Json::Array(vec![]));
        assert_eq!(parse(" [ 1 , 2 ] ").unwrap(), Json::Array(vec![Json::UInt(1), Json::UInt(2)]));
    }

    #[test]
    fn accessor_coercions() {
        assert_eq!(Json::UInt(7).as_i64(), Some(7));
        assert_eq!(Json::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Json::Int(-7).as_u64(), None);
        assert_eq!(Json::Int(-7).as_f64(), Some(-7.0));
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::UInt(1).as_bool(), None);
    }

    #[test]
    fn parses_workspace_emitted_formats() {
        // The parser must accept the JSON the rest of the workspace emits.
        let rec = crate::telemetry::Recorder::new();
        rec.handle().count("x", 3);
        assert!(parse(&rec.to_json_string()).is_ok());
    }

    #[test]
    fn escape_str_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", escape_str(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }
}
