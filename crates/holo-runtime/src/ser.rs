//! Minimal derive-free serialization: a JSON value tree, an emitter, a
//! parser, a [`ToJson`] trait for report output — and the hostile-input
//! primitives every wire-facing decoder shares: the [`DecodeError`]
//! taxonomy and the bounds-checked [`ByteReader`] cursor.
//!
//! This replaces the `serde` derives the workspace previously carried:
//! the only serialization the repo performs is structured report output
//! (bench JSON, experiment tables), which a hand-rolled value tree
//! covers without proc-macros or external crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Hostile-input decode primitives
// ---------------------------------------------------------------------

/// Why a decoder rejected its input. Shared by every byte-level decode
/// surface in the workspace (compression codecs, pose payloads, text
/// semantics, the wire envelope) so callers can count and classify
/// rejections instead of pattern-matching strings.
///
/// The taxonomy is deliberately small: every hostile input is one of a
/// stream that ends too early, a frame that is not ours, a frame that
/// fails its checksum, a header that asks for more than the decoder is
/// willing to allocate, or bytes that are structurally impossible.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The stream ended before the decoder had what it needed.
    Truncated {
        /// Bytes the decoder needed at the failing read.
        needed: usize,
        /// Bytes actually available there.
        available: usize,
    },
    /// The magic/tag at the head of the stream is not this decoder's.
    BadMagic {
        /// The magic this decoder accepts.
        expected: u32,
        /// The magic found on the wire.
        found: u32,
    },
    /// A checksum over the payload did not match.
    BadChecksum {
        /// Checksum declared on the wire.
        expected: u32,
        /// Checksum computed over the received bytes.
        found: u32,
    },
    /// A header-declared size exceeds the decoder's allocation cap.
    /// Raised *before* any allocation happens — the cap is the
    /// contract the fuzz harness enforces.
    LimitExceeded {
        /// What was being sized (stable, lowercase, e.g. `"lzma output"`).
        what: &'static str,
        /// The size the input asked for.
        requested: u64,
        /// The decoder's declared cap.
        limit: u64,
    },
    /// Bytes that are structurally impossible for the format.
    Corrupt {
        /// Which decoder/field rejected the input (stable label).
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl DecodeError {
    /// Build a [`DecodeError::Corrupt`] with a formatted detail.
    pub fn corrupt(context: &'static str, detail: impl Into<String>) -> Self {
        DecodeError::Corrupt { context, detail: detail.into() }
    }

    /// Stable lowercase label for counters and report keys.
    pub fn kind(&self) -> &'static str {
        match self {
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::BadMagic { .. } => "bad_magic",
            DecodeError::BadChecksum { .. } => "bad_checksum",
            DecodeError::LimitExceeded { .. } => "limit_exceeded",
            DecodeError::Corrupt { .. } => "corrupt",
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated stream: needed {needed} bytes, had {available}")
            }
            DecodeError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:#010x}, found {found:#010x}")
            }
            DecodeError::BadChecksum { expected, found } => {
                write!(f, "bad checksum: wire says {expected:#010x}, payload hashes to {found:#010x}")
            }
            DecodeError::LimitExceeded { what, requested, limit } => {
                write!(f, "{what}: input asks for {requested} bytes, cap is {limit}")
            }
            DecodeError::Corrupt { context, detail } => write!(f, "corrupt {context}: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked forward cursor over untrusted bytes. Every read
/// either returns the value or a typed [`DecodeError::Truncated`] —
/// there is no panicking path, so decoders built on it survive any
/// truncation of their input.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start a cursor at the head of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the cursor has consumed everything.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unread tail, without consuming it.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { needed: n, available: self.remaining() });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Consume one byte. Inlined across crates: entropy decoders call
    /// it once per coded byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `f32`.
    pub fn f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Consume a LEB128 varint (at most 5 bytes; rejects overlong and
    /// truncated encodings). Matches `holo-compress`'s wire varints.
    pub fn varint(&mut self) -> Result<u32, DecodeError> {
        let mut value: u32 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 28 && byte > 0x0F {
                return Err(DecodeError::corrupt("varint", "value overflows u32"));
            }
            value |= ((byte & 0x7F) as u32) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 28 {
                return Err(DecodeError::corrupt("varint", "continuation past 5 bytes"));
            }
        }
    }

    /// Consume a little-endian `u32` and require it to equal `expected`.
    pub fn expect_magic(&mut self, expected: u32) -> Result<(), DecodeError> {
        let found = self.u32_le()?;
        if found != expected {
            return Err(DecodeError::BadMagic { expected, found });
        }
        Ok(())
    }
}

/// A JSON value. Object keys keep insertion order via a Vec of pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Convert to a [`JsonValue`] tree.
    fn to_json(&self) -> JsonValue;
}

macro_rules! to_json_num {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue { JsonValue::Num(*self as f64) }
        }
    )+};
}
to_json_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

/// Parse JSON text into a [`JsonValue`] tree. Errors carry a byte
/// offset and a short description.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("table1".into())),
            ("median_ns", JsonValue::Num(1234.5)),
            ("iters", JsonValue::Num(3.0)),
            ("ok", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "series",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Num(2.0)]),
            ),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("median_ns").unwrap().as_f64(), Some(1234.5));
        assert_eq!(back.get("iters").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(JsonValue::Num(3.0).render(), "3");
        assert_eq!(JsonValue::Num(3.5).render(), "3.5");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::Str("A".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn to_json_impls() {
        assert_eq!(3u32.to_json().render(), "3");
        assert_eq!("hi".to_json().render(), "\"hi\"");
        assert_eq!(vec![1u8, 2].to_json().render(), "[1,2]");
        assert_eq!(Option::<u32>::None.to_json().render(), "null");
    }

    #[test]
    fn byte_reader_reads_and_rejects_truncation() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16_le().unwrap(), 0x0302);
        assert_eq!(r.remaining(), 2);
        assert_eq!(
            r.u32_le(),
            Err(DecodeError::Truncated { needed: 4, available: 2 })
        );
        // A failed read consumes nothing.
        assert_eq!(r.take(2).unwrap(), &[0x04, 0x05]);
        assert!(r.is_empty());
    }

    #[test]
    fn byte_reader_varint_matches_leb128() {
        // 300 = 0xAC 0x02 in LEB128.
        let mut r = ByteReader::new(&[0xAC, 0x02, 0x7F]);
        assert_eq!(r.varint().unwrap(), 300);
        assert_eq!(r.varint().unwrap(), 0x7F);
        // Truncated continuation.
        assert!(matches!(
            ByteReader::new(&[0x80]).varint(),
            Err(DecodeError::Truncated { .. })
        ));
        // Overlong: 6 continuation bytes cannot encode a u32.
        assert!(matches!(
            ByteReader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).varint(),
            Err(DecodeError::Corrupt { .. })
        ));
        // High bits past 32 rejected.
        assert!(matches!(
            ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]).varint(),
            Err(DecodeError::Corrupt { .. })
        ));
        assert_eq!(
            ByteReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).varint().unwrap(),
            u32::MAX
        );
    }

    #[test]
    fn byte_reader_magic() {
        let bytes = 0xDEAD_BEEFu32.to_le_bytes();
        assert!(ByteReader::new(&bytes).expect_magic(0xDEAD_BEEF).is_ok());
        assert_eq!(
            ByteReader::new(&bytes).expect_magic(0x0BAD_F00D),
            Err(DecodeError::BadMagic { expected: 0x0BAD_F00D, found: 0xDEAD_BEEF })
        );
    }

    #[test]
    fn decode_error_kinds_and_display() {
        let errors = [
            DecodeError::Truncated { needed: 4, available: 1 },
            DecodeError::BadMagic { expected: 1, found: 2 },
            DecodeError::BadChecksum { expected: 3, found: 4 },
            DecodeError::LimitExceeded { what: "lzma output", requested: 10, limit: 5 },
            DecodeError::corrupt("mesh", "impossible backref"),
        ];
        let kinds: Vec<&str> = errors.iter().map(DecodeError::kind).collect();
        assert_eq!(
            kinds,
            ["truncated", "bad_magic", "bad_checksum", "limit_exceeded", "corrupt"]
        );
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
