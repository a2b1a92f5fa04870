//! A minimal JSON reader/writer for the observability layer's JSONL
//! streams (trace events, analysis records, bench exports).
//!
//! Deliberately tiny: only the subset the layer emits — objects, arrays,
//! strings, unsigned integers, booleans, null — with object keys kept in
//! insertion/document order so re-serialization is byte-stable. No
//! floats: every exported quantity is a counter, which keeps the JSONL
//! byte-deterministic across runs and platforms.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Everything the
/// repository writes nests a few levels; the cap keeps a hostile line
/// (a serve request, say) from overflowing the stack, and because no
/// parsed value is deeper, it bounds the recursion of dropping and
/// displaying one too.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value (observability subset: no floats, no escapes
/// beyond the JSON standard set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the layer emits).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other values or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Parses one JSON document (e.g. one JSONL line).
    ///
    /// # Errors
    /// Returns a description on malformed input, unsupported number
    /// forms (floats, negatives), or trailing content.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write!(f, "{}", quote(s)),
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Object(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", quote(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
                return Err(format!("unsupported number form at byte {start}"));
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are utf-8");
            text.parse().map(Json::Num).map_err(|_| format!("number out of range at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(format!("unexpected token at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("bad \\u code point at byte {pos}"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                out.push(b);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"{"type":"predict-stop","decision":3,"path":[0,1,2],"backtracked":false}"#,
            r#"[1,2,3]"#,
            r#"{"s":"a \"b\" \\ \n c","n":null,"b":true}"#,
            r#"{}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
            // Re-parse of the re-render is a fixed point.
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("c").unwrap().as_array().unwrap()[0].as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed() {
        for text in ["", "{", "[1,", r#"{"a"}"#, "1.5", "-2", "1e9", "tru", "\"abc", "[1] x"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = Json::parse(&nested(MAX_DEPTH)).expect("the cap itself parses");
        assert_eq!(deepest.to_string(), nested(MAX_DEPTH));
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
    }

    #[test]
    fn quoting_escapes_controls() {
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
