//! A minimal, dependency-free JSON value: parser, stable renderer, and
//! accessors.
//!
//! The scenario history (`BENCH_scenarios.json`) must be **read back**
//! (for the fingerprint cache and the trend gate) as well as written, and
//! the workspace is fully offline — so this module carries the small JSON
//! subset the harness needs. Objects preserve insertion order (no hashing
//! anywhere), so rendering is byte-stable: `parse(render(v)) == v` and
//! `render(parse(s))` is deterministic for any fixed `s`.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts (the XML parser's
/// limit; a top-level container is level 1). The parser recurses once per
/// level, so deeper input is refused with an `Err` instead of overflowing
/// the stack.
const MAX_DEPTH: usize = 256;

/// A JSON value. Objects are ordered key/value vectors (insertion order is
/// preserved and rendered verbatim — the report's byte-stability depends
/// on it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Convenience constructor for an integer value.
    #[must_use]
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Member lookup on an object (`None` on non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` (requires an exact non-negative
    /// integer).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact, deterministic rendering (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation, deterministic for a
    /// fixed value (history files stay diffable across PRs).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }

    /// Parses a JSON document. Errors carry a byte offset and a short
    /// description. Nesting deeper than 256 levels is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 1)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Numbers render as integers when they are exact integers in the safe
/// range, otherwise via Rust's shortest-round-trip `f64` formatting (both
/// deterministic for a fixed value).
fn render_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected '{token}' at byte {pos}", pos = *pos))
    }
}

/// Parses the value at `pos`; a container opened here sits at nesting
/// level `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'[' | b'{') if depth > MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ascii \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint {code}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let start = *pos;
                let len = utf8_len(b);
                let chunk = bytes
                    .get(start..start + len)
                    .ok_or_else(|| "truncated utf-8 sequence".to_string())?;
                let s = std::str::from_utf8(chunk)
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"a":1,"b":[true,null,"x\n\"y\""],"c":{"d":1.5,"e":-3}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":42,"s":"hi","a":[1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn pretty_is_stable_and_reparses() {
        let v = Json::obj(vec![
            ("rows", Json::Arr(vec![Json::obj(vec![("q", Json::Num(12.5))])])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let first = v.render_pretty();
        assert_eq!(first, v.render_pretty());
        assert_eq!(Json::parse(&first).unwrap(), v);
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = Json::Str("héllo\tworld\u{1}".to_string());
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    fn nested(levels: usize) -> String {
        "[".repeat(levels) + &"]".repeat(levels)
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let v = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(v.render(), nested(MAX_DEPTH));
        let objects = r#"{"a":"#.repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_refused() {
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = r#"{"a":"#.repeat(MAX_DEPTH) + "{}" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn hostile_nesting_fails_closed() {
        assert!(Json::parse(&nested(100_000)).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
    }
}
