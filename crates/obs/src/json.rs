//! Minimal deterministic JSON emission and parsing.
//!
//! The build environment is fully offline, so there is no serde; all
//! observability artifacts are rendered through this small writer
//! instead. Output is deterministic by construction: callers control key
//! order, integers render via `u64`/`i64` formatting, and floats via
//! Rust's shortest-roundtrip formatting.
//!
//! [`JsonValue`] is the matching reader: a small recursive-descent
//! parser for the artifacts this workspace writes (`metrics.json`,
//! `run-metadata.json`, `profile.json`, result-store entries) and for
//! request bodies, used by the fleet aggregation
//! (`repro obs report`), `--resume` and the sweep service.
//! Numbers keep their raw text so `u64` counters survive without a
//! float round-trip.

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn push_json_str(out: &mut String, s: &str) {
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
}

/// A `String`-backed JSON writer that tracks comma placement.
///
/// # Examples
///
/// ```
/// use ccnuma_obs::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.key("name");
/// w.str("raytrace");
/// w.key("runs");
/// w.begin_arr();
/// w.raw("1");
/// w.raw("2");
/// w.end_arr();
/// w.end_obj();
/// assert_eq!(w.finish(), r#"{"name":"raytrace","runs":[1,2]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.need_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.need_comma.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.need_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.need_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key (escaped) and its `:`.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        push_json_str(&mut self.out, k);
        self.out.push(':');
        // The upcoming value must not emit its own comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Writes a pre-escaped key (already quoted) and its `:`.
    pub fn raw_key(&mut self, quoted: &str) {
        self.pre_value();
        self.out.push_str(quoted);
        self.out.push(':');
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Writes a string value (escaped).
    pub fn str(&mut self, s: &str) {
        self.pre_value();
        push_json_str(&mut self.out, s);
    }

    /// Writes a raw token — a number, `true`, `null`, or pre-rendered
    /// JSON.
    pub fn raw(&mut self, token: &str) {
        self.pre_value();
        self.out.push_str(token);
    }

    /// Finishes and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON document.
///
/// Object members keep their textual order (the writers in this
/// workspace emit deterministic key order, and round-tripping should
/// not scramble it); numbers keep their raw rendering and convert on
/// demand via [`JsonValue::as_u64`] / [`JsonValue::as_f64`].
///
/// # Examples
///
/// ```
/// use ccnuma_obs::JsonValue;
///
/// let v = JsonValue::parse(r#"{"runs":[{"refs":12}],"ok":true}"#).unwrap();
/// assert_eq!(v.get("runs").unwrap().as_array().unwrap().len(), 1);
/// assert_eq!(v.get("runs").unwrap().as_array().unwrap()[0]
///     .get("refs").and_then(JsonValue::as_u64), Some(12));
/// assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message on malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's members in source order, if this is an object.
    pub fn members(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64` (integers only — no float text).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u128` (integers only).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
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
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Our writers only \u-escape control characters;
                        // map anything unpaired to the replacement char
                        // rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // byte slice is valid UTF-8 by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(JsonValue::Num(raw.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\x01");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX),
            "u64::MAX survives without a float round-trip"
        );
        assert_eq!(JsonValue::parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        let v = JsonValue::parse(r#"{"a":[1,{"b":"x"},[]],"c":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .and_then(JsonValue::as_str),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap().members(), Some(&[][..]));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_escaped_strings() {
        let v = JsonValue::parse(r#""a\"b\\c\ndA\u0001\t\/""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{1}\t/"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "nul", "1 2", "{\"a\":}", "\"open", "--1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn roundtrips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name");
        w.str("ray\"trace\n");
        w.key("vals");
        w.begin_arr();
        w.raw("0");
        w.raw("3.25");
        w.raw("null");
        w.end_arr();
        w.end_obj();
        let text = w.finish();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("ray\"trace\n")
        );
        let vals = v.get("vals").unwrap().as_array().unwrap();
        assert_eq!(vals[0].as_u64(), Some(0));
        assert_eq!(vals[1].as_f64(), Some(3.25));
        assert_eq!(vals[2], JsonValue::Null);
    }

    #[test]
    fn nested_structures_place_commas() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a");
        w.begin_arr();
        w.begin_obj();
        w.key("x");
        w.raw("1");
        w.end_obj();
        w.raw("2");
        w.end_arr();
        w.key("b");
        w.raw("true");
        w.end_obj();
        assert_eq!(w.finish(), r#"{"a":[{"x":1},2],"b":true}"#);
    }
}
