//! The JSON of the study checkpoint store, both ways.
//!
//! Writing needs only the two helpers every emitter shares —
//! [`escape_str`] for string contents and [`format_f64`] for floats —
//! because the goldens, snapshots and `progress.json` are formatted by
//! hand. Reading brings its own parser for the resume path. It reads
//! exactly the dialect those emitters write — objects, arrays, strings
//! escaped by [`escape_str`], integers, floats, booleans, `null` — plus
//! standard JSON it might receive from a hand-edited manifest.
//!
//! Two properties matter for resume correctness:
//!
//! * **Exact integers.** `u64` values (item ids, float *bit patterns*)
//!   are parsed from the raw digit run with `str::parse`, never routed
//!   through `f64`, so 64-bit payload bits survive the round trip.
//! * **Order preservation.** Objects are `Vec<(String, Json)>` in
//!   document order — no hash maps, so iterating a parsed document is
//!   deterministic.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as its raw source text (exactness on demand).
    Num(String),
    /// A (de-escaped) string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen; precision per `str::parse`).
    /// Test-only: the round-trip tests read floats back with it.
    #[cfg(test)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// JSON-safe float formatting: finite values use Rust's shortest
/// round-trip form with a trailing `.0` forced onto integral values;
/// NaN/±Infinity map to `null`.
pub fn format_f64(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// A human-readable message with a byte offset, on any syntax error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(src, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", char::from(want), pos))
    }
}

fn parse_value(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(src, bytes, pos),
        Some(b'[') => parse_array(src, bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(src, bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(src, bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", char::from(*c), pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}"))
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = &src[start..*pos];
    // Validate by parsing as f64 (covers every JSON number shape).
    raw.parse::<f64>().map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(&src[chunk_start..*pos]);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(&src[chunk_start..*pos]);
                *pos += 1;
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        let hex = src
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Surrogate pairs: the writer never emits them
                        // (it escapes only controls), but accept them.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            let lo_hex = src
                                .get(*pos + 2..*pos + 6)
                                .filter(|_| src[*pos..].starts_with("\\u"))
                                .ok_or("unpaired surrogate")?;
                            let lo = u32::from_str_radix(lo_hex, 16)
                                .map_err(|_| format!("bad \\u escape `{lo_hex}`"))?;
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid \\u code point")?);
                    }
                    other => {
                        let mut msg = String::from("unknown escape \\");
                        let _ = write!(msg, "{}", char::from(other));
                        return Err(msg);
                    }
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_array(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(src, bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_quotes() {
        assert_eq!(escape_str("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_str("\u{1}"), "\\u0001");
    }

    #[test]
    fn format_f64_round_trips_through_parse() {
        for x in [0.0, -0.0, 1.0, -3.0, 0.1, 2.5e-3, 1e300, 5e-324, f64::MAX, 87_000.0 / 3.0] {
            let s = format_f64(x);
            assert!(s.contains(['.', 'e']), "{x}: {s} must read back as a float");
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}: wrote {s}");
        }
        assert_eq!(format_f64(3.0), "3.0");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(format_f64(x), "null");
            assert_eq!(parse(&format_f64(x)).unwrap(), Json::Null);
        }
    }

    #[test]
    fn parses_writer_output_shapes() {
        let doc = parse(
            "{\"version\": 1, \"ok\": true, \"none\": null, \
             \"items\": [{\"id\": 0}, {\"id\": 18446744073709551615}], \
             \"f\": -2.5e-3}",
        )
        .unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        let items = doc.get("items").unwrap().as_arr().unwrap();
        // u64::MAX must survive exactly — this is the float-bits path.
        assert_eq!(items[1].get("id").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(-2.5e-3));
    }

    #[test]
    fn round_trips_escaped_strings() {
        for s in ["plain", "q\"uote", "back\\slash", "tab\there", "new\nline", "ctl\u{1}"] {
            let doc = format!("{{\"k\": \"{}\"}}", escape_str(s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "{doc}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse("{\"b\": 1, \"a\": 2, \"b\": 3}").unwrap();
        let Json::Obj(members) = v else { panic!("object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\": 1} x", "nul", "\"open", "01a"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accepts_standard_json_extras() {
        // Things the vendored writer never emits but hand-edited
        // manifests might contain.
        let v = parse(" [ 1 , \"\\u0041\\/\" , { } ] ").unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 3);
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("A/"));
    }

    #[test]
    fn as_u64_takes_only_exact_unsigned_integers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        for raw in ["-1", "1.5", "1e3", "18446744073709551616"] {
            assert_eq!(parse(raw).unwrap().as_u64(), None, "{raw}");
        }
    }

    #[test]
    fn accessors_refuse_the_wrong_type() {
        let v = parse("[\"7\", 7, true, null, {\"k\": 1}]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), None);
        assert_eq!(a[1].as_str(), None);
        assert_eq!(a[2].as_u64(), None);
        assert_eq!(a[3].as_bool(), None);
        assert_eq!(a[4].as_arr(), None);
        assert_eq!(v.get("k"), None, "an array has no members");
        assert_eq!(a[4].get("missing"), None);
    }

    #[test]
    fn get_returns_the_first_of_duplicate_keys() {
        let v = parse("{\"fingerprint\": \"a\", \"fingerprint\": \"b\"}").unwrap();
        assert_eq!(v.get("fingerprint").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        let v = parse("\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f980}"));
        for bad in ["\"\\ud83e\"", "\"\\ud83e x\"", "\"\\u12\"", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
