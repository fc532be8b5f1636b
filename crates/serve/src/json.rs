//! Minimal JSON for the NDJSON serve protocol.
//!
//! The workspace is offline (no serde), and the protocol is a flat
//! one-object-per-line schema, so a small recursive-descent parser and
//! the workspace's string escaper cover everything `atlas-serve` needs.
//! The parser accepts strict JSON (RFC 8259) values; numbers are held as
//! `f64`, which is exact for every integer the protocol carries (qubit
//! counts, shot counts, seeds below 2^53).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the protocol has no duplicate keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects alike.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, rejecting
    /// fractions and out-of-range values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => parse_array(b, pos),
        Some(b'{') => parse_object(b, pos),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, ":")?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
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
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("\\u{hex}: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are outside the protocol's
                        // character set; reject rather than mis-decode.
                        let ch = char::from_u32(cp)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(ch);
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            Some(&c) if c < 0x20 => return Err("raw control character in string".into()),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always well-formed).
                let s = &b[*pos..];
                let ch = std::str::from_utf8(s)
                    .map_err(|e| e.to_string())?
                    .chars()
                    .next()
                    .unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap();
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

/// The string escaper every JSON writer in the workspace shares (it lives
/// in `atlas-telemetry`, below the trace writers that need it too).
pub use atlas_telemetry::escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_lines() {
        let v = parse(
            r#"{"id":"j1","tenant":"a","op":"sample","family":"qaoa","n":8,"shots":64,"seed":7}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("j1"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a":[1,2.5,-3e2,true,false,null],"s":"x\n\"\u0041\\"}"#).unwrap();
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 6);
                assert_eq!(items[2].as_f64(), Some(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"A\\"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            r#"{"a":1} trailing"#,
            "\"unterminated",
            "{\"a\":\"\u{1}\"}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\back\u{7}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn trace_headers_escape_caller_strings() {
        use atlas_telemetry::{write_chrome, write_ndjson, TraceMeta};
        let meta = TraceMeta {
            source: "a \"quoted\" \\path\\".into(),
            backend: "state\"vec\\".into(),
            host_cpus: 2,
            threads: 1,
        };
        let mut ndjson = Vec::new();
        write_ndjson(&mut ndjson, &meta, &[], &[], 0).unwrap();
        let ndjson = String::from_utf8(ndjson).unwrap();
        let header = parse(ndjson.lines().next().unwrap()).unwrap();
        let mut chrome = Vec::new();
        write_chrome(&mut chrome, &meta, &[], &[], 0).unwrap();
        let chrome = parse(std::str::from_utf8(&chrome).unwrap().trim_end()).unwrap();
        for doc in [&header, chrome.get("otherData").unwrap()] {
            assert_eq!(
                doc.get("source").unwrap().as_str(),
                Some(meta.source.as_str())
            );
            assert_eq!(
                doc.get("backend").unwrap().as_str(),
                Some(meta.backend.as_str())
            );
        }
    }
}
