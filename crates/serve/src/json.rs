//! A minimal JSON value, parser, and canonical serializer.
//!
//! The build environment vendors no serde, so the server carries its own ~200-line
//! JSON layer, mirroring the zero-dependency discipline of `qudit-trace`. Objects
//! are [`BTreeMap`]s, so parsing and re-serializing a request yields a *canonical*
//! byte string — sorted keys, no insignificant whitespace, shortest-roundtrip
//! number formatting — which is exactly what request deduplication hashes.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. [`BTreeMap`] keeps key order sorted, making serialization
    /// canonical and iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an exact
    /// `u64` representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Looks up `key` in an object value (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|map| map.get(key))
    }

    /// Serializes the value canonically: sorted object keys (by construction),
    /// no whitespace, shortest-roundtrip number formatting.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Formats a float the way every JSON emitter in this workspace does: Rust's
/// shortest-roundtrip `{}` formatting, which is deterministic for a given bit
/// pattern — so bit-identical engine results serialize to byte-identical JSON.
pub fn format_number(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        // JSON has no NaN/Infinity; degrade to null rather than emit invalid bytes.
        "null".to_string()
    }
}

/// Escapes a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
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

/// Maximum nesting depth the parser accepts (hostile-input guard: a deeply
/// nested body must return 400, not blow the stack).
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a position-annotated message for malformed input, trailing bytes, or
/// nesting beyond [`MAX_DEPTH`].
pub fn parse(input: &[u8]) -> Result<Json, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.input.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte '{}' at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        let value = text.parse::<f64>().map_err(|_| format!("invalid number at offset {start}"))?;
        // `1e999` parses to infinity, which canonicalizes to `null`: two different
        // bodies would share one dedup key that no longer parses as a request.
        if !value.is_finite() {
            return Err(format!("number out of range at offset {start}"));
        }
        Ok(Json::Num(value))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Surrogate pairs are not reassembled; lone surrogates
                            // degrade to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the body arrived as bytes).
                    let rest = std::str::from_utf8(&self.input[self.pos..])
                        .map_err(|_| format!("invalid utf-8 at offset {}", self.pos))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = br#"{"b": [1, 2.5, -3e2], "a": {"nested": true, "s": "q\"uote"}, "n": null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("n"), Some(&Json::Null));
        assert_eq!(value.get("b").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(value.get("a").unwrap().get("s").unwrap().as_str(), Some("q\"uote"));
        // Canonical form sorts keys and drops whitespace.
        assert_eq!(
            value.to_canonical_string(),
            r#"{"a":{"nested":true,"s":"q\"uote"},"b":[1,2.5,-300],"n":null}"#
        );
    }

    #[test]
    fn canonical_form_is_whitespace_and_order_insensitive() {
        let a = parse(br#"{"x": 1, "y": [2, 3]}"#).unwrap();
        let b = parse(b"{\n  \"y\": [ 2,3 ],\r\n  \"x\": 1\n}").unwrap();
        assert_eq!(a.to_canonical_string(), b.to_canonical_string());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(b"{").is_err());
        assert!(parse(b"[1,]").is_err());
        assert!(parse(b"{}extra").is_err());
        assert!(parse(br#"{"a" 1}"#).is_err());
        let deep: Vec<u8> =
            std::iter::repeat_n(b'[', 100).chain(std::iter::repeat_n(b']', 100)).collect();
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn numbers_that_overflow_to_infinity_are_rejected_with_their_offset() {
        assert_eq!(parse(b"1e999").unwrap_err(), "number out of range at offset 0");
        let err = parse(br#"{"a": [1, -2e999]}"#).unwrap_err();
        assert_eq!(err, "number out of range at offset 10");
        assert_eq!(parse(b"1.7e308").unwrap().as_f64(), Some(1.7e308));
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse(b"7").unwrap().as_u64(), Some(7));
        assert_eq!(parse(b"7.5").unwrap().as_u64(), None);
        assert_eq!(parse(b"-7").unwrap().as_u64(), None);
    }
}
