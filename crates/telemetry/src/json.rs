//! Minimal JSON support: an append-only writer used by the exporters
//! and a recursive-descent parser used to validate exported files in
//! tests and tooling. Both cover exactly the JSON subset the telemetry
//! schema emits (no unicode escapes beyond `\uXXXX` decoding, no
//! exponent printing).

/// A parsed JSON value. Objects preserve key order and permit duplicate
/// keys (the telemetry schema never produces duplicates).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always parsed as f64).
    Number(f64),
    /// String literal.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded document could overflow a thread's
/// stack; documents the repository writes nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage and
/// arrays or objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
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
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
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
        self.skip_ws();
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(JsonValue::Object(pairs)),
                c => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos - 1,
                        c as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(JsonValue::Array(items)),
                c => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found '{}'",
                        self.pos - 1,
                        c as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit at byte {}", self.pos))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u code point {code:#x}"))?,
                        );
                    }
                    c => return Err(format!("bad escape '\\{}'", c as char)),
                },
                c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string")),
                c if c < 0x80 => out.push(c as char),
                c => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(format!("invalid UTF-8 lead byte {c:#x}")),
                    };
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

/// An append-only JSON writer that handles separators and escaping.
/// Call sequence mirrors document structure: `begin_object`, `key`,
/// value, ..., `end_object`, then [`JsonWriter::finish`].
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per-nesting-level flag: does the current container already hold
    /// an element (so the next one needs a comma)?
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes `}`.
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes `]`.
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key (escaped) and its `:`.
    pub fn key(&mut self, k: &str) {
        self.before_value();
        Self::push_escaped(&mut self.out, k);
        self.out.push(':');
        // The key's comma was consumed; its value must not add another.
        if let Some(top) = self.needs_comma.last_mut() {
            *top = false;
        }
    }

    /// Writes an escaped string value.
    pub fn string(&mut self, s: &str) {
        self.before_value();
        Self::push_escaped(&mut self.out, s);
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.before_value();
        self.out.push_str(&v.to_string());
    }

    /// Writes a finite float (6 decimal places); NaN/Inf become `null`.
    pub fn float(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            // Enough digits to round-trip the values we emit; plain
            // decimal notation so any JSON reader accepts it.
            let s = format!("{v:.6}");
            self.out.push_str(&s);
        } else {
            // JSON has no NaN/Inf; emit null so the file stays valid.
            self.out.push_str("null");
        }
    }

    /// Returns the accumulated document.
    pub fn finish(self) -> String {
        self.out
    }

    fn push_escaped(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("valid");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&obj).is_err());
    }

    /// A 64 Ki-deep document is an error, not a stack overflow, on a
    /// thread with the default 2 MiB stack (the runner's worker threads
    /// parse cache files on one).
    #[test]
    fn deep_nesting_is_an_error_on_a_small_stack() {
        let text = "[".repeat(64 * 1024);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&text).is_err())
            .unwrap()
            .join();
        assert_eq!(result.ok(), Some(true));
    }

    #[test]
    fn parses_unicode_escapes_and_utf8() {
        let v = parse(r#""café naïve""#).expect("valid");
        assert_eq!(v.as_str(), Some("café naïve"));
    }

    #[test]
    fn writer_emits_parseable_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("a \"b\" c\\d\ne");
        w.key("nums");
        w.begin_array();
        w.uint(1);
        w.uint(2);
        w.float(1.5);
        w.float(f64::NAN);
        w.end_array();
        w.key("empty_obj");
        w.begin_object();
        w.end_object();
        w.key("empty_arr");
        w.begin_array();
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap_or_else(|e| panic!("writer output invalid: {e}\n{text}"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"b\" c\\d\ne"));
        let nums = v.get("nums").unwrap().as_array().unwrap();
        assert_eq!(nums.len(), 4);
        assert_eq!(nums[3], JsonValue::Null);
        assert_eq!(v.get("empty_obj"), Some(&JsonValue::Object(vec![])));
        assert_eq!(v.get("empty_arr"), Some(&JsonValue::Array(vec![])));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Number(5.0).as_u64(), Some(5));
        assert_eq!(JsonValue::Number(5.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
    }
}
