//! A minimal JSON value, writer and reader for the `BENCH_*.json`
//! artifacts.
//!
//! The workspace is offline-hermetic (no serde): every bench binary
//! builds a [`Value`] and writes [`Value::render`]'s text, and the test
//! suite and CI [`parse`] the artifacts back to assert they carry the
//! documented schema. The reader supports the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null) —
//! validator-grade, not performance-oriented.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; bench counters stay well below
    /// the 2^53 integer-exact range).
    Number(f64),
    /// A string literal, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; member order is not preserved.
    Object(BTreeMap<String, Value>),
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array with one element per item of `items`.
    pub fn array<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Value) -> Value {
        Value::Array(items.into_iter().map(f).collect())
    }

    /// `n` rounded to `decimals` places — the precision an artifact
    /// reports a measured quantity at.
    pub fn rounded(n: f64, decimals: i32) -> Value {
        let scale = 10f64.powi(decimals);
        Value::Number((n * scale).round() / scale)
    }

    /// The value as JSON text. A container of scalars stays on one
    /// line; any other container puts one element per line, indented —
    /// so an artifact reads (and diffs) one row per line. Object
    /// members come out in key order; non-finite numbers become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) if n.is_finite() => return out.push_str(&n.to_string()),
            Value::Number(_) => return out.push_str("null"),
            Value::String(s) => return render_string(s, out),
            Value::Array(v) => ('[', ']', v.iter().map(|v| (None, v)).collect()),
            Value::Object(m) => (
                '{',
                '}',
                m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let flat = members
            .iter()
            .all(|(_, v)| !matches!(v, Value::Array(_) | Value::Object(_)));
        let newline = |out: &mut String, indent| {
            if !flat {
                out.push_str(&format!("\n{:indent$}", ""));
            }
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if flat { ", " } else { "," });
            }
            newline(out, indent + 2);
            if let Some(key) = key {
                render_string(key, out);
                out.push_str(": ");
            }
            value.render_into(out, indent + 2);
        }
        newline(out, indent);
        out.push(close);
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Writes `doc` to `path` — relative to the bench binary's working
/// directory, `crates/mrp-bench/` — and says so (`what`: "4 rows").
pub fn write_artifact(path: &str, doc: &Value, what: &str) {
    match std::fs::write(path, doc.render()) {
        Ok(()) => println!("wrote {path} ({what})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` as a single JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut elements = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(elements));
        }
        loop {
            self.skip_ws();
            elements.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(elements));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the
                            // bench writers; map them to U+FFFD rather
                            // than rejecting the document.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the full UTF-8 scalar starting here.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_and_keeps_rows_on_one_line() {
        let doc = Value::object([
            ("scale", "smoke".into()),
            (
                "rows",
                Value::array([1u64, 2], |g| {
                    Value::object([
                        ("groups", g.into()),
                        ("ops_per_sec", Value::rounded(33_031.96, 1)),
                        ("note", "a \"quoted\"\n\\ line".into()),
                        ("nan", f64::NAN.into()),
                        ("healthy", Value::Bool(true)),
                    ])
                }),
            ),
            ("empty", Value::object::<&str>([])),
        ]);
        let text = doc.render();
        assert_eq!(text.lines().count(), 8, "{text}");
        assert!(text.contains("\"ops_per_sec\": 33032}"), "{text}");
        let back = parse(&text).expect("rendered text parses");
        let row = &back.get("rows").and_then(Value::as_array).unwrap()[1];
        assert_eq!(row.get("groups").and_then(Value::as_u64), Some(2));
        assert_eq!(row.get("nan"), Some(&Value::Null));
        assert_eq!(
            row.get("note").and_then(Value::as_str),
            Some("a \"quoted\"\n\\ line")
        );
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap().as_str(),
            Some("a\n\"bA")
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"rows": [{"engine": "wbcast", "groups": 2, "ok": true}], "empty": {}}"#;
        let v = parse(doc).unwrap();
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("engine").and_then(Value::as_str),
            Some("wbcast")
        );
        assert_eq!(rows[0].get("groups").and_then(Value::as_u64), Some(2));
        assert_eq!(rows[0].get("ok").and_then(Value::as_bool), Some(true));
        assert!(v
            .get("empty")
            .and_then(Value::as_object)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] x",
            "\"unterminated",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }
}
