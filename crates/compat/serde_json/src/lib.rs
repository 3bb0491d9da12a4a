//! Offline stand-in for `serde_json`.
//!
//! Works over the workspace `serde` stub's [`Value`] tree: [`to_string`] /
//! [`to_string_pretty`] render a `Serialize` type as JSON text, [`from_str`]
//! parses JSON text back into a `Deserialize` type. Numbers are written with
//! Rust's shortest round-trip float formatting (integers without a decimal
//! point), so `f64` values survive a serialize → parse cycle bit-exactly.
//!
//! The tokenizer is public as [`Reader`], the workspace's one JSON reader:
//! member iteration with keys decoded (borrowed when escape-free), element
//! iteration, numbers, whole values and a non-recursive `skip_value`.
//! [`parse_value`] and every partial read of a request body (the HTTP infer
//! fast path, the router's deadline scan) run on it, so all read each token
//! alike. Nesting deeper than [`MAX_DEPTH`] is an error, not a stack
//! overflow, and strings decode in linear time.

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// Convert any serializable type into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Convert a [`Value`] tree into a deserializable type.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize to human-readable, two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parse JSON text into a deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::from_value(&parse_value(text)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{:?}` is Rust's shortest representation that round-trips exactly.
        out.push_str(&format!("{n:?}"));
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Deepest container nesting a [`Reader`] accepts (upstream `serde_json`'s
/// default recursion limit). A deeper body is an error, never a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// A cursor over `&'a str` with one rule per token (see the crate docs): a
/// caller that wants only part of a body walks it with [`object`](Reader::object),
/// [`array`](Reader::array) and [`skip_value`](Reader::skip_value). After an
/// error the reader is spent.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current offset.
    #[cold]
    pub fn error(&self, message: impl std::fmt::Display) -> Error {
        Error::custom(format!("{message} at byte {}", self.pos))
    }

    /// Step over JSON whitespace.
    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `byte` if it is next (after whitespace).
    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", byte as char)))
        }
    }

    /// Whitespace, then the end of the text.
    #[inline]
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON value"))
        }
    }

    /// One number: a `-` or digit, then the run of number characters
    /// (digits, `.`, `e`, `E`, `+`, `-`), read by `str::parse::<f64>`.
    #[inline]
    pub fn number(&mut self) -> Result<f64, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        self.pos += 1;
        while matches!(
            bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.error("invalid number"))
    }

    /// One string, decoded. Borrowed from the text when it holds no escape.
    /// Each run of bytes up to the next `"` or `\` is copied as one slice,
    /// so decoding is linear in the string's length.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let text = self.text;
        let mut decoded: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = text.len();
                return Err(self.error("unterminated string"));
            };
            // `"` and `\` are ASCII: the run ends on char boundaries.
            let run = &text[start..start + len];
            self.pos = start + len + 1;
            if text.as_bytes()[start + len] == b'"' {
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(run);
            out.push(self.escape()?);
        }
    }

    /// The character an escape spells; the reader sits just past its `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let ch = match self.text.as_bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are not produced by the writer; a
                // surrogate decodes to the replacement character.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// `null`, `true` or `false`.
    fn literal(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if rest.starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.error("invalid literal"))
    }

    /// Go one container deeper.
    fn descend(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        Ok(())
    }

    /// One object: `member` runs once per member with the reader just past
    /// the key's `:`, and must consume exactly the member's value.
    #[inline]
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.items(b'{', b'}', |reader| {
            let key = reader.string()?;
            reader.expect(b':')?;
            member(reader, key)
        })
    }

    /// One array: `element` runs once per element and must consume exactly
    /// that element.
    #[inline]
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.items(b'[', b']', element)
    }

    /// A container from `open` to `close` whose comma-separated items
    /// `item` consumes one at a time.
    #[inline]
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(open)?;
        self.descend()?;
        if !self.eat(close) {
            loop {
                item(self)?;
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error(format_args!("expected `,` or `{}`", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// One value of any kind, as a tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|reader| {
                    items.push(reader.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|reader, key| {
                    fields.push((key.into_owned(), reader.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'n' | b't' | b'f') => self.literal(),
            Some(other) => {
                Err(self.error(format_args!("unexpected character `{}`", other as char)))
            }
        }
    }

    /// Step over one value without building it, returning its byte range.
    /// A scalar is read by its token rule; a container is crossed by bracket
    /// depth alone (stepping over the strings inside), so its contents are
    /// not validated and its numbers are not parsed — whoever parses the
    /// body is the authority on what is malformed inside it. The depth limit
    /// still holds.
    pub fn skip_value(&mut self) -> Result<Range<usize>, Error> {
        let next = self.peek();
        let start = self.pos;
        match next {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            Some(b'[' | b'{') => {
                let bytes = self.text.as_bytes();
                let floor = self.depth;
                loop {
                    match bytes.get(self.pos) {
                        None => return Err(self.error("unterminated container")),
                        Some(b'"') => loop {
                            self.pos += 1;
                            match bytes.get(self.pos) {
                                None => return Err(self.error("unterminated string")),
                                Some(b'"') => break,
                                Some(b'\\') => self.pos += 1,
                                Some(_) => {}
                            }
                        },
                        Some(b'[' | b'{') => self.descend()?,
                        Some(b']' | b'}') => self.depth -= 1,
                        Some(_) => {}
                    }
                    self.pos += 1;
                    if self.depth == floor {
                        break;
                    }
                }
            }
            _ => {
                self.literal()?;
            }
        }
        Ok(start..self.pos)
    }
}

/// Parse JSON text into a [`Value`] tree.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "2.5",
            "\"hi\\n\"",
            "[]",
            "{}",
        ] {
            let v = parse_value(text).unwrap();
            let mut out = String::new();
            write_value(&v, None, 0, &mut out);
            assert_eq!(out, text, "round-trip of {text}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MAX,
            -2.2250738585072014e-308,
            123456.789,
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("tdc".into())),
            (
                "sizes".into(),
                Value::Array(vec![Value::Number(1.0), Value::Number(2.0)]),
            ),
            (
                "nested".into(),
                Value::Object(vec![
                    ("flag".into(), Value::Bool(true)),
                    ("none".into(), Value::Null),
                ]),
            ),
        ]);
        let compact = {
            let mut s = String::new();
            write_value(&v, None, 0, &mut s);
            s
        };
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = {
            let mut s = String::new();
            write_value(&v, Some(2), 0, &mut s);
            s
        };
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_value("{\"a\":}").is_err());
        assert!(parse_value("[1, 2").is_err());
        assert!(parse_value("12 34").is_err());
        assert!(parse_value("nulL").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse_value(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for body in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            nested("[", "]", 100_000),
            nested("{\"a\":[", "]}", 100_000),
        ] {
            let error = parse_value(&body).unwrap_err();
            assert!(error.message.contains("recursion limit"), "{error}");
        }
        // Stepping over a container holds the same limit, counted from the
        // depth the reader is already at.
        let within = nested("[", "]", MAX_DEPTH);
        assert!(Reader::new(&within)
            .array(|r| r.skip_value().map(|_| ()))
            .is_ok());
        let beyond = nested("[", "]", MAX_DEPTH + 1);
        assert!(Reader::new(&beyond).skip_value().is_err());
        assert!(Reader::new(&beyond)
            .array(|r| r.skip_value().map(|_| ()))
            .is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        let long = "é".repeat(4 << 20);
        let mut text = String::with_capacity(long.len() + 16);
        text.push('"');
        text.push_str(&long);
        text.push_str("\\n\"");
        let started = std::time::Instant::now();
        let value = parse_value(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(value.as_str().map(str::len), Some(long.len() + 1));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "an 8 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn reader_walks_members_and_borrows_plain_keys() {
        let text = r#" {"a\u0062": [1, -2.5e1], "c" : {"d": "]"}, "e": null} "#;
        let mut reader = Reader::new(text);
        let mut seen = Vec::new();
        reader
            .object(|r, key| {
                let borrowed = matches!(key, Cow::Borrowed(_));
                match &*key {
                    "ab" => {
                        let mut numbers = Vec::new();
                        r.array(|r| {
                            numbers.push(r.number()?);
                            Ok(())
                        })?;
                        assert_eq!(numbers, [1.0, -25.0]);
                    }
                    _ => {
                        r.skip_value()?;
                    }
                }
                seen.push((key.into_owned(), borrowed));
                Ok(())
            })
            .unwrap();
        reader.end().unwrap();
        assert_eq!(
            seen,
            [
                ("ab".to_string(), false),
                ("c".to_string(), true),
                ("e".to_string(), true)
            ]
        );
        // Escapes decode exactly as the writer encodes them.
        let tricky = "q\"\\/\n\r\t\u{8}\u{c}\u{1}é";
        let written = to_string(&tricky.to_string()).unwrap();
        assert_eq!(Reader::new(&written).string().unwrap(), tricky);
        for bad in [r#""\x""#, r#""\u12g4""#, r#""\u+041""#, r#""open"#] {
            assert!(Reader::new(bad).string().is_err(), "{bad}");
        }
    }
}
