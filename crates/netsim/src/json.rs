//! The repository's one JSON reader, and the two literal helpers the
//! sweep-summary writer uses.
//!
//! `Reader` is a cursor over a document: whitespace, tokens, strings
//! (RFC 8259's escape table; raw control characters rejected) and
//! numbers.  Two front doors sit on it.  [`parse`] reads any document
//! into a [`Json`] tree whose nesting is capped at [`MAX_DEPTH`];
//! [`SweepSummary::parse`] descends through the summary's own shape
//! instead, so it accepts exactly what that writer emits.  Both fail
//! with a [`ParseError`] naming the byte offset and what was expected
//! there — never a panic.
//!
//! [`SweepSummary::parse`]: crate::runner::SweepSummary::parse

use std::fmt::Write as _;

/// JSON string literal with the mandatory escapes.
pub(crate) fn json_string(s: &str) -> String {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; map them to null.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Integral values print without a trailing ".0" churn.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// Why a document is not what its reader expected: what the reader
/// needed, and the byte offset at which it was missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the document.
    pub offset: usize,
    /// What the reader expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal without fraction or exponent, kept
    /// exact (object hashes do not fit an `f64`).
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an exact integer (floats with an integral value
    /// count: the sweep summaries write `659377.0`-style numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < 9e15 => Some(f as u64),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts, so the
/// recursion depth is the reader's choice, not the input's.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document into a [`Json`] tree.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(text);
    let value = r.value(0)?;
    r.end()?;
    Ok(value)
}

/// Cursor over a document.  `pos` only ever advances past ASCII bytes or
/// to an index `str::find` returned, so it stays on a character boundary.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

pub(crate) type Parsed<T> = Result<T, ParseError>;

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    pub(crate) fn err<T>(&self, expected: &'static str) -> Parsed<T> {
        Err(ParseError {
            offset: self.pos,
            expected,
        })
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        let blank = |c: char| matches!(c, ' ' | '\n' | '\r' | '\t');
        self.pos = self.text.len() - self.rest().trim_start_matches(blank).len();
    }

    /// Skips trailing whitespace; the document must end there.
    pub(crate) fn end(&mut self) -> Parsed<()> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            self.err("end of document")
        }
    }

    /// Skips whitespace, then consumes `token` if it is next.
    pub(crate) fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.rest().starts_with(token);
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    pub(crate) fn token(&mut self, token: &'static str) -> Parsed<()> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(token)
        }
    }

    /// `open "key" :`, leaving the cursor at the field's value.
    pub(crate) fn field(&mut self, open: &'static str, key: &'static str) -> Parsed<&mut Self> {
        self.token(open)?;
        self.token(key)?;
        self.token(":")?;
        Ok(self)
    }

    /// `open (item (, item)*)? close`.
    pub(crate) fn list<T>(
        &mut self,
        open: &'static str,
        close: &'static str,
        mut item: impl FnMut(&mut Self) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        self.token(open)?;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.token(",")?;
        }
    }

    pub(crate) fn string(&mut self) -> Parsed<String> {
        if !self.eat("\"") {
            return self.err("a string");
        }
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let Some(i) = rest.find(|c: char| matches!(c, '"' | '\\' | '\0'..='\u{1f}')) else {
                self.pos = self.text.len();
                return self.err("a closing '\"'");
            };
            out.push_str(&rest[..i]);
            self.pos += i;
            match rest.as_bytes()[i] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => self.pos += 1,
                _ => return self.err("a control character escaped"),
            }
            let escape = self.rest().chars().next();
            out.push(match escape {
                Some(c @ ('"' | '\\' | '/')) => c,
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32);
                    match code {
                        Some(c) => {
                            self.pos += 4;
                            c
                        }
                        None => return self.err("\\u and four hex digits of a scalar value"),
                    }
                }
                _ => return self.err("an escape character"),
            });
            self.pos += 1;
        }
    }

    /// An RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
    /// read as `T`; anything else (`+5`, `01`, `.5`, `1.`) is `expected`.
    pub(crate) fn number<T: std::str::FromStr>(&mut self, expected: &'static str) -> Parsed<T> {
        self.skip_ws();
        let text = self.rest().as_bytes();
        let at = |i: usize, set: &[u8]| text.get(i).is_some_and(|b| set.contains(b));
        // The end of a digit run starting at `i`: one digit at least, and
        // only the one if `int` and it is a 0.
        let digits = |i: usize, int: bool| {
            let run = text.get(i..)?;
            let n = run.iter().take_while(|b| b.is_ascii_digit()).count();
            (n > 0).then(|| i + if int && text[i] == b'0' { 1 } else { n })
        };
        let mut len = digits(usize::from(at(0, b"-")), true);
        if let Some(end) = len.filter(|&end| at(end, b".")) {
            len = digits(end + 1, false);
        }
        if let Some(end) = len.filter(|&end| at(end, b"eE")) {
            len = digits(end + 1 + usize::from(at(end + 1, b"+-")), false);
        }
        match len.and_then(|len| Some((len, self.rest()[..len].parse().ok()?))) {
            Some((len, v)) => {
                self.pos += len;
                Ok(v)
            }
            None => self.err(expected),
        }
    }

    /// Any value, `depth` arrays and objects deep.
    fn value(&mut self, depth: usize) -> Parsed<Json> {
        self.skip_ws();
        let open = self.rest().starts_with(['[', '{']);
        if open && depth == MAX_DEPTH {
            return self.err("nesting no deeper than MAX_DEPTH");
        }
        Ok(match self.rest().as_bytes().first() {
            Some(b'[') => Json::Arr(self.list("[", "]", |r| r.value(depth + 1))?),
            Some(b'{') => Json::Obj(self.list("{", "}", |r| {
                let key = r.string()?;
                r.token(":")?;
                Ok((key, r.value(depth + 1)?))
            })?),
            Some(b'"') => Json::Str(self.string()?),
            _ if self.eat("null") => Json::Null,
            _ if self.eat("true") => Json::Bool(true),
            _ if self.eat("false") => Json::Bool(false),
            _ => match self.number("a JSON value") {
                Ok(n) => Json::Int(n),
                Err(_) => Json::Float(self.number("a JSON value")?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_keeps_integers_exact() {
        let v = parse(
            r#"{"a": {"hash": 18446744073709551615, "f": 659377.0, "neg": -1.5e3},
                "cells": [{"scenario": "x/n=1", "ok": true, "none": null}, []]}"#,
        )
        .unwrap();
        let a = v.get("a").unwrap();
        assert_eq!(a.get("hash").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(a.get("f").unwrap().as_u64(), Some(659_377));
        assert_eq!(a.get("neg"), Some(&Json::Float(-1500.0)));
        assert_eq!(a.get("neg").unwrap().as_u64(), None);
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells[0].get("scenario").unwrap().as_str(), Some("x/n=1"));
        assert_eq!(cells[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(cells[0].get("none"), Some(&Json::Null));
        assert_eq!(cells[1], Json::Arr(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"open",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        // RFC 8259 numbers only: no plus sign, leading zero, bare point,
        // or empty fraction or exponent, alone or inside a document.
        for bad in ["+5", "01", ".5", "1.", "-.5", "1e", "-"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
            assert!(parse(&format!("[{bad}]")).is_err(), "[{bad}]");
        }
        let expected = "a JSON value";
        assert_eq!(
            parse(" -.5"),
            Err(ParseError {
                offset: 1,
                expected
            })
        );
        for good in ["0", "-0", "10", "1.5", "-0.25e-3", "2E+8", "7e0"] {
            assert!(parse(good).is_ok(), "{good:?} should parse");
        }
        // RFC 8259 forbids raw control characters in a string; the
        // writer escapes every one of them.
        let raw = parse("[\"a\tb\"]").expect_err("raw tab");
        assert_eq!(
            (raw.offset, raw.expected),
            (3, "a control character escaped")
        );
        assert_eq!(parse("\"a\\tb\"").unwrap().as_str(), Some("a\tb"));
        assert_eq!(
            parse(&json_string("\u{1}\n")).unwrap().as_str(),
            Some("\u{1}\n")
        );
    }

    /// Nesting is capped before it can exhaust the stack, as a typed
    /// error at the first container past the cap.
    #[test]
    fn nesting_past_max_depth_is_a_typed_error() {
        let deep = parse(&"[".repeat(10_000)).expect_err("too deep");
        assert_eq!(deep.offset, MAX_DEPTH);
        assert!(deep.expected.contains("MAX_DEPTH"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }
}
