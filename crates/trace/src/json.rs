//! The one JSON value, writer and parser behind every report the workspace
//! writes or reads: the Chrome trace, the lint report and the
//! `BENCH_*.json` files.
//!
//! [`write`](fn@write) has a single layout. Each member of a top-level object goes on
//! its own line at indent 2, a non-empty array member puts one element per
//! line at indent 4, and everything else is inline with `, ` and `: ` as
//! separators. Objects keep their insertion order and numbers keep the
//! literal text their producer chose (`{:.6}`, `Display`, integers), so a
//! file written here parses and re-writes to the same bytes.
//!
//! [`parse`] is a recursive-descent parser that refuses input nested deeper
//! than [`MAX_DEPTH`] containers, so a crafted file gets an `Err`, not a
//! stack overflow.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. Every file the workspace
/// writes nests at most four levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as the literal text it was written or parsed with.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object holding `members` in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` written with exactly `places` decimals.
    #[must_use]
    pub fn fixed(v: f64, places: usize) -> Json {
        Json::Num(format!("{v:.places$}"))
    }

    /// The member named `key`; with duplicate keys the last one wins, as
    /// it would in a map.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number that is a non-negative integer: exact for integer text,
    /// and for other text when its `f64` value is whole (`1e3` is 1000).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(text) = self else { return None };
        text.parse::<u64>().ok().or_else(|| {
            let f = text.parse::<f64>().ok()?;
            (f >= 0.0 && f.fract() == 0.0).then_some(f as u64)
        })
    }

    /// The value of a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contents of a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_from_integer!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Renders `v` in the one layout described in the module docs, ending with
/// a newline.
#[must_use]
pub fn write(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    out.push('\n');
    out
}

/// Writes `v`, which starts a line at indent `level` or, for `None`, sits
/// inline. The top-level object and its non-empty array members put each
/// entry on a line of its own one level deeper; the rest is inline.
fn write_value(out: &mut String, v: &Json, level: Option<usize>) {
    let entries_at = match (v, level) {
        (Json::Obj(members), Some(0)) if !members.is_empty() => Some(1),
        (Json::Arr(items), Some(1)) if !items.is_empty() => Some(2),
        _ => None,
    };
    let separate = |out: &mut String, i: usize| match entries_at {
        Some(indent) => {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(indent));
        }
        None if i > 0 => out.push_str(", "),
        None => {}
    };
    let close = |out: &mut String, bracket: char| {
        if let Some(indent) = entries_at {
            out.push('\n');
            out.push_str(&"  ".repeat(indent - 1));
        }
        out.push(bracket);
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(text) => out.push_str(text),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                separate(out, i);
                write_value(out, item, entries_at);
            }
            close(out, ']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                separate(out, i);
                write_str(out, key);
                out.push_str(": ");
                write_value(out, member, entries_at);
            }
            close(out, '}');
        }
    }
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
fn write_str(out: &mut String, s: &str) {
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

/// Why [`parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed JSON.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// What the parser expected there.
        msg: &'static str,
    },
    /// A container nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that opens it.
        at: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, msg } => write!(f, "json parse error at byte {at}: {msg}"),
            ParseError::TooDeep { at } => write!(
                f,
                "json parse error at byte {at}: nested deeper than {MAX_DEPTH} containers"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value, surrounded by optional whitespace.
///
/// # Errors
///
/// Returns the first syntax error, or [`ParseError::TooDeep`] for input
/// nested past [`MAX_DEPTH`] containers.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError::Syntax { at: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(ParseError::TooDeep { at: self.pos })
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("expected true, false or null"))
        }
    }

    /// The members after an opening `{`.
    fn object(&mut self) -> Result<Json, ParseError> {
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// The elements after an opening `[`.
    fn array(&mut self) -> Result<Json, ParseError> {
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// The string opening at the current `"`.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before one ends on a char
            // boundary.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self.bytes.get(self.pos).copied();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() {
            return Err(self.err("expected a number"));
        }
        if text.parse::<f64>().is_err() {
            return Err(self.err("bad number"));
        }
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::{Rng, StdRng};

    #[test]
    fn json_escapes_control_and_quote_chars() {
        assert_eq!(write(&"a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(write(&"\u{1}".into()), "\"\\u0001\"\n");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = write(&"a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn layout_breaks_lines_only_at_the_top_two_levels() {
        let v = Json::obj([
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("a", 1u32.into())]), Json::Null]),
            ),
            ("inner", Json::obj([("xs", Json::Arr(vec![true.into()]))])),
        ]);
        assert_eq!(
            write(&v),
            "{\n  \"empty\": [],\n  \"rows\": [\n    {\"a\": 1},\n    null\n  ],\n  \
             \"inner\": {\"xs\": [true]}\n}\n"
        );
        assert_eq!(write(&Json::obj::<&str>([])), "{}\n");
        assert_eq!(
            write(&Json::Arr(vec![1u32.into(), 2u32.into()])),
            "[1, 2]\n"
        );
    }

    #[test]
    fn committed_files_rewrite_byte_for_byte() {
        for text in [
            include_str!("../../lint/tests/golden/report.json"),
            include_str!("../../lint/tests/golden/verify_report.json"),
            include_str!("../../../BENCH_shard.json"),
        ] {
            assert_eq!(write(&parse(text).unwrap()), text);
        }
    }

    fn random_string(rng: &mut StdRng) -> String {
        const PIECES: [&str; 16] = [
            "a",
            "Z",
            " ",
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "€",
            "\u{1d11e}",
            "{]:,",
        ];
        (0..rng.gen_range(0usize..6))
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    fn random_number(rng: &mut StdRng) -> Json {
        match rng.gen_range(0u32..5) {
            0 => u64::MAX.into(),
            1 => rng.next_u64().into(),
            2 => Json::fixed(rng.gen::<f64>() * 1e6, rng.gen_range(0usize..7)),
            3 => Json::Num(format!("-{}", rng.gen_range(1u64..1_000))),
            _ => Json::Num(format!(
                "{}e-{}",
                rng.gen_range(1u64..10),
                rng.gen_range(1u32..20)
            )),
        }
    }

    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => rng.gen::<bool>().into(),
            2 => random_number(rng),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0usize..4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0usize..4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parse_inverts_write_on_seeded_values() {
        for seed in 0..2_000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = if seed % 2 == 0 {
                // A top-level object exercises the line-broken layout.
                Json::Obj(
                    (0..rng.gen_range(0usize..5))
                        .map(|_| (random_string(&mut rng), random_value(&mut rng, 4)))
                        .collect(),
                )
            } else {
                random_value(&mut rng, 5)
            };
            assert_eq!(parse(&write(&v)).as_ref(), Ok(&v), "seed {seed}");
        }
    }

    /// `depth` nested containers, alternating arrays and objects, around
    /// an empty array.
    fn nest(depth: usize) -> Json {
        (1..depth).fold(Json::Arr(vec![]), |v, d| {
            if d % 2 == 0 {
                Json::Arr(vec!["s".into(), v])
            } else {
                Json::obj([("k", v), ("e", Json::Null)])
            }
        })
    }

    #[test]
    fn nesting_is_limited_with_a_typed_error() {
        let at_limit = nest(MAX_DEPTH);
        assert_eq!(parse(&write(&at_limit)), Ok(at_limit));
        let past = write(&nest(MAX_DEPTH + 1));
        assert!(matches!(parse(&past), Err(ParseError::TooDeep { .. })));
        let brackets = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&brackets(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&brackets(MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { at: MAX_DEPTH })
        );
        assert_eq!(
            parse(&"[".repeat(1_000_000)),
            Err(ParseError::TooDeep { at: MAX_DEPTH })
        );
    }
}
