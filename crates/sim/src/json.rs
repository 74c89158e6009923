//! JSON: one [`Writer`] behind every document the workspace emits, the
//! string [`escape`]r, and the [`parse`]r that reads documents back.
//!
//! The workspace carries no external dependencies, so nothing here uses
//! `serde`. The writer renders the counter document
//! ([`Stats::to_json`](crate::Stats::to_json), `wmcc --stats-json`), the
//! error encoding that `wmcc --error-json` and `wmd` share
//! ([`SimError::to_json`](crate::SimError::to_json)), the Chrome trace,
//! `wmd`'s wire lines and the `perf` and `memsweep` results. It owns
//! separators, key quoting, string escaping and number rendering; the
//! one layout choice it leaves to a document is per container
//! ([`Layout`]).
//!
//! The parser reads `wmd` requests and `perf` baselines, which come from
//! outside the program: it bounds nesting at [`MAX_DEPTH`] so that no
//! line can exhaust the stack, and it accepts every escape JSON defines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a container places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// On the container's own line, separated by `, `.
    Inline,
    /// One per line, indented two spaces per enclosing line-broken
    /// container, this one included; the closing bracket goes on a line
    /// of its own at the container's indentation.
    Lines,
}

/// Render one JSON document: `body` writes its single top-level value.
/// An empty container renders as `{}` or `[]` under either [`Layout`].
pub fn render(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    body(&mut w);
    debug_assert!(w.open.is_empty() && !w.keyed, "unfinished JSON document");
    w.out
}

/// Render a document that is one object, whose members `body` writes.
pub fn object(layout: Layout, body: impl FnOnce(&mut Writer)) -> String {
    render(|w| w.object(layout, body))
}

/// A document being rendered by [`render`].
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The open containers, innermost last: layout, and whether a member
    /// has been written.
    open: Vec<(Layout, bool)>,
    /// A key was just written, so the next value completes its member.
    keyed: bool,
}

impl Writer {
    /// An object whose members `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Writer)) {
        self.container(layout, ['{', '}'], body);
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Writer)) {
        self.container(layout, ['[', ']'], body);
    }

    /// The key of an object member; the value written next is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.string(key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// One object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Writer {
        self.key(key).value(value)
    }

    /// One value: an array element, or the value of the last key.
    pub fn value(&mut self, value: impl ToJson) -> &mut Writer {
        value.write_json(self);
        self
    }

    /// An already rendered JSON value, spliced in verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.member();
        self.out.push_str(json);
        self
    }

    fn scalar(&mut self, text: std::fmt::Arguments) {
        self.member();
        let _ = self.out.write_fmt(text);
    }

    fn string(&mut self, s: &str) {
        self.member();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    fn container(
        &mut self,
        layout: Layout,
        [open, close]: [char; 2],
        body: impl FnOnce(&mut Self),
    ) {
        self.member();
        self.out.push(open);
        self.open.push((layout, false));
        body(self);
        if self.open.pop() == Some((Layout::Lines, true)) {
            self.newline();
        }
        self.out.push(close);
    }

    /// Separate the next value from the one before it in its container,
    /// unless it completes a keyed member.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some((layout, any)) = self.open.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, !std::mem::replace(any, true));
        if !first {
            self.out.push(',');
        }
        match layout {
            Layout::Lines => self.newline(),
            Layout::Inline if !first => self.out.push(' '),
            Layout::Inline => {}
        }
    }

    fn newline(&mut self) {
        let depth = self.open.iter().filter(|c| c.0 == Layout::Lines).count();
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }
}

/// A value the [`Writer`] renders.
pub trait ToJson {
    /// Write `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

macro_rules! display_scalars {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.scalar(format_args!("{self}"));
            }
        }
    )*};
}
display_scalars!(bool i32 i64 u32 u64 u128 usize);

/// The shortest decimal that reads back as the same `f64`. JSON has no
/// NaN or infinities, so those render as the strings `"NaN"`, `"inf"`
/// and `"-inf"`.
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.scalar(format_args!("{self:?}"));
        } else {
            w.string(&format!("{self:?}"));
        }
    }
}

/// A float with a fixed number of decimals: `Fixed(x, 3)`. Non-finite
/// values render as [`f64`]'s do.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, w: &mut Writer) {
        if self.0.is_finite() {
            w.scalar(format_args!("{:.*}", self.1, self.0));
        } else {
            self.0.write_json(w);
        }
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.scalar(format_args!("null")),
        }
    }
}

/// An inline array.
impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(Layout::Inline, |w| {
            for v in self {
                w.value(v);
            }
        });
    }
}

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes and control characters; everything else passes through).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's documents nest seven deep at most (`perf`'s results with
/// counters); the bound keeps a hostile line from exhausting the stack,
/// as the mini-C parser's own depth bound does.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; JSON does not distinguish integers from floats.
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (`BTreeMap`), which the writers never
    /// rely on and which keeps comparisons deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let members = self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((key, p.value()?))
                })?;
                Ok(Value::Obj(members.into_iter().collect()))
            }
            Some(b'[') => Ok(Value::Arr(self.seq(b']', Self::value)?)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The items of the array or object whose opening bracket is at
    /// `pos`, each read by `item`, through its closing bracket `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    other => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}, found {:?}",
                            close as char,
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash: both are
            // ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    };
                    s.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The char of the `\uXXXX` escape whose `u` is at `pos`, joining a
    /// UTF-16 surrogate pair written as two escapes; a surrogate without
    /// its partner is U+FFFD. Leaves `pos` on the escape's last digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xd800..0xdc00).contains(&high) && self.src[self.pos + 1..].starts_with("\\u") {
            if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                self.pos += 6;
                return Ok(
                    char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
                        .expect("a surrogate pair encodes a supplementary-plane char"),
                );
            }
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        self.src
            .as_bytes()
            .get(at..at + 4)
            .ok_or("truncated \\u escape")?
            .iter()
            .try_fold(0, |n, &b| Some(n * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| "bad \\u escape".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d").unwrap(), &Value::Obj(BTreeMap::new()));
        // A repeated key keeps its last value.
        let v = parse(r#"{"a": 1, "b": 0, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\u+041\"").is_err(), "four hex digits, no sign");
        assert!(parse("\"\\x\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(parse(&nest(200)).is_err(), "well formed, but too deep");
        let objects = format!("{}1{}", r#"{"a": "#.repeat(200), "}".repeat(200));
        assert!(parse(&objects).is_err());
        // Deep enough to overflow the stack of a parser without the bound.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&nest(100_000)).is_err());
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tA"));
        // A surrogate pair is one char; a lone surrogate is U+FFFD.
        assert_eq!(
            parse(r#""job-\ud83d\ude00""#).unwrap().as_str(),
            Some("job-😀")
        );
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(parse(r#""\ude00""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(
            parse(r#""\ud83d\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        assert!(parse(r#""\ud83d\u00""#).is_err());
    }

    #[test]
    fn unicode_passthrough_and_escapes() {
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // Every char U+0000..=U+00FF, a 3-byte and a 4-byte one survive
        // the writer and the parser, as a key and as a value.
        let text: String = (0..=0xff_u8).map(char::from).chain(['€', '😀']).collect();
        let doc = render(|w| {
            w.object(Layout::Inline, |w| {
                w.field(&text, &text);
            });
        });
        assert!(!doc.contains('\n'), "control characters are escaped");
        assert_eq!(
            parse(&doc).unwrap().get(&text).unwrap().as_str(),
            Some(&*text)
        );
    }

    #[test]
    fn layouts_place_separators_and_indentation() {
        let doc = render(|w| {
            w.object(Layout::Lines, |w| {
                w.field("a", 1).field("b", [1_u64, 2].as_slice());
                w.key("c").object(Layout::Lines, |w| {
                    w.key("d").object(Layout::Inline, |w| {
                        w.field("e", "f").field("g", None::<u64>);
                    });
                });
                w.key("h").array(Layout::Inline, |w| {
                    w.array(Layout::Lines, |w| {
                        w.value(true).value(false);
                    });
                });
                w.key("i").array(Layout::Lines, |_| {});
                w.key("j").raw("{\"k\": 0}");
            });
        });
        assert_eq!(
            doc,
            "{\n  \"a\": 1,\n  \"b\": [1, 2],\n  \"c\": {\n    \"d\": {\"e\": \"f\", \"g\": null}\n  },\n  \
             \"h\": [[\n    true,\n    false\n  ]],\n  \"i\": [],\n  \"j\": {\"k\": 0}\n}"
        );
    }

    #[test]
    fn floats_render_fixed_shortest_or_as_strings() {
        let doc = render(|w| {
            w.array(Layout::Inline, |w| {
                w.value(2016.0)
                    .value(0.1)
                    .value(1e-7)
                    .value(Fixed(1.23456, 3));
                w.value(f64::NAN)
                    .value(f64::INFINITY)
                    .value(Fixed(f64::NEG_INFINITY, 1));
            });
        });
        assert_eq!(doc, r#"[2016.0, 0.1, 1e-7, 1.235, "NaN", "inf", "-inf"]"#);
    }
}
