//! A tiny, dependency-free JSON writer and document model with
//! deterministic output.
//!
//! Reports and the trace timeline are **written**, not built: [`Writer`]
//! streams members into one `String` in the order the code names them (no
//! hashing anywhere), and a report's `to_json` (or
//! [`crate::timeline::timeline_json`]) returns that text as a
//! [`JsonText`]. The [`Json`] tree is the parse side — what `ab_scenario
//! analyze`, `diff` and `validate-trace` read back, and what small ad hoc
//! documents (bench results) are built as; [`Json::render`] walks a tree
//! into the same writer, so escaping and number formatting live in one
//! place. Pretty
//! output is one pass over compact text ([`pretty`]). Reports stick to
//! integers, booleans and strings — no float formatting is ever on their
//! byte-equality path.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (counters, nanosecond times).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float — for bench artifacts that carry rates and ratios.
    /// Scenario reports stick to integers so no float formatting is on
    /// their byte-equality path; bench JSON is compared numerically, not
    /// byte-wise. Rendered with Rust's shortest-round-trip formatting
    /// (deterministic for a given value); non-finite values render as
    /// `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Fetch a member of an object by key (for tests and summaries).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is any numeric variant (what bench
    /// gates read — they consume the emitted document's numeric fields,
    /// not the display strings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut w = Writer::default();
        w.json(self);
        w.out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        pretty(&self.render())
    }
}

/// A compact JSON writer over one `String`: containers open and close
/// around a closure, a key precedes each object member, and the writer
/// places the commas. Every value method returns the writer, so an
/// object's members chain: `w.key("a").u64(1).key("b").bool(true)`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Does the next key or value follow a sibling (and need a comma)?
    comma: bool,
}

impl Writer {
    /// Start the next key or value: a comma if it follows a sibling.
    fn next(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        write_escaped(self.next(), key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// An array whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container('[', ']', body)
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.next().push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// `null`
    pub fn null(&mut self) -> &mut Self {
        self.next().push_str("null");
        self
    }

    /// `true` / `false`
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.next().push_str(if v { "true" } else { "false" });
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.next(), "{v}");
        self
    }

    /// An unsigned integer, or `null` when there is none to report.
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        let _ = write!(self.next(), "{v}");
        self
    }

    /// A float in shortest-round-trip form; `null` when not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.next(), "{v}");
            self
        } else {
            self.null()
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_escaped(self.next(), s);
        self
    }

    /// A whole tree.
    fn json(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::U64(n) => self.u64(*n),
            Json::I64(n) => self.i64(*n),
            Json::F64(n) => self.f64(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.arr(|w| {
                for item in items {
                    w.json(item);
                }
            }),
            Json::Obj(members) => self.obj(|w| {
                for (k, v) in members {
                    w.key(k).json(v);
                }
            }),
        }
    }
}

/// A written JSON document, compact: what a report's `to_json` returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonText(String);

impl JsonText {
    /// The document `body` writes.
    pub fn write(body: impl FnOnce(&mut Writer)) -> JsonText {
        let mut w = Writer::default();
        body(&mut w);
        JsonText(w.out)
    }

    /// The compact text, owned.
    pub fn render(&self) -> String {
        self.0.clone()
    }

    /// The text with two-space indentation (see [`pretty`]).
    pub fn render_pretty(&self) -> String {
        pretty(&self.0)
    }

    /// The compact text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The document parsed back into a tree, for code that reads members.
    pub fn tree(&self) -> Json {
        Json::parse(&self.0).expect("written JSON parses")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the unescaped runs
    // between them end on char boundaries and copy whole.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            // Control characters below 0x20 must be escaped per the JSON
            // grammar; DEL (0x7F) is legal raw but invisible in terminals
            // and diffs, so it is escaped too — reports are meant to be
            // read and byte-compared by humans and CI alike.
            0..=0x1f | 0x7f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Indent compact JSON (what [`Writer`] produces) by two spaces a level,
/// in one pass: a newline and the indent after `{`, `[` and `,` and
/// before a non-empty container's close, `": "` after a key, `{}` and
/// `[]` kept closed, string bodies copied untouched; then a final
/// newline.
pub fn pretty(compact: &str) -> String {
    fn newline(out: &mut String, depth: usize) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    }
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let mut end = i + 1;
                while end < bytes.len() && bytes[end] != b'"' {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                let end = (end + 1).min(bytes.len());
                out.push_str(&compact[i..end]);
                i = end;
                continue;
            }
            open @ (b'{' | b'[') => {
                out.push(char::from(open));
                let close = if open == b'{' { b'}' } else { b']' };
                if bytes.get(i + 1) == Some(&close) {
                    out.push(char::from(close));
                    i += 1;
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            close @ (b'}' | b']') => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(char::from(close));
            }
            b',' => {
                out.push(',');
                newline(&mut out, depth);
            }
            b':' => out.push_str(": "),
            _ => {
                let end = bytes[i..]
                    .iter()
                    .position(|b| b"\"{}[],:".contains(b))
                    .map_or(bytes.len(), |n| i + n);
                out.push_str(&compact[i..end]);
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out.push('\n');
    out
}

// ----------------------------------------------------------------- parsing

impl Json {
    /// Parse a JSON document (what the offline `ab_scenario analyze`
    /// subcommand does to a sweep artifact). Numbers become `U64` when
    /// they are non-negative integers that fit, `I64` when negative
    /// integers that fit, and `F64` otherwise; objects keep member
    /// order. Trailing non-whitespace is an error, and so is nesting
    /// deeper than 256 levels (the parser recurses once a level).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// How deep [`Json::parse`] lets arrays and objects nest. Reports nest
/// about 9 deep; the limit keeps a hostile file from exhausting the
/// stack.
const MAX_NESTING: usize = 256;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(what), *pos))
    }
}

fn eat_keyword(bytes: &[u8], pos: &mut usize, word: &str) -> bool {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        true
    } else {
        false
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_NESTING && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') if eat_keyword(bytes, pos, "null") => Ok(Json::Null),
        Some(b't') if eat_keyword(bytes, pos, "true") => Ok(Json::Bool(true)),
        Some(b'f') if eat_keyword(bytes, pos, "false") => Ok(Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(format!("lone surrogate at byte {}", *pos));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            let code =
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?);
                        continue; // pos already past the escape
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next delimiter at once. Both
                // delimiters are ASCII and the input is a &str, so the run
                // ends on a char boundary; only the run is re-validated,
                // never the rest of the document.
                let run = &bytes[*pos..];
                let end = run
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(run.len());
                out.push_str(core::str::from_utf8(&run[..end]).map_err(|e| e.to_string())?);
                *pos += end;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
    let s = core::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    let v = u32::from_str_radix(s, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = core::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::U64(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::I64(i));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::sweep::{run_sweep_jobs, SweepSpec};

    // --------------------------------------------------------------- model
    // The recursive indenting tree writer `render`/`render_pretty` used
    // before reports were written as text, kept verbatim as the oracle
    // `Writer` + `pretty` are held to.

    fn model_write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => model_escaped(out, s),
            Json::Arr(items) => {
                model_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    model_write(&items[i], out, indent, depth + 1)
                });
            }
            Json::Obj(members) => {
                model_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    model_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    model_write(v, out, indent, depth + 1);
                });
            }
        }
    }

    fn model_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 || c == '\u{7f}' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn model_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        len: usize,
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * (depth + 1)));
            }
            item(out, i);
        }
        if len > 0 {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * depth));
            }
        }
        out.push(close);
    }

    fn model_compact(v: &Json) -> String {
        let mut out = String::new();
        model_write(v, &mut out, None, 0);
        out
    }

    fn model_pretty(v: &Json) -> String {
        let mut out = String::new();
        model_write(v, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// A tree drawn from `picks`: every variant, empty and nested
    /// containers (arrays inside objects and the reverse), and strings
    /// from [`PALETTE`] — control characters, DEL, quotes, backslashes,
    /// multi-byte UTF-8 — plus the brackets, commas and colons `pretty`
    /// must not mistake for structure inside a string.
    fn tree_from(picks: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        let p = picks.next().unwrap_or(0);
        let text = |picks: &mut dyn Iterator<Item = u64>, n: u64| -> String {
            const STRUCTURE: &[u8] = b"[]{},:";
            picks
                .take(n as usize)
                .map(|c| {
                    let c = c as usize % (PALETTE.len() + STRUCTURE.len());
                    PALETTE
                        .get(c)
                        .copied()
                        .unwrap_or_else(|| char::from(STRUCTURE[c - PALETTE.len()]))
                })
                .collect()
        };
        match p % if depth >= 4 { 6 } else { 8 } {
            0 => Json::Null,
            1 => Json::Bool(p & 8 != 0),
            2 => Json::U64(p >> 3),
            3 => Json::I64(-((p >> 4) as i64)),
            4 => Json::F64([0.5, -3.0, 1e300, 1.7e-12, f64::NAN][(p >> 3) as usize % 5]),
            5 => Json::Str(text(picks, (p >> 3) % 6)),
            6 => Json::Arr(
                (0..(p >> 3) % 4)
                    .map(|_| tree_from(picks, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..(p >> 3) % 4)
                    .map(|_| {
                        let n = picks.next().unwrap_or(0) % 4;
                        (text(picks, n), tree_from(picks, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        /// The writer and the one-pass indenter reproduce the recursive
        /// tree writer byte for byte, compact and pretty.
        #[test]
        fn writer_and_pretty_match_the_indenting_model(
            picks in proptest::collection::vec(proptest::any::<u64>(), 0..80),
        ) {
            let tree = tree_from(&mut picks.into_iter(), 0);
            proptest::prop_assert_eq!(tree.render(), model_compact(&tree));
            proptest::prop_assert_eq!(pretty(&tree.render()), model_pretty(&tree));
        }
    }

    #[test]
    fn pretty_keeps_empty_containers_and_string_bodies_intact() {
        let doc = Json::obj(vec![
            ("{,}", Json::str("[\"]:,{")),
            ("e", Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![])])),
        ]);
        assert_eq!(pretty(&doc.render()), model_pretty(&doc));
        assert_eq!(pretty("[]"), "[]\n");
    }

    /// The four sweeps at seed 42, rendered compact.
    fn sweep_documents() -> &'static [String] {
        static DOCS: OnceLock<Vec<String>> = OnceLock::new();
        DOCS.get_or_init(|| {
            [
                SweepSpec::default_sweep,
                SweepSpec::chaos_sweep,
                SweepSpec::lossy_sweep,
                SweepSpec::adversarial_sweep,
            ]
            .iter()
            .map(|ctor| run_sweep_jobs(&ctor(42), 1).to_json().render())
            .collect()
        })
    }

    #[test]
    fn written_reports_are_the_canonical_form_of_their_own_tree() {
        for doc in sweep_documents() {
            let tree = Json::parse(doc).expect("a written sweep parses");
            assert!(tree.render() == *doc, "a sweep re-renders differently");
            assert_eq!(tree.render_pretty(), pretty(doc));
        }
    }

    #[test]
    fn parse_rejects_100_000_open_brackets_without_overflowing() {
        let err = Json::parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.starts_with("nesting deeper than 256"), "{err}");
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
        // The limit itself still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(Json::parse(&deeper).is_err());
    }

    proptest::proptest! {
        /// Arbitrary bytes, read as text, never panic the parser or the
        /// indenter.
        #[test]
        fn parse_and_pretty_never_panic_on_arbitrary_bytes(
            raw in proptest::collection::vec(proptest::any::<u8>(), 0..256),
            structural in proptest::collection::vec(
                proptest::sample::select(b"[]{}\",:\\0123456789-.eE tfnrul".to_vec()),
                0..256,
            ),
        ) {
            for bytes in [raw, structural] {
                let text = String::from_utf8_lossy(&bytes);
                let _ = Json::parse(&text);
                let _ = pretty(&text);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Rendered reports with bytes deleted, replaced, inserted or cut
        /// off never panic the parser or the indenter.
        #[test]
        fn parse_never_panics_on_mutated_reports(
            which in 0usize..4,
            edits in proptest::collection::vec(proptest::any::<u64>(), 1..8),
        ) {
            let mut bytes = sweep_documents()[which].clone().into_bytes();
            // One edit a word: the operation in bits 0–1, the byte in
            // bits 2–9, the position in the rest.
            for edit in edits {
                let (op, byte) = (edit & 3, (edit >> 2) as u8);
                let at = (edit >> 10) as usize % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    1 if at < bytes.len() => bytes[at] = byte,
                    2 => bytes.insert(at, byte),
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = Json::parse(&text);
            let _ = pretty(&text);
        }
    }

    #[test]
    fn renders_compact_in_insertion_order() {
        let doc = Json::obj(vec![
            ("z", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("s", Json::str("hi\"there\n")),
        ]);
        assert_eq!(doc.render(), r#"{"z":1,"a":[true,null],"s":"hi\"there\n"}"#);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let doc = Json::obj(vec![("k", Json::Arr(vec![Json::I64(-3)]))]);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\"k\": [\n"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn get_finds_members() {
        let doc = Json::obj(vec![("x", Json::U64(7))]);
        assert_eq!(doc.get("x"), Some(&Json::U64(7)));
        assert_eq!(doc.get("y"), None);
    }

    #[test]
    fn floats_render_numerically_and_read_back() {
        let doc = Json::obj(vec![
            ("rate", Json::F64(12.25)),
            ("whole", Json::F64(3.0)),
            ("bad", Json::F64(f64::NAN)),
        ]);
        assert_eq!(doc.render(), r#"{"rate":12.25,"whole":3,"bad":null}"#);
        assert_eq!(doc.get("rate").unwrap().as_f64(), Some(12.25));
        assert_eq!(Json::U64(4).as_f64(), Some(4.0));
        assert_eq!(Json::str("4").as_f64(), None);
    }

    #[test]
    fn control_chars_and_del_are_escaped() {
        let doc = Json::str("a\u{0}b\u{1f}c\u{7f}d\u{80}");
        // NUL and 0x1F use \u escapes, DEL is escaped for report
        // readability, and 0x80 (legal, printable-range) passes through.
        assert_eq!(doc.render(), "\"a\\u0000b\\u001fc\\u007fd\u{80}\"");
        // Named short escapes stay short.
        assert_eq!(Json::str("\n\r\t").render(), r#""\n\r\t""#);
        // And everything escaped reads back to the original string.
        let round = Json::parse(&doc.render()).expect("valid");
        assert_eq!(round, doc);
    }

    #[test]
    fn empty_containers_render_closed_in_pretty_mode() {
        // An empty object/array must not emit a dangling indented
        // newline: `{}` and `[]`, not `{\n}`.
        let doc = Json::obj(vec![("o", Json::Obj(vec![])), ("a", Json::Arr(vec![]))]);
        assert_eq!(doc.render(), r#"{"o":{},"a":[]}"#);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\"o\": {}"), "pretty was {pretty:?}");
        assert!(pretty.contains("\"a\": []"), "pretty was {pretty:?}");
        assert_eq!(Json::Obj(vec![]).render_pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]\n");
    }

    #[test]
    fn large_floats_survive_render_and_read_back() {
        // Rust's float Display is shortest-round-trip, so even extreme
        // magnitudes must come back bit-exact through render → parse →
        // as_f64 (the bench gates consume these fields numerically).
        for v in [1e300, -1e300, f64::MAX, f64::MIN_POSITIVE, 1.7e-12] {
            let doc = Json::obj(vec![("v", Json::F64(v))]);
            let parsed = Json::parse(&doc.render()).expect("valid JSON");
            assert_eq!(parsed.get("v").unwrap().as_f64(), Some(v), "value {v}");
        }
    }

    #[test]
    fn parser_round_trips_documents() {
        let doc = Json::obj(vec![
            ("u", Json::U64(u64::MAX)),
            ("i", Json::I64(-42)),
            ("f", Json::F64(2.5)),
            ("s", Json::str("esc \"\\ \n ünï")),
            ("n", Json::Null),
            ("b", Json::Bool(false)),
            (
                "nest",
                Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![Json::U64(1)])]),
            ),
        ]);
        assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
        // Pretty whitespace parses to the same document.
        assert_eq!(Json::parse(&doc.render_pretty()), Ok(doc));
    }

    #[test]
    fn parser_maps_number_variants() {
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(Json::parse("-9"), Ok(Json::I64(-9)));
        assert_eq!(Json::parse("1.5"), Ok(Json::F64(1.5)));
        assert_eq!(Json::parse("1e3"), Ok(Json::F64(1000.0)));
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        // A BMP \u escape.
        assert_eq!(Json::parse("\"\\u0041\""), Ok(Json::str("A")));
        // A surrogate pair decodes to one scalar (U+1F600), and raw
        // UTF-8 passes straight through.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\""),
            Ok(Json::str("\u{1F600}"))
        );
        assert_eq!(Json::parse("\"\u{1F600}\""), Ok(Json::str("\u{1F600}")));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate");
    }

    /// Every character class the string parser treats differently: plain
    /// ASCII, both delimiters, each short escape, control characters, DEL,
    /// 2-, 3- and 4-byte UTF-8, and the scalars next to the surrogate gap.
    const PALETTE: [char; 24] = [
        'a',
        'Z',
        ' ',
        '"',
        '\\',
        '/',
        '\u{8}',
        '\u{c}',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        '\u{80}',
        'é',
        'ü',
        '€',
        '\u{D7FF}',
        '\u{E000}',
        '\u{FFFD}',
        '😀',
        '\u{10000}',
        '\u{10FFFF}',
    ];

    /// `s` as a JSON string literal with every character escaped: the
    /// short escape where JSON has one (including `\/`), `\uXXXX`
    /// otherwise, a surrogate pair beyond the BMP.
    fn fully_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' => out.push_str("\\/"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        let _ = write!(out, "\\u{unit:04x}");
                    }
                }
            }
        }
        out.push('"');
        out
    }

    proptest::proptest! {
        /// `parse(render(doc)) == doc` for documents whose keys and
        /// strings mix multi-byte UTF-8 with everything that needs an
        /// escape, and the same strings read back from their fully
        /// escaped spelling (surrogate pairs included).
        #[test]
        fn parse_inverts_render_on_arbitrary_strings(
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..PALETTE.len(), 0..40),
                3,
            ),
            n in proptest::any::<u64>(),
        ) {
            let text = |i: usize| picks[i].iter().map(|&c| PALETTE[c]).collect::<String>();
            let doc = Json::Obj(vec![(
                text(0),
                Json::Arr(vec![Json::str(text(1)), Json::U64(n), Json::str(text(2))]),
            )]);
            proptest::prop_assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
            proptest::prop_assert_eq!(Json::parse(&doc.render_pretty()), Ok(doc));
            for i in 0..3 {
                proptest::prop_assert_eq!(
                    Json::parse(&fully_escaped(&text(i))),
                    Ok(Json::str(text(i)))
                );
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"k\":}", "tru", "1 2", "\"open", "--1"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
