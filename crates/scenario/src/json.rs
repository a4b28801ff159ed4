//! A tiny, dependency-free JSON document model with deterministic output.
//!
//! Reports must be byte-identical across runs with the same seed, so the
//! emitter keeps object members in insertion order (no hashing anywhere)
//! and the runner sticks to integers, booleans and strings — no float
//! formatting is ever on the byte-equality path.

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

    /// An unsigned integer, or `null` when there is none to report.
    pub fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::U64)
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
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
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
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // Control characters below 0x20 must be escaped per the JSON
            // grammar; DEL (0x7F) is legal raw but invisible in terminals
            // and diffs, so it is escaped too — reports are meant to be
            // read and byte-compared by humans and CI alike.
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
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

// ----------------------------------------------------------------- parsing

impl Json {
    /// Parse a JSON document (what the offline `ab_scenario analyze`
    /// subcommand does to a sweep artifact). Numbers become `U64` when
    /// they are non-negative integers that fit, `I64` when negative
    /// integers that fit, and `F64` otherwise; objects keep member
    /// order. Trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
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
                items.push(parse_value(bytes, pos)?);
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
                members.push((key, parse_value(bytes, pos)?));
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
