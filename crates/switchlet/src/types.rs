//! The switchlet type language.
//!
//! The paper's safety argument rests on Caml's static, strong typing:
//! "there is no equivalent of a C cast operator, so there is no way to
//! 'trick' Caml into thinking a function is an object that can be changed".
//! This module defines the (monomorphic) type language our verifier and
//! linker enforce. It is deliberately small — large enough to express every
//! switchlet the paper describes, small enough to verify exhaustively.

use core::fmt;

/// How deep a decoded type may nest tuples and function types (`(int,
/// int)` is one level). [`Ty::decode`] recurses once per level and an
/// image's type fields are wire-derived: 32 000 nested tuple headers fit
/// in one and would overflow a 2 MiB thread stack. The shipped images
/// and the test generators nest at most three levels
/// (`crates/switchlet/DESIGN.md` § 4).
pub const MAX_TYPE_DEPTH: usize = 32;

/// A switchlet-level type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// The unit type (like Caml's `unit`).
    Unit,
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// Immutable byte strings (Caml's `string`; also the packet
    /// representation — the paper represents packets as "a string with the
    /// data").
    Str,
    /// A tuple of at least two component types.
    Tuple(Vec<Ty>),
    /// A first-class function. Switchlet registration ("Func.register")
    /// traffics in these.
    Func(FuncTy),
    /// An abstract (nominal) type exported by a host module, like the
    /// paper's `iport`/`oport` in Figure 4. No instruction produces values
    /// of a named type, so switchlets can obtain them only from host
    /// functions — the basis of name-space security for capabilities.
    Named(String),
}

/// A function type: parameters and result.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FuncTy {
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Result type.
    pub result: Box<Ty>,
}

impl FuncTy {
    /// Build a function type.
    pub fn new(params: Vec<Ty>, result: Ty) -> FuncTy {
        FuncTy {
            params,
            result: Box::new(result),
        }
    }
}

/// Where a canonical type encoding is written: a buffer, or an MD5 state
/// absorbing the bytes as they are produced.
pub(crate) trait Sink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Ty {
    /// Shorthand for a function type.
    pub fn func(params: Vec<Ty>, result: Ty) -> Ty {
        Ty::Func(FuncTy::new(params, result))
    }

    /// Shorthand for a tuple type.
    pub fn tuple(items: Vec<Ty>) -> Ty {
        assert!(items.len() >= 2, "tuples have at least two components");
        Ty::Tuple(items)
    }

    /// Shorthand for an abstract named type.
    pub fn named(tag: impl Into<String>) -> Ty {
        Ty::Named(tag.into())
    }

    /// Types compared by the `Eq`-family instructions: unit, bool, int,
    /// string.
    pub fn hashable(&self) -> bool {
        matches!(self, Ty::Unit | Ty::Bool | Ty::Int | Ty::Str)
    }

    /// Canonical encoding used by interface digests; injective on the type
    /// language so distinct types can never collide pre-hash.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    /// [`Ty::encode`] into any [`Sink`]: an interface digest streams the
    /// encoding into its MD5 state instead of buffering it.
    pub(crate) fn encode_into(&self, out: &mut impl Sink) {
        match self {
            Ty::Unit => out.put(b"u"),
            Ty::Bool => out.put(b"b"),
            Ty::Int => out.put(b"i"),
            Ty::Str => out.put(b"s"),
            Ty::Tuple(items) => {
                out.put(&[b'(', items.len() as u8]);
                for t in items {
                    t.encode_into(out);
                }
                out.put(b")");
            }
            Ty::Func(f) => Ty::encode_func(&f.params, &f.result, out),
            Ty::Named(tag) => {
                out.put(&[b'n', tag.len() as u8]);
                out.put(tag.as_bytes());
            }
        }
    }

    /// The encoding of `Ty::func(params, result)`, from its parts: a
    /// function's signature is digested without building its type.
    pub(crate) fn encode_func(params: &[Ty], result: &Ty, out: &mut impl Sink) {
        out.put(&[b'<', params.len() as u8]);
        for p in params {
            p.encode_into(out);
        }
        result.encode_into(out);
        out.put(b">");
    }

    /// Decode one type from the front of `buf`, advancing it. Inverse of
    /// [`Ty::encode`]. Returns `None` on malformed input, and on a type
    /// nested deeper than [`MAX_TYPE_DEPTH`].
    pub fn decode(buf: &mut &[u8]) -> Option<Ty> {
        Ty::decode_within(buf, MAX_TYPE_DEPTH)
    }

    /// [`Ty::decode`] with `levels` more levels of nesting allowed.
    fn decode_within(buf: &mut &[u8], levels: usize) -> Option<Ty> {
        let (&tag, rest) = buf.split_first()?;
        *buf = rest;
        if matches!(tag, b'(' | b'<') && levels == 0 {
            return None;
        }
        let inner = levels.saturating_sub(1);
        Some(match tag {
            b'u' => Ty::Unit,
            b'b' => Ty::Bool,
            b'i' => Ty::Int,
            b's' => Ty::Str,
            b'(' => {
                let (&n, rest) = buf.split_first()?;
                *buf = rest;
                if n < 2 {
                    return None;
                }
                // Grown as items decode, never reserved from `n`: every
                // level of a nested type would hold its claimed capacity
                // at once, heap quadratic in the encoding's length.
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(Ty::decode_within(buf, inner)?);
                }
                let (&close, rest) = buf.split_first()?;
                *buf = rest;
                if close != b')' {
                    return None;
                }
                Ty::Tuple(items)
            }
            b'<' => {
                let (&n, rest) = buf.split_first()?;
                *buf = rest;
                // Grown as parameters decode, like a tuple's items.
                let mut params = Vec::new();
                for _ in 0..n {
                    params.push(Ty::decode_within(buf, inner)?);
                }
                let result = Ty::decode_within(buf, inner)?;
                let (&close, rest) = buf.split_first()?;
                *buf = rest;
                if close != b'>' {
                    return None;
                }
                Ty::Func(FuncTy::new(params, result))
            }
            b'n' => {
                let (&len, rest) = buf.split_first()?;
                *buf = rest;
                if buf.len() < len as usize {
                    return None;
                }
                let (name, rest) = buf.split_at(len as usize);
                *buf = rest;
                Ty::Named(String::from_utf8(name.to_vec()).ok()?)
            }
            _ => return None,
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "unit"),
            Ty::Bool => write!(f, "bool"),
            Ty::Int => write!(f, "int"),
            Ty::Str => write!(f, "str"),
            Ty::Tuple(items) => {
                write!(f, "(")?;
                for (i, t) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Ty::Func(ft) => {
                write!(f, "[")?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "] -> {}", ft.result)
            }
            Ty::Named(tag) => write!(f, "{tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(
            Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit).to_string(),
            "[str, int] -> unit"
        );
        assert_eq!(
            Ty::tuple(vec![Ty::Int, Ty::Bool]).to_string(),
            "(int * bool)"
        );
    }

    #[test]
    fn hashable_subset() {
        assert!(Ty::Int.hashable());
        assert!(Ty::Str.hashable());
        assert!(!Ty::func(vec![], Ty::Unit).hashable());
        assert!(!Ty::tuple(vec![Ty::Int, Ty::Int]).hashable());
    }

    #[test]
    fn encode_is_injective_on_samples() {
        let samples = vec![
            Ty::Unit,
            Ty::Bool,
            Ty::Int,
            Ty::Str,
            Ty::tuple(vec![Ty::Int, Ty::Int]),
            Ty::tuple(vec![Ty::Int, Ty::Int, Ty::Int]),
            Ty::func(vec![], Ty::Int),
            Ty::func(vec![Ty::Int], Ty::Int),
            Ty::func(vec![Ty::Int, Ty::Int], Ty::Unit),
            Ty::tuple(vec![Ty::Str, Ty::Int]),
            Ty::tuple(vec![Ty::Int, Ty::Str]),
            Ty::tuple(vec![Ty::Str, Ty::func(vec![Ty::Int], Ty::Int)]),
            Ty::named("iport"),
            Ty::named("oport"),
        ];
        let mut seen = std::collections::HashSet::new();
        for t in &samples {
            let mut buf = Vec::new();
            t.encode(&mut buf);
            assert!(seen.insert(buf), "encoding collision for {t}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_element_tuple_rejected() {
        let _ = Ty::tuple(vec![Ty::Int]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let samples = vec![
            Ty::Unit,
            Ty::Bool,
            Ty::tuple(vec![Ty::Int, Ty::Str, Ty::Bool]),
            Ty::func(vec![Ty::Str, Ty::Int], Ty::tuple(vec![Ty::Str, Ty::Int])),
            Ty::tuple(vec![Ty::Str, Ty::func(vec![], Ty::Unit)]),
            Ty::named("iport"),
        ];
        for t in samples {
            let mut buf = Vec::new();
            t.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = Ty::decode(&mut slice).unwrap();
            assert_eq!(back, t);
            assert!(slice.is_empty(), "decoder consumed everything");
        }
    }

    /// `levels` tuples, each `(inner, int)`, around `int`.
    fn nested(levels: usize) -> Ty {
        (0..levels).fold(Ty::Int, |inner, _| Ty::tuple(vec![inner, Ty::Int]))
    }

    #[test]
    fn decode_stops_past_the_nesting_cap() {
        for (levels, ok) in [(MAX_TYPE_DEPTH, true), (MAX_TYPE_DEPTH + 1, false)] {
            let mut buf = Vec::new();
            nested(levels).encode(&mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(Ty::decode(&mut slice).is_some(), ok, "{levels} levels");
        }
        // A function type's parameters and result nest the same way.
        let mut buf = Vec::new();
        Ty::func(vec![nested(MAX_TYPE_DEPTH)], Ty::Unit).encode(&mut buf);
        assert_eq!(Ty::decode(&mut buf.as_slice()), None);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Ty::func(vec![Ty::Int, Ty::Int], Ty::Str).encode(&mut buf);
        for cut in 1..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                Ty::decode(&mut slice).is_none() || !slice.is_empty(),
                "truncation at {cut} silently accepted"
            );
        }
    }
}
