//! Runtime values.
//!
//! Values are type-erased at run time; the static verifier guarantees the
//! interpreter never sees an ill-typed operand, so the `match` arms that
//! extract payloads treat a mismatch as an internal error, not a security
//! boundary (mirroring how a Caml bytecode interpreter trusts its
//! compiler/linker).
//!
//! A value-type module in the sense of `crates/netsim/DESIGN.md`
//! § "Inlining policy" (tier B): the interpreter and every host function
//! (another crate) call these per instruction and per host call, so every
//! public item is `#[inline]` and clippy refuses the next unmarked one.
//! The mismatch panics are one `#[cold]` function, so what is inlined is
//! a tag test and a payload load.

#![deny(clippy::missing_inline_in_public_items)]

use std::rc::Rc;

use framebuf::FrameBuf;

use crate::types::Ty;

/// Which loaded module instance a function reference points into.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstanceId(pub usize);

/// A callable value: a function in a loaded module, or a host function.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FuncVal {
    /// Function `func` of loaded module instance `instance`.
    Vm {
        /// The loaded module.
        instance: InstanceId,
        /// Function index within it.
        func: u32,
    },
    /// A host function slot.
    Host {
        /// Host module index within the environment.
        module: u16,
        /// Item index within the host module.
        item: u16,
    },
}

/// A runtime value. Every value is immutable: a `Str` or `Tuple` clone
/// shares its payload, and nothing can change it through either handle.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// The unit value (the default: what `std::mem::take` leaves in a
    /// frame slot whose value moved on).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// An immutable byte string: a view of refcounted storage, the same
    /// handle the simulator passes frames around in — a received frame
    /// becomes a handler's `str` argument, and goes back out through
    /// `unixnet.send_pkt_out`, without its bytes being copied.
    Str(FrameBuf),
    /// A tuple.
    Tuple(Rc<Vec<Value>>),
    /// A function reference.
    Func(FuncVal),
    /// An opaque handle of an abstract named type (e.g. an `iport`).
    /// Only host functions mint these, so the tag is a name compiled into
    /// the host.
    Handle {
        /// The nominal type tag.
        tag: &'static str,
        /// Host-assigned identity.
        id: u64,
    },
}

impl Value {
    /// Build a string value from owned bytes.
    #[inline]
    pub fn str(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Str(FrameBuf::from(bytes.into()))
    }

    /// Build a handle.
    #[inline]
    pub fn handle(tag: &'static str, id: u64) -> Value {
        Value::Handle { tag, id }
    }

    /// Structural equality on the hashable subset; `None` for
    /// non-comparable values and for operands of two different types (the
    /// verifier prevents reaching either case via `Eq`/`Ne` instructions).
    /// Payloads are compared where they are: two strings compare as byte
    /// slices of their shared storage, nothing is copied or allocated.
    #[inline]
    pub fn hash_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Bool(a), Value::Bool(b)) => Some(a == b),
            (Value::Unit, Value::Unit) => Some(true),
            (Value::Str(a), Value::Str(b)) => Some(a[..] == b[..]),
            _ => None,
        }
    }

    /// Whether this value inhabits `ty`. Used at host-call boundaries and
    /// in tests; within verified bytecode it always holds.
    #[inline]
    pub fn matches(&self, ty: &Ty) -> bool {
        match (self, ty) {
            (Value::Unit, Ty::Unit) => true,
            (Value::Bool(_), Ty::Bool) => true,
            (Value::Int(_), Ty::Int) => true,
            (Value::Str(_), Ty::Str) => true,
            (Value::Tuple(items), Ty::Tuple(tys)) => {
                items.len() == tys.len() && items.iter().zip(tys).all(|(v, t)| v.matches(t))
            }
            (Value::Func(_), Ty::Func(_)) => true, // arity checked at link/verify
            (Value::Handle { tag, .. }, Ty::Named(want)) => *tag == want.as_str(),
            _ => false,
        }
    }

    /// Extract an integer (internal-error panic on mismatch; the verifier
    /// guarantees this for verified code).
    #[inline]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => mismatch("int", other),
        }
    }

    /// Extract a boolean.
    #[inline]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => mismatch("bool", other),
        }
    }

    /// Extract a string.
    #[inline]
    pub fn as_str(&self) -> &FrameBuf {
        match self {
            Value::Str(s) => s,
            other => mismatch("str", other),
        }
    }

    /// Extract a handle id, checking the tag.
    #[inline]
    pub fn as_handle(&self, want_tag: &str) -> u64 {
        match self {
            Value::Handle { tag, id } if *tag == want_tag => *id,
            other => mismatch(want_tag, other),
        }
    }

    /// A short rendering for logs.
    #[inline]
    pub fn render(&self) -> String {
        match self {
            Value::Unit => "()".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("{:?}", String::from_utf8_lossy(s)),
            Value::Tuple(items) => {
                let parts: Vec<String> = items.iter().map(|v| v.render()).collect();
                format!("({})", parts.join(", "))
            }
            Value::Func(f) => format!("<fun {f:?}>"),
            Value::Handle { tag, id } => format!("<{tag}#{id}>"),
        }
    }
}

/// The payload extractors' shared failure: an internal error (verified
/// code never gets here), kept out of line so the extractors inline as a
/// tag test. Seen 0 times on every workload of the repo benchmark.
#[cold]
#[inline(never)]
fn mismatch(want: &str, got: &Value) -> ! {
    panic!("verifier invariant broken: expected {want}, got {got:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_four_words() {
        // The VM moves these on every push and pop; the string handle's
        // 32-bit view bounds are what keep the enum from growing.
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn hash_eq_on_hashables() {
        assert_eq!(Value::Int(1).hash_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).hash_eq(&Value::Int(2)), Some(false));
        assert_eq!(Value::str("a").hash_eq(&Value::str("a")), Some(true));
        assert_eq!(Value::str("a").hash_eq(&Value::str("b")), Some(false));
        assert_eq!(Value::str("a").hash_eq(&Value::str("ab")), Some(false));
        assert_eq!(Value::Bool(true).hash_eq(&Value::Bool(true)), Some(true));
        assert_eq!(Value::Unit.hash_eq(&Value::Unit), Some(true));
        let pair = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(pair.hash_eq(&pair), None);
        assert_eq!(Value::Int(1).hash_eq(&Value::Bool(true)), None);
    }

    #[test]
    fn matches_respects_named_tags() {
        let h = Value::handle("iport", 3);
        assert!(h.matches(&Ty::named("iport")));
        assert!(!h.matches(&Ty::named("oport")));
        assert!(!Value::Int(3).matches(&Ty::named("iport")));
    }

    #[test]
    fn matches_tuples_structurally() {
        let v = Value::Tuple(Rc::new(vec![Value::Int(1), Value::str("x")]));
        assert!(v.matches(&Ty::tuple(vec![Ty::Int, Ty::Str])));
        assert!(!v.matches(&Ty::tuple(vec![Ty::Str, Ty::Str])));
    }

    #[test]
    #[should_panic(expected = "verifier invariant broken")]
    fn as_int_panics_on_mismatch() {
        let _ = Value::Unit.as_int();
    }
}
