//! The switchlet instruction set.
//!
//! A small stack machine. Design rules, mirroring the paper's security
//! argument (Section 5.1.1):
//!
//! * **No casts.** There is no instruction that reinterprets a value at
//!   another type.
//! * **No address-of.** Values are reachable only by name (locals, imports,
//!   exports) or through legal references (tuple components) — "the lack of a
//!   cast operator or an address operator ... makes it impossible to refer
//!   to any object without either its name or a string of legal pointer
//!   references from a known object".
//! * **Functions are immutable.** `FuncConst` produces references; nothing
//!   can modify a function body.
//! * Dynamic checks are limited to the ones Caml also made at run time:
//!   string bounds, division by zero, fuel (our analogue of the bridge
//!   protecting itself from runaway switchlets).

use crate::types::Ty;

/// One instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Push `()`.
    ConstUnit,
    /// Push a boolean.
    ConstBool(bool),
    /// Push an integer.
    ConstInt(i64),
    /// Push string-pool entry `n`.
    ConstStr(u32),

    /// Push local `n` (parameters are locals `0..nparams`).
    LocalGet(u16),
    /// Pop into local `n`.
    LocalSet(u16),

    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,

    /// Integer add: `[int int] -> [int]` (wrapping, like Caml's boxed-free
    /// native ints).
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide; traps on zero divisor.
    Div,
    /// Integer remainder; traps on zero divisor.
    Mod,
    /// Integer negate: `[int] -> [int]`.
    Neg,

    /// Structural equality on a hashable type: `[t t] -> [bool]`.
    Eq,
    /// Structural inequality on a hashable type.
    Ne,
    /// Integer less-than: `[int int] -> [bool]`.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,

    /// Boolean and: `[bool bool] -> [bool]`.
    And,
    /// Boolean or.
    Or,
    /// Boolean not: `[bool] -> [bool]`.
    Not,

    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop a bool; jump if true.
    BrIf(u32),
    /// Pop a bool; jump if false.
    BrIfNot(u32),
    /// Return the top of stack (stack must be exactly `[result]`).
    Return,

    /// Call local function `n`: pops its arguments (last argument on top),
    /// pushes its result.
    Call(u32),
    /// Call import `n` (resolved at link time to a host function or an
    /// earlier module's export).
    CallImport(u32),
    /// Push the value of import `n` (for function imports this pushes a
    /// function reference; it is how a switchlet passes a host capability
    /// onward, e.g. handing `func.register` a callback).
    ImportGet(u32),
    /// Call a first-class function: stack is `[func, arg1..argN]` with the
    /// function *below* its arguments. The operand is the arity (checked
    /// against the function type at verification).
    CallRef(u8),
    /// Push a reference to local function `n`.
    FuncConst(u32),

    /// Pop `n` values, push a tuple: `[v1..vn] -> [(v1..vn)]`.
    TupleMake(u8),
    /// Project component `i` of a tuple: `[(..)] -> [ti]`.
    TupleGet(u8),

    /// String length: `[str] -> [int]`.
    StrLen,
    /// Concatenate: `[str str] -> [str]`.
    StrConcat,
    /// Byte at index: `[str int] -> [int]`; traps out of bounds.
    StrByte,
    /// Substring `[str start len] -> [str]`; traps out of bounds.
    StrSlice,
    /// Big-endian pack of the low `width` bytes of an int:
    /// `[int] -> [str]`. Width is 1, 2, 4, 6 or 8.
    StrPackInt(u8),
    /// Big-endian unpack of `width` bytes at an offset:
    /// `[str int] -> [int]`; traps out of bounds. Width is 1, 2, 4, 6 or 8.
    StrUnpackInt(u8),
    /// Decimal rendering: `[int] -> [str]`.
    StrFromInt,

    /// No operation.
    Nop,
}

/// Valid widths for `StrPackInt`/`StrUnpackInt` (1 byte, 16-bit fields,
/// 32-bit fields, MAC addresses, 64-bit fields).
pub const INT_WIDTHS: [u8; 5] = [1, 2, 4, 6, 8];

/// A function body.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Debug name (not part of the interface).
    pub name: String,
    /// Parameter types; parameters occupy locals `0..params.len()`.
    pub params: Vec<Ty>,
    /// Additional local slots, typed.
    pub locals: Vec<Ty>,
    /// Result type.
    pub result: Ty,
    /// The code. Execution begins at index 0; every path must end in
    /// `Return`.
    pub code: Vec<Op>,
}

impl Function {
    /// Total local slots (params + locals).
    pub fn num_slots(&self) -> usize {
        self.params.len() + self.locals.len()
    }

    /// The type of local slot `i`.
    pub fn slot_ty(&self, i: usize) -> Option<&Ty> {
        if i < self.params.len() {
            self.params.get(i)
        } else {
            self.locals.get(i - self.params.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_typing() {
        let f = Function {
            name: "f".into(),
            params: vec![Ty::Int, Ty::Str],
            locals: vec![Ty::Bool],
            result: Ty::Unit,
            code: vec![Op::ConstUnit, Op::Return],
        };
        assert_eq!(f.num_slots(), 3);
        assert_eq!(f.slot_ty(0), Some(&Ty::Int));
        assert_eq!(f.slot_ty(1), Some(&Ty::Str));
        assert_eq!(f.slot_ty(2), Some(&Ty::Bool));
        assert_eq!(f.slot_ty(3), None);
    }
}
