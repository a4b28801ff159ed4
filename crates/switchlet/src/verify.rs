//! The static bytecode verifier.
//!
//! "Our approach to safety and security favors static checking and
//! prevention over dynamic checks when possible." This module is that
//! approach for our VM: before a module is linked, every function is
//! type-checked by abstract interpretation of the operand stack (the same
//! scheme the JVM verifier uses). A snapshot of the stack typing is
//! recorded for every instruction; control-flow joins must agree exactly.
//! Verified code can never:
//!
//! * apply an operator to the wrong type (no casts exist to launder one),
//! * underflow or observe another frame's stack,
//! * read or write an out-of-range local,
//! * call a function (local, imported, or first-class) with the wrong
//!   arity or argument types,
//! * fall off the end of a function or leave garbage behind a `Return`.
//!
//! What remains dynamic — string bounds, division by zero, fuel — is the
//! same set Caml left dynamic (array bounds checks, exceptions), plus the
//! fuel meter that lets the bridge survive a non-terminating switchlet.
//!
//! The proof is not thrown away. The stack typing the checker computes at
//! every instruction is handed to the load-time translator as
//! `FuncFacts`: how high the operand stack stands before each
//! instruction, what kind of value is on top of it, and the greatest
//! height the function reaches. From those the translator gives every
//! operand a fixed place in the frame and selects instructions by operand
//! type (see the `decode` module) — the run-time form is built on what was
//! proved here, and only code that passed is ever translated.

use std::collections::HashMap;

use crate::bytecode::{Function, Op, INT_WIDTHS};
use crate::module::Module;
use crate::sig::ImportSig;
use crate::types::{FuncTy, Ty};

/// A verification failure, with enough context to debug an assembler.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// Function in which the error occurred (name, or `<module>` for
    /// module-level checks).
    pub func: String,
    /// Instruction index, when applicable.
    pub pc: Option<usize>,
    /// What went wrong.
    pub reason: String,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "verify {}@{}: {}", self.func, pc, self.reason),
            None => write!(f, "verify {}: {}", self.func, self.reason),
        }
    }
}

impl std::error::Error for VerifyError {}

/// What a run-time instruction selected by type needs to know about an
/// operand: which payload it carries, or that it is one of the wide or
/// refcounted values that are cloned and dropped as whole [`Value`]s.
///
/// [`Value`]: crate::value::Value
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Unit,
    Bool,
    Int,
    Str,
    /// Tuple, function or handle — or no operand at all.
    Other,
}

impl Kind {
    pub(crate) fn of(ty: &Ty) -> Kind {
        match ty {
            Ty::Unit => Kind::Unit,
            Ty::Bool => Kind::Bool,
            Ty::Int => Kind::Int,
            Ty::Str => Kind::Str,
            _ => Kind::Other,
        }
    }
}

/// The operand stack as the checker found it before one instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StackFact {
    /// Values on the operand stack.
    pub height: u16,
    /// Kind of the topmost one ([`Kind::Other`] on an empty stack).
    pub top: Kind,
}

/// What verification proved about one function, for the translator.
#[derive(Clone, Debug)]
pub(crate) struct FuncFacts {
    /// One entry per instruction, parallel to `Function::code` (every
    /// instruction is reachable, so every entry is a real state).
    pub before: Vec<StackFact>,
    /// The greatest operand-stack height any instruction leaves behind:
    /// with the local slots, the size of the function's frame.
    pub max_stack: u16,
}

/// Verify a whole module against the import types it declares.
///
/// The caller (the linker) has already confirmed that every declared
/// import exists in the environment with exactly the declared type; the
/// verifier only needs the declared types.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    prove_module(module).map(drop)
}

/// [`verify_module`], keeping what was proved: one [`FuncFacts`] per
/// function, parallel to `module.functions`.
pub(crate) fn prove_module(module: &Module) -> Result<Vec<FuncFacts>, VerifyError> {
    // Module-level checks.
    if let Some(init) = module.init {
        let f = &module.functions[init as usize];
        if !f.params.is_empty() || f.result != Ty::Unit {
            return Err(VerifyError {
                func: f.name.clone(),
                pc: None,
                reason: "init function must have type [] -> unit".into(),
            });
        }
    }
    let mut export_names = std::collections::HashSet::new();
    for exp in &module.exports {
        if !export_names.insert(exp.name.as_str()) {
            return Err(VerifyError {
                func: "<module>".into(),
                pc: None,
                reason: format!("duplicate export `{}`", exp.name),
            });
        }
    }
    module
        .functions
        .iter()
        .map(|f| prove_function(module, f))
        .collect()
}

/// Abstract machine state at one program point: the operand stack typing
/// plus which locals are definitely initialized (parameters always are;
/// other locals must be written before read — there is no "default value"
/// a switchlet could observe).
#[derive(Clone, PartialEq, Debug)]
struct Snap {
    stack: Vec<Ty>,
    inited: Vec<bool>,
}

struct Checker<'m> {
    module: &'m Module,
    func: &'m Function,
    /// Expected abstract state at each branch target: recorded by the
    /// first flow to reach it (a branch to it, or falling into it), held
    /// against every later one.
    snapshots: HashMap<usize, Snap>,
}

impl<'m> Checker<'m> {
    fn err(&self, pc: usize, reason: impl Into<String>) -> VerifyError {
        VerifyError {
            func: self.func.name.clone(),
            pc: Some(pc),
            reason: reason.into(),
        }
    }

    fn import_ty(&self, pc: usize, idx: u32) -> Result<&'m ImportSig, VerifyError> {
        self.module
            .imports
            .get(idx as usize)
            .ok_or_else(|| self.err(pc, format!("import index {idx} out of range")))
    }

    fn func_ty(&self, pc: usize, idx: u32) -> Result<FuncTy, VerifyError> {
        let f = self
            .module
            .functions
            .get(idx as usize)
            .ok_or_else(|| self.err(pc, format!("function index {idx} out of range")))?;
        Ok(FuncTy::new(f.params.clone(), f.result.clone()))
    }

    fn record_target(&mut self, pc: usize, target: u32, snap: &Snap) -> Result<(), VerifyError> {
        let target = target as usize;
        if target >= self.func.code.len() {
            return Err(self.err(pc, format!("jump target {target} out of range")));
        }
        match self.snapshots.get(&target) {
            Some(expected) if expected != snap => Err(self.err(
                pc,
                format!(
                    "stack mismatch at join point {target}: {:?} vs {:?}",
                    expected, snap
                ),
            )),
            Some(_) => Ok(()),
            None => {
                self.snapshots.insert(target, snap.clone());
                Ok(())
            }
        }
    }
}

fn pop(stack: &mut Vec<Ty>, pc: usize, c: &Checker<'_>) -> Result<Ty, VerifyError> {
    stack
        .pop()
        .ok_or_else(|| c.err(pc, "operand stack underflow"))
}

fn pop_expect(
    stack: &mut Vec<Ty>,
    want: &Ty,
    pc: usize,
    c: &Checker<'_>,
) -> Result<(), VerifyError> {
    let got = pop(stack, pc, c)?;
    if &got != want {
        return Err(c.err(pc, format!("expected {want}, found {got}")));
    }
    Ok(())
}

/// Verify one function.
fn prove_function(module: &Module, func: &Function) -> Result<FuncFacts, VerifyError> {
    let mut c = Checker {
        module,
        func,
        snapshots: HashMap::new(),
    };
    if func.params.len() > u8::MAX as usize {
        return Err(c.err(0, "too many parameters"));
    }
    if func.code.is_empty() {
        return Err(VerifyError {
            func: func.name.clone(),
            pc: None,
            reason: "empty function body".into(),
        });
    }

    // `current` is the abstract state flowing into the next instruction;
    // None means the previous instruction never falls through.
    let entry = Snap {
        stack: Vec::new(),
        inited: (0..func.num_slots())
            .map(|i| i < func.params.len())
            .collect(),
    };
    let mut current: Option<Snap> = Some(entry);
    let mut before = Vec::with_capacity(func.code.len());
    let mut max_stack = 0usize;
    // The full state is kept only where two flows can meet — at branch
    // targets; everywhere else the 4-byte `StackFact` is the record. (A
    // target out of range marks nothing here and is rejected at its
    // branch.)
    let mut is_target = vec![false; func.code.len()];
    for op in &func.code {
        if let Op::Jump(t) | Op::BrIf(t) | Op::BrIfNot(t) = op {
            if let Some(mark) = is_target.get_mut(*t as usize) {
                *mark = true;
            }
        }
    }

    for (pc, op) in func.code.iter().enumerate() {
        // Merge with any recorded snapshot for this pc.
        let snap = match (current.take(), c.snapshots.get(&pc)) {
            (Some(flow), Some(snap)) => {
                if &flow != snap {
                    return Err(c.err(
                        pc,
                        format!("stack mismatch at join point: {:?} vs {:?}", snap, flow),
                    ));
                }
                flow
            }
            (Some(flow), None) => {
                if is_target[pc] {
                    // A backward branch met later is checked against this.
                    c.snapshots.insert(pc, flow.clone());
                }
                flow
            }
            (None, Some(snap)) => snap.clone(),
            (None, None) => {
                return Err(c.err(pc, "unreachable code"));
            }
        };
        let Snap {
            mut stack,
            mut inited,
        } = snap;
        before.push(StackFact {
            height: stack.len() as u16, // bounded below, after the instruction before
            top: stack.last().map_or(Kind::Other, Kind::of),
        });

        let mut falls_through = true;
        match op {
            Op::ConstUnit => stack.push(Ty::Unit),
            Op::ConstBool(_) => stack.push(Ty::Bool),
            Op::ConstInt(_) => stack.push(Ty::Int),
            Op::ConstStr(n) => {
                if *n as usize >= module.str_pool.len() {
                    return Err(c.err(pc, format!("string pool index {n} out of range")));
                }
                stack.push(Ty::Str);
            }
            Op::LocalGet(n) => {
                let ty = func
                    .slot_ty(*n as usize)
                    .ok_or_else(|| c.err(pc, format!("local {n} out of range")))?;
                if !inited[*n as usize] {
                    return Err(c.err(pc, format!("local {n} read before initialization")));
                }
                stack.push(ty.clone());
            }
            Op::LocalSet(n) => {
                let ty = func
                    .slot_ty(*n as usize)
                    .ok_or_else(|| c.err(pc, format!("local {n} out of range")))?
                    .clone();
                pop_expect(&mut stack, &ty, pc, &c)?;
                inited[*n as usize] = true;
            }
            Op::Pop => {
                pop(&mut stack, pc, &c)?;
            }
            Op::Dup => {
                let top = stack
                    .last()
                    .cloned()
                    .ok_or_else(|| c.err(pc, "operand stack underflow"))?;
                stack.push(top);
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                stack.push(Ty::Int);
            }
            Op::Neg => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                stack.push(Ty::Int);
            }
            Op::Eq | Op::Ne => {
                let b = pop(&mut stack, pc, &c)?;
                let a = pop(&mut stack, pc, &c)?;
                if a != b {
                    return Err(c.err(pc, format!("eq on differing types {a} and {b}")));
                }
                if !a.hashable() {
                    return Err(c.err(pc, format!("eq on non-comparable type {a}")));
                }
                stack.push(Ty::Bool);
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                stack.push(Ty::Bool);
            }
            Op::And | Op::Or => {
                pop_expect(&mut stack, &Ty::Bool, pc, &c)?;
                pop_expect(&mut stack, &Ty::Bool, pc, &c)?;
                stack.push(Ty::Bool);
            }
            Op::Not => {
                pop_expect(&mut stack, &Ty::Bool, pc, &c)?;
                stack.push(Ty::Bool);
            }
            Op::Jump(t) => {
                let snap = Snap {
                    stack: stack.clone(),
                    inited: inited.clone(),
                };
                c.record_target(pc, *t, &snap)?;
                falls_through = false;
            }
            Op::BrIf(t) | Op::BrIfNot(t) => {
                pop_expect(&mut stack, &Ty::Bool, pc, &c)?;
                let snap = Snap {
                    stack: stack.clone(),
                    inited: inited.clone(),
                };
                c.record_target(pc, *t, &snap)?;
            }
            Op::Return => {
                pop_expect(&mut stack, &func.result, pc, &c)?;
                if !stack.is_empty() {
                    return Err(c.err(
                        pc,
                        format!("return with {} extra values on the stack", stack.len()),
                    ));
                }
                falls_through = false;
            }
            Op::Call(n) => {
                let ft = c.func_ty(pc, *n)?;
                for p in ft.params.iter().rev() {
                    pop_expect(&mut stack, p, pc, &c)?;
                }
                stack.push((*ft.result).clone());
            }
            Op::CallImport(n) => {
                let imp = c.import_ty(pc, *n)?;
                let Ty::Func(ft) = &imp.ty else {
                    return Err(c.err(
                        pc,
                        format!("import {}.{} is not a function", imp.module, imp.item),
                    ));
                };
                let ft = ft.clone();
                for p in ft.params.iter().rev() {
                    pop_expect(&mut stack, p, pc, &c)?;
                }
                stack.push((*ft.result).clone());
            }
            Op::ImportGet(n) => {
                let imp = c.import_ty(pc, *n)?;
                stack.push(imp.ty.clone());
            }
            Op::CallRef(arity) => {
                // Stack: [func, arg1..argN]; pop args, then the function.
                let mut args = Vec::with_capacity(*arity as usize);
                for _ in 0..*arity {
                    args.push(pop(&mut stack, pc, &c)?);
                }
                args.reverse();
                let fv = pop(&mut stack, pc, &c)?;
                let Ty::Func(ft) = fv else {
                    return Err(c.err(pc, format!("callref on non-function {fv}")));
                };
                if ft.params.len() != *arity as usize {
                    return Err(c.err(
                        pc,
                        format!(
                            "callref arity {} but function takes {}",
                            arity,
                            ft.params.len()
                        ),
                    ));
                }
                for (got, want) in args.iter().zip(ft.params.iter()) {
                    if got != want {
                        return Err(c.err(pc, format!("callref arg: expected {want}, found {got}")));
                    }
                }
                stack.push((*ft.result).clone());
            }
            Op::FuncConst(n) => {
                let ft = c.func_ty(pc, *n)?;
                stack.push(Ty::Func(ft));
            }
            Op::TupleMake(n) => {
                if *n < 2 {
                    return Err(c.err(pc, "tuples have at least two components"));
                }
                let mut items = Vec::with_capacity(*n as usize);
                for _ in 0..*n {
                    items.push(pop(&mut stack, pc, &c)?);
                }
                items.reverse();
                stack.push(Ty::Tuple(items));
            }
            Op::TupleGet(i) => {
                let t = pop(&mut stack, pc, &c)?;
                let Ty::Tuple(items) = t else {
                    return Err(c.err(pc, format!("tupleget on non-tuple {t}")));
                };
                let item = items
                    .get(*i as usize)
                    .ok_or_else(|| c.err(pc, format!("tuple has no component {i}")))?;
                stack.push(item.clone());
            }
            Op::StrLen => {
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                stack.push(Ty::Int);
            }
            Op::StrConcat => {
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                stack.push(Ty::Str);
            }
            Op::StrByte => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                stack.push(Ty::Int);
            }
            Op::StrSlice => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                stack.push(Ty::Str);
            }
            Op::StrPackInt(w) => {
                if !INT_WIDTHS.contains(w) {
                    return Err(c.err(pc, format!("bad pack width {w}")));
                }
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                stack.push(Ty::Str);
            }
            Op::StrUnpackInt(w) => {
                if !INT_WIDTHS.contains(w) {
                    return Err(c.err(pc, format!("bad unpack width {w}")));
                }
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                pop_expect(&mut stack, &Ty::Str, pc, &c)?;
                stack.push(Ty::Int);
            }
            Op::StrFromInt => {
                pop_expect(&mut stack, &Ty::Int, pc, &c)?;
                stack.push(Ty::Str);
            }
            Op::Nop => {}
        }
        // A frame is addressed by 16-bit slot numbers (locals, then the
        // operand stack).
        max_stack = max_stack.max(stack.len());
        if func.num_slots() + max_stack > u16::MAX as usize {
            return Err(c.err(pc, "frame too large"));
        }

        if falls_through {
            if pc + 1 == func.code.len() {
                return Err(c.err(pc, "control falls off the end of the function"));
            }
            current = Some(Snap { stack, inited });
        } else {
            current = None;
        }
    }
    Ok(FuncFacts {
        before,
        max_stack: max_stack as u16,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Export, Module};

    fn module_with(funcs: Vec<Function>) -> Module {
        let mut m = Module {
            name: "t".into(),
            imports: vec![ImportSig {
                module: "safestd".into(),
                item: "log".into(),
                ty: Ty::func(vec![Ty::Str], Ty::Unit),
            }],
            exports: vec![],
            str_pool: vec![b"s".to_vec()],
            functions: funcs,
            init: None,
            import_digest: Default::default(),
            export_digest: Default::default(),
        };
        m.seal();
        m
    }

    fn f(params: Vec<Ty>, result: Ty, code: Vec<Op>) -> Function {
        Function {
            name: "f".into(),
            params,
            locals: vec![],
            result,
            code,
        }
    }

    fn verify_one(func: Function) -> Result<(), VerifyError> {
        let m = module_with(vec![func]);
        verify_module(&m)
    }

    #[test]
    fn accepts_trivial_unit_function() {
        verify_one(f(vec![], Ty::Unit, vec![Op::ConstUnit, Op::Return])).unwrap();
    }

    #[test]
    fn accepts_arithmetic() {
        verify_one(f(
            vec![Ty::Int, Ty::Int],
            Ty::Int,
            vec![Op::LocalGet(0), Op::LocalGet(1), Op::Add, Op::Return],
        ))
        .unwrap();
    }

    #[test]
    fn rejects_type_confusion() {
        let err = verify_one(f(
            vec![Ty::Str],
            Ty::Int,
            vec![Op::LocalGet(0), Op::ConstInt(1), Op::Add, Op::Return],
        ))
        .unwrap_err();
        assert!(err.reason.contains("expected int"), "{err}");
    }

    #[test]
    fn rejects_stack_underflow() {
        let err = verify_one(f(vec![], Ty::Int, vec![Op::Add, Op::Return])).unwrap_err();
        assert!(err.reason.contains("underflow"), "{err}");
    }

    #[test]
    fn rejects_fallthrough() {
        let err = verify_one(f(vec![], Ty::Unit, vec![Op::ConstUnit])).unwrap_err();
        assert!(err.reason.contains("falls off"), "{err}");
    }

    #[test]
    fn rejects_dirty_return() {
        let err = verify_one(f(
            vec![],
            Ty::Int,
            vec![Op::ConstInt(1), Op::ConstInt(2), Op::Return],
        ))
        .unwrap_err();
        assert!(err.reason.contains("extra values"), "{err}");
    }

    #[test]
    fn rejects_wrong_return_type() {
        let err =
            verify_one(f(vec![], Ty::Int, vec![Op::ConstBool(true), Op::Return])).unwrap_err();
        assert!(err.reason.contains("expected int"), "{err}");
    }

    #[test]
    fn accepts_conditional_with_matching_join() {
        // if p { 1 } else { 2 }  — both branches leave one int.
        verify_one(f(
            vec![Ty::Bool],
            Ty::Int,
            vec![
                Op::LocalGet(0),
                Op::BrIf(4),     // 1: to then-branch
                Op::ConstInt(2), // 2: else
                Op::Jump(5),     // 3: to join
                Op::ConstInt(1), // 4: then
                Op::Return,      // 5: join
            ],
        ))
        .unwrap();
    }

    #[test]
    fn rejects_mismatched_join() {
        // One branch pushes an int, the other a bool.
        let err = verify_one(f(
            vec![Ty::Bool],
            Ty::Int,
            vec![
                Op::LocalGet(0),
                Op::BrIf(4),
                Op::ConstInt(2),
                Op::Jump(5),
                Op::ConstBool(true), // mismatched type at join
                Op::Return,
            ],
        ))
        .unwrap_err();
        assert!(err.reason.contains("mismatch"), "{err}");
    }

    #[test]
    fn accepts_real_backward_loop() {
        verify_one(Function {
            name: "loop".into(),
            params: vec![Ty::Int],
            locals: vec![],
            result: Ty::Unit,
            code: vec![
                Op::LocalGet(0), // 0 loop head
                Op::ConstInt(0), // 1
                Op::Le,          // 2
                Op::BrIf(9),     // 3 exit when local0 <= 0
                Op::LocalGet(0), // 4
                Op::ConstInt(1), // 5
                Op::Sub,         // 6
                Op::LocalSet(0), // 7
                Op::Jump(0),     // 8 back edge
                Op::ConstUnit,   // 9
                Op::Return,      // 10
            ],
        })
        .unwrap();
    }

    #[test]
    fn rejects_mismatched_backward_branch() {
        // The state at a branch target is kept when the flow passes it, so
        // a jump back to it with one value too many is caught.
        let err = verify_one(f(
            vec![],
            Ty::Unit,
            vec![
                Op::ConstInt(1), // 0
                Op::Pop,         // 1: [int] here, the first time
                Op::ConstInt(2), // 2
                Op::ConstInt(3), // 3
                Op::Jump(1),     // 4: [int, int]
            ],
        ))
        .unwrap_err();
        assert!(err.reason.contains("mismatch"), "{err}");
        assert_eq!(err.pc, Some(4));
    }

    #[test]
    fn rejects_unreachable_code() {
        let err = verify_one(f(
            vec![],
            Ty::Unit,
            vec![
                Op::ConstUnit,
                Op::Return,
                Op::Nop,
                Op::ConstUnit,
                Op::Return,
            ],
        ))
        .unwrap_err();
        assert!(err.reason.contains("unreachable"), "{err}");
    }

    #[test]
    fn rejects_oob_jump() {
        let err = verify_one(f(vec![], Ty::Unit, vec![Op::Jump(99)])).unwrap_err();
        assert!(err.reason.contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_oob_local() {
        let err = verify_one(f(
            vec![Ty::Int],
            Ty::Unit,
            vec![Op::LocalGet(4), Op::Return],
        ))
        .unwrap_err();
        assert!(err.reason.contains("local 4"), "{err}");
    }

    #[test]
    fn checks_import_call_types() {
        // safestd.log : [str] -> unit; calling it with an int must fail.
        let err = verify_one(f(
            vec![],
            Ty::Unit,
            vec![Op::ConstInt(3), Op::CallImport(0), Op::Return],
        ))
        .unwrap_err();
        assert!(err.reason.contains("expected str"), "{err}");
    }

    #[test]
    fn accepts_import_call() {
        verify_one(f(
            vec![],
            Ty::Unit,
            vec![Op::ConstStr(0), Op::CallImport(0), Op::Return],
        ))
        .unwrap();
    }

    #[test]
    fn checks_callref_types() {
        // FuncConst of f itself: [bool] -> int, called with int arg: error.
        let func = Function {
            name: "g".into(),
            params: vec![Ty::Bool],
            locals: vec![],
            result: Ty::Int,
            code: vec![
                Op::FuncConst(0),
                Op::ConstInt(1),
                Op::CallRef(1),
                Op::Return,
            ],
        };
        let err = verify_one(func).unwrap_err();
        assert!(err.reason.contains("callref arg"), "{err}");
    }

    #[test]
    fn init_must_be_nullary_unit() {
        let mut m = module_with(vec![f(
            vec![Ty::Int],
            Ty::Unit,
            vec![Op::ConstUnit, Op::Return],
        )]);
        m.init = Some(0);
        let err = verify_module(&m).unwrap_err();
        assert!(err.reason.contains("init function"), "{err}");
    }

    #[test]
    fn duplicate_exports_rejected() {
        let mut m = module_with(vec![
            f(vec![], Ty::Unit, vec![Op::ConstUnit, Op::Return]),
            f(vec![], Ty::Unit, vec![Op::ConstUnit, Op::Return]),
        ]);
        m.exports = vec![
            Export {
                name: "x".into(),
                func: 0,
            },
            Export {
                name: "x".into(),
                func: 1,
            },
        ];
        m.seal();
        let err = verify_module(&m).unwrap_err();
        assert!(err.reason.contains("duplicate export"), "{err}");
    }

    #[test]
    fn rejects_read_before_init() {
        let func = Function {
            name: "u".into(),
            params: vec![],
            locals: vec![Ty::Int],
            result: Ty::Int,
            code: vec![Op::LocalGet(0), Op::Return],
        };
        let err = verify_one(func).unwrap_err();
        assert!(err.reason.contains("before initialization"), "{err}");
    }

    #[test]
    fn accepts_write_then_read() {
        let func = Function {
            name: "w".into(),
            params: vec![],
            locals: vec![Ty::Int],
            result: Ty::Int,
            code: vec![
                Op::ConstInt(5),
                Op::LocalSet(0),
                Op::LocalGet(0),
                Op::Return,
            ],
        };
        verify_one(func).unwrap();
    }

    #[test]
    fn rejects_partially_initialized_join() {
        // Only one branch initializes local 0; the join must reject.
        let func = Function {
            name: "p".into(),
            params: vec![Ty::Bool],
            locals: vec![Ty::Int],
            result: Ty::Unit,
            code: vec![
                Op::LocalGet(0), // 0
                Op::BrIf(4),     // 1
                Op::ConstInt(1), // 2
                Op::LocalSet(1), // 3: init local slot 1
                Op::ConstUnit,   // 4: join — init state differs
                Op::Return,      // 5
            ],
        };
        let err = verify_one(func).unwrap_err();
        assert!(err.reason.contains("mismatch"), "{err}");
    }

    #[test]
    fn eq_requires_hashable() {
        let err = verify_one(f(
            vec![],
            Ty::Bool,
            vec![
                Op::ConstInt(1),
                Op::ConstInt(2),
                Op::TupleMake(2),
                Op::Dup,
                Op::Eq,
                Op::Return,
            ],
        ))
        .unwrap_err();
        assert!(err.reason.contains("non-comparable"), "{err}");
    }

    #[test]
    fn the_proof_is_handed_on() {
        // What the translator builds on: the stack before each
        // instruction, and the height of the frame.
        let m = module_with(vec![f(
            vec![Ty::Int, Ty::Str],
            Ty::Bool,
            vec![
                Op::LocalGet(1), // 0: []
                Op::ConstStr(0), // 1: [str]
                Op::Eq,          // 2: [str, str]
                Op::LocalGet(0), // 3: [bool]
                Op::ConstInt(3), // 4: [bool, int]
                Op::Lt,          // 5: [bool, int, int]
                Op::And,         // 6: [bool, bool]
                Op::Return,      // 7: [bool]
            ],
        )]);
        let facts = prove_module(&m).expect("verifies");
        let before: Vec<(u16, Kind)> = facts[0].before.iter().map(|s| (s.height, s.top)).collect();
        assert_eq!(
            before,
            vec![
                (0, Kind::Other),
                (1, Kind::Str),
                (2, Kind::Str),
                (1, Kind::Bool),
                (2, Kind::Int),
                (3, Kind::Int),
                (2, Kind::Bool),
                (1, Kind::Bool),
            ]
        );
        assert_eq!(facts[0].max_stack, 3);
    }

    #[test]
    fn rejects_a_frame_too_large_to_address() {
        // 65 530 local slots and a stack ten deep: slot numbers are 16-bit.
        let func = Function {
            name: "wide".into(),
            params: vec![],
            locals: vec![Ty::Int; 65_530],
            result: Ty::Int,
            code: std::iter::repeat_n(Op::ConstInt(1), 10)
                .chain(std::iter::repeat_n(Op::Add, 9))
                .chain([Op::Return])
                .collect(),
        };
        let err = verify_one(func).unwrap_err();
        assert!(err.reason.contains("frame too large"), "{err}");
    }
}
