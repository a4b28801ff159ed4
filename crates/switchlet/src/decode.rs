//! Load-time translation of verified bytecode into the execution form.
//!
//! The wire format ([`crate::bytecode::Op`]) is built for decoding,
//! digesting and verification; it is a poor shape to *run*: an untyped
//! stack machine whose interpreter would move every operand through a
//! growable stack, re-resolve every import, and re-discover on every
//! instruction what the verifier already proved once.
//!
//! This module runs once per function at link time — strictly after the
//! verifier has accepted the module, and on what it proved
//! ([`FuncFacts`]) — and emits a dense [`Inst`] stream that is **typed**
//! and **statically framed**:
//!
//! * **Every operand has a fixed place.** The verifier hands over the
//!   operand-stack height before each instruction, so stack position `i`
//!   of a function with `n` local slots *is* frame slot `n + i`, known
//!   here. An [`Inst`] names the slots it reads and the slot it writes;
//!   there is no run-time stack pointer, and a frame is one window of
//!   `n_slots + max_stack` values ([`DecodedFunc::frame_size`]) reserved
//!   at function entry.
//! * **Reads of locals are not instructions.** `LocalGet n` pushes a
//!   *deferred* operand ([`Operand::Local`]): its consumer reads slot `n`
//!   directly. It is written to its stack slot only where something needs
//!   it there — a call's argument window, a block boundary, a `LocalSet n`
//!   about to overwrite it. The other direction too: a `LocalSet` right
//!   behind a pure instruction makes that instruction write the local.
//! * **Selected by type.** `Eq`/`Ne` become an integer, boolean or
//!   in-place byte-string comparison according to the operand kind the
//!   verifier recorded ([`Kind`]); copies of integers move a payload,
//!   not a [`crate::value::Value`]; compare + branch is one instruction
//!   ([`Inst::BrCmpInt`], [`Inst::BrEqStr`]) and `x + k` another
//!   ([`Inst::AddImm`]).
//! * **Resolved.** Import calls are [`Inst::CallHost`] (the resolved
//!   [`HostSlot`] and arity — dispatch is an integer match, no name
//!   lookup) or [`Inst::CallVm`] (provider instance and function index);
//!   `ImportGet` is a pre-built [`FuncVal`].
//! * **Fuel by basic block.** The stream is cut at branch targets and
//!   after every branch, return and call that can reach VM code; each
//!   block opens with [`Inst::Fuel`] carrying the number of source `Op`s
//!   the block retires. A block fallen into (or entered at the function's
//!   start) is charged by its `Fuel`; a branch, taken or not, reads the
//!   `Fuel` of the block it goes on to, charges it and continues behind
//!   it — so every branch target and the instruction behind every branch
//!   is a `Fuel`, and a branch whose budget does not cover the block
//!   lands on that `Fuel`, which charges nothing and hands on to the
//!   instruction-by-instruction loop.
//!   [`DecodedFunc::costs`] keeps the same count per instruction, for the
//!   two cases that need it: a trap in the middle of a block (the
//!   un-retired rest is refunded, [`DecodedFunc::unretired`]) and a
//!   budget smaller than the block (the interpreter charges instruction
//!   by instruction from there). Either way fuel and
//!   [`crate::vm::ExecStats`] are bit-identical to running the source
//!   stream one `Op` at a time — see `crate::vm`.
//! * **A dropped host result is no instruction.** `CallImport` of a host
//!   function followed by the `Pop` of its result is one
//!   [`Inst::CallHostPop`]: nothing is written, and the `Pop` is retired
//!   once the call has returned, where the reference interpreter retires
//!   it.
//!
//! **Why the per-instruction counts are exact.** An instruction is
//! charged the source ops read since the last emitted instruction, up to
//! and including its own. Everything charged to it besides its own op is
//! pure and cannot trap (`LocalGet`, `Pop`, `Nop`; for the fused forms a
//! constant, a comparison or a `LocalSet`), so running out of fuel
//! anywhere inside that run is unobservable but for the count, and the
//! count is "all the fuel there was" on both sides. Nothing that traps or
//! calls out is ever charged for an op *behind* it.
//!
//! Branch targets are remapped from source-pc space to decoded-pc space
//! in a patch pass, once every block has its place.

use crate::bytecode::{Function, Op};
use crate::env::HostSlot;
use crate::linker::ResolvedImport;
use crate::module::Module;
use crate::types::Ty;
use crate::value::{FuncVal, InstanceId};
use crate::verify::{FuncFacts, Kind};

/// A place in the running function's frame: the local slots, then the
/// operand stack's positions.
pub(crate) type Slot = u16;

/// Integer comparison selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// The comparison that holds exactly when `self` does not.
    fn negated(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }

    #[inline]
    pub(crate) fn holds(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// One instruction of the execution form. `dst` is the slot written, the
/// other slot fields are read; a branch's `to` indexes the decoded stream
/// (the destination block's `Fuel`), and a conditional branch not taken
/// goes on with the next instruction (the next block's `Fuel`).
/// (`repr(u8)`: the interpreter dispatches on a plain tag byte, not on a
/// niche folded into a payload. Laid out as a table: one line a variant.)
#[derive(Clone, Debug, PartialEq)]
#[repr(u8)]
#[rustfmt::skip]
pub(crate) enum Inst {
    /// Head of a basic block: charge the source ops the block retires.
    Fuel(u32),
    Unit { dst: Slot },
    Bool { dst: Slot, v: bool },
    Int { dst: Slot, k: i64 },
    /// A string-pool constant: a refcount bump on the handle interned at
    /// link time, never a byte copy.
    Str { dst: Slot, n: u32 },
    /// A pre-resolved function value (`FuncConst`, `ImportGet`).
    Func { dst: Slot, fv: FuncVal },
    /// Copy an integer: payload only.
    CopyInt { dst: Slot, src: Slot },
    /// Copy a value of any type (a clone: refcounted payloads are shared;
    /// a popped stack slot keeps its share until it is overwritten or the
    /// invocation ends).
    Copy { dst: Slot, src: Slot },
    Add { dst: Slot, a: Slot, b: Slot },
    Sub { dst: Slot, a: Slot, b: Slot },
    Mul { dst: Slot, a: Slot, b: Slot },
    Div { dst: Slot, a: Slot, b: Slot },
    Mod { dst: Slot, a: Slot, b: Slot },
    /// `a + k` (`ConstInt k; Add`, or `ConstInt -k; Sub`).
    AddImm { dst: Slot, a: Slot, k: i64 },
    Neg { dst: Slot, a: Slot },
    /// Integer comparison (`Eq`/`Ne` on `int` operands included).
    CmpInt { cmp: Cmp, dst: Slot, a: Slot, b: Slot },
    /// `Eq` (`negate`: `Ne`) on `bool` operands.
    EqBool { dst: Slot, a: Slot, b: Slot, negate: bool },
    /// `Eq` (`negate`: `Ne`) on `str` operands: the bytes, where they are.
    EqStr { dst: Slot, a: Slot, b: Slot, negate: bool },
    And { dst: Slot, a: Slot, b: Slot },
    Or { dst: Slot, a: Slot, b: Slot },
    Not { dst: Slot, a: Slot },
    Jump { to: u32 },
    /// Branch if the boolean in `src` is true (`negate`: false).
    BrIf { src: Slot, negate: bool, to: u32 },
    /// Integer comparison + conditional branch.
    BrCmpInt { cmp: Cmp, a: Slot, b: Slot, to: u32 },
    /// String equality + conditional branch; `negate` branches on unequal.
    BrEqStr { a: Slot, b: Slot, negate: bool, to: u32 },
    /// Return the value in `src`: it is left in the frame's slot 0, where
    /// the caller's argument window began.
    Return { src: Slot },
    /// Call a function of the *same* instance. The arguments stand in
    /// `args..`; the callee's frame starts there (its parameters are
    /// already in place) and the result comes back in `args`.
    Call { func: u32, args: Slot },
    /// Call a resolved host import: array-indexed dispatch, arity baked.
    /// The result is written to `args`.
    CallHost { slot: HostSlot, args: Slot, argc: u16 },
    /// `CallHost` whose result the `Pop` behind it drops: nothing is
    /// written, and the `Pop` (the last of its cost) is retired once the
    /// call has returned.
    CallHostPop { slot: HostSlot, args: Slot, argc: u16 },
    /// Call a resolved import of an earlier loaded instance.
    CallVm { instance: InstanceId, func: u32, args: Slot },
    /// Call the function value in `f` with the `argc` arguments behind
    /// it; the result is written to `f`.
    CallRef { f: Slot, argc: u8 },
    /// Build a tuple from the `n` values in `first..`, into `first`.
    TupleMake { first: Slot, n: u8 },
    TupleGet { dst: Slot, src: Slot, i: u8 },
    StrLen { dst: Slot, src: Slot },
    StrConcat { dst: Slot, a: Slot, b: Slot },
    StrByte { dst: Slot, s: Slot, i: Slot },
    StrSlice { dst: Slot, s: Slot, start: Slot, len: Slot },
    StrPackInt { dst: Slot, src: Slot, width: u8 },
    StrUnpackInt { dst: Slot, s: Slot, off: Slot, width: u8 },
    StrFromInt { dst: Slot, src: Slot },
    /// Does nothing; stands where source ops with no run-time action
    /// (`Pop`, `Nop`) end a block, to carry their cost.
    Nop,
}

impl Inst {
    /// The slot this instruction writes, if writing it is all the
    /// instruction does: no trap, no call, no effect beyond the result. A
    /// `LocalSet` behind such an instruction redirects the write to the
    /// local and is charged with it.
    fn pure_dst(&mut self) -> Option<&mut Slot> {
        match self {
            Inst::Unit { dst }
            | Inst::Bool { dst, .. }
            | Inst::Int { dst, .. }
            | Inst::Str { dst, .. }
            | Inst::Func { dst, .. }
            | Inst::CopyInt { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Add { dst, .. }
            | Inst::Sub { dst, .. }
            | Inst::Mul { dst, .. }
            | Inst::AddImm { dst, .. }
            | Inst::Neg { dst, .. }
            | Inst::CmpInt { dst, .. }
            | Inst::EqBool { dst, .. }
            | Inst::EqStr { dst, .. }
            | Inst::And { dst, .. }
            | Inst::Or { dst, .. }
            | Inst::Not { dst, .. }
            | Inst::StrLen { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

/// A function in execution form.
#[derive(Clone, Debug)]
pub(crate) struct DecodedFunc {
    /// The instruction stream.
    pub insts: Vec<Inst>,
    /// Source `Op`s each instruction retires, parallel to `insts`
    /// (`Fuel` itself retires none: it carries its block's sum; a
    /// `CallHostPop`'s count ends with the `Pop` it retires after the
    /// call).
    pub costs: Vec<u32>,
    /// Slots in a frame: local slots plus the greatest operand-stack
    /// height the verifier found.
    pub frame_size: usize,
}

impl DecodedFunc {
    /// Source ops of the block around `pc - 1` that lie behind it:
    /// charged when the block was entered, not retired if the instruction
    /// at `pc - 1` traps.
    #[cold]
    pub(crate) fn unretired(&self, pc: usize) -> u64 {
        self.insts[pc..]
            .iter()
            .zip(&self.costs[pc..])
            .take_while(|(inst, _)| !matches!(inst, Inst::Fuel(_)))
            .map(|(_, &cost)| cost as u64)
            .sum()
    }
}

/// An entry of the translator's model of the operand stack.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Operand {
    /// The value is in the stack position's own frame slot.
    Home,
    /// A `LocalGet` not yet carried out: the value is (still) in this
    /// local slot.
    Local(Slot),
}

struct Translator<'a> {
    module: &'a Module,
    func: &'a Function,
    resolved: &'a [ResolvedImport],
    instance: InstanceId,
    n_slots: Slot,
    insts: Vec<Inst>,
    costs: Vec<u32>,
    /// The operand stack at the instruction being translated.
    stack: Vec<Operand>,
    /// Source ops read since the last emitted instruction.
    pending: u32,
    /// Index of the open block's `Fuel`.
    block: usize,
}

/// Translate one verified function. `facts` is what the verifier proved
/// about it, `resolved` the instance's import resolution table (parallel
/// to `module.imports`), `instance` the id the module is being loaded as.
pub(crate) fn decode_function(
    module: &Module,
    func: &Function,
    facts: &FuncFacts,
    resolved: &[ResolvedImport],
    instance: InstanceId,
) -> DecodedFunc {
    let code = &func.code;

    // Block leaders: branch targets, and whatever follows an instruction
    // that leaves the block (a VM callee must see the exact fuel, so calls
    // that can reach one end their block too).
    let mut leader = vec![false; code.len() + 1];
    leader[0] = true;
    for (pc, op) in code.iter().enumerate() {
        match op {
            Op::Jump(t) | Op::BrIf(t) | Op::BrIfNot(t) => {
                leader[*t as usize] = true;
                leader[pc + 1] = true;
            }
            Op::Return | Op::Call(_) | Op::CallRef(_) => leader[pc + 1] = true,
            Op::CallImport(n) if matches!(resolved[*n as usize], ResolvedImport::Vm { .. }) => {
                leader[pc + 1] = true
            }
            _ => {}
        }
    }

    let mut t = Translator {
        module,
        func,
        resolved,
        instance,
        n_slots: func.num_slots() as Slot,
        insts: Vec::with_capacity(code.len() + 8),
        costs: Vec::with_capacity(code.len() + 8),
        stack: Vec::new(),
        pending: 0,
        block: 0,
    };
    // Pass 1: emit, recording source pc → decoded pc for every leader.
    let mut pc_map = vec![u32::MAX; code.len()];
    for (pc, op) in code.iter().enumerate() {
        if leader[pc] {
            if pc > 0 {
                t.close_block();
            }
            pc_map[pc] = t.insts.len() as u32;
            t.open_block(facts.before[pc].height);
        }
        debug_assert_eq!(t.stack.len(), facts.before[pc].height as usize);
        t.pending += 1;
        t.translate(op, facts.before[pc].top);
    }
    t.close_block();

    // Pass 2: now that every block has its place, branches — emitted
    // holding the source pc of their destination — get the decoded one.
    for inst in &mut t.insts {
        if let Inst::Jump { to }
        | Inst::BrIf { to, .. }
        | Inst::BrCmpInt { to, .. }
        | Inst::BrEqStr { to, .. } = inst
        {
            *to = pc_map[*to as usize];
        }
    }

    DecodedFunc {
        insts: t.insts,
        costs: t.costs,
        frame_size: func.num_slots() + facts.max_stack as usize,
    }
}

impl Translator<'_> {
    fn open_block(&mut self, height: u16) {
        self.block = self.insts.len();
        self.insts.push(Inst::Fuel(0));
        self.costs.push(0);
        self.stack.clear();
        self.stack.resize(height as usize, Operand::Home);
    }

    /// End the open block: everything deferred is carried out (the next
    /// block, and every other way into it, expects the stack in its
    /// slots) and the block's `Fuel` gets the sum.
    fn close_block(&mut self) {
        self.flush();
        if self.pending > 0 {
            self.emit(Inst::Nop);
        }
        let total: u32 = self.costs[self.block..].iter().sum();
        self.insts[self.block] = Inst::Fuel(total);
    }

    /// Append an instruction, charging it every source op read since the
    /// last one.
    fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
        self.costs.push(std::mem::take(&mut self.pending));
    }

    /// Take back the block's last instruction if `want` finds in it the
    /// producer of the operand just popped from `operand` — a stack slot,
    /// dead once popped; a local is not. Its source ops go back to
    /// `pending`, for the fused instruction that replaces it.
    fn take_producer<T>(
        &mut self,
        operand: Slot,
        want: impl FnOnce(&Inst) -> Option<T>,
    ) -> Option<T> {
        if operand < self.n_slots || self.insts.len() - 1 == self.block {
            return None;
        }
        let picked = want(self.insts.last()?)?;
        self.insts.pop();
        self.pending += self.costs.pop().expect("parallel to insts");
        Some(picked)
    }

    /// The frame slot of stack position `pos`.
    fn home(&self, pos: usize) -> Slot {
        self.n_slots + pos as Slot
    }

    /// Where the operand at stack position `pos` is to be read.
    fn slot(&self, pos: usize, operand: Operand) -> Slot {
        match operand {
            Operand::Home => self.home(pos),
            Operand::Local(n) => n,
        }
    }

    fn local_kind(&self, n: Slot) -> Kind {
        Kind::of(
            self.func
                .slot_ty(n as usize)
                .expect("verified: local in range"),
        )
    }

    fn copy(dst: Slot, src: Slot, kind: Kind) -> Inst {
        match kind {
            Kind::Int => Inst::CopyInt { dst, src },
            _ => Inst::Copy { dst, src },
        }
    }

    /// Carry out a deferred `LocalGet`: the value goes to its stack slot.
    fn materialize(&mut self, pos: usize) {
        if let Operand::Local(n) = self.stack[pos] {
            let inst = Self::copy(self.home(pos), n, self.local_kind(n));
            self.emit(inst);
            self.stack[pos] = Operand::Home;
        }
    }

    fn flush(&mut self) {
        for pos in 0..self.stack.len() {
            self.materialize(pos);
        }
    }

    /// Pop one operand: the slot to read it from.
    fn pop(&mut self) -> Slot {
        let operand = self.stack.pop().expect("verified: no underflow");
        self.slot(self.stack.len(), operand)
    }

    /// Push a result: the slot to write it to.
    fn push(&mut self) -> Slot {
        self.stack.push(Operand::Home);
        self.home(self.stack.len() - 1)
    }

    /// Pop `argc` operands into their own slots (a contiguous window) and
    /// return the first.
    fn pop_window(&mut self, argc: usize) -> Slot {
        let first = self.stack.len() - argc;
        for pos in first..self.stack.len() {
            self.materialize(pos);
        }
        self.stack.truncate(first);
        self.home(first)
    }

    fn unary(&mut self, make: impl FnOnce(Slot, Slot) -> Inst) {
        let a = self.pop();
        let dst = self.push();
        self.emit(make(dst, a));
    }

    fn binary(&mut self, make: impl FnOnce(Slot, Slot, Slot) -> Inst) {
        let b = self.pop();
        let a = self.pop();
        let dst = self.push();
        self.emit(make(dst, a, b));
    }

    fn compare(&mut self, cmp: Cmp) {
        self.binary(|dst, a, b| Inst::CmpInt { cmp, dst, a, b });
    }

    /// `Add`/`Sub` whose right operand is the constant just emitted
    /// becomes `AddImm`.
    fn add_or_sub(&mut self, sub: bool) {
        let b = self.pop();
        let a = self.pop();
        let k = self.take_producer(b, |inst| match *inst {
            Inst::Int { dst, k } if dst == b => Some(k),
            _ => None,
        });
        let dst = self.push();
        self.emit(match (k, sub) {
            (Some(k), false) => Inst::AddImm { dst, a, k },
            (Some(k), true) => Inst::AddImm {
                dst,
                a,
                k: k.wrapping_neg(),
            },
            (None, false) => Inst::Add { dst, a, b },
            (None, true) => Inst::Sub { dst, a, b },
        });
    }

    fn equality(&mut self, negate: bool, kind: Kind) {
        let b = self.pop();
        let a = self.pop();
        let dst = self.push();
        self.emit(match kind {
            Kind::Int => Inst::CmpInt {
                cmp: if negate { Cmp::Ne } else { Cmp::Eq },
                dst,
                a,
                b,
            },
            Kind::Bool => Inst::EqBool { dst, a, b, negate },
            Kind::Str => Inst::EqStr { dst, a, b, negate },
            // There is one unit value.
            Kind::Unit => Inst::Bool { dst, v: !negate },
            Kind::Other => unreachable!("verified: eq on a hashable type"),
        });
    }

    /// A conditional branch; a comparison just emitted into the condition
    /// slot is folded into it.
    fn branch(&mut self, negate: bool, to: u32) {
        let cond = self.pop();
        let fused = self.take_producer(cond, |inst| match *inst {
            Inst::CmpInt { cmp, dst, a, b } if dst == cond => Some(Inst::BrCmpInt {
                cmp: if negate { cmp.negated() } else { cmp },
                a,
                b,
                to,
            }),
            Inst::EqStr {
                dst,
                a,
                b,
                negate: ne,
            } if dst == cond => Some(Inst::BrEqStr {
                a,
                b,
                negate: ne != negate,
                to,
            }),
            _ => None,
        });
        // What the flush writes are stack slots below the condition; the
        // comparison's operands are locals or slots above them.
        self.flush();
        self.emit(fused.unwrap_or(Inst::BrIf {
            src: cond,
            negate,
            to,
        }));
    }

    fn local_set(&mut self, n: Slot) {
        // A deferred read of this local must happen before the write.
        for pos in 0..self.stack.len() - 1 {
            if self.stack[pos] == Operand::Local(n) {
                self.materialize(pos);
            }
        }
        let operand = self.stack.pop().expect("verified: no underflow");
        let kind = self.local_kind(n);
        match operand {
            Operand::Local(m) if m == n => {} // charged to what follows
            Operand::Local(m) => self.emit(Self::copy(n, m, kind)),
            Operand::Home => {
                let src = self.home(self.stack.len());
                // Local `n` itself, carried out to the stack (a `LocalSet n`
                // was coming) and now stored straight back: the slot is
                // dead and the local has what it had. Redirected, the
                // copy would name one slot twice.
                let round_trip = self.take_producer(src, |inst| match *inst {
                    Inst::Copy { dst, src: from } | Inst::CopyInt { dst, src: from } => {
                        (dst == src && from == n).then_some(())
                    }
                    _ => None,
                });
                if round_trip.is_some() {
                    return; // charged to what follows
                }
                let in_block = self.insts.len() - 1 > self.block;
                let last = self.insts.last_mut().expect("a block has its Fuel");
                match last.pure_dst() {
                    Some(dst) if in_block && *dst == src => {
                        *dst = n;
                        *self.costs.last_mut().expect("parallel to insts") +=
                            std::mem::take(&mut self.pending);
                    }
                    _ => self.emit(Self::copy(n, src, kind)),
                }
            }
        }
    }

    fn call_import(&mut self, n: u32) {
        let Ty::Func(ft) = &self.module.imports[n as usize].ty else {
            unreachable!("linker guarantees function imports")
        };
        let argc = ft.params.len();
        match self.resolved[n as usize] {
            ResolvedImport::Host(slot) => {
                let args = self.pop_window(argc);
                self.push();
                self.emit(Inst::CallHost {
                    slot,
                    args,
                    argc: argc as u16,
                });
            }
            ResolvedImport::Vm { instance, func } => {
                let args = self.pop_window(argc);
                self.flush();
                self.push();
                self.emit(Inst::CallVm {
                    instance,
                    func,
                    args,
                });
            }
        }
    }

    fn translate(&mut self, op: &Op, top: Kind) {
        match *op {
            Op::ConstUnit => {
                let dst = self.push();
                self.emit(Inst::Unit { dst });
            }
            Op::ConstBool(v) => {
                let dst = self.push();
                self.emit(Inst::Bool { dst, v });
            }
            Op::ConstInt(k) => {
                let dst = self.push();
                self.emit(Inst::Int { dst, k });
            }
            Op::ConstStr(n) => {
                let dst = self.push();
                self.emit(Inst::Str { dst, n });
            }
            Op::LocalGet(n) => self.stack.push(Operand::Local(n)),
            Op::LocalSet(n) => self.local_set(n),
            Op::Pop => {
                let popped = self.pop();
                // A host call's result dropped at once: the call carries
                // the `Pop`, which is charged after it returns. (Only the
                // `Pop` was read since the call: it is the one op the
                // interpreter charges behind a `CallHostPop`.)
                if self.pending == 1 {
                    let call = self.take_producer(popped, |inst| match *inst {
                        Inst::CallHost { slot, args, argc } if args == popped => Some((slot, argc)),
                        _ => None,
                    });
                    if let Some((slot, argc)) = call {
                        self.emit(Inst::CallHostPop {
                            slot,
                            args: popped,
                            argc,
                        });
                    }
                }
            }
            Op::Dup => match *self.stack.last().expect("verified: no underflow") {
                Operand::Local(n) => self.stack.push(Operand::Local(n)),
                Operand::Home => {
                    let src = self.home(self.stack.len() - 1);
                    let dst = self.push();
                    self.emit(Self::copy(dst, src, top));
                }
            },
            Op::Add => self.add_or_sub(false),
            Op::Sub => self.add_or_sub(true),
            Op::Mul => self.binary(|dst, a, b| Inst::Mul { dst, a, b }),
            Op::Div => self.binary(|dst, a, b| Inst::Div { dst, a, b }),
            Op::Mod => self.binary(|dst, a, b| Inst::Mod { dst, a, b }),
            Op::Neg => self.unary(|dst, a| Inst::Neg { dst, a }),
            Op::Eq => self.equality(false, top),
            Op::Ne => self.equality(true, top),
            Op::Lt => self.compare(Cmp::Lt),
            Op::Le => self.compare(Cmp::Le),
            Op::Gt => self.compare(Cmp::Gt),
            Op::Ge => self.compare(Cmp::Ge),
            Op::And => self.binary(|dst, a, b| Inst::And { dst, a, b }),
            Op::Or => self.binary(|dst, a, b| Inst::Or { dst, a, b }),
            Op::Not => self.unary(|dst, a| Inst::Not { dst, a }),
            Op::Jump(to) => {
                self.flush();
                self.emit(Inst::Jump { to });
            }
            Op::BrIf(target) => self.branch(false, target),
            Op::BrIfNot(target) => self.branch(true, target),
            Op::Return => {
                let src = self.pop();
                self.emit(Inst::Return { src });
            }
            Op::Call(func) => {
                let argc = self.module.functions[func as usize].params.len();
                let args = self.pop_window(argc);
                self.flush();
                self.push();
                self.emit(Inst::Call { func, args });
            }
            Op::CallImport(n) => self.call_import(n),
            Op::ImportGet(n) => {
                let fv = match self.resolved[n as usize] {
                    ResolvedImport::Host(slot) => FuncVal::Host {
                        module: slot.module,
                        item: slot.item,
                    },
                    ResolvedImport::Vm { instance, func } => FuncVal::Vm { instance, func },
                };
                let dst = self.push();
                self.emit(Inst::Func { dst, fv });
            }
            Op::CallRef(argc) => {
                let f = self.pop_window(argc as usize + 1);
                self.flush();
                self.push();
                self.emit(Inst::CallRef { f, argc });
            }
            Op::FuncConst(func) => {
                let fv = FuncVal::Vm {
                    instance: self.instance,
                    func,
                };
                let dst = self.push();
                self.emit(Inst::Func { dst, fv });
            }
            Op::TupleMake(n) => {
                let first = self.pop_window(n as usize);
                self.push();
                self.emit(Inst::TupleMake { first, n });
            }
            Op::TupleGet(i) => self.unary(|dst, src| Inst::TupleGet { dst, src, i }),
            Op::StrLen => self.unary(|dst, src| Inst::StrLen { dst, src }),
            Op::StrConcat => self.binary(|dst, a, b| Inst::StrConcat { dst, a, b }),
            Op::StrByte => self.binary(|dst, s, i| Inst::StrByte { dst, s, i }),
            Op::StrSlice => {
                let len = self.pop();
                let start = self.pop();
                let s = self.pop();
                let dst = self.push();
                self.emit(Inst::StrSlice { dst, s, start, len });
            }
            Op::StrPackInt(width) => self.unary(|dst, src| Inst::StrPackInt { dst, src, width }),
            Op::StrUnpackInt(width) => {
                self.binary(|dst, s, off| Inst::StrUnpackInt { dst, s, off, width })
            }
            Op::StrFromInt => self.unary(|dst, src| Inst::StrFromInt { dst, src }),
            Op::Nop => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ty;

    /// Translate `code` as the body of `f(int, int, str) -> int` with one
    /// `int` local behind the parameters: slots 0–3, so stack position `i`
    /// is slot `4 + i`.
    fn decode_ops(code: Vec<Op>) -> DecodedFunc {
        let mut mb = crate::asm::ModuleBuilder::new("t");
        mb.intern_str(b"s");
        let mut m = mb.build();
        m.functions.push(Function {
            name: "f".into(),
            params: vec![Ty::Int, Ty::Int, Ty::Str],
            locals: vec![Ty::Int],
            result: Ty::Int,
            code,
        });
        let facts = crate::verify::prove_module(&m).expect("the test body verifies");
        decode_function(&m, &m.functions[0], &facts[0], &[], InstanceId(0))
    }

    #[test]
    fn an_instruction_is_three_words() {
        // The widest carries a `FuncVal`.
        assert_eq!(std::mem::size_of::<Inst>(), 24);
    }

    #[test]
    fn fuses_local_pair_add() {
        // Neither `LocalGet` is an instruction: `Add` reads the locals.
        let d = decode_ops(vec![Op::LocalGet(0), Op::LocalGet(1), Op::Add, Op::Return]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(4),
                Inst::Add { dst: 4, a: 0, b: 1 },
                Inst::Return { src: 4 },
            ]
        );
        assert_eq!(d.costs, vec![0, 3, 1]);
        assert_eq!(d.frame_size, 4 + 2, "four local slots, two stack positions");
    }

    #[test]
    fn fuses_compare_branch_and_remaps_target() {
        // 0: LocalGet 0; 1: LocalGet 1; 2: Lt; 3: BrIf 6; 4: ConstInt 0;
        // 5: Return; 6: ConstInt 1; 7: Return
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::Lt,
            Op::BrIf(6),
            Op::ConstInt(0),
            Op::Return,
            Op::ConstInt(1),
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(4),
                Inst::BrCmpInt {
                    cmp: Cmp::Lt,
                    a: 0,
                    b: 1,
                    to: 5, // the `Fuel` of the block at source pc 6
                },
                Inst::Fuel(2),
                Inst::Int { dst: 4, k: 0 },
                Inst::Return { src: 4 },
                Inst::Fuel(2),
                Inst::Int { dst: 4, k: 1 },
                Inst::Return { src: 4 },
            ]
        );
        assert_eq!(d.costs, vec![0, 4, 0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn negated_branch_inverts_the_comparison() {
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::Le,
            Op::BrIfNot(4),
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            d.insts[1],
            Inst::BrCmpInt {
                cmp: Cmp::Gt,
                a: 0,
                b: 1,
                to: 2,
            }
        );
        assert_eq!(d.insts[3], Inst::Return { src: 0 }, "read from the local");
    }

    #[test]
    fn branch_target_inhibits_fusion() {
        // The Add at pc 2 is a branch target: a jump to it expects two
        // operands in their stack slots, so the deferred reads are carried
        // out before the block ends and `Add` takes them from the stack.
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::Add, // 2: target of the backward jump below
            Op::Dup,
            Op::ConstInt(100),
            Op::Ge,
            Op::BrIf(9),
            Op::LocalGet(1),
            Op::Jump(2),
            Op::Return, // 9
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(2),
                Inst::CopyInt { dst: 4, src: 0 },
                Inst::CopyInt { dst: 5, src: 1 },
                Inst::Fuel(5),
                Inst::Add { dst: 4, a: 4, b: 5 },
                Inst::CopyInt { dst: 5, src: 4 },
                Inst::Int { dst: 6, k: 100 },
                Inst::BrCmpInt {
                    cmp: Cmp::Ge,
                    a: 5,
                    b: 6,
                    to: 11,
                },
                Inst::Fuel(2),
                Inst::CopyInt { dst: 5, src: 1 },
                Inst::Jump { to: 3 },
                Inst::Fuel(1),
                Inst::Return { src: 4 },
            ]
        );
        // (The copy a flush emits is charged with the op that forced it.)
        assert_eq!(d.costs, vec![0, 2, 0, 0, 1, 1, 1, 2, 0, 2, 0, 0, 1]);
        assert_eq!(d.frame_size, 4 + 3);
    }

    #[test]
    fn const_add_fuses() {
        let d = decode_ops(vec![Op::LocalGet(0), Op::ConstInt(7), Op::Add, Op::Return]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(4),
                Inst::AddImm { dst: 4, a: 0, k: 7 },
                Inst::Return { src: 4 },
            ]
        );
        // `x - k` is `x + -k`, and a `LocalSet` behind it writes the local.
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::ConstInt(1),
            Op::Sub,
            Op::LocalSet(3),
            Op::LocalGet(3),
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(6),
                Inst::AddImm {
                    dst: 3,
                    a: 0,
                    k: -1
                },
                Inst::Return { src: 3 },
            ]
        );
        assert_eq!(d.costs, vec![0, 4, 2]);
    }

    #[test]
    fn a_constant_stored_to_a_local_is_not_taken_for_an_operand() {
        // `ConstInt 5; LocalSet 3` writes local 3 directly. The `Add`
        // behind it reads local 3 as its right operand — from the local:
        // the store is not an operand to fold away.
        let d = decode_ops(vec![
            Op::ConstInt(5),
            Op::LocalSet(3),
            Op::LocalGet(0),
            Op::LocalGet(3),
            Op::Add,
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(6),
                Inst::Int { dst: 3, k: 5 },
                Inst::Add { dst: 4, a: 0, b: 3 },
                Inst::Return { src: 4 },
            ]
        );
    }

    #[test]
    fn a_deferred_read_happens_before_the_local_is_overwritten() {
        // swap(local 0, local 1) through the stack.
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::LocalSet(0),
            Op::LocalSet(1),
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(6),
                Inst::CopyInt { dst: 4, src: 0 }, // local 0, before it changes
                Inst::CopyInt { dst: 0, src: 1 },
                Inst::CopyInt { dst: 1, src: 4 },
                Inst::Return { src: 0 },
            ]
        );
        assert_eq!(d.costs.iter().sum::<u32>(), 6);
    }

    #[test]
    fn a_local_stored_back_to_itself_is_no_copy() {
        // The first `LocalSet 2` forces the deferred read below it out to
        // the stack; the second stores that copy straight back. Neither
        // is an instruction — a copy whose write was redirected to the
        // local would read and write slot 2.
        for second_read in [Op::LocalGet(2), Op::Dup] {
            let d = decode_ops(vec![
                Op::LocalGet(2),
                second_read,
                Op::LocalSet(2),
                Op::LocalSet(2),
                Op::LocalGet(0),
                Op::Return,
            ]);
            assert_eq!(d.insts, vec![Inst::Fuel(6), Inst::Return { src: 0 }]);
            assert_eq!(d.costs, vec![0, 6]);
        }
        // With a write in between the copy is needed, and kept.
        let d = decode_ops(vec![
            Op::LocalGet(2),
            Op::ConstStr(0),
            Op::LocalSet(2),
            Op::LocalSet(2),
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(6),
                Inst::Str { dst: 5, n: 0 },
                Inst::Copy { dst: 4, src: 2 },
                Inst::Copy { dst: 2, src: 5 },
                Inst::Copy { dst: 2, src: 4 },
                Inst::Return { src: 0 },
            ]
        );
    }

    #[test]
    fn equality_is_selected_by_operand_type() {
        let eq_of = |push: Op| {
            let d = decode_ops(vec![
                push.clone(),
                push,
                Op::Eq,
                Op::BrIf(5),
                Op::Nop,
                Op::LocalGet(0),
                Op::Return,
            ]);
            d.insts[d.insts.iter().position(|i| *i == Inst::Fuel(1)).unwrap() - 1].clone()
        };
        assert!(matches!(
            eq_of(Op::LocalGet(0)),
            Inst::BrCmpInt {
                cmp: Cmp::Eq,
                a: 0,
                b: 0,
                ..
            }
        ));
        assert!(matches!(
            eq_of(Op::LocalGet(2)),
            Inst::BrEqStr {
                a: 2,
                b: 2,
                negate: false,
                ..
            }
        ));
        // Booleans compare into a slot, the branch reads it; two units are
        // equal without looking.
        assert!(matches!(
            eq_of(Op::ConstBool(true)),
            Inst::BrIf { src: 4, .. }
        ));
        let d = decode_ops(vec![
            Op::ConstUnit,
            Op::ConstUnit,
            Op::Ne,
            Op::Pop,
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(d.insts[3], Inst::Bool { dst: 4, v: false });
    }

    /// A host call whose result the next op drops is one instruction,
    /// charged the `Pop` too; anything else read between the two keeps
    /// them apart.
    #[test]
    fn a_dropped_host_result_is_carried_by_the_call() {
        let decode_with_import = |code: Vec<Op>| {
            let mut mb = crate::asm::ModuleBuilder::new("t");
            mb.import("h", "f", Ty::func(vec![Ty::Int], Ty::Int));
            let mut m = mb.build();
            m.functions.push(Function {
                name: "f".into(),
                params: vec![Ty::Int],
                locals: vec![],
                result: Ty::Int,
                code,
            });
            let facts = crate::verify::prove_module(&m).expect("the test body verifies");
            let slot = HostSlot { module: 0, item: 0 };
            let resolved = [ResolvedImport::Host(slot)];
            (
                decode_function(&m, &m.functions[0], &facts[0], &resolved, InstanceId(0)),
                slot,
            )
        };
        let (d, slot) = decode_with_import(vec![
            Op::LocalGet(0),
            Op::CallImport(0),
            Op::Pop,
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            d.insts,
            vec![
                Inst::Fuel(5),
                Inst::CopyInt { dst: 1, src: 0 },
                Inst::CallHostPop {
                    slot,
                    args: 1,
                    argc: 1
                },
                Inst::Return { src: 0 },
            ]
        );
        assert_eq!(d.costs, vec![0, 2, 1, 2], "the call is charged its `Pop`");
        // A `Nop` between the two: the call writes its result, and the
        // `Pop` is charged to what follows.
        let (d, slot) = decode_with_import(vec![
            Op::LocalGet(0),
            Op::CallImport(0),
            Op::Nop,
            Op::Pop,
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            d.insts[2],
            Inst::CallHost {
                slot,
                args: 1,
                argc: 1
            }
        );
        assert_eq!(d.costs.iter().sum::<u32>(), 6);
    }

    #[test]
    fn pop_at_a_block_end_is_charged_to_a_nop() {
        let d = decode_ops(vec![
            Op::ConstInt(1),
            Op::Pop,
            Op::LocalGet(0), // 2: branch target
            Op::ConstInt(0),
            Op::Gt,
            Op::BrIf(2),
            Op::LocalGet(0),
            Op::Return,
        ]);
        assert_eq!(
            &d.insts[..3],
            &[Inst::Fuel(2), Inst::Int { dst: 4, k: 1 }, Inst::Nop]
        );
        assert_eq!(&d.costs[..3], &[0, 1, 1]);
        assert_eq!(d.unretired(2), 1, "behind the constant: the pop");
        assert_eq!(d.unretired(3), 0);
    }

    #[test]
    fn block_costs_sum_to_the_source_length() {
        let d = decode_ops(vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::Div,
            Op::Dup,
            Op::Mul,
            Op::Nop,
            Op::Return,
        ]);
        assert_eq!(d.insts[0], Inst::Fuel(7));
        assert_eq!(d.costs.iter().sum::<u32>(), 7);
        // A trap in `Div` hands back everything behind it.
        assert_eq!(d.insts[1], Inst::Div { dst: 4, a: 0, b: 1 });
        assert_eq!(d.unretired(2), 4);
    }
}
