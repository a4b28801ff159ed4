//! The bytecode interpreter.
//!
//! Runs only *verified* code: the linker refuses to instantiate a module
//! the verifier rejected, so the interpreter performs no per-instruction
//! type checks (a payload-extraction mismatch is an internal panic, not a
//! recoverable state — exactly the trust a Caml runtime places in its
//! compiler). What it does enforce dynamically is the short list the paper
//! also enforced dynamically, plus containment:
//!
//! * string bounds (Caml checked array bounds at run time),
//! * division by zero,
//! * a **fuel meter** and a call-depth limit — our analogue of the active
//!   bridge protecting itself "from some algorithmic failures in
//!   loadable modules": a switchlet that loops forever is cut off, the
//!   error is reported, and the node keeps running.
//!
//! What runs is the execution form the linker builds from what the
//! verifier proved (see the `decode` module): typed, every operand at a
//! fixed slot of its function's frame, call targets and host slots
//! resolved, fuel accounted by basic block.
//!
//! * **Frames are windows of one arena** ([`VmScratch`]). A function's
//!   frame is `frame_size` slots, reserved once at entry; a callee's frame
//!   starts at its caller's argument slots, so arguments are not copied
//!   (a call through a function value shifts them down one slot, over the
//!   function) and a result is left where the caller reads it — always a
//!   slot of the caller's own frame. There is no operand stack at run
//!   time: an instruction reads and writes the slots it names. With a
//!   long-lived arena a steady-state invocation performs no allocation.
//! * **Fuel is a local of the loop**, charged a block at a time and
//!   written back where someone else reads it: at calls, at the return, at
//!   errors. The count stays exact on every path. A block the remaining
//!   fuel does not cover is not entered at block price: the loop
//!   continues from there charging instruction by instruction
//!   (`run::<true>`; it can only end in `FuelExhausted` or a trap), so
//!   every effect the reference interpreter would still have produced —
//!   a host call, a trap that comes first — is produced, and nothing
//!   after. A trap in the middle of a block hands back what the block was
//!   charged for the ops behind the failing one. [`ExecStats`], the
//!   host-call trace and the [`HotProfile`]'s inclusive fuel are
//!   bit-identical to running the source `Op` stream one op at a time —
//!   an equivalence the `refinterp` proptests pin down, budget by budget.
//! * **Values are written where they live**, one shape at a time (see
//!   "writing a slot" below).

use std::rc::Rc;

use framebuf::FrameBuf;

use crate::decode::{Inst, Slot};
use crate::env::{HostDispatch, HostSlot};
use crate::linker::Namespace;
use crate::value::{FuncVal, InstanceId, Value};

/// Runtime failures. None of these can corrupt the host; they abort the
/// switchlet invocation and surface to the embedder.
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// The fuel budget ran out (non-termination containment).
    FuelExhausted,
    /// Call nesting exceeded the configured limit.
    CallDepthExceeded,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A string access was out of bounds.
    StrBounds {
        /// String length.
        len: usize,
        /// Offending index/offset.
        index: i64,
    },
    /// A host function reported an error.
    Host(String),
    /// A host call was made but no implementation is available.
    HostUnavailable(String),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::DivideByZero => write!(f, "division by zero"),
            VmError::StrBounds { len, index } => {
                write!(f, "string index {index} out of bounds (len {len})")
            }
            VmError::Host(msg) => write!(f, "host error: {msg}"),
            VmError::HostUnavailable(name) => write!(f, "host function {name} unavailable"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execution limits.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Maximum instructions per invocation.
    pub fuel: u64,
    /// Maximum call nesting.
    pub max_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            fuel: 1_000_000,
            max_depth: 128,
        }
    }
}

/// What an invocation cost — fed to the simulator's time model (the
/// analogue of the paper's per-frame Caml cost instrumentation).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Host calls made.
    pub host_calls: u64,
}

/// Per-function hot counters accumulated across invocations — the
/// promotion signal a JIT tier consumes: which functions are entered
/// often and where the fuel actually goes. Keyed by
/// `(instance, function index)`; fuel is **inclusive** (a caller's total
/// includes its callees, the standard inclusive-time convention).
#[derive(Default, Debug)]
pub struct HotProfile {
    counters: std::collections::BTreeMap<(usize, u32), FuncHotCounters>,
}

/// One function's accumulated cost inside a [`HotProfile`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncHotCounters {
    /// Times the function was entered (including as a callee).
    pub calls: u64,
    /// Fuel (source instructions) retired while the function was on the
    /// stack — inclusive of callees.
    pub fuel: u64,
}

impl HotProfile {
    fn record(&mut self, instance: InstanceId, func: u32, fuel: u64) {
        let c = self.counters.entry((instance.0, func)).or_default();
        c.calls += 1;
        c.fuel += fuel;
    }

    /// The accumulated counters, in `(instance, func)` order.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, u32, FuncHotCounters)> + '_ {
        self.counters
            .iter()
            .map(|(&(inst, func), &c)| (InstanceId(inst), func, c))
    }

    /// Is anything recorded?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// The reusable execution arena: one vector of values in which every
/// frame of an invocation is a window (`base..base + frame_size`; a
/// callee's window starts at its caller's argument slots). An embedder
/// that keeps a `VmScratch` alive across invocations (as the bridge does,
/// one per node) runs steady-state switchlet code with **zero**
/// per-invocation allocation: the vector grows to the high-water mark
/// once and its storage is reused thereafter.
///
/// Between invocations the arena is empty: whatever a frame left in its
/// slots is dropped when [`call_scratch`] returns, on the trap path too,
/// so a handler's `str` argument — a handle on a received frame — never
/// outlives its invocation here.
///
/// The arena optionally carries a [`HotProfile`]: with profiling enabled
/// every function entry bumps its call count and inclusive fuel. Off by
/// default (one `Option` check per function entry); profiling never
/// changes [`ExecStats`], fuel accounting or results.
#[derive(Default)]
pub struct VmScratch {
    frames: Vec<Value>,
    profile: Option<Box<HotProfile>>,
}

impl VmScratch {
    /// A fresh arena with a useful starting capacity.
    pub fn new() -> VmScratch {
        VmScratch {
            frames: Vec::with_capacity(64),
            profile: None,
        }
    }

    /// Start accumulating per-function hot counters (idempotent; keeps
    /// existing counts).
    pub fn enable_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// The accumulated profile, if profiling was ever enabled.
    pub fn profile(&self) -> Option<&HotProfile> {
        self.profile.as_deref()
    }
}

/// Call a function value with `args`, using a throwaway arena.
///
/// `ns` provides the loaded instances; `host` the host implementations.
/// The arguments must match the function's type — guaranteed when the call
/// originates from verified code; embedder-originated calls (switchlet
/// entry points) are checked in debug builds.
pub fn call(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    args: impl IntoIterator<Item = Value>,
    cfg: &ExecConfig,
) -> Result<(Value, ExecStats), VmError> {
    let mut scratch = VmScratch::new();
    call_scratch(ns, host, target, args, cfg, &mut scratch)
}

/// Call a function value with `args`, reusing the given arena. This is
/// the per-frame entry point: the arguments go straight into the arena
/// (pass an array, not a `Vec`) as the callee's first slots, so with a
/// long-lived `scratch` the invocation allocates nothing in steady state.
#[inline]
pub fn call_scratch(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    args: impl IntoIterator<Item = Value>,
    cfg: &ExecConfig,
    scratch: &mut VmScratch,
) -> Result<(Value, ExecStats), VmError> {
    // A nested entry stacks above the live region it finds; truncating
    // back to the entry mark drops every value of every inner frame, on
    // the success and the error path alike.
    let mark = scratch.frames.len();
    scratch.frames.extend(args);
    let mut stats = ExecStats::default();
    let result = match target {
        FuncVal::Host { module, item } => {
            stats.host_calls = 1;
            host.call_slot(
                ns.env(),
                HostSlot { module, item },
                &mut scratch.frames[mark..],
            )
        }
        FuncVal::Vm { instance, func } => {
            debug_assert!(
                {
                    let params = &ns.instance(instance).module.functions[func as usize].params;
                    let args = &scratch.frames[mark..];
                    args.len() == params.len() && args.iter().zip(params).all(|(v, t)| v.matches(t))
                },
                "argument arity or type mismatch at entry"
            );
            let mut machine = Machine {
                ns,
                host,
                max_depth: cfg.max_depth,
                scratch,
                fuel: cfg.fuel,
                host_calls: 0,
            };
            let outcome = machine.exec(instance, func, 0, mark);
            stats = ExecStats {
                instructions: cfg.fuel - machine.fuel,
                host_calls: machine.host_calls,
            };
            // `Return` left the result where the first argument was.
            outcome.map(|()| std::mem::take(&mut scratch.frames[mark]))
        }
    };
    scratch.frames.truncate(mark);
    result.map(|v| (v, stats))
}

/// One invocation in progress: what every frame of it shares.
struct Machine<'a> {
    ns: &'a Namespace,
    host: &'a mut dyn HostDispatch,
    max_depth: usize,
    scratch: &'a mut VmScratch,
    /// Fuel left. The running frame counts in a local of its loop and
    /// writes this only where someone else reads it: at calls, at the
    /// return and at every error, where it is exact — no source op
    /// charged that was not retired — so `ExecStats::instructions` is the
    /// budget minus this.
    fuel: u64,
    host_calls: u64,
}

// ------------------------------------------------------ writing a slot
//
// A `Value` that is built in one place and stored in another goes through
// a stack temporary: written field by field (a tag byte, a payload word),
// then copied as two 16-byte halves — loads that cannot be forwarded from
// the narrower stores before them and wait for those to retire. Written
// as `frame[dst] = Value::Int(x)` in every arm of the loop, that is what
// the arms compile to: LLVM merges their stores into one shared tail that
// copies from a temporary, because the values differ in shape.
//
// So the shapes a forwarded frame writes (`vm_forward`, seed 1: integers,
// booleans, string handles, the handle `bind_out` returns and the unit the
// handler returns) go through the functions below, one per shape. A slot
// that already holds the variant gets its payload stored in place; one
// that does not is re-initialised by an out-of-line function that knows
// the one shape it writes, and so stores its fields from registers. Every
// other write is a plain assignment (a function value, a tuple, a table, a
// new string: none is written per frame). This is a reading of rustc
// 1.95.0's code (LLVM 22.1): when the merged tail is gone from a plain
// loop, so can these be. (Unit written plainly, once a frame, put the
// shared tail's 16-byte loads at 0.8 % of `vm_forward`; here it is 0.2 %.)

#[inline]
fn set_int(slot: &mut Value, x: i64) {
    match slot {
        Value::Int(held) => *held = x,
        _ => init_int(slot, x),
    }
}

#[inline(never)]
fn init_int(slot: &mut Value, x: i64) {
    *slot = Value::Int(x);
}

#[inline]
fn set_bool(slot: &mut Value, b: bool) {
    match slot {
        Value::Bool(held) => *held = b,
        _ => init_bool(slot, b),
    }
}

#[inline(never)]
fn init_bool(slot: &mut Value, b: bool) {
    *slot = Value::Bool(b);
}

#[inline(never)]
fn set_unit(slot: &mut Value) {
    *slot = Value::Unit;
}

/// (By reference: a `FrameBuf` passed by value travels through memory like
/// any other aggregate; cloned here, its fields are read one by one.)
#[inline(never)]
fn set_str(slot: &mut Value, s: &FrameBuf) {
    match slot {
        Value::Str(held) => *held = s.clone(),
        _ => *slot = Value::Str(s.clone()),
    }
}

#[inline(never)]
fn set_handle(slot: &mut Value, tag: &'static str, id: u64) {
    *slot = Value::Handle { tag, id };
}

/// `frame[dst] = frame[src].clone()`.
#[inline]
fn copy(frame: &mut [Value], dst: Slot, src: Slot) {
    let (dst, src) = (dst as usize, src as usize);
    // Two slots of one slice: split at the higher index.
    let (to, from) = match dst.cmp(&src) {
        std::cmp::Ordering::Equal => return,
        std::cmp::Ordering::Less => {
            let (low, high) = frame.split_at_mut(src);
            (&mut low[dst], &high[0])
        }
        std::cmp::Ordering::Greater => {
            let (low, high) = frame.split_at_mut(dst);
            (&mut high[0], &low[src])
        }
    };
    match from {
        Value::Bool(b) => set_bool(to, *b),
        Value::Int(i) => set_int(to, *i),
        Value::Str(s) => set_str(to, s),
        Value::Handle { tag, id } => set_handle(to, tag, *id),
        other => *to = other.clone(),
    }
}

#[cold]
#[inline(never)]
fn broken(what: &str) -> ! {
    panic!("verifier invariant broken: {what}")
}

impl Machine<'_> {
    /// Execute function `func` of `instance` in the frame at `base`,
    /// whose first slots the caller has filled with the arguments,
    /// bumping the hot profile (when enabled) with the entry and its
    /// inclusive fuel. The trap path is charged too: the fuel a function
    /// burned before running out is exactly what a promotion heuristic
    /// should see.
    fn exec(
        &mut self,
        instance: InstanceId,
        func: u32,
        depth: usize,
        base: usize,
    ) -> Result<(), VmError> {
        if self.scratch.profile.is_none() {
            return self.enter(instance, func, depth, base);
        }
        let entry = self.fuel;
        let result = self.enter(instance, func, depth, base);
        if let Some(profile) = self.scratch.profile.as_deref_mut() {
            profile.record(instance, func, entry - self.fuel);
        }
        result
    }

    /// Check the depth, reserve the frame — the one place the arena
    /// grows — and run from the first instruction.
    fn enter(
        &mut self,
        instance: InstanceId,
        func: u32,
        depth: usize,
        base: usize,
    ) -> Result<(), VmError> {
        if depth >= self.max_depth {
            return Err(VmError::CallDepthExceeded);
        }
        let end = base + self.ns.instance(instance).decoded[func as usize].frame_size;
        if self.scratch.frames.len() < end {
            // Slots no instruction has written yet: verified code never
            // reads a local before writing it, nor a stack position
            // nothing was pushed to, so the placeholder is unobservable.
            self.scratch.frames.resize(end, Value::Unit);
        }
        self.run::<false>(instance, func, depth, base, 0)
    }

    /// Continue at `pc` charging instruction by instruction: entered when
    /// the fuel left does not cover the block ahead, so this runs out (or
    /// traps) before the block does and never returns `Ok`.
    #[cold]
    #[inline(never)]
    fn run_metered(
        &mut self,
        instance: InstanceId,
        func: u32,
        depth: usize,
        base: usize,
        pc: usize,
    ) -> Result<(), VmError> {
        self.run::<true>(instance, func, depth, base, pc)
    }

    /// The interpreter loop, over the frame at `base`, from `pc`.
    ///
    /// Fuel is charged by basic block at [`Inst::Fuel`] — unless
    /// `METERED`, where each instruction is charged its own
    /// [`DecodedFunc::costs`] entry before it runs and `Fuel` does
    /// nothing. Both retire exactly the source ops the reference
    /// interpreter would (`crate::decode` has the argument).
    ///
    /// [`DecodedFunc::costs`]: crate::decode::DecodedFunc
    fn run<const METERED: bool>(
        &mut self,
        instance: InstanceId,
        func: u32,
        depth: usize,
        base: usize,
        mut pc: usize,
    ) -> Result<(), VmError> {
        let inst_ref = self.ns.instance(instance);
        let dfunc = &inst_ref.decoded[func as usize];
        let code = &dfunc.insts[..];
        let end = base + dfunc.frame_size;
        let mut frame = &mut self.scratch.frames[base..end];
        let mut fuel = self.fuel;

        // An error in the middle of a block: the block was charged whole
        // when it was entered, so what lies behind the failing instruction
        // is handed back first.
        macro_rules! trap {
            ($err:expr) => {{
                self.fuel = if METERED {
                    fuel
                } else {
                    fuel + dfunc.unretired(pc)
                };
                return Err($err);
            }};
        }
        macro_rules! int {
            ($slot:expr) => {
                frame[$slot as usize].as_int()
            };
        }
        macro_rules! boolean {
            ($slot:expr) => {
                frame[$slot as usize].as_bool()
            };
        }
        macro_rules! set_int {
            ($slot:expr, $x:expr) => {{
                let x = $x;
                set_int(&mut frame[$slot as usize], x)
            }};
        }
        macro_rules! set_bool {
            ($slot:expr, $b:expr) => {{
                let b = $b;
                set_bool(&mut frame[$slot as usize], b)
            }};
        }
        // Any other shape, moved in whole.
        macro_rules! set {
            ($slot:expr, $v:expr) => {{
                let v = $v;
                frame[$slot as usize] = v;
            }};
        }
        macro_rules! table {
            ($slot:expr) => {
                match &frame[$slot as usize] {
                    Value::Table(t) => t,
                    _ => broken("table operand"),
                }
            };
        }
        macro_rules! key {
            ($slot:expr) => {
                match frame[$slot as usize].to_key() {
                    Some(key) => key,
                    None => broken("table key"),
                }
            };
        }
        // A call into VM code, the callee's frame starting at the first
        // argument. Calls end their block, so the local count is exact
        // here and the callee continues from it.
        macro_rules! call_vm {
            ($instance:expr, $func:expr, $args:expr) => {{
                self.fuel = fuel;
                self.exec($instance, $func, depth + 1, base + $args as usize)?;
                fuel = self.fuel;
                frame = &mut self.scratch.frames[base..end];
            }};
        }
        macro_rules! call_host {
            ($slot:expr, $args:expr, $argc:expr, $dst:expr) => {{
                self.host_calls += 1;
                let args = &mut frame[$args as usize..$args as usize + $argc as usize];
                // The result comes back through memory; the shapes the
                // per-frame host functions return are stored from their
                // payload (see "writing a slot").
                match self.host.call_slot(self.ns.env(), $slot, args) {
                    Ok(Value::Bool(b)) => set_bool!($dst, b),
                    Ok(Value::Int(i)) => set_int!($dst, i),
                    Ok(Value::Handle { tag, id }) => set_handle(&mut frame[$dst as usize], tag, id),
                    Ok(v) => set!($dst, v),
                    Err(e) => trap!(e),
                }
            }};
        }

        loop {
            let inst = &code[pc];
            if METERED {
                let cost = dfunc.costs[pc] as u64;
                if fuel < cost {
                    self.fuel = 0;
                    return Err(VmError::FuelExhausted);
                }
                fuel -= cost;
            }
            pc += 1;
            match *inst {
                // Charge the block that starts behind this — or, if the
                // fuel left does not cover it, go on from there
                // instruction by instruction.
                Inst::Fuel(cost) => {
                    if !METERED {
                        if fuel < cost as u64 {
                            self.fuel = fuel;
                            return self.run_metered(instance, func, depth, base, pc);
                        }
                        fuel -= cost as u64;
                    }
                }
                Inst::Unit { dst } => set_unit(&mut frame[dst as usize]),
                Inst::Bool { dst, v } => set_bool!(dst, v),
                Inst::Int { dst, k } => set_int!(dst, k),
                Inst::Str { dst, n } => {
                    set_str(&mut frame[dst as usize], &inst_ref.str_consts[n as usize])
                }
                Inst::Func { dst, fv } => set!(dst, Value::Func(fv)),
                Inst::CopyInt { dst, src } => set_int!(dst, int!(src)),
                Inst::Copy { dst, src } => copy(frame, dst, src),
                Inst::Add { dst, a, b } => set_int!(dst, int!(a).wrapping_add(int!(b))),
                Inst::Sub { dst, a, b } => set_int!(dst, int!(a).wrapping_sub(int!(b))),
                Inst::Mul { dst, a, b } => set_int!(dst, int!(a).wrapping_mul(int!(b))),
                Inst::Div { dst, a, b } => {
                    let (a, b) = (int!(a), int!(b));
                    if b == 0 {
                        trap!(VmError::DivideByZero);
                    }
                    set_int!(dst, a.wrapping_div(b));
                }
                Inst::Mod { dst, a, b } => {
                    let (a, b) = (int!(a), int!(b));
                    if b == 0 {
                        trap!(VmError::DivideByZero);
                    }
                    set_int!(dst, a.wrapping_rem(b));
                }
                Inst::AddImm { dst, a, k } => set_int!(dst, int!(a).wrapping_add(k)),
                Inst::Neg { dst, a } => set_int!(dst, int!(a).wrapping_neg()),
                Inst::CmpInt { cmp, dst, a, b } => {
                    set_bool!(dst, cmp.holds(int!(a), int!(b)))
                }
                Inst::EqBool { dst, a, b, negate } => {
                    set_bool!(dst, (boolean!(a) == boolean!(b)) != negate)
                }
                Inst::EqStr { dst, a, b, negate } => {
                    let eq = frame[a as usize].as_str()[..] == frame[b as usize].as_str()[..];
                    set_bool!(dst, eq != negate);
                }
                Inst::And { dst, a, b } => set_bool!(dst, boolean!(a) && boolean!(b)),
                Inst::Or { dst, a, b } => set_bool!(dst, boolean!(a) || boolean!(b)),
                Inst::Not { dst, a } => set_bool!(dst, !boolean!(a)),
                // A branch lands on its destination's `Fuel`; not taken,
                // it goes on to the next block's.
                Inst::Jump { to } => pc = to as usize,
                Inst::BrIf { src, negate, to } => {
                    if boolean!(src) != negate {
                        pc = to as usize;
                    }
                }
                Inst::BrCmpInt { cmp, a, b, to } => {
                    if cmp.holds(int!(a), int!(b)) {
                        pc = to as usize;
                    }
                }
                Inst::BrEqStr { a, b, negate, to } => {
                    let eq = frame[a as usize].as_str()[..] == frame[b as usize].as_str()[..];
                    if eq != negate {
                        pc = to as usize;
                    }
                }
                Inst::Return { src } => {
                    copy(frame, 0, src);
                    self.fuel = fuel;
                    return Ok(());
                }
                Inst::Call { func: callee, args } => call_vm!(instance, callee, args),
                Inst::CallHost { slot, args, argc } => call_host!(slot, args, argc, args),
                Inst::CallVm {
                    instance: callee_inst,
                    func: callee,
                    args,
                } => call_vm!(callee_inst, callee, args),
                Inst::CallRef { f, argc } => match frame[f as usize] {
                    Value::Func(FuncVal::Host { module, item }) => {
                        call_host!(HostSlot { module, item }, f + 1, argc, f)
                    }
                    Value::Func(FuncVal::Vm {
                        instance: callee_inst,
                        func: callee,
                    }) => {
                        // The arguments move down over the function value,
                        // so the callee's frame starts at `f` and leaves
                        // its result there. (At `f + 1` the result would
                        // come back one slot up — outside this frame, when
                        // `f` is its last slot and there are no arguments.)
                        frame[f as usize..=f as usize + argc as usize].rotate_left(1);
                        call_vm!(callee_inst, callee, f);
                    }
                    _ => broken("callref on non-function"),
                },
                Inst::TupleMake { first, n } => {
                    let items: Vec<Value> = frame[first as usize..first as usize + n as usize]
                        .iter_mut()
                        .map(std::mem::take)
                        .collect();
                    set!(first, Value::Tuple(Rc::new(items)));
                }
                Inst::TupleGet { dst, src, i } => {
                    let Value::Tuple(items) = &frame[src as usize] else {
                        broken("tupleget")
                    };
                    let item = items[i as usize].clone();
                    set!(dst, item);
                }
                Inst::StrLen { dst, src } => {
                    set_int!(dst, frame[src as usize].as_str().len() as i64)
                }
                Inst::StrConcat { dst, a, b } => {
                    let cat = [
                        &frame[a as usize].as_str()[..],
                        &frame[b as usize].as_str()[..],
                    ]
                    .concat();
                    set_str(&mut frame[dst as usize], &cat.into());
                }
                Inst::StrByte { dst, s, i } => {
                    let i = int!(i);
                    let s = frame[s as usize].as_str();
                    if i < 0 || i as usize >= s.len() {
                        trap!(VmError::StrBounds {
                            len: s.len(),
                            index: i,
                        });
                    }
                    let byte = s[i as usize];
                    set_int!(dst, byte as i64);
                }
                Inst::StrSlice { dst, s, start, len } => {
                    let (start, len) = (int!(start), int!(len));
                    let s = frame[s as usize].as_str();
                    if start < 0
                        || len < 0
                        || (start as usize).saturating_add(len as usize) > s.len()
                    {
                        trap!(VmError::StrBounds {
                            len: s.len(),
                            index: start,
                        });
                    }
                    // Bounds-checked above; the result is a view of the
                    // same storage, not a copy.
                    let view = s.slice(start as usize..start as usize + len as usize);
                    set_str(&mut frame[dst as usize], &view);
                }
                Inst::StrPackInt { dst, src, width } => {
                    let bytes = (int!(src) as u64).to_be_bytes();
                    let packed = bytes[8 - width as usize..].to_vec();
                    set_str(&mut frame[dst as usize], &packed.into());
                }
                Inst::StrUnpackInt { dst, s, off, width } => {
                    let off = int!(off);
                    let s = frame[s as usize].as_str();
                    let w = width as usize;
                    if off < 0 || (off as usize).saturating_add(w) > s.len() {
                        trap!(VmError::StrBounds {
                            len: s.len(),
                            index: off,
                        });
                    }
                    let mut bytes = [0u8; 8];
                    bytes[8 - w..].copy_from_slice(&s[off as usize..off as usize + w]);
                    set_int!(dst, u64::from_be_bytes(bytes) as i64);
                }
                Inst::StrFromInt { dst, src } => {
                    let digits = int!(src).to_string().into_bytes();
                    set_str(&mut frame[dst as usize], &digits.into());
                }
                Inst::TableNew { dst } => set!(dst, Value::new_table()),
                Inst::TableAdd { t, k, v } => {
                    let (key, v) = (key!(k), frame[v as usize].clone());
                    table!(t).borrow_mut().insert(key, v);
                }
                Inst::TableGet { dst, t, k, default } => {
                    let found = table!(t).borrow().get(&key!(k)).cloned();
                    let v = found.unwrap_or_else(|| frame[default as usize].clone());
                    set!(dst, v);
                }
                Inst::TableMem { dst, t, k } => {
                    let found = table!(t).borrow().contains_key(&key!(k));
                    set_bool!(dst, found);
                }
                Inst::TableRemove { t, k } => {
                    table!(t).borrow_mut().remove(&key!(k));
                }
                Inst::TableLen { dst, t } => {
                    let len = table!(t).borrow().len() as i64;
                    set_int!(dst, len);
                }
                Inst::Nop => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ModuleBuilder;
    use crate::bytecode::Op;
    use crate::env::{Env, NoHost};
    use crate::linker::Namespace;
    use crate::types::Ty;

    /// `quad(x) = double(double(x))`, `double(x) = x + x`: two profiled
    /// functions with a caller/callee relationship.
    fn quad_ns() -> (Namespace, InstanceId, u32, u32) {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("double", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0))
            .op(Op::LocalGet(0))
            .op(Op::Add)
            .op(Op::Return);
        let double = mb.finish(f);
        let mut f = mb.func("quad", vec![Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0))
            .op(Op::Call(double))
            .op(Op::Call(double))
            .op(Op::Return);
        let quad = mb.finish(f);
        let mut ns = Namespace::new(Env::new());
        let inst = ns.load_module(mb.build()).expect("module verifies");
        (ns, inst, double, quad)
    }

    #[test]
    fn hot_profile_counts_calls_and_inclusive_fuel() {
        let (ns, inst, double, quad) = quad_ns();
        let target = FuncVal::Vm {
            instance: inst,
            func: quad,
        };
        let cfg = ExecConfig::default();

        // Reference run without profiling.
        let mut plain = VmScratch::new();
        let (v0, stats0) = call_scratch(
            &ns,
            &mut NoHost,
            target,
            vec![Value::Int(5)],
            &cfg,
            &mut plain,
        )
        .expect("runs");
        assert_eq!(v0.as_int(), 20);
        assert!(plain.profile().is_none(), "profiling is off by default");

        // Profiled run: identical result and stats, counters filled in.
        let mut scratch = VmScratch::new();
        scratch.enable_profile();
        for _ in 0..3 {
            let (v, stats) = call_scratch(
                &ns,
                &mut NoHost,
                target,
                vec![Value::Int(5)],
                &cfg,
                &mut scratch,
            )
            .expect("runs");
            assert_eq!(v.as_int(), v0.as_int());
            assert_eq!(stats, stats0, "profiling must not change ExecStats");
        }
        let profile = scratch.profile().expect("enabled");
        let lines: Vec<_> = profile.iter().collect();
        // `double`: 4 source ops per entry, entered twice per quad call.
        // `quad`: 4 own ops + 8 inclusive callee ops.
        assert_eq!(
            lines,
            vec![
                (inst, double, FuncHotCounters { calls: 6, fuel: 24 }),
                (inst, quad, FuncHotCounters { calls: 3, fuel: 36 }),
            ]
        );
    }

    /// `go(s, x) = len(s ++ s) + inner(x)`, `inner(x) = 100 / x`: a string
    /// argument, a callee frame, and a trap inside it for `x = 0`.
    fn nested_ns() -> (Namespace, FuncVal) {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("inner", vec![Ty::Int], Ty::Int);
        f.op(Op::ConstInt(100)).op(Op::LocalGet(0)).op(Op::Div);
        f.op(Op::Return);
        let inner = mb.finish(f);
        let mut f = mb.func("go", vec![Ty::Str, Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0)).op(Op::LocalGet(0)).op(Op::StrConcat);
        f.op(Op::StrLen);
        f.op(Op::LocalGet(1)).op(Op::Call(inner));
        f.op(Op::Add).op(Op::Return);
        let go = mb.finish(f);
        let mut ns = Namespace::new(Env::new());
        let instance = ns.load_module(mb.build()).expect("module verifies");
        (ns, FuncVal::Vm { instance, func: go })
    }

    /// `call_scratch` entered while the arena holds a live region (what a
    /// host function re-entering the VM on its caller's arena would find):
    /// the frames stack above the mark, the region below is untouched, and
    /// everything above is dropped on the way out — on success and on a
    /// trap two frames deep alike — so the caller's string handle is the
    /// only one left.
    #[test]
    fn an_entry_above_a_live_region_leaves_it_as_it_was() {
        let (ns, go) = nested_ns();
        let cfg = ExecConfig::default();
        let live = || vec![Value::Int(111), Value::str("live"), Value::Bool(true)];
        let rendered = |values: &[Value]| values.iter().map(Value::render).collect::<Vec<_>>();
        for (x, expected) in [(5i64, Ok(8i64 + 20)), (0, Err(VmError::DivideByZero))] {
            let s = FrameBuf::from(b"abcd".to_vec());
            let args = || vec![Value::Str(s.clone()), Value::Int(x)];
            let reference = crate::refinterp::ref_call(&ns, &mut NoHost, go, args(), &cfg);

            let mut nested = VmScratch::new();
            nested.frames = live();
            let out = call_scratch(&ns, &mut NoHost, go, args(), &cfg, &mut nested);
            let out = out.map(|(v, stats)| (v.as_int(), stats));
            assert_eq!(out, reference.map(|(v, stats)| (v.as_int(), stats)));
            assert_eq!(out.map(|(v, _)| v), expected);
            assert_eq!(rendered(&nested.frames), rendered(&live()));
            assert!(s.is_unique(), "x = {x}: a frame kept the argument");

            // The same from an empty arena, which ends empty.
            let mut fresh = VmScratch::new();
            let out = call_scratch(&ns, &mut NoHost, go, args(), &cfg, &mut fresh);
            assert_eq!(out.map(|(v, _)| v.as_int()), expected);
            assert!(fresh.frames.is_empty());
            assert!(s.is_unique());
        }
    }
}
