//! Decode-equivalence property tests.
//!
//! The pre-decoded VM ([`crate::vm`]) must be observationally identical to
//! the reference `Op`-walking interpreter ([`crate::refinterp`]): same
//! result, same [`ExecStats`], same fuel accounting (including exhaustion
//! landing in the middle of a fused superinstruction), same traps, and
//! the same host-call sequence. These tests generate arbitrary *verified*
//! modules — random well-typed statement programs over ints, bools,
//! strings, tuples, host calls, local calls, cross-module calls and
//! first-class functions — and run them through both interpreters.
//!
//! What the typed, statically framed form adds is covered by the
//! cases below the generator-driven ones: budgets that run out at *every*
//! source op of a block (the block is charged whole; a budget that does
//! not cover it is spent instruction by instruction), the hot profile's
//! inclusive fuel on every trap and exhaustion path (the one place the
//! retired count of a failed invocation is visible), equality on each
//! comparable type, and frames that overlap their caller's.

use proptest::prelude::*;
use proptest::TestRng;

use crate::asm::{FuncBuilder, ModuleBuilder};
use crate::bytecode::Op;
use crate::env::{Env, HostDispatch, HostModuleSig, HostSlot};
use crate::linker::Namespace;
use crate::refinterp::ref_call;
use crate::types::Ty;
use crate::value::{FuncVal, Value};
use crate::vm::{call, call_scratch, ExecConfig, ExecStats, FuncHotCounters, VmError, VmScratch};

// ------------------------------------------------------------- host side

/// A stateful host: the equivalence check includes the order and contents
/// of every host call (folded into `log`) and the mutable counter.
struct TestHost {
    counter: i64,
    log: Vec<String>,
}

impl TestHost {
    fn new() -> TestHost {
        TestHost {
            counter: 0,
            log: Vec::new(),
        }
    }
}

impl HostDispatch for TestHost {
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError> {
        let (module, item, _) = env.slot_names(slot);
        assert_eq!(module, "h");
        match item {
            "add7" => {
                let x = args[0].as_int();
                self.log.push(format!("add7({x})"));
                Ok(Value::Int(x.wrapping_add(7)))
            }
            "cnt" => {
                self.counter += 1;
                Ok(Value::Int(self.counter))
            }
            "obs" => {
                let s = args[0].as_str();
                self.log
                    .push(format!("obs({})", String::from_utf8_lossy(s)));
                Ok(Value::Int(s.len() as i64))
            }
            "fail" => {
                let x = args[0].as_int();
                self.log.push(format!("fail({x})"));
                if x < 0 {
                    Err(VmError::Host("negative".into()))
                } else {
                    Ok(Value::Int(x))
                }
            }
            other => Err(VmError::HostUnavailable(format!("h.{other}"))),
        }
    }
}

pub(crate) fn test_env() -> Env {
    let mut e = Env::new();
    e.add_module(
        HostModuleSig::new("h")
            .func("add7", Ty::func(vec![Ty::Int], Ty::Int))
            .func("cnt", Ty::func(vec![], Ty::Int))
            .func("obs", Ty::func(vec![Ty::Str], Ty::Int))
            .func("fail", Ty::func(vec![Ty::Int], Ty::Int)),
    );
    e
}

// ------------------------------------------------------- program builder

/// Local layout of every generated function: four ints, two strings, two
/// loop counters — all initialized up front so every control-flow join
/// agrees on the init vector.
const I0: u16 = 0; // ints: I0..I0+4
const S0: u16 = 4; // strings: S0, S0+1
const C0: u16 = 6; // loop counters: C0, C0+1

struct Gen<'a> {
    rng: &'a mut TestRng,
    /// Import indices: add7, cnt, obs, fail (in that order).
    imports: [u32; 4],
    /// Index of a same-module helper function to `Call`, if any.
    helper: Option<u32>,
    /// Index of a same-module helper without parameters, if any.
    nullary: Option<u32>,
    /// String-pool entries usable by `ConstStr`.
    strs: Vec<u32>,
}

impl Gen<'_> {
    fn pick(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    fn int_local(&mut self) -> u16 {
        I0 + self.pick(4) as u16
    }

    fn str_local(&mut self) -> u16 {
        S0 + self.pick(2) as u16
    }

    /// Emit code pushing one int.
    fn int_expr(&mut self, f: &mut FuncBuilder, depth: u32) {
        let choice = if depth == 0 {
            self.pick(2)
        } else {
            self.pick(13)
        };
        match choice {
            0 => {
                let k = self.pick(41) as i64 - 20;
                f.op(Op::ConstInt(k));
            }
            1 => {
                let l = self.int_local();
                f.op(Op::LocalGet(l));
            }
            2..=5 => {
                // Binary arithmetic — leaf+leaf shapes reproduce the
                // fusable LocalGet/LocalGet/Add and LocalGet/ConstInt/Add
                // pairs; Div and Mod can trap on zero.
                self.int_expr(f, depth - 1);
                self.int_expr(f, depth - 1);
                let op = match self.pick(5) {
                    0 => Op::Add,
                    1 => Op::Sub,
                    2 => Op::Mul,
                    3 => Op::Div,
                    _ => Op::Mod,
                };
                f.op(op);
            }
            6 => {
                self.int_expr(f, depth - 1);
                f.op(Op::Neg);
            }
            7 => {
                let s = self.str_local();
                f.op(Op::LocalGet(s)).op(Op::StrLen);
            }
            8 => {
                // Possibly-trapping byte access.
                let s = self.str_local();
                f.op(Op::LocalGet(s));
                self.int_expr(f, depth - 1);
                f.op(Op::StrByte);
            }
            9 => {
                // The length of an int's decimal rendering.
                self.int_expr(f, depth - 1);
                f.op(Op::StrFromInt).op(Op::StrLen);
            }
            10 => {
                // Tuple round trip.
                self.int_expr(f, depth - 1);
                self.int_expr(f, depth - 1);
                f.op(Op::TupleMake(2));
                f.op(Op::TupleGet(self.pick(2) as u8));
            }
            11 => {
                // Possibly-trapping unpack at a random offset.
                let s = self.str_local();
                f.op(Op::LocalGet(s));
                self.int_expr(f, depth - 1);
                f.op(Op::StrUnpackInt(2));
            }
            _ => {
                // `CallRef` without arguments, wherever on the stack the
                // expression stands — the topmost slot of the frame
                // included: a VM callee (its frame starts where the
                // function value stood) or a host one.
                let host = self.pick(2) == 0;
                match self.nullary {
                    Some(h) if !host => f.op(Op::FuncConst(h)),
                    _ => f.op(Op::ImportGet(self.imports[1])),
                };
                f.op(Op::CallRef(0));
            }
        }
    }

    /// Emit code pushing one bool.
    fn bool_expr(&mut self, f: &mut FuncBuilder, depth: u32) {
        match if depth == 0 { 0 } else { self.pick(4) } {
            0 => {
                self.int_expr(f, 1);
                self.int_expr(f, 1);
                let op = match self.pick(6) {
                    0 => Op::Lt,
                    1 => Op::Le,
                    2 => Op::Gt,
                    3 => Op::Ge,
                    4 => Op::Eq,
                    _ => Op::Ne,
                };
                f.op(op);
            }
            1 => {
                self.bool_expr(f, depth - 1);
                f.op(Op::Not);
            }
            2 => {
                self.bool_expr(f, depth - 1);
                self.bool_expr(f, depth - 1);
                f.op(if self.pick(2) == 0 { Op::And } else { Op::Or });
            }
            _ => {
                // A string local against a pool constant.
                let s = self.str_local();
                let i = self.pick(self.strs.len() as u64) as usize;
                f.op(Op::LocalGet(s)).op(Op::ConstStr(self.strs[i]));
                f.op(Op::Eq);
            }
        }
    }

    /// Emit code pushing one string.
    fn str_expr(&mut self, f: &mut FuncBuilder, depth: u32) {
        match if depth == 0 {
            self.pick(2)
        } else {
            self.pick(5)
        } {
            0 => {
                let i = self.pick(self.strs.len() as u64) as usize;
                let idx = self.strs[i];
                f.op(Op::ConstStr(idx));
            }
            1 => {
                let s = self.str_local();
                f.op(Op::LocalGet(s));
            }
            2 => {
                self.str_expr(f, depth - 1);
                self.str_expr(f, depth - 1);
                f.op(Op::StrConcat);
            }
            3 => {
                self.int_expr(f, 1);
                f.op(Op::StrPackInt([1u8, 2, 4, 6, 8][self.pick(5) as usize]));
            }
            _ => {
                self.int_expr(f, 1);
                f.op(Op::StrFromInt);
            }
        }
    }

    /// Emit one statement (net stack effect zero).
    fn stmt(&mut self, f: &mut FuncBuilder, depth: u32, loops: u16) {
        match self.pick(14) {
            0..=2 => {
                let l = self.int_local();
                self.int_expr(f, 2);
                f.op(Op::LocalSet(l));
            }
            3 => {
                let l = self.str_local();
                self.str_expr(f, 2);
                f.op(Op::LocalSet(l));
            }
            4 if depth > 0 => {
                // if/else with a fused-shape compare+branch.
                self.bool_expr(f, 1);
                let then_l = f.new_label();
                let join_l = f.new_label();
                f.br_if(then_l);
                self.block(f, depth - 1, loops);
                f.jump(join_l);
                f.place(then_l);
                self.block(f, depth - 1, loops);
                f.place(join_l);
            }
            5 if depth > 0 && loops < 2 => {
                // Bounded countdown loop.
                let c = C0 + loops;
                let n = 1 + self.pick(3) as i64;
                f.op(Op::ConstInt(n)).op(Op::LocalSet(c));
                let head = f.new_label();
                let exit = f.new_label();
                f.place(head);
                f.op(Op::LocalGet(c)).op(Op::ConstInt(0)).op(Op::Le);
                f.br_if(exit);
                self.block(f, depth - 1, loops + 1);
                f.op(Op::LocalGet(c))
                    .op(Op::ConstInt(1))
                    .op(Op::Sub)
                    .op(Op::LocalSet(c));
                f.jump(head);
                f.place(exit);
            }
            6 => {
                let l = self.str_local();
                self.str_expr(f, 1);
                f.op(Op::LocalSet(l));
            }
            7 => {
                // Host call: add7 / cnt / fail (fail traps on negatives).
                let l = self.int_local();
                match self.pick(3) {
                    0 => {
                        self.int_expr(f, 1);
                        f.op(Op::CallImport(self.imports[0]));
                    }
                    1 => {
                        f.op(Op::CallImport(self.imports[1]));
                    }
                    _ => {
                        self.int_expr(f, 1);
                        f.op(Op::CallImport(self.imports[3]));
                    }
                }
                f.op(Op::LocalSet(l));
            }
            8 => {
                // Observe a string host-side.
                self.str_expr(f, 1);
                f.op(Op::CallImport(self.imports[2]));
                f.op(Op::Pop);
            }
            9 => {
                if let Some(h) = self.helper {
                    let l = self.int_local();
                    self.int_expr(f, 1);
                    f.op(Op::Call(h));
                    f.op(Op::LocalSet(l));
                }
            }
            10 => {
                if let Some(h) = self.helper {
                    // CallRef through a function value.
                    let l = self.int_local();
                    f.op(Op::FuncConst(h));
                    self.int_expr(f, 1);
                    f.op(Op::CallRef(1));
                    f.op(Op::LocalSet(l));
                }
            }
            11 => {
                // CallRef through an imported host function value.
                let l = self.int_local();
                f.op(Op::ImportGet(self.imports[0]));
                self.int_expr(f, 1);
                f.op(Op::CallRef(1));
                f.op(Op::LocalSet(l));
            }
            12 => {
                // CallRef without arguments, host callee: the function
                // value is the whole window.
                let l = self.int_local();
                f.op(Op::ImportGet(self.imports[1])).op(Op::CallRef(0));
                f.op(Op::LocalSet(l));
            }
            _ => {
                if let Some(h) = self.nullary {
                    // The same with a VM callee, whose frame starts
                    // where the function value stood.
                    let l = self.int_local();
                    f.op(Op::FuncConst(h)).op(Op::CallRef(0));
                    f.op(Op::LocalSet(l));
                }
            }
        }
    }

    fn block(&mut self, f: &mut FuncBuilder, depth: u32, loops: u16) {
        let n = 1 + self.pick(3);
        for _ in 0..n {
            self.stmt(f, depth, loops);
        }
    }

    /// Standard prologue: initialize every local.
    fn prologue(&mut self, f: &mut FuncBuilder, n_params: u16) {
        for l in n_params..C0 + 2 {
            if l < S0 {
                let k = self.pick(9) as i64 - 4;
                f.op(Op::ConstInt(k)).op(Op::LocalSet(l));
            } else if l < C0 {
                let i = self.pick(self.strs.len() as u64) as usize;
                let idx = self.strs[i];
                f.op(Op::ConstStr(idx)).op(Op::LocalSet(l));
            } else {
                f.op(Op::ConstInt(0)).op(Op::LocalSet(l));
            }
        }
    }

    /// Standard epilogue: fold observable state into the result and the
    /// host log, then return an int.
    fn epilogue(&mut self, f: &mut FuncBuilder) {
        for l in 0..4u16 {
            f.op(Op::LocalGet(I0 + l));
            if l > 0 {
                f.op(Op::Add);
            }
        }
        for s in 0..2u16 {
            f.op(Op::LocalGet(S0 + s))
                .op(Op::CallImport(self.imports[2]))
                .op(Op::Add);
        }
        f.op(Op::Return);
    }
}

/// Declare the standard locals on a [`FuncBuilder`] whose params are all
/// ints (params occupy the first int slots).
fn declare_locals(f: &mut FuncBuilder, n_params: u16) {
    for l in n_params..C0 + 2 {
        if l < S0 {
            f.local(Ty::Int);
        } else if l < C0 {
            f.local(Ty::Str);
        } else {
            f.local(Ty::Int);
        }
    }
}

/// Build a random verified module pair: `m` (helper + entry) and, half the
/// time, `u` importing `m`'s export (exercising cross-instance calls).
/// Returns the namespace-ready images and the name/export to invoke.
pub(crate) fn gen_program(rng: &mut TestRng) -> (Vec<Vec<u8>>, &'static str) {
    let mut mb = ModuleBuilder::new("m");
    let imports = [
        mb.import("h", "add7", Ty::func(vec![Ty::Int], Ty::Int)),
        mb.import("h", "cnt", Ty::func(vec![], Ty::Int)),
        mb.import("h", "obs", Ty::func(vec![Ty::Str], Ty::Int)),
        mb.import("h", "fail", Ty::func(vec![Ty::Int], Ty::Int)),
    ];
    let strs = vec![
        mb.intern_str(b""),
        mb.intern_str(b"abc"),
        mb.intern_str(b"\x01\x02\x03\x04\x05\x06\x07\x08"),
    ];

    // Helper: one int parameter, no further calls.
    let helper = {
        let mut f = mb.func("hlp", vec![Ty::Int], Ty::Int);
        declare_locals(&mut f, 1);
        let mut g = Gen {
            rng,
            imports,
            helper: None,
            nullary: None,
            strs: strs.clone(),
        };
        g.prologue(&mut f, 1);
        g.block(&mut f, 1, 0);
        g.epilogue(&mut f);
        mb.finish(f)
    };

    // A second helper, without parameters: reached through `CallRef(0)`.
    let nullary = {
        let mut f = mb.func("nul", vec![], Ty::Int);
        declare_locals(&mut f, 0);
        let mut g = Gen {
            rng,
            imports,
            helper: None,
            nullary: None,
            strs: strs.clone(),
        };
        g.prologue(&mut f, 0);
        g.block(&mut f, 1, 0);
        g.epilogue(&mut f);
        mb.finish(f)
    };

    // Entry: two int parameters.
    {
        let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        declare_locals(&mut f, 2);
        let mut g = Gen {
            rng,
            imports,
            helper: Some(helper),
            nullary: Some(nullary),
            strs: strs.clone(),
        };
        g.prologue(&mut f, 2);
        g.block(&mut f, 2, 0);
        g.epilogue(&mut f);
        let idx = mb.finish(f);
        mb.export("go", idx);
        mb.export("hlp", helper);
    }
    let m = mb.build();
    crate::verify::verify_module(&m).expect("generated module must verify");
    let m_image = m.encode();

    if rng.below(2) == 0 {
        return (vec![m_image], "m");
    }

    // Wrapper module: calls into `m` through resolved cross-instance
    // imports.
    let mut ub = ModuleBuilder::new("u");
    let u_imports = [
        ub.import("h", "add7", Ty::func(vec![Ty::Int], Ty::Int)),
        ub.import("h", "cnt", Ty::func(vec![], Ty::Int)),
        ub.import("h", "obs", Ty::func(vec![Ty::Str], Ty::Int)),
        ub.import("h", "fail", Ty::func(vec![Ty::Int], Ty::Int)),
    ];
    let i_go = ub.import("m", "go", Ty::func(vec![Ty::Int, Ty::Int], Ty::Int));
    let i_hlp = ub.import("m", "hlp", Ty::func(vec![Ty::Int], Ty::Int));
    let u_strs = vec![ub.intern_str(b"u"), ub.intern_str(b"wrap")];
    {
        let mut f = ub.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        declare_locals(&mut f, 2);
        let mut g = Gen {
            rng,
            imports: u_imports,
            helper: None,
            nullary: None,
            strs: u_strs,
        };
        g.prologue(&mut f, 2);
        g.block(&mut f, 1, 0);
        // Cross-instance calls: m.go(i0, i1) and m.hlp(i2).
        f.op(Op::LocalGet(I0))
            .op(Op::LocalGet(I0 + 1))
            .op(Op::CallImport(i_go))
            .op(Op::LocalSet(I0));
        f.op(Op::LocalGet(I0 + 2))
            .op(Op::CallImport(i_hlp))
            .op(Op::LocalSet(I0 + 1));
        g.epilogue(&mut f);
        let idx = ub.finish(f);
        ub.export("go", idx);
    }
    let u = ub.build();
    crate::verify::verify_module(&u).expect("generated wrapper must verify");
    (vec![m_image, u.encode()], "u")
}

// ----------------------------------------------------------- the oracle

type Outcome = Result<(i64, ExecStats), VmError>;

/// Run `entry.go(a, b)` under one interpreter, returning the comparable
/// outcome plus the host's observable state.
fn run(
    images: &[Vec<u8>],
    entry: &str,
    args: (i64, i64),
    fuel: u64,
    reference: bool,
) -> (Outcome, i64, Vec<String>) {
    let mut ns = Namespace::new(test_env());
    for image in images {
        ns.load(image).expect("generated image must load");
    }
    let (fv, _) = ns.lookup_export(entry, "go").expect("entry exported");
    let cfg = ExecConfig {
        fuel,
        max_depth: 64,
    };
    let mut host = TestHost::new();
    let call_args = vec![Value::Int(args.0), Value::Int(args.1)];
    let outcome = if reference {
        ref_call(&ns, &mut host, fv, call_args, &cfg)
    } else {
        call(&ns, &mut host, fv, call_args, &cfg)
    };
    (
        outcome.map(|(v, stats)| (v.as_int(), stats)),
        host.counter,
        host.log,
    )
}

fn assert_equiv(images: &[Vec<u8>], entry: &str, args: (i64, i64), fuel: u64) -> Outcome {
    let (a, a_cnt, a_log) = run(images, entry, args, fuel, true);
    let (b, b_cnt, b_log) = run(images, entry, args, fuel, false);
    assert_eq!(a, b, "result/stats diverged at fuel {fuel}");
    assert_eq!(a_cnt, b_cnt, "host counter diverged at fuel {fuel}");
    assert_eq!(a_log, b_log, "host call log diverged at fuel {fuel}");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decoded_vm_matches_reference(seed in any::<u64>(), a in -50i64..50, b in -50i64..50) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (images, entry) = gen_program(&mut rng);

        // Full-budget run: identical value, stats, fuel and host trace.
        let full = assert_equiv(&images, entry, (a, b), 1_000_000);

        // Fuel sweep: exhaustion must land identically, including inside
        // sequences the decoded VM runs as superinstructions.
        if let Ok((_, stats)) = full {
            let n = stats.instructions;
            let probes = [0, 1, n / 3, n.saturating_sub(2), n.saturating_sub(1), n];
            for fuel in probes {
                let out = assert_equiv(&images, entry, (a, b), fuel);
                if fuel >= n {
                    prop_assert!(out.is_ok(), "full fuel must still succeed");
                } else {
                    prop_assert_eq!(
                        out.clone().err(),
                        Some(VmError::FuelExhausted),
                        "fuel {} of {} must exhaust", fuel, n
                    );
                }
            }
        } else {
            // Trap path: probe a few budgets anyway — both interpreters
            // must trap (or exhaust) identically.
            for fuel in [1, 7, 23, 101, 997] {
                let _ = assert_equiv(&images, entry, (a, b), fuel);
            }
        }
    }
}

// ------------------------------------------- every budget, and the profile

/// A program loaded once, for sweeps that run it hundreds of times.
struct Program {
    ns: Namespace,
    entry: FuncVal,
}

/// What one run left behind: outcome, host counter, host call log.
type Observed = (Outcome, i64, Vec<String>);

/// One line of a hot profile.
type HotLine = (crate::value::InstanceId, u32, FuncHotCounters);

impl Program {
    fn load(images: &[Vec<u8>], entry: &str) -> Program {
        let mut ns = Namespace::new(test_env());
        for image in images {
            ns.load(image).expect("generated image must load");
        }
        let (entry, _) = ns.lookup_export(entry, "go").expect("entry exported");
        Program { ns, entry }
    }

    fn cfg(fuel: u64) -> ExecConfig {
        ExecConfig {
            fuel,
            max_depth: 64,
        }
    }

    fn reference(&self, args: (i64, i64), fuel: u64) -> Observed {
        let mut host = TestHost::new();
        let call_args = vec![Value::Int(args.0), Value::Int(args.1)];
        let out = ref_call(&self.ns, &mut host, self.entry, call_args, &Self::cfg(fuel));
        (
            out.map(|(v, stats)| (v.as_int(), stats)),
            host.counter,
            host.log,
        )
    }

    /// Run under the VM with the hot profile on; besides what was
    /// observed, every function's counters in `(instance, func)` order.
    fn profiled(&self, args: (i64, i64), fuel: u64) -> (Observed, Vec<HotLine>) {
        let mut host = TestHost::new();
        let mut scratch = VmScratch::new();
        scratch.enable_profile();
        let out = call_scratch(
            &self.ns,
            &mut host,
            self.entry,
            [Value::Int(args.0), Value::Int(args.1)],
            &Self::cfg(fuel),
            &mut scratch,
        );
        let observed = (
            out.map(|(v, stats)| (v.as_int(), stats)),
            host.counter,
            host.log,
        );
        (
            observed,
            scratch.profile().expect("enabled").iter().collect(),
        )
    }

    /// Source ops the *reference* interpreter retires before it gives up
    /// on a run that traps. It reports no count on an error, but the
    /// budget tells: with less fuel than that the run ends in
    /// `FuelExhausted` before it reaches the trap, with that much or more
    /// it traps (the failing op is charged, then executed).
    fn reference_retired_at_trap(&self, args: (i64, i64)) -> u64 {
        let (mut lo, mut hi) = (0u64, 1_000_000u64);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.reference(args, mid).0 {
                Err(VmError::FuelExhausted) => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
    }

    /// One budget: both interpreters agree on everything observable, and
    /// the profile charges the entry function (entered once, inclusive of
    /// everything) exactly `retired` source ops.
    fn check(&self, args: (i64, i64), fuel: u64, retired: u64) -> Result<(), String> {
        let expected = self.reference(args, fuel);
        let (got, profile) = self.profiled(args, fuel);
        let FuncVal::Vm { instance, func } = self.entry else {
            unreachable!("exports are VM functions")
        };
        let entry = profile
            .iter()
            .find(|&&(i, f, _)| (i, f) == (instance, func))
            .map(|&(_, _, counters)| counters)
            .expect("the entry function was entered");
        if got != expected {
            return Err(format!("fuel {fuel}: vm {got:?}, reference {expected:?}"));
        }
        let want = FuncHotCounters {
            calls: 1,
            fuel: retired,
        };
        if entry != want {
            return Err(format!(
                "fuel {fuel}: profile {entry:?}, retired {want:?} ({:?})",
                expected.0
            ));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every budget, not a sample of them: fuel runs out at each source
    /// op of each block the program executes, and on each of those runs —
    /// and on the run that traps, if it does — the profile's inclusive
    /// fuel is the count the reference interpreter retired.
    #[test]
    fn every_budget_retires_what_the_reference_retires(
        seed in any::<u64>(),
        a in -50i64..50,
        b in -50i64..50,
    ) {
        let mut rng = TestRng::seed_from_u64(seed);
        let (images, entry) = gen_program(&mut rng);
        let program = Program::load(&images, entry);
        match program.reference((a, b), 1_000_000).0 {
            Ok((_, stats)) => {
                let n = stats.instructions;
                // All of a short run; of a long one both ends whole and
                // the middle in strides coprime to any block length.
                let budgets = (0..=n).filter(|f| n <= 600 || *f < 250 || *f + 250 > n || f % 7 == 0);
                for fuel in budgets {
                    let checked = program.check((a, b), fuel, fuel.min(n));
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
            }
            Err(VmError::FuelExhausted) => unreachable!("a million covers every generated program"),
            Err(_) => {
                let r = program.reference_retired_at_trap((a, b));
                for fuel in r.saturating_sub(120)..=r + 2 {
                    let checked = program.check((a, b), fuel, fuel.min(r));
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
                let checked = program.check((a, b), 1_000_000, r);
                prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
        }
    }
}

// ------------------------------------------------------ stack shuffles

/// The types a shuffle moves about.
#[derive(Copy, Clone, PartialEq, Debug)]
enum T {
    Unit,
    Int,
    Str,
    Bool,
    /// `(int, int)`.
    Pair,
    /// `() -> int`.
    Thunk,
    /// `(int) -> int`.
    Map,
}

impl T {
    fn ty(self) -> Ty {
        match self {
            T::Unit => Ty::Unit,
            T::Int => Ty::Int,
            T::Str => Ty::Str,
            T::Bool => Ty::Bool,
            T::Pair => Ty::Tuple(vec![Ty::Int, Ty::Int]),
            T::Thunk => Ty::func(vec![], Ty::Int),
            T::Map => Ty::func(vec![Ty::Int], Ty::Int),
        }
    }

    /// Does `Eq` take it?
    fn comparable(self) -> bool {
        matches!(self, T::Unit | T::Int | T::Str | T::Bool)
    }
}

/// Locals of the shuffle function `go(int, int) -> int`, by type.
const SHUFFLE_LOCALS: [T; 9] = [
    T::Int,
    T::Int,
    T::Int,
    T::Int,
    T::Str,
    T::Str,
    T::Bool,
    T::Pair,
    T::Thunk,
];

/// A random straight-line body out of the ops the translator does not
/// emit one for one — `LocalGet` (deferred), `LocalSet` (redirected, or a
/// forced read), `Dup`, `Pop`, constants and compares (fused) — in any
/// well-typed order, with calls of every kind (argument windows, frames
/// that start in the caller's) and branches to the next instruction
/// (block boundaries: everything deferred is carried out) in between.
/// Nothing in it can trap. Whatever is left on the stack, and every
/// local, is folded into the result or shown to the host.
fn gen_shuffle(rng: &mut TestRng) -> Vec<u8> {
    let mut mb = ModuleBuilder::new("m");
    let add7 = mb.import("h", "add7", Ty::func(vec![Ty::Int], Ty::Int));
    let cnt = mb.import("h", "cnt", Ty::func(vec![], Ty::Int));
    let obs = mb.import("h", "obs", Ty::func(vec![Ty::Str], Ty::Int));
    let strs = [mb.intern_str(b"ab"), mb.intern_str(b"xyz")];
    // nine() = 9; twice(x) = x + x; second(x, y) = y
    let mut f = mb.func("nine", vec![], Ty::Int);
    f.op(Op::ConstInt(9)).op(Op::Return);
    let nine = mb.finish(f);
    let mut f = mb.func("twice", vec![Ty::Int], Ty::Int);
    f.op(Op::LocalGet(0)).op(Op::Dup).op(Op::Add).op(Op::Return);
    let twice = mb.finish(f);
    let mut f = mb.func("second", vec![Ty::Int, Ty::Int], Ty::Int);
    f.op(Op::LocalGet(1)).op(Op::Return);
    let second = mb.finish(f);

    let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
    for t in &SHUFFLE_LOCALS[2..] {
        f.local(t.ty());
    }
    f.op(Op::ConstInt(3)).op(Op::LocalSet(2));
    f.op(Op::ConstInt(-5)).op(Op::LocalSet(3));
    f.op(Op::ConstStr(strs[0])).op(Op::LocalSet(4));
    f.op(Op::ConstStr(strs[1])).op(Op::LocalSet(5));
    f.op(Op::ConstBool(false)).op(Op::LocalSet(6));
    f.op(Op::ConstInt(1))
        .op(Op::ConstInt(2))
        .op(Op::TupleMake(2));
    f.op(Op::LocalSet(7));
    f.op(Op::FuncConst(nine)).op(Op::LocalSet(8));

    let mut stack: Vec<T> = Vec::new();
    let steps = 8 + rng.below(48);
    let mut emitted = 0;
    while emitted < steps {
        let top = stack.last().copied();
        let under = stack.len().checked_sub(2).map(|i| stack[i]);
        let two_ints = top == Some(T::Int) && under == Some(T::Int);
        let room = stack.len() < 6;
        let local = rng.below(SHUFFLE_LOCALS.len() as u64) as u16;
        let local_ty = SHUFFLE_LOCALS[local as usize];
        let coin = rng.below(2) == 0;
        // (may it come here, what it pops, what it pushes, the op)
        let (ok, pops, push, op) = match rng.below(30) {
            0..=4 => (room, 0, Some(local_ty), Op::LocalGet(local)),
            5..=8 => (top == Some(local_ty), 1, None, Op::LocalSet(local)),
            9 | 10 => (room && top.is_some(), 0, top, Op::Dup),
            11 => (top.is_some(), 1, None, Op::Pop),
            12 => (room, 0, Some(T::Int), Op::ConstInt(rng.below(9) as i64 - 4)),
            13 => (room, 0, Some(T::Str), Op::ConstStr(strs[coin as usize])),
            14 if coin => (room, 0, Some(T::Unit), Op::ConstUnit),
            14 => (room, 0, Some(T::Bool), Op::ConstBool(rng.below(2) == 0)),
            15 => {
                let op = [Op::Add, Op::Sub, Op::Mul][rng.below(3) as usize].clone();
                (two_ints, 2, Some(T::Int), op)
            }
            16 => {
                let op = [Op::Lt, Op::Le, Op::Gt, Op::Ge][rng.below(4) as usize].clone();
                (two_ints, 2, Some(T::Bool), op)
            }
            17 | 18 => {
                let comparable = top.is_some_and(T::comparable) && top == under;
                let op = if coin { Op::Eq } else { Op::Ne };
                (comparable, 2, Some(T::Bool), op)
            }
            19 if coin => (top == Some(T::Bool), 1, Some(T::Bool), Op::Not),
            19 => (top == Some(T::Int), 1, Some(T::Int), Op::Neg),
            20 if coin => (top == Some(T::Str), 1, Some(T::Int), Op::StrLen),
            20 => {
                let both_str = top == Some(T::Str) && under == Some(T::Str);
                (both_str, 2, Some(T::Str), Op::StrConcat)
            }
            21 if coin => (two_ints, 2, Some(T::Pair), Op::TupleMake(2)),
            21 => {
                let op = Op::TupleGet(rng.below(2) as u8);
                (top == Some(T::Pair), 1, Some(T::Int), op)
            }
            // Calls by index: a host function, a VM function.
            22 if coin => (top == Some(T::Int), 1, Some(T::Int), Op::CallImport(add7)),
            22 => (top == Some(T::Str), 1, Some(T::Int), Op::CallImport(obs)),
            23 if coin => (room, 0, Some(T::Int), Op::CallImport(cnt)),
            23 => (room, 0, Some(T::Int), Op::Call(nine)),
            24 if coin => (top == Some(T::Int), 1, Some(T::Int), Op::Call(twice)),
            24 => (two_ints, 2, Some(T::Int), Op::Call(second)),
            // Function values, host and VM, and calls through them.
            25 if coin => (room, 0, Some(T::Thunk), Op::FuncConst(nine)),
            25 => (room, 0, Some(T::Thunk), Op::ImportGet(cnt)),
            26 if coin => (room, 0, Some(T::Map), Op::FuncConst(twice)),
            26 => (room, 0, Some(T::Map), Op::ImportGet(add7)),
            27 => (top == Some(T::Thunk), 1, Some(T::Int), Op::CallRef(0)),
            28 => {
                let applies = top == Some(T::Int) && under == Some(T::Map);
                (applies, 2, Some(T::Int), Op::CallRef(1))
            }
            _ => {
                // A branch to the next instruction, either kind.
                let next = f.new_label();
                if top == Some(T::Bool) {
                    stack.pop();
                    f.br_if(next);
                } else {
                    f.jump(next);
                }
                f.place(next);
                emitted += 1;
                continue;
            }
        };
        if ok {
            stack.truncate(stack.len() - pops);
            stack.extend(push);
            f.op(op);
            emitted += 1;
        }
    }
    // Fold what is left into local 2 (a bool goes to local 6).
    while let Some(top) = stack.pop() {
        match top {
            T::Int => {}
            T::Str => drop(f.op(Op::CallImport(obs))),
            T::Pair => drop(f.op(Op::TupleGet(0))),
            T::Thunk => drop(f.op(Op::CallRef(0))),
            T::Map => drop(f.op(Op::ConstInt(1)).op(Op::CallRef(1))),
            T::Unit => {
                f.op(Op::Pop);
                continue;
            }
            T::Bool => {
                f.op(Op::LocalSet(6));
                continue;
            }
        }
        f.op(Op::LocalGet(2)).op(Op::Add).op(Op::LocalSet(2));
    }
    let unset = f.new_label();
    f.op(Op::LocalGet(6));
    f.br_if_not(unset);
    f.op(Op::LocalGet(2)).op(Op::ConstInt(1000)).op(Op::Add);
    f.op(Op::LocalSet(2));
    f.place(unset);
    f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Add);
    f.op(Op::LocalGet(2))
        .op(Op::Add)
        .op(Op::LocalGet(3))
        .op(Op::Add);
    f.op(Op::LocalGet(7)).op(Op::TupleGet(1)).op(Op::Add);
    f.op(Op::LocalGet(8)).op(Op::CallRef(0)).op(Op::Add);
    for s in [4, 5] {
        f.op(Op::LocalGet(s)).op(Op::CallImport(obs)).op(Op::Add);
    }
    f.op(Op::Return);
    let go = mb.finish(f);
    mb.export("go", go);
    mb.build().encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever order values are moved in between locals and the stack,
    /// the translated function does what the source ops do — at every
    /// budget — and names no slot as both ends of a copy.
    #[test]
    fn stack_shuffles_match_reference(seed in any::<u64>(), a in -9i64..9, b in -9i64..9) {
        let mut rng = TestRng::seed_from_u64(seed);
        let program = Program::load(&[gen_shuffle(&mut rng)], "m");
        let FuncVal::Vm { instance, func } = program.entry else {
            unreachable!("exports are VM functions")
        };
        for inst in &program.ns.instance(instance).decoded[func as usize].insts {
            use crate::decode::Inst;
            if let Inst::Copy { dst, src } | Inst::CopyInt { dst, src } = inst {
                prop_assert_ne!(dst, src, "{:?}", inst);
            }
        }
        let (out, ..) = program.reference((a, b), 1_000_000);
        let n = out.expect("a shuffle cannot trap").1.instructions;
        for fuel in 0..=n {
            let checked = program.check((a, b), fuel, fuel);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

// ------------------------------------------------------- string views

/// `len`, `byte`, `slice` and `cat`, each `(s: str, i: int, n: int) -> int`
/// and each folding what its string instruction produced into the result.
fn string_ops_image() -> Vec<u8> {
    let mut mb = ModuleBuilder::new("strs");
    let bar = mb.intern_str(b"|");
    let params = || vec![Ty::Str, Ty::Int, Ty::Int];

    let mut f = mb.func("len", params(), Ty::Int);
    f.op(Op::LocalGet(0)).op(Op::StrLen).op(Op::Return);
    let idx = mb.finish(f);
    mb.export("len", idx);

    let mut f = mb.func("byte", params(), Ty::Int);
    f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::StrByte);
    f.op(Op::Return);
    let idx = mb.finish(f);
    mb.export("byte", idx);

    // t = s[i..i + n] ++ "|"; result = len(t) * 256 + t[0]
    let mut f = mb.func("slice", params(), Ty::Int);
    let t = f.local(Ty::Str);
    f.op(Op::LocalGet(0))
        .op(Op::LocalGet(1))
        .op(Op::LocalGet(2));
    f.op(Op::StrSlice).op(Op::ConstStr(bar)).op(Op::StrConcat);
    f.op(Op::LocalSet(t));
    f.op(Op::LocalGet(t)).op(Op::StrLen);
    f.op(Op::ConstInt(256)).op(Op::Mul);
    f.op(Op::LocalGet(t)).op(Op::ConstInt(0)).op(Op::StrByte);
    f.op(Op::Add).op(Op::Return);
    let idx = mb.finish(f);
    mb.export("slice", idx);

    // u = s ++ s; result = len(u) * 256 + u[i]
    let mut f = mb.func("cat", params(), Ty::Int);
    let u = f.local(Ty::Str);
    f.op(Op::LocalGet(0)).op(Op::LocalGet(0)).op(Op::StrConcat);
    f.op(Op::LocalSet(u));
    f.op(Op::LocalGet(u)).op(Op::StrLen);
    f.op(Op::ConstInt(256)).op(Op::Mul);
    f.op(Op::LocalGet(u)).op(Op::LocalGet(1)).op(Op::StrByte);
    f.op(Op::Add).op(Op::Return);
    let idx = mb.finish(f);
    mb.export("cat", idx);

    mb.build().encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A string that is a sub-range view of a larger shared buffer (what a
    /// received frame, or a slice of one, is) behaves exactly like an owned
    /// copy of those bytes: both interpreters agree on `StrLen`,
    /// `StrByte`, `StrSlice` and `StrConcat`, and an out-of-bounds trap
    /// reports the view's bounds, never the buffer's.
    #[test]
    fn string_ops_agree_on_views_of_a_shared_buffer(
        off in 0usize..200,
        len in 0usize..100,
        i in -3i64..104,
        n in -3i64..104,
    ) {
        let mut ns = Namespace::new(test_env());
        ns.load(&string_ops_image()).expect("the image loads");
        let buffer = framebuf::FrameBuf::from((0..300).map(|b| (b * 7) as u8).collect::<Vec<u8>>());
        let view = buffer.slice(off..off + len);
        let owned = Value::str(view.to_vec());
        let cfg = ExecConfig::default();
        for export in ["len", "byte", "slice", "cat"] {
            let (fv, _) = ns.lookup_export("strs", export).expect("exported");
            let run = |s: &Value, reference: bool| {
                let args = vec![s.clone(), Value::Int(i), Value::Int(n)];
                let out = match reference {
                    true => ref_call(&ns, &mut TestHost::new(), fv, args, &cfg),
                    false => call(&ns, &mut TestHost::new(), fv, args, &cfg),
                };
                out.map(|(v, stats)| (v.as_int(), stats))
            };
            let expected = run(&owned, true);
            prop_assert_eq!(&run(&Value::Str(view.clone()), true), &expected, "{}: reference, view", export);
            prop_assert_eq!(&run(&Value::Str(view.clone()), false), &expected, "{}: vm, view", export);
            prop_assert_eq!(&run(&owned, false), &expected, "{}: vm, owned", export);
            if let Err(VmError::StrBounds { len: reported, .. }) = expected {
                prop_assert!(reported <= 2 * len + 1, "{}: bounds of the view", export);
            }
        }
        // Nothing above wrote through the view.
        prop_assert!(buffer.iter().enumerate().all(|(b, &x)| x == (b * 7) as u8));
    }
}

#[cfg(test)]
mod fixed {
    use super::*;

    /// Fuel exhaustion in the middle of a fused `LocalGet;LocalGet;Add`:
    /// the decoded VM must report exactly the instructions the reference
    /// interpreter retires.
    #[test]
    fn exhaustion_mid_superinstruction() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        f.op(Op::LocalGet(0))
            .op(Op::LocalGet(1))
            .op(Op::Add)
            .op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        let image = mb.build().encode();

        for fuel in 0..=5u64 {
            let out_ref = run(std::slice::from_ref(&image), "m", (2, 3), fuel, true);
            let out_new = run(std::slice::from_ref(&image), "m", (2, 3), fuel, false);
            assert_eq!(out_ref.0, out_new.0, "fuel {fuel}");
            if fuel >= 4 {
                let (v, stats) = out_new.0.unwrap();
                assert_eq!(v, 5);
                assert_eq!(stats.instructions, 4, "3 fused ops + return");
            } else {
                assert_eq!(out_new.0.unwrap_err(), VmError::FuelExhausted);
            }
        }
    }

    /// The dumb-bridge image (the real shipped switchlet) decodes and
    /// produces identical stats under both interpreters when its host
    /// calls are observable.
    #[test]
    fn loop_with_compare_branch_matches() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        let acc = f.local(Ty::Int);
        let i = f.local(Ty::Int);
        f.op(Op::ConstInt(0)).op(Op::LocalSet(acc));
        f.op(Op::ConstInt(0)).op(Op::LocalSet(i));
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.op(Op::LocalGet(i)).op(Op::LocalGet(0)).op(Op::Ge);
        f.br_if(exit);
        f.op(Op::LocalGet(acc)).op(Op::LocalGet(i)).op(Op::Add);
        f.op(Op::LocalSet(acc));
        f.op(Op::LocalGet(i)).op(Op::ConstInt(1)).op(Op::Add);
        f.op(Op::LocalSet(i));
        f.jump(head);
        f.place(exit);
        f.op(Op::LocalGet(acc)).op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        let image = mb.build().encode();

        for n in [0i64, 1, 5, 17] {
            let r = run(std::slice::from_ref(&image), "m", (n, 0), 1_000_000, true);
            let d = run(std::slice::from_ref(&image), "m", (n, 0), 1_000_000, false);
            assert_eq!(r.0, d.0);
            let (v, _) = d.0.unwrap();
            assert_eq!(v, n * (n - 1) / 2);
        }
    }

    // ----------------------------------------- the typed, framed form

    /// Build `m` with `build` adding functions (the last one exported as
    /// `go(int, int) -> int`) and load it.
    fn program(build: impl FnOnce(&mut ModuleBuilder, [u32; 4]) -> u32) -> Program {
        let mut mb = ModuleBuilder::new("m");
        let imports = [
            mb.import("h", "add7", Ty::func(vec![Ty::Int], Ty::Int)),
            mb.import("h", "cnt", Ty::func(vec![], Ty::Int)),
            mb.import("h", "obs", Ty::func(vec![Ty::Str], Ty::Int)),
            mb.import("h", "fail", Ty::func(vec![Ty::Int], Ty::Int)),
        ];
        let go = build(&mut mb, imports);
        mb.export("go", go);
        Program::load(&[mb.build().encode()], "m")
    }

    /// The hot counters, by function index, of the program's one module
    /// after one profiled run.
    fn profile_of(p: &Program, args: (i64, i64), fuel: u64) -> Vec<(u32, FuncHotCounters)> {
        let (_, profile) = p.profiled(args, fuel);
        profile.into_iter().map(|(_, f, c)| (f, c)).collect()
    }

    fn counters(calls: u64, fuel: u64) -> FuncHotCounters {
        FuncHotCounters { calls, fuel }
    }

    /// A trap inside a callee, in the middle of the callee's block and
    /// with the caller's block charged ahead: every function on the stack
    /// is charged exactly what it retired, the failing op included.
    #[test]
    fn profile_counts_a_trap_in_a_callee_mid_block() {
        // inner(x, y) = (x + 1) / y * 2      — traps at pc 4 of 7 when y = 0
        // go(a, b)    = inner(a, b) + a + b  — 4 ops behind the call
        let p = program(|mb, _| {
            let mut f = mb.func("inner", vec![Ty::Int, Ty::Int], Ty::Int);
            f.op(Op::LocalGet(0)).op(Op::ConstInt(1)).op(Op::Add);
            f.op(Op::LocalGet(1)).op(Op::Div);
            f.op(Op::ConstInt(2)).op(Op::Mul).op(Op::Return);
            let inner = mb.finish(f);
            let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
            f.op(Op::LocalGet(0))
                .op(Op::LocalGet(1))
                .op(Op::Call(inner));
            f.op(Op::LocalGet(0)).op(Op::Add);
            f.op(Op::LocalGet(1)).op(Op::Add).op(Op::Return);
            mb.finish(f)
        });
        // No trap: 8 ops in `inner`, 8 of its own in `go`.
        assert_eq!(p.reference((5, 2), 100).0, Ok((6 + 5 + 2, stats(16, 0))));
        assert_eq!(
            profile_of(&p, (5, 2), 100),
            vec![(0, counters(1, 8)), (1, counters(1, 16))]
        );
        // Trap: `go` retired 3 (through the call), `inner` 5 (through Div).
        assert_eq!(p.reference((5, 0), 100).0, Err(VmError::DivideByZero));
        assert_eq!(p.reference_retired_at_trap((5, 0)), 8);
        assert_eq!(
            profile_of(&p, (5, 0), 100),
            vec![(0, counters(1, 5)), (1, counters(1, 8))]
        );
        // And every budget on the way there.
        for fuel in 0..=10 {
            p.check((5, 0), fuel, fuel.min(8)).unwrap();
            p.check((5, 2), fuel, fuel).unwrap();
            let inner_retired = fuel.saturating_sub(3).min(5);
            let mut want = vec![(1, counters(1, fuel.min(8)))];
            if fuel >= 3 {
                want.insert(0, (0, counters(1, inner_retired)));
            }
            assert_eq!(profile_of(&p, (5, 0), fuel), want, "fuel {fuel}");
        }
    }

    /// The other two traps — a string bound and a host error — each in
    /// the middle of a block that has a host call (its effect must be
    /// there, once) ahead of the trap and ops behind it.
    #[test]
    fn profile_counts_string_and_host_traps_mid_block() {
        let p = program(|mb, imports| {
            let abc = mb.intern_str(b"abc");
            // go(a, b) = obs("abc") + "abc"[a] + fail(b) + 1
            let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
            f.op(Op::ConstStr(abc)).op(Op::CallImport(imports[2])); // 0 1
            f.op(Op::ConstStr(abc)).op(Op::LocalGet(0)).op(Op::StrByte); // 2 3 4
            f.op(Op::Add); // 5
            f.op(Op::LocalGet(1)).op(Op::CallImport(imports[3])); // 6 7
            f.op(Op::Add).op(Op::ConstInt(1)).op(Op::Add).op(Op::Return); // 8..11
            mb.finish(f)
        });
        let ok = (3 + b'b' as i64 + 4 + 1, stats(12, 2));
        assert_eq!(p.reference((1, 4), 100).0, Ok(ok));
        p.check((1, 4), 100, 12).unwrap();

        // StrBounds at pc 4: five ops retired, `obs` called, `fail` not.
        let bounds = VmError::StrBounds { len: 3, index: 3 };
        assert_eq!(p.reference((3, 4), 100).0, Err(bounds));
        assert_eq!(p.reference((3, 4), 100).2, vec!["obs(abc)"]);
        assert_eq!(p.reference_retired_at_trap((3, 4)), 5);
        // Host error at pc 7: eight retired, both host calls made.
        assert_eq!(
            p.reference((1, -4), 100).0,
            Err(VmError::Host("negative".into()))
        );
        assert_eq!(p.reference((1, -4), 100).2, vec!["obs(abc)", "fail(-4)"]);
        assert_eq!(p.reference_retired_at_trap((1, -4)), 8);
        for fuel in 0..=13 {
            p.check((3, 4), fuel, fuel.min(5)).unwrap();
            p.check((1, -4), fuel, fuel.min(8)).unwrap();
            p.check((1, 4), fuel, fuel.min(12)).unwrap();
        }
    }

    fn stats(instructions: u64, host_calls: u64) -> ExecStats {
        ExecStats {
            instructions,
            host_calls,
        }
    }

    /// `Eq`/`Ne` are selected by operand type at load time: each
    /// comparable type, as a value and folded into a branch, with fuel
    /// running out at every op.
    #[test]
    fn equality_on_every_comparable_type_matches() {
        let p = program(|mb, _| {
            let strs = [
                mb.intern_str(b"\x02\x00\x00\x00\x00\x01"),
                mb.intern_str(b"\x02\x00\x00\x00\x00\x02"),
                mb.intern_str(b"\x02\x00\x00\x00\x00\x01\xAA\xBB"),
            ];
            // go(a, b): compare slices/constants picked by a and b in every
            // way; the result packs one bit per comparison.
            let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
            let s = f.local(Ty::Str);
            let t = f.local(Ty::Str);
            let acc = f.local(Ty::Int);
            let flag = f.local(Ty::Bool);
            f.op(Op::ConstInt(0)).op(Op::LocalSet(acc));
            // s = strs[2][0..6] (a view); t = strs[b & 1]
            f.op(Op::ConstStr(strs[2]))
                .op(Op::ConstInt(0))
                .op(Op::ConstInt(6));
            f.op(Op::StrSlice).op(Op::LocalSet(s));
            let odd = f.new_label();
            let picked = f.new_label();
            f.op(Op::LocalGet(1)).op(Op::ConstInt(2)).op(Op::Mod);
            f.op(Op::ConstInt(0)).op(Op::Ne);
            f.br_if(odd);
            f.op(Op::ConstStr(strs[0])).op(Op::LocalSet(t));
            f.jump(picked);
            f.place(odd);
            f.op(Op::ConstStr(strs[1])).op(Op::LocalSet(t));
            f.place(picked);
            let bit = |f: &mut FuncBuilder, k: i64| {
                // acc += k if the bool on the stack is true
                let skip = f.new_label();
                f.br_if_not(skip);
                f.op(Op::LocalGet(acc)).op(Op::ConstInt(k)).op(Op::Add);
                f.op(Op::LocalSet(acc));
                f.place(skip);
            };
            // str: fused Eq, fused Ne, Eq as a value
            f.op(Op::LocalGet(s)).op(Op::LocalGet(t)).op(Op::Eq);
            bit(&mut f, 1);
            f.op(Op::LocalGet(s)).op(Op::LocalGet(t)).op(Op::Ne);
            bit(&mut f, 2);
            f.op(Op::LocalGet(s)).op(Op::ConstStr(strs[2])).op(Op::Eq);
            f.op(Op::LocalSet(flag));
            f.op(Op::LocalGet(flag));
            bit(&mut f, 4);
            // bool: (a < b) == (b & 1 != 0) as a value, Ne fused
            f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Lt);
            f.op(Op::LocalGet(s)).op(Op::LocalGet(t)).op(Op::Ne);
            f.op(Op::Eq);
            bit(&mut f, 8);
            f.op(Op::LocalGet(flag)).op(Op::ConstBool(false)).op(Op::Ne);
            bit(&mut f, 16);
            // unit
            f.op(Op::ConstUnit).op(Op::ConstUnit).op(Op::Eq);
            bit(&mut f, 32);
            f.op(Op::ConstUnit).op(Op::ConstUnit).op(Op::Ne);
            bit(&mut f, 64);
            // int, both ways
            f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Eq);
            bit(&mut f, 128);
            f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Ne);
            f.op(Op::LocalSet(flag));
            f.op(Op::LocalGet(flag));
            bit(&mut f, 256);
            f.op(Op::LocalGet(acc)).op(Op::Return);
            mb.finish(f)
        });
        let expect = |a: i64, b: i64| {
            let same = b % 2 == 0; // s == t
            let mut acc = 0;
            acc += if same { 1 } else { 2 };
            // s (6 bytes) never equals the 8-byte constant: flag = false
            acc += if (a < b) != same { 8 } else { 0 };
            acc += 32;
            acc += if a == b { 128 } else { 256 };
            acc
        };
        for (a, b) in [(0, 0), (1, 2), (2, 1), (3, 3), (-1, 5)] {
            let (out, ..) = p.reference((a, b), 10_000);
            let (value, stats) = out.expect("runs");
            assert_eq!(value, expect(a, b), "go({a}, {b})");
            for fuel in 0..=stats.instructions {
                p.check((a, b), fuel, fuel).unwrap();
            }
        }
    }

    /// Frames overlap their caller's argument slots and nest: recursion
    /// through `Call` and through `CallRef`, a result used behind the
    /// call, a deferred local read across it, and the depth limit.
    #[test]
    fn recursion_in_overlapping_frames_matches() {
        let p = program(|mb, imports| {
            // fib(n, via_ref) = n < 2 ? n : fib(n-1) + fib(n-2), the second
            // call through a function value when via_ref != 0.
            let fib = mb.next_func_index();
            let mut f = mb.func("fib", vec![Ty::Int, Ty::Int], Ty::Int);
            let rec = f.new_label();
            let by_ref = f.new_label();
            f.op(Op::LocalGet(0)).op(Op::ConstInt(2)).op(Op::Ge);
            f.br_if(rec);
            f.op(Op::LocalGet(0)).op(Op::Return);
            f.place(rec);
            // n (deferred across the call) + fib(n-1)
            f.op(Op::LocalGet(0));
            f.op(Op::LocalGet(0)).op(Op::ConstInt(1)).op(Op::Sub);
            f.op(Op::LocalGet(1)).op(Op::Call(fib));
            f.op(Op::Add);
            f.op(Op::LocalGet(1)).op(Op::ConstInt(0)).op(Op::Ne);
            f.br_if(by_ref);
            f.op(Op::LocalGet(0)).op(Op::ConstInt(2)).op(Op::Sub);
            f.op(Op::LocalGet(1)).op(Op::Call(fib));
            f.op(Op::Add).op(Op::LocalGet(0)).op(Op::Sub).op(Op::Return);
            f.place(by_ref);
            f.op(Op::FuncConst(fib));
            f.op(Op::LocalGet(0)).op(Op::ConstInt(2)).op(Op::Sub);
            f.op(Op::LocalGet(1)).op(Op::CallRef(2));
            f.op(Op::Add).op(Op::LocalGet(0)).op(Op::Sub);
            // a host call with the frames stacked
            f.op(Op::CallImport(imports[0]))
                .op(Op::ConstInt(7))
                .op(Op::Sub);
            f.op(Op::Return);
            assert_eq!(mb.finish(f), fib);
            // go = fib, entered once.
            let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
            f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Call(fib));
            f.op(Op::Return);
            mb.finish(f)
        });
        for via_ref in [0, 1] {
            for (n, want) in [(0, 0), (1, 1), (2, 1), (7, 13), (12, 144)] {
                let (out, ..) = p.reference((n, via_ref), 1_000_000);
                let (value, stats) = out.expect("runs");
                assert_eq!(value, want, "fib({n})");
                p.check((n, via_ref), 1_000_000, stats.instructions)
                    .unwrap();
            }
            // Every budget of a run six frames deep.
            let (out, ..) = p.reference((6, via_ref), 1_000_000);
            let n = out.expect("runs").1.instructions;
            for fuel in 0..=n {
                p.check((6, via_ref), fuel, fuel).unwrap();
            }
            // 70 frames do not fit in 64.
            assert_eq!(
                p.reference((70, via_ref), 1_000_000).0,
                Err(VmError::CallDepthExceeded)
            );
            let r = p.reference_retired_at_trap((70, via_ref));
            p.check((70, via_ref), 1_000_000, r).unwrap();
        }
    }

    /// `CallRef(0)` with the function value in the last slot of the
    /// caller's frame: a VM callee's frame starts at that slot, so its
    /// result comes back inside the caller's window (one slot up, it
    /// would not). Host callee, VM callee, a callee in another instance;
    /// alone on the stack and above an operand; every budget.
    #[test]
    fn callref_without_arguments_in_the_last_slot_matches() {
        let mut lib = ModuleBuilder::new("lib");
        let mut f = lib.func("forty", vec![], Ty::Int);
        f.op(Op::ConstInt(40)).op(Op::Return);
        let forty = lib.finish(f);
        lib.export("forty", forty);
        let lib = lib.build().encode();

        let mut mb = ModuleBuilder::new("m");
        let cnt = mb.import("h", "cnt", Ty::func(vec![], Ty::Int));
        let far = mb.import("lib", "forty", Ty::func(vec![], Ty::Int));
        let mut f = mb.func("two", vec![], Ty::Int);
        f.op(Op::ConstInt(2)).op(Op::Return);
        let two = mb.finish(f);
        // go(a, b) = a == 0 ? two() : a == 1 ? cnt() : a == 2 ? forty()
        //          : b + two() + cnt() + forty()
        // — each call through a function value, each `FuncConst` /
        // `ImportGet` at the greatest height its function reaches.
        let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        let push_callee = |f: &mut FuncBuilder, which: i64| match which {
            0 => drop(f.op(Op::FuncConst(two))),
            1 => drop(f.op(Op::ImportGet(cnt))),
            _ => drop(f.op(Op::ImportGet(far))),
        };
        for which in 0..3 {
            let next = f.new_label();
            f.op(Op::LocalGet(0)).op(Op::ConstInt(which)).op(Op::Ne);
            f.br_if(next);
            push_callee(&mut f, which);
            f.op(Op::CallRef(0)).op(Op::Return);
            f.place(next);
        }
        f.op(Op::LocalGet(1));
        for which in 0..3 {
            push_callee(&mut f, which);
            f.op(Op::CallRef(0)).op(Op::Add);
        }
        f.op(Op::Return);
        let go = mb.finish(f);
        mb.export("go", go);
        let module = mb.build();
        let facts = crate::verify::prove_module(&module).expect("verifies");
        assert_eq!(
            facts[go as usize].max_stack, 2,
            "the function value above `b` is the frame's last slot"
        );
        let p = Program::load(&[lib, module.encode()], "m");
        for (a, want) in [(0, 2), (1, 1), (2, 40), (3, 7 + 2 + 1 + 40)] {
            let (out, ..) = p.reference((a, 7), 10_000);
            let (value, stats) = out.expect("runs");
            assert_eq!(value, want, "go({a}, 7)");
            for fuel in 0..=stats.instructions {
                p.check((a, 7), fuel, fuel).unwrap();
            }
        }
    }

    /// A local read, read again (or duplicated), and both copies stored
    /// straight back — on a local of every kind of type: nothing changes,
    /// and nothing is copied onto itself.
    #[test]
    fn a_local_stored_back_to_itself_matches() {
        let p = program(|mb, imports| {
            let abc = mb.intern_str(b"abc");
            let mut f = mb.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
            let s = f.local(Ty::Str);
            let pair = f.local(Ty::Tuple(vec![Ty::Int, Ty::Int]));
            let flag = f.local(Ty::Bool);
            f.op(Op::ConstStr(abc)).op(Op::LocalSet(s));
            f.op(Op::LocalGet(0))
                .op(Op::LocalGet(1))
                .op(Op::TupleMake(2));
            f.op(Op::LocalSet(pair));
            f.op(Op::LocalGet(0)).op(Op::LocalGet(1)).op(Op::Lt);
            f.op(Op::LocalSet(flag));
            for n in [0, s, pair, flag] {
                f.op(Op::LocalGet(n)).op(Op::LocalGet(n));
                f.op(Op::LocalSet(n)).op(Op::LocalSet(n));
                f.op(Op::LocalGet(n)).op(Op::Dup);
                f.op(Op::LocalSet(n)).op(Op::LocalSet(n));
            }
            // a + obs(s) + pair.1 + (flag ? 100 : 0)
            let unset = f.new_label();
            f.op(Op::LocalGet(0));
            f.op(Op::LocalGet(s)).op(Op::CallImport(imports[2]));
            f.op(Op::Add);
            f.op(Op::LocalGet(pair)).op(Op::TupleGet(1)).op(Op::Add);
            f.op(Op::LocalGet(flag));
            f.br_if_not(unset);
            f.op(Op::ConstInt(100)).op(Op::Add);
            f.place(unset);
            f.op(Op::Return);
            mb.finish(f)
        });
        for (a, b) in [(2, 9), (9, 2)] {
            let (out, _, log) = p.reference((a, b), 10_000);
            let (value, stats) = out.expect("runs");
            assert_eq!(value, a + 3 + b + if a < b { 100 } else { 0 });
            assert_eq!(log, vec!["obs(abc)"]);
            for fuel in 0..=stats.instructions {
                p.check((a, b), fuel, fuel).unwrap();
            }
        }
    }
}
