//! Decode-equivalence property tests.
//!
//! The pre-decoded VM ([`crate::vm`]) must be observationally identical to
//! the reference `Op`-walking interpreter ([`crate::refinterp`]): same
//! result, same [`ExecStats`], same fuel accounting (including exhaustion
//! landing in the middle of a fused superinstruction), same traps, and
//! the same host-call sequence. These tests generate arbitrary *verified*
//! modules — random well-typed statement programs over ints, bools,
//! strings, tuples, tables, host calls, local calls, cross-module calls
//! and first-class functions — and run them through both interpreters.

use proptest::prelude::*;
use proptest::TestRng;

use crate::asm::{FuncBuilder, ModuleBuilder};
use crate::bytecode::Op;
use crate::env::{Env, HostDispatch, HostModuleSig, HostSlot};
use crate::linker::Namespace;
use crate::refinterp::ref_call;
use crate::types::Ty;
use crate::value::Value;
use crate::vm::{call, ExecConfig, ExecStats, VmError};

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

fn test_env() -> Env {
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

/// Local layout of every generated function: four ints, two strings, one
/// int→int table, two loop counters — all initialized up front so every
/// control-flow join agrees on the init vector.
const I0: u16 = 0; // ints: I0..I0+4
const S0: u16 = 4; // strings: S0, S0+1
const T0: u16 = 6; // table
const C0: u16 = 7; // loop counters: C0, C0+1

struct Gen<'a> {
    rng: &'a mut TestRng,
    /// Import indices: add7, cnt, obs, fail (in that order).
    imports: [u32; 4],
    /// Index of a same-module helper function to `Call`, if any.
    helper: Option<u32>,
    /// String-pool entries usable by `ConstStr`.
    strs: Vec<u32>,
    /// Table type-pool entry.
    table_ty: u32,
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
            self.pick(12)
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
                // Table lookup with default.
                f.op(Op::LocalGet(T0));
                self.int_expr(f, depth - 1);
                self.int_expr(f, depth - 1);
                f.op(Op::TableGet);
            }
            10 => {
                // Tuple round trip.
                self.int_expr(f, depth - 1);
                self.int_expr(f, depth - 1);
                f.op(Op::TupleMake(2));
                f.op(Op::TupleGet(self.pick(2) as u8));
            }
            _ => {
                // Possibly-trapping unpack at a random offset.
                let s = self.str_local();
                f.op(Op::LocalGet(s));
                self.int_expr(f, depth - 1);
                f.op(Op::StrUnpackInt(2));
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
                f.op(Op::LocalGet(T0));
                self.int_expr(f, 1);
                f.op(Op::TableMem);
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
        match self.pick(12) {
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
                // Table insert or remove.
                f.op(Op::LocalGet(T0));
                self.int_expr(f, 1);
                if self.pick(3) == 0 {
                    f.op(Op::TableRemove);
                } else {
                    self.int_expr(f, 1);
                    f.op(Op::TableAdd);
                }
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
            _ => {
                // CallRef through an imported host function value.
                let l = self.int_local();
                f.op(Op::ImportGet(self.imports[0]));
                self.int_expr(f, 1);
                f.op(Op::CallRef(1));
                f.op(Op::LocalSet(l));
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
            } else if l < T0 {
                let i = self.pick(self.strs.len() as u64) as usize;
                let idx = self.strs[i];
                f.op(Op::ConstStr(idx)).op(Op::LocalSet(l));
            } else if l == T0 {
                f.op(Op::TableNew(self.table_ty)).op(Op::LocalSet(l));
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
        f.op(Op::LocalGet(T0)).op(Op::TableLen).op(Op::Add);
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
        } else if l < T0 {
            f.local(Ty::Str);
        } else if l == T0 {
            f.local(Ty::table(Ty::Int, Ty::Int));
        } else {
            f.local(Ty::Int);
        }
    }
}

/// Build a random verified module pair: `m` (helper + entry) and, half the
/// time, `u` importing `m`'s export (exercising cross-instance calls).
/// Returns the namespace-ready images and the name/export to invoke.
fn gen_program(rng: &mut TestRng) -> (Vec<Vec<u8>>, &'static str) {
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
    let table_ty = mb.intern_ty(Ty::table(Ty::Int, Ty::Int));

    // Helper: one int parameter, no further calls.
    let helper = {
        let mut f = mb.func("hlp", vec![Ty::Int], Ty::Int);
        declare_locals(&mut f, 1);
        let mut g = Gen {
            rng,
            imports,
            helper: None,
            strs: strs.clone(),
            table_ty,
        };
        g.prologue(&mut f, 1);
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
            strs: strs.clone(),
            table_ty,
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
    let u_table_ty = ub.intern_ty(Ty::table(Ty::Int, Ty::Int));
    {
        let mut f = ub.func("go", vec![Ty::Int, Ty::Int], Ty::Int);
        declare_locals(&mut f, 2);
        let mut g = Gen {
            rng,
            imports: u_imports,
            helper: None,
            strs: u_strs,
            table_ty: u_table_ty,
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
        let buffer = bytes::Bytes::from((0..300).map(|b| (b * 7) as u8).collect::<Vec<u8>>());
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
}
