//! Images past the seal: mutated modules with valid digests never panic.
//!
//! `Module::decode` rejects a bit-flipped image at its body digest
//! (`tests/props.rs`), so arbitrary bytes never get further than that
//! check. These properties start behind it. They take a module *value* —
//! the shipped `dumb_vm` and `trap_vm` images decoded, or a program from
//! the `equiv_tests` generator — mutate it (an opcode swapped; an operand,
//! a local index or a branch target edited; a constant, an import, an
//! export, a signature or the init edited; an op inserted, deleted or
//! moved), seal it again and encode it, so the image carries valid
//! digests. The image then runs the whole load path (decode, link, verify,
//! translate), and every function of a module that loads is called with
//! arguments of its parameter types under a fuel budget, each call on the
//! same long-lived arena. What may come out is a typed error at load, a
//! trap, fuel exhaustion or a result; never a panic. Whatever the verifier
//! accepted runs exactly as the reference interpreter runs it — result,
//! `ExecStats` and host-call trace — at full fuel and at budgets that run
//! out part-way.
//!
//! The byte-level cases start from the encoded image instead: one count,
//! length, type tag, opcode byte, init flag or the type-pool count is
//! edited and the body digest written again, so decode's structural
//! checks are what the edit meets; some are sealed in an envelope whose
//! header is edited in turn. Each ends in a typed `EnvelopeError` or
//! `DecodeError`, or goes on down the same load-and-run path.

use proptest::prelude::*;
use proptest::TestRng;

use crate::bytecode::{Function, Op};
use crate::digest::md5;
use crate::env::{Env, HostDispatch, HostModuleSig, HostSlot};
use crate::envelope::{seal, unseal, EnvelopeError};
use crate::linker::{LoadError, Namespace};
use crate::module::{DecodeError, Module, MAX_CODE};
use crate::refinterp::ref_call;
use crate::types::Ty;
use crate::value::{FuncVal, Value};
use crate::vm::{call_scratch, ExecConfig, ExecStats, VmError, VmScratch};

// ------------------------------------------------------------- host side

/// A host that answers every function it offers from the function's
/// declared result type, so any import a mutant links against returns a
/// value of the type the verifier assumed. Every call is logged with its
/// arguments; `*.fail` with a negative integer argument is a host error.
#[derive(Default)]
struct TypedHost {
    calls: i64,
    log: Vec<String>,
}

impl HostDispatch for TypedHost {
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError> {
        let (module, item, ty) = env.slot_names(slot);
        let shown: Vec<String> = args.iter().map(Value::render).collect();
        self.log
            .push(format!("{module}.{item}({})", shown.join(", ")));
        self.calls += 1;
        let ints = args.iter().fold(0i64, |sum, arg| match arg {
            Value::Int(x) => sum.wrapping_add(*x),
            Value::Str(s) => sum.wrapping_add(s.len() as i64),
            _ => sum,
        });
        if item == "fail" && ints < 0 {
            return Err(VmError::Host("negative".into()));
        }
        let Ty::Func(ft) = ty else {
            unreachable!("host items are functions")
        };
        Ok(match &*ft.result {
            Ty::Unit => Value::Unit,
            Ty::Bool => Value::Bool(self.calls % 2 == 0),
            Ty::Int => Value::Int(ints.wrapping_add(self.calls)),
            Ty::Str => Value::str(format!("r{}", self.calls)),
            Ty::Named(name) if name == "oport" => Value::handle("oport", ints as u64),
            Ty::Named(name) if name == "iport" => Value::handle("iport", ints as u64),
            other => return Err(VmError::HostUnavailable(format!("no {other:?} to return"))),
        })
    }
}

/// The host functions `module` imports, offered at the types it imports
/// them: a mutant that renames or retypes an import links only where it
/// lands on another of these.
fn env_for(module: &Module) -> Env {
    let mut modules: Vec<HostModuleSig> = Vec::new();
    for import in &module.imports {
        let at = match modules.iter().position(|m| m.name == import.module) {
            Some(at) => at,
            None => {
                modules.push(HostModuleSig::new(import.module.clone()));
                modules.len() - 1
            }
        };
        let sig = std::mem::replace(&mut modules[at], HostModuleSig::new(""));
        modules[at] = sig.func(import.item.clone(), import.ty.clone());
    }
    let mut env = Env::new();
    for sig in modules {
        env.add_module(sig);
    }
    env
}

// ------------------------------------------------------------ the inputs

/// A loadable case: the images loaded first, unmutated, and the module
/// mutated and loaded last.
struct Case {
    env: Env,
    prefix: Vec<Vec<u8>>,
    victim: Module,
}

fn shipped(image: &[u8], env: &Env) -> Case {
    Case {
        env: env.clone(),
        prefix: Vec::new(),
        victim: Module::decode(image).expect("a shipped image decodes"),
    }
}

/// What the mutations start from: one of the two shipped bridge images,
/// or a generated program (whose wrapper module, when it has one, is the
/// one mutated).
fn source(rng: &mut TestRng) -> Case {
    let dumb = active_bridge::switchlets::dumb_vm::build_image();
    let bridge_env = env_for(&Module::decode(&dumb).expect("dumb_vm decodes"));
    match rng.below(4) {
        0 => shipped(&dumb, &bridge_env),
        1 => shipped(
            &active_bridge::switchlets::trap_vm::build_image(),
            &bridge_env,
        ),
        _ => {
            let (mut images, _) = crate::equiv_tests::gen_program(rng);
            let last = images.pop().expect("at least one image");
            Case {
                env: crate::equiv_tests::test_env(),
                prefix: images,
                victim: Module::decode(&last).expect("a generated image decodes"),
            }
        }
    }
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// An index in `0..n`, or now and then just past it.
fn index(rng: &mut TestRng, n: usize) -> u64 {
    rng.below(n as u64 + 2)
}

fn any_ty(rng: &mut TestRng) -> Ty {
    match rng.below(7) {
        0 => Ty::Unit,
        1 => Ty::Bool,
        2 => Ty::Int,
        3 => Ty::Str,
        4 => Ty::named("oport"),
        5 => Ty::Tuple(vec![Ty::Int, Ty::Str]),
        _ => Ty::func(vec![Ty::Int], Ty::Int),
    }
}

fn any_int(rng: &mut TestRng) -> i64 {
    match rng.below(6) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        _ => rng.below(40) as i64 - 10,
    }
}

/// An op of any opcode, its operands drawn around what `m` and `f` hold.
fn any_op(rng: &mut TestRng, m: &Module, f: &Function) -> Op {
    let local = |rng: &mut TestRng| index(rng, f.num_slots()) as u16;
    let target = |rng: &mut TestRng| index(rng, f.code.len()) as u32;
    let width = |rng: &mut TestRng| pick(rng, &[0u8, 1, 2, 3, 4, 6, 8, 9]);
    match rng.below(41) {
        0 => Op::ConstUnit,
        1 => Op::ConstBool(rng.below(2) == 0),
        2 => Op::ConstInt(any_int(rng)),
        3 => Op::ConstStr(index(rng, m.str_pool.len()) as u32),
        4 => Op::LocalGet(local(rng)),
        5 => Op::LocalSet(local(rng)),
        6 => Op::Pop,
        7 => Op::Dup,
        8 => Op::Add,
        9 => Op::Sub,
        10 => Op::Mul,
        11 => Op::Div,
        12 => Op::Mod,
        13 => Op::Neg,
        14 => Op::Eq,
        15 => Op::Ne,
        16 => Op::Lt,
        17 => Op::Le,
        18 => Op::Gt,
        19 => Op::Ge,
        20 => Op::And,
        21 => Op::Or,
        22 => Op::Not,
        23 => Op::Jump(target(rng)),
        24 => Op::BrIf(target(rng)),
        25 => Op::BrIfNot(target(rng)),
        26 => Op::Return,
        27 => Op::Call(index(rng, m.functions.len()) as u32),
        28 => Op::CallImport(index(rng, m.imports.len()) as u32),
        29 => Op::ImportGet(index(rng, m.imports.len()) as u32),
        30 => Op::CallRef(rng.below(4) as u8),
        31 => Op::FuncConst(index(rng, m.functions.len()) as u32),
        32 => Op::TupleMake(rng.below(4) as u8),
        33 => Op::TupleGet(rng.below(3) as u8),
        34 => Op::StrLen,
        35 => Op::StrConcat,
        36 => Op::StrByte,
        37 => Op::StrSlice,
        38 => Op::StrPackInt(width(rng)),
        39 => Op::StrUnpackInt(width(rng)),
        _ => Op::StrFromInt,
    }
}

/// The same opcode with its operand drawn again, if it has one.
fn edit_operand(rng: &mut TestRng, m: &Module, f: &Function, op: &Op) -> Option<Op> {
    if !has_operand(op) {
        return None;
    }
    loop {
        let redrawn = any_op(rng, m, f);
        if std::mem::discriminant(&redrawn) == std::mem::discriminant(op) {
            return Some(redrawn);
        }
    }
}

fn has_operand(op: &Op) -> bool {
    matches!(
        op,
        Op::ConstBool(_)
            | Op::ConstInt(_)
            | Op::ConstStr(_)
            | Op::LocalGet(_)
            | Op::LocalSet(_)
            | Op::Jump(_)
            | Op::BrIf(_)
            | Op::BrIfNot(_)
            | Op::Call(_)
            | Op::CallImport(_)
            | Op::ImportGet(_)
            | Op::CallRef(_)
            | Op::FuncConst(_)
            | Op::TupleMake(_)
            | Op::TupleGet(_)
            | Op::StrPackInt(_)
            | Op::StrUnpackInt(_)
    )
}

/// One mutation of `m`, somewhere.
fn mutate(rng: &mut TestRng, m: &mut Module) {
    let fi = rng.below(m.functions.len() as u64) as usize;
    let len = m.functions[fi].code.len();
    let at = rng.below(len.max(1) as u64) as usize;
    match rng.below(14) {
        // Opcode swaps.
        0 | 1 if len > 0 => {
            let op = any_op(rng, m, &m.functions[fi]);
            m.functions[fi].code[at] = op;
        }
        // Operand edits, local indices among them.
        2 | 3 if len > 0 => {
            let old = m.functions[fi].code[at].clone();
            if let Some(op) = edit_operand(rng, m, &m.functions[fi], &old) {
                m.functions[fi].code[at] = op;
            }
        }
        // Branch targets.
        4 => {
            let code = &mut m.functions[fi].code;
            let branches: Vec<usize> = (0..code.len())
                .filter(|&pc| matches!(code[pc], Op::Jump(_) | Op::BrIf(_) | Op::BrIfNot(_)))
                .collect();
            if !branches.is_empty() {
                let pc = pick(rng, &branches);
                let to = index(rng, code.len()) as u32;
                match &mut code[pc] {
                    Op::Jump(t) | Op::BrIf(t) | Op::BrIfNot(t) => *t = to,
                    _ => unreachable!("a branch"),
                }
            }
        }
        // Ops inserted, deleted or swapped with their neighbour.
        5 => {
            let op = any_op(rng, m, &m.functions[fi]);
            m.functions[fi].code.insert(at.min(len), op);
        }
        6 if len > 0 => {
            m.functions[fi].code.remove(at);
        }
        7 if len > 1 => m.functions[fi].code.swap(at, (at + 1) % len),
        // Local and signature types.
        8 => {
            let ty = any_ty(rng);
            let f = &mut m.functions[fi];
            match rng.below(3) {
                0 if !f.locals.is_empty() => {
                    let j = rng.below(f.locals.len() as u64) as usize;
                    f.locals[j] = ty;
                }
                1 if !f.params.is_empty() => {
                    let j = rng.below(f.params.len() as u64) as usize;
                    f.params[j] = ty;
                }
                _ => f.result = ty,
            }
        }
        // The string pool.
        9 => {
            if !m.str_pool.is_empty() && rng.below(2) == 0 {
                let j = rng.below(m.str_pool.len() as u64) as usize;
                let n = rng.below(12) as usize;
                m.str_pool[j] = (0..n).map(|_| rng.below(256) as u8).collect();
            } else {
                m.str_pool.push(b"new".to_vec());
            }
        }
        // Imports: the provider, the item or the type.
        10 if !m.imports.is_empty() => {
            let j = rng.below(m.imports.len() as u64) as usize;
            let other = pick(rng, &m.imports);
            let import = &mut m.imports[j];
            match rng.below(3) {
                0 => import.item = other.item,
                1 => import.module = other.module,
                _ => import.ty = Ty::func(vec![any_ty(rng)], any_ty(rng)),
            }
        }
        // Exports and the init.
        11 if !m.exports.is_empty() => {
            let j = rng.below(m.exports.len() as u64) as usize;
            m.exports[j].func = rng.below(m.functions.len() as u64) as u32;
        }
        12 => m.init = Some(index(rng, m.functions.len()) as u32),
        // Constants at the edges of their range.
        _ => {
            for op in &mut m.functions[fi].code {
                if let Op::ConstInt(k) = op {
                    *k = any_int(rng);
                    break;
                }
            }
        }
    }
}

// ------------------------------------------------------------- the oracle

/// Arguments of `f`'s parameter types, or `None` for a type no embedder
/// passes in.
fn args_for(rng: &mut TestRng, f: &Function) -> Option<Vec<Value>> {
    f.params
        .iter()
        .map(|ty| match ty {
            Ty::Unit => Some(Value::Unit),
            Ty::Bool => Some(Value::Bool(rng.below(2) == 0)),
            Ty::Int => Some(Value::Int(rng.below(12) as i64 - 2)),
            Ty::Str => Some(Value::str(b"\x01\x02frame bytes".to_vec())),
            Ty::Named(name) if name == "oport" => Some(Value::handle("oport", 1)),
            _ => None,
        })
        .collect()
}

type Observed = (Result<(String, ExecStats), VmError>, Vec<String>);

/// Call `target` under both interpreters with `fuel`; the VM runs on
/// `scratch`, which the caller keeps across calls.
fn both(
    ns: &Namespace,
    target: FuncVal,
    args: &[Value],
    fuel: u64,
    scratch: &mut VmScratch,
) -> (Observed, Observed) {
    let cfg = ExecConfig {
        fuel,
        max_depth: 16,
    };
    let render = |out: Result<(Value, ExecStats), VmError>| out.map(|(v, s)| (v.render(), s));
    let mut host = TypedHost::default();
    let out = call_scratch(ns, &mut host, target, args.to_vec(), &cfg, scratch);
    let vm = (render(out), host.log);
    let mut host = TypedHost::default();
    let out = ref_call(ns, &mut host, target, args.to_vec(), &cfg);
    (vm, (render(out), host.log))
}

/// Mutate, seal, load and run one case: `None` when the mutant was
/// refused at load (a typed `LoadError`), else how many calls ran.
fn run_case(rng: &mut TestRng) -> Result<Option<usize>, String> {
    let mut case = source(rng);
    for _ in 0..1 + rng.below(3) {
        mutate(rng, &mut case.victim);
    }
    case.victim.seal();
    let image = case.victim.encode();
    Ok(load_and_run(rng, case.env, &case.prefix, &image)?.ok())
}

/// Load `prefix` and then `image` into a namespace over `env`, and call
/// every function of the loaded image under both interpreters: the typed
/// error the load was refused with, else how many calls ran; `Err` when
/// the VM and the reference disagree.
fn load_and_run(
    rng: &mut TestRng,
    env: Env,
    prefix: &[Vec<u8>],
    image: &[u8],
) -> Result<Result<usize, LoadError>, String> {
    let mut ns = Namespace::new(env);
    for image in prefix {
        ns.load(image).expect("the unmutated images load");
    }
    let instance = match ns.load(image) {
        Ok(instance) => instance,
        Err(refused) => return Ok(Err(refused)),
    };
    let functions = ns.instance(instance).module.functions.clone();
    let mut scratch = VmScratch::new();
    let mut calls = 0;
    for (func, f) in functions.iter().enumerate() {
        let Some(args) = args_for(rng, f) else {
            continue;
        };
        let target = FuncVal::Vm {
            instance,
            func: func as u32,
        };
        let (vm, reference) = both(&ns, target, &args, 20_000, &mut scratch);
        if vm != reference {
            return Err(format!("{}: vm {vm:?}, reference {reference:?}", f.name));
        }
        let budgets = match vm.0 {
            Ok((_, stats)) => {
                let n = stats.instructions;
                vec![0, 1, n / 2, n.saturating_sub(1)]
            }
            Err(_) => vec![1, 7, 31],
        };
        for fuel in budgets {
            let (vm, reference) = both(&ns, target, &args, fuel, &mut scratch);
            if vm != reference {
                return Err(format!(
                    "{} at fuel {fuel}: vm {vm:?}, reference {reference:?}",
                    f.name
                ));
            }
        }
        calls += 1;
    }
    Ok(Ok(calls))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Mutants of the shipped images and of generated programs, sealed
    /// again: typed errors, traps or completions, never a panic, and the
    /// VM agrees with the reference on every mutant the verifier accepts.
    #[test]
    fn sealed_mutants_load_or_fail_typed_and_run_as_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let ran = run_case(&mut rng);
        prop_assert!(ran.is_ok(), "{}", ran.unwrap_err());
    }
}

/// The property above is not vacuous: a good share of the mutants load,
/// and their functions run.
#[test]
fn a_tenth_of_the_mutants_load_and_run() {
    let mut rng = TestRng::seed_from_u64(0x5ea1);
    let cases = 300;
    let (mut loaded, mut calls) = (0, 0);
    for _ in 0..cases {
        if let Some(ran) = run_case(&mut rng).expect("the VM agrees with the reference") {
            loaded += 1;
            calls += ran;
        }
    }
    assert!(
        loaded * 10 >= cases && calls >= loaded,
        "{loaded} of {cases} mutants loaded, {calls} calls ran"
    );
}

// ------------------------------------------------------- byte mutations

/// Where the length-bearing and tag fields of an encoded image sit: what
/// a byte edit aims at once the body digest is rewritten.
#[derive(Default)]
struct Fields {
    /// Import, export, string, function, parameter and local counts:
    /// `(offset, width)`.
    counts: Vec<(usize, usize)>,
    /// Function code lengths (`u32`).
    code_lens: Vec<usize>,
    /// Name lengths (`u16`) and string-pool entry lengths (`u32`):
    /// `(offset, width)`.
    str_lens: Vec<(usize, usize)>,
    /// The first byte of every type encoding.
    ty_tags: Vec<usize>,
    /// The first byte of every instruction.
    opcodes: Vec<usize>,
    /// The `u16` type-pool count.
    type_pool_count: usize,
    /// The init flag.
    init_flag: usize,
}

/// A little-endian unsigned field.
fn read_le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |n, &b| n << 8 | u64::from(b))
}

/// Operand bytes behind an opcode (the wire format of `module.rs`).
fn operand_len(opcode: u8) -> usize {
    match opcode {
        0x02 => 8,
        0x03 | 0x20..=0x22 | 0x24 | 0x25 | 0x27 | 0x28 => 4,
        0x04 | 0x05 => 2,
        0x01 | 0x26 | 0x30 | 0x31 | 0x44 | 0x45 => 1,
        _ => 0,
    }
}

impl Fields {
    /// Walk a well-formed image the way `Module::decode` reads it.
    fn of(image: &[u8]) -> Fields {
        let mut fields = Fields::default();
        let mut at = 4;
        let int = |at: usize, width: usize| read_le(&image[at..at + width]) as usize;
        let name = |fields: &mut Fields, at: &mut usize| {
            fields.str_lens.push((*at, 2));
            *at += 2 + int(*at, 2);
        };
        let ty = |fields: &mut Fields, at: &mut usize| {
            fields.ty_tags.push(*at + 2);
            *at += 2 + int(*at, 2);
        };
        let count = |fields: &mut Fields, at: &mut usize, width: usize| {
            fields.counts.push((*at, width));
            *at += width;
            int(*at - width, width)
        };
        name(&mut fields, &mut at);
        for _ in 0..count(&mut fields, &mut at, 2) {
            name(&mut fields, &mut at);
            name(&mut fields, &mut at);
            ty(&mut fields, &mut at);
        }
        for _ in 0..count(&mut fields, &mut at, 2) {
            name(&mut fields, &mut at);
            at += 4;
        }
        fields.type_pool_count = at;
        at += 2;
        for _ in 0..count(&mut fields, &mut at, 2) {
            fields.str_lens.push((at, 4));
            at += 4 + int(at, 4);
        }
        for _ in 0..count(&mut fields, &mut at, 2) {
            name(&mut fields, &mut at);
            for _ in 0..count(&mut fields, &mut at, 1) {
                ty(&mut fields, &mut at);
            }
            for _ in 0..count(&mut fields, &mut at, 2) {
                ty(&mut fields, &mut at);
            }
            ty(&mut fields, &mut at);
            fields.code_lens.push(at);
            let n = int(at, 4);
            at += 4;
            for _ in 0..n {
                fields.opcodes.push(at);
                at += 1 + operand_len(image[at]);
            }
        }
        fields.init_flag = at;
        at += if image[at] == 0 { 1 } else { 5 };
        assert_eq!(at + 3 * 16, image.len(), "the walk ends at the digests");
        fields
    }
}

/// The kinds of byte edit.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Edit {
    Count,
    CodeLen,
    StrLen,
    TyTag,
    Opcode,
    RetiredOpcode,
    InitFlag,
    TyPoolCount,
}

impl Edit {
    const ALL: [Edit; 8] = [
        Edit::Count,
        Edit::CodeLen,
        Edit::StrLen,
        Edit::TyTag,
        Edit::Opcode,
        Edit::RetiredOpcode,
        Edit::InitFlag,
        Edit::TyPoolCount,
    ];
}

/// Write `width` little-endian bytes of a value near `old`, or at an edge.
fn edit_int(rng: &mut TestRng, image: &mut [u8], at: usize, width: usize) {
    let old = read_le(&image[at..at + width]);
    let max = u64::MAX >> (64 - 8 * width);
    let new = match rng.below(6) {
        0 => 0,
        1 => old.wrapping_add(1),
        2 => old.wrapping_sub(1),
        3 => max,
        4 => MAX_CODE as u64 + 1,
        _ => rng.below(64),
    } & max;
    image[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
}

/// Edit one field of `image`, of a kind it has: the kind edited.
fn edit_field(rng: &mut TestRng, image: &mut [u8], fields: &Fields) -> Edit {
    loop {
        let edit = pick(rng, &Edit::ALL);
        match edit {
            Edit::Count if !fields.counts.is_empty() => {
                let (at, width) = pick(rng, &fields.counts);
                edit_int(rng, image, at, width);
            }
            Edit::CodeLen if !fields.code_lens.is_empty() => {
                let at = pick(rng, &fields.code_lens);
                edit_int(rng, image, at, 4);
            }
            Edit::StrLen => {
                let (at, width) = pick(rng, &fields.str_lens);
                edit_int(rng, image, at, width);
            }
            Edit::TyTag if !fields.ty_tags.is_empty() => {
                let at = pick(rng, &fields.ty_tags);
                image[at] = pick(rng, b"ubisn(<>){}\x00\xff");
            }
            Edit::Opcode if !fields.opcodes.is_empty() => {
                let at = pick(rng, &fields.opcodes);
                image[at] = rng.below(256) as u8;
            }
            Edit::RetiredOpcode if !fields.opcodes.is_empty() => {
                let at = pick(rng, &fields.opcodes);
                image[at] = 0x50 + rng.below(6) as u8;
            }
            Edit::InitFlag => image[fields.init_flag] = pick(rng, &[0, 1, 2, 0xff]),
            Edit::TyPoolCount => {
                let count = 1 + rng.below(u16::MAX as u64) as u16;
                image[fields.type_pool_count..][..2].copy_from_slice(&count.to_le_bytes());
            }
            _ => continue,
        }
        return edit;
    }
}

/// Edit the version, the reserved field, the payload length or the
/// sealed digest of an envelope.
fn edit_envelope(rng: &mut TestRng, blob: &mut [u8]) {
    match rng.below(4) {
        0 => edit_int(rng, blob, 4, 2),
        1 => blob[6 + rng.below(2) as usize] = 1 + rng.below(255) as u8,
        2 => edit_int(rng, blob, 8, 4),
        _ => blob[12 + rng.below(16) as usize] ^= 1 << rng.below(8),
    }
}

/// Where a byte mutant stopped.
#[derive(Debug)]
enum Stop {
    Envelope(EnvelopeError),
    Load(LoadError),
    /// Loaded; this many calls ran as the reference runs them.
    Ran(usize),
}

/// Edit one byte-level field of an encoded image, rewrite its body
/// digest, seal it in an envelope now and then (an envelope field edited
/// half of those times), and take it down the upload's load path.
fn run_byte_case(rng: &mut TestRng) -> Result<(Edit, bool, Stop), String> {
    let case = source(rng);
    let mut image = case.victim.encode();
    let fields = Fields::of(&image);
    let edit = edit_field(rng, &mut image, &fields);
    let body = image.len() - 16;
    let digest = md5(&image[..body]);
    image[body..].copy_from_slice(&digest.0);
    let mut envelope_edited = false;
    if rng.below(3) == 0 {
        let sealed = seal(&image);
        let mut blob = sealed.clone();
        if rng.below(2) == 0 {
            edit_envelope(rng, &mut blob);
            envelope_edited = blob != sealed;
        }
        match unseal(&blob) {
            Ok(payload) => image = payload.to_vec(),
            Err(refused) => return Ok((edit, envelope_edited, Stop::Envelope(refused))),
        }
    }
    let stop = match load_and_run(rng, case.env, &case.prefix, &image)? {
        Ok(calls) => Stop::Ran(calls),
        Err(refused) => Stop::Load(refused),
    };
    Ok((edit, envelope_edited, stop))
}

/// The variant name of an error's `Debug` form.
fn variant(e: &impl std::fmt::Debug) -> String {
    let shown = format!("{e:?}");
    shown
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Byte-level edits past the seal — counts, lengths, type tags, opcodes
/// (the retired 0x50–0x55 among them), the init flag, the type-pool
/// count and the envelope's header — end in a typed `EnvelopeError` or
/// `DecodeError`, or load and run as the reference runs them; none
/// panics. A type pool is refused by its count, a retired opcode as an
/// unknown one, an edited envelope header at `unseal`.
#[test]
fn byte_mutants_fail_typed_or_run_as_the_reference() {
    let mut rng = TestRng::seed_from_u64(0xb17e);
    let cases = 1500;
    // How many cases stopped where: "unseal BadVersion", "decode
    // Truncated", "load Verify", "ran" ...
    let mut stops = std::collections::BTreeMap::<String, usize>::new();
    let mut calls = 0;
    for _ in 0..cases {
        let (edit, envelope_edited, stop) =
            run_byte_case(&mut rng).unwrap_or_else(|diverged| panic!("{diverged}"));
        assert!(
            !envelope_edited || matches!(stop, Stop::Envelope(_)),
            "an edited envelope header passed: {stop:?}"
        );
        let at = match &stop {
            Stop::Envelope(e) => format!("unseal {}", variant(e)),
            Stop::Load(LoadError::Decode(e)) => {
                match edit {
                    Edit::TyPoolCount => assert_eq!(*e, DecodeError::TooLarge("type pool")),
                    Edit::RetiredOpcode => {
                        assert!(matches!(e, DecodeError::BadOp(0x50..=0x55)), "{e:?}")
                    }
                    _ => {}
                }
                format!("decode {}", variant(e))
            }
            Stop::Load(e) => format!("load {}", variant(e)),
            Stop::Ran(n) => {
                calls += n;
                "ran".to_string()
            }
        };
        if matches!(edit, Edit::TyPoolCount | Edit::RetiredOpcode) {
            assert!(
                matches!(stop, Stop::Envelope(_) | Stop::Load(LoadError::Decode(_))),
                "a {edit:?} edit got past decode: {stop:?}"
            );
        }
        *stops.entry(at).or_default() += 1;
    }
    // Not vacuous: each envelope check and the decoder's checks refuse
    // some case, and some mutants load and run.
    for at in [
        "unseal BadVersion",
        "unseal Truncated",
        "unseal DigestMismatch",
        "decode TooLarge",
        "decode BadOp",
        "decode BadType",
        "decode Truncated",
        "ran",
    ] {
        assert!(stops.contains_key(at), "no case stopped at {at}: {stops:?}");
    }
    assert!(calls > 0, "{stops:?}");
}
