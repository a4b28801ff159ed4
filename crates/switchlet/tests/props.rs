//! Property tests for the switchlet substrate: verifier soundness
//! (verified programs execute without type faults), wire-format
//! roundtrips, digest behaviour, and decoder robustness.

use proptest::prelude::*;
use switchlet::{
    call, md5, verify_module, Env, ExecConfig, Function, Md5, Module, ModuleBuilder, Namespace,
    NoHost, Op, Ty, Value,
};

/// Generate a random *well-typed straight-line* program over an int
/// accumulator plus a bool scratch register, ending in `Return` of int.
/// By construction the verifier must accept it, and by the soundness
/// property the VM must then execute it without panicking (traps like
/// divide-by-zero are allowed).
fn arb_straightline() -> impl Strategy<Value = Vec<Op>> {
    let step = prop_oneof![
        // [int] -> [int]
        any::<i64>().prop_map(|v| vec![Op::ConstInt(v % 1000), Op::Add]),
        any::<i64>().prop_map(|v| vec![Op::ConstInt(v % 1000), Op::Sub]),
        any::<i64>().prop_map(|v| vec![Op::ConstInt((v % 100) + 1), Op::Mul]),
        any::<i64>().prop_map(|v| vec![Op::ConstInt(v % 7), Op::Div]), // may trap
        Just(vec![Op::Neg]),
        Just(vec![Op::Dup, Op::Add]),
        Just(vec![Op::Dup, Op::Eq, Op::Not, Op::Pop, Op::ConstInt(3)]).prop_map(|mut v| {
            // [int] -> dup,eq -> [bool]; not -> [bool]; pop -> []; push 3.
            v.push(Op::Nop);
            v
        }),
        Just(vec![Op::StrFromInt, Op::StrLen]),
        Just(vec![Op::StrFromInt, Op::ConstInt(0), Op::StrByte]),
    ];
    prop::collection::vec(step, 0..40).prop_map(|steps| {
        let mut code = vec![Op::ConstInt(1)];
        for s in steps {
            code.extend(s);
        }
        code.push(Op::Return);
        code
    })
}

proptest! {
    /// Soundness: anything the verifier accepts executes without
    /// panicking; the only failures are the documented dynamic traps.
    #[test]
    fn verified_programs_execute_safely(code in arb_straightline()) {
        let module = Module {
            name: "gen".into(),
            imports: vec![],
            exports: vec![switchlet::Export { name: "f".into(), func: 0 }],
            str_pool: vec![],
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                locals: vec![],
                result: Ty::Int,
                code,
            }],
            init: None,
            import_digest: Default::default(),
            export_digest: Default::default(),
        };
        let mut module = module;
        module.seal();
        verify_module(&module).expect("generated programs are well-typed");
        let mut ns = Namespace::new(Env::new());
        ns.load_module(module).unwrap();
        let (f, _) = ns.lookup_export("gen", "f").unwrap();
        match call(&ns, &mut NoHost, f, vec![], &ExecConfig::default()) {
            Ok((Value::Int(_), _)) => {}
            Ok((other, _)) => prop_assert!(false, "non-int result {other:?}"),
            // Allowed dynamic traps only:
            Err(switchlet::VmError::DivideByZero)
            | Err(switchlet::VmError::StrBounds { .. })
            | Err(switchlet::VmError::FuelExhausted) => {}
            Err(e) => prop_assert!(false, "unexpected vm error {e}"),
        }
    }

    /// Module encode→decode is the identity.
    #[test]
    fn module_wire_roundtrip(
        n_strs in 0usize..5,
        consts in prop::collection::vec(any::<i64>(), 1..20),
    ) {
        let mut mb = ModuleBuilder::new("round");
        for i in 0..n_strs {
            mb.intern_str(format!("string-{i}").as_bytes());
        }
        let mut f = mb.func("f", vec![], Ty::Int);
        f.op(Op::ConstInt(consts[0]));
        for &c in &consts[1..] {
            f.op(Op::ConstInt(c));
            f.op(Op::Add);
        }
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("f", idx);
        let module = mb.build();
        let decoded = Module::decode(&module.encode()).unwrap();
        prop_assert_eq!(decoded, module);
    }

    /// Any single-byte corruption of an image is rejected.
    #[test]
    fn corrupted_images_rejected(pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut mb = ModuleBuilder::new("victim");
        let mut f = mb.func("f", vec![], Ty::Unit);
        f.op(Op::ConstUnit);
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("f", idx);
        let mut image = mb.build().encode();
        let pos = (pos_seed as usize) % image.len();
        image[pos] ^= flip;
        prop_assert!(Module::decode(&image).is_err());
    }

    /// The decoder never panics on garbage.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = Module::decode(&bytes);
    }

    /// Incremental MD5 equals one-shot MD5 for any chunking.
    #[test]
    fn md5_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(any::<u16>(), 0..6),
    ) {
        let oneshot = md5(&data);
        let mut h = Md5::new();
        let mut rest: &[u8] = &data;
        for c in cuts {
            if rest.is_empty() { break; }
            let take = (c as usize) % rest.len().max(1);
            let (head, tail) = rest.split_at(take.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finish(), oneshot);
    }

    /// Distinct interfaces have distinct digests (collision-freedom on
    /// the generated sample, via canonical-encoding injectivity).
    #[test]
    fn import_digests_separate_types(
        name in "[a-z]{1,8}",
        n_params_a in 0usize..4,
        n_params_b in 0usize..4,
    ) {
        prop_assume!(n_params_a != n_params_b);
        let mk = |n: usize| switchlet::ImportSig {
            module: "m".into(),
            item: name.clone(),
            ty: Ty::func(vec![Ty::Int; n], Ty::Unit),
        };
        let a = switchlet::sig::digest_imports(&[mk(n_params_a)]);
        let b = switchlet::sig::digest_imports(&[mk(n_params_b)]);
        prop_assert_ne!(a, b);
    }
}
