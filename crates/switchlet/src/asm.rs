//! The switchlet assembler: a builder API for constructing modules in Rust.
//!
//! This is the reproduction's stand-in for the Caml compiler front end: the
//! way a developer (or an example program) authors a switchlet before
//! shipping its byte codes over the network. The builder handles label
//! resolution, pool interning and digest sealing; the verifier still checks
//! the result, so the assembler does not need to be trusted.
//!
//! ```
//! use switchlet::asm::ModuleBuilder;
//! use switchlet::bytecode::Op;
//! use switchlet::types::Ty;
//!
//! let mut mb = ModuleBuilder::new("double");
//! let mut f = mb.func("double", vec![Ty::Int], Ty::Int);
//! f.op(Op::LocalGet(0));
//! f.op(Op::ConstInt(2));
//! f.op(Op::Mul);
//! f.op(Op::Return);
//! let idx = mb.finish(f);
//! mb.export("double", idx);
//! let module = mb.build();
//! assert!(switchlet::verify::verify_module(&module).is_ok());
//! ```

use crate::bytecode::{Function, Op};
use crate::digest::Digest;
use crate::module::{Export, Module};
use crate::sig::ImportSig;
use crate::types::Ty;

/// A forward-referenceable code location.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Label(usize);

enum Ins {
    Op(Op),
    Jump(Label),
    BrIf(Label),
    BrIfNot(Label),
}

/// Builds one function.
pub struct FuncBuilder {
    name: String,
    params: Vec<Ty>,
    locals: Vec<Ty>,
    result: Ty,
    code: Vec<Ins>,
    labels: Vec<Option<usize>>,
}

impl FuncBuilder {
    /// Declare a new local; returns its slot index (after the parameters).
    pub fn local(&mut self, ty: Ty) -> u16 {
        let idx = self.params.len() + self.locals.len();
        self.locals.push(ty);
        idx as u16
    }

    /// Append a plain instruction. Do not pass branch instructions here —
    /// use [`FuncBuilder::jump`]/[`FuncBuilder::br_if`]/
    /// [`FuncBuilder::br_if_not`] with labels instead (raw targets would be
    /// invalidated by later edits).
    pub fn op(&mut self, op: Op) -> &mut Self {
        assert!(
            !matches!(op, Op::Jump(_) | Op::BrIf(_) | Op::BrIfNot(_)),
            "use the label-based branch helpers"
        );
        self.code.push(Ins::Op(op));
        self
    }

    /// Create a label (place it later with [`FuncBuilder::place`]).
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the next instruction's position.
    pub fn place(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label placed twice in {}",
            self.name
        );
        self.labels[label.0] = Some(self.code.len());
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.code.push(Ins::Jump(label));
        self
    }

    /// Pop a bool, branch if true.
    pub fn br_if(&mut self, label: Label) -> &mut Self {
        self.code.push(Ins::BrIf(label));
        self
    }

    /// Pop a bool, branch if false.
    pub fn br_if_not(&mut self, label: Label) -> &mut Self {
        self.code.push(Ins::BrIfNot(label));
        self
    }

    fn assemble(self) -> Function {
        let resolve = |l: Label| -> u32 {
            self.labels[l.0].unwrap_or_else(|| panic!("unplaced label in {}", self.name)) as u32
        };
        let code = self
            .code
            .iter()
            .map(|ins| match ins {
                Ins::Op(op) => op.clone(),
                Ins::Jump(l) => Op::Jump(resolve(*l)),
                Ins::BrIf(l) => Op::BrIf(resolve(*l)),
                Ins::BrIfNot(l) => Op::BrIfNot(resolve(*l)),
            })
            .collect();
        Function {
            name: self.name,
            params: self.params,
            locals: self.locals,
            result: self.result,
            code,
        }
    }
}

/// Builds one module.
pub struct ModuleBuilder {
    name: String,
    imports: Vec<ImportSig>,
    exports: Vec<Export>,
    str_pool: Vec<Vec<u8>>,
    functions: Vec<Function>,
    init: Option<u32>,
}

impl ModuleBuilder {
    /// Start a module named `name`.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            name: name.into(),
            imports: Vec::new(),
            exports: Vec::new(),
            str_pool: Vec::new(),
            functions: Vec::new(),
            init: None,
        }
    }

    /// Declare an import; returns its index for `CallImport`/`ImportGet`.
    /// Re-declaring an identical import returns the existing index.
    pub fn import(&mut self, module: impl Into<String>, item: impl Into<String>, ty: Ty) -> u32 {
        let sig = ImportSig {
            module: module.into(),
            item: item.into(),
            ty,
        };
        if let Some(pos) = self.imports.iter().position(|i| *i == sig) {
            return pos as u32;
        }
        self.imports.push(sig);
        (self.imports.len() - 1) as u32
    }

    /// Intern a string-pool constant; returns its index for `ConstStr`.
    pub fn intern_str(&mut self, bytes: &[u8]) -> u32 {
        if let Some(pos) = self.str_pool.iter().position(|s| s == bytes) {
            return pos as u32;
        }
        self.str_pool.push(bytes.to_vec());
        (self.str_pool.len() - 1) as u32
    }

    /// Begin a function.
    pub fn func(&mut self, name: impl Into<String>, params: Vec<Ty>, result: Ty) -> FuncBuilder {
        FuncBuilder {
            name: name.into(),
            params,
            locals: Vec::new(),
            result,
            code: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The index the *next* finished function will receive (needed to emit
    /// self- or forward-references with `FuncConst`/`Call`).
    pub fn next_func_index(&self) -> u32 {
        self.functions.len() as u32
    }

    /// Finish a function; returns its index.
    pub fn finish(&mut self, fb: FuncBuilder) -> u32 {
        self.functions.push(fb.assemble());
        (self.functions.len() - 1) as u32
    }

    /// Export function `idx` under `name`.
    pub fn export(&mut self, name: impl Into<String>, idx: u32) {
        self.exports.push(Export {
            name: name.into(),
            func: idx,
        });
    }

    /// Mark function `idx` as the load-time init (registration) function.
    pub fn set_init(&mut self, idx: u32) {
        self.init = Some(idx);
    }

    /// Assemble and seal the module (computes interface digests).
    pub fn build(self) -> Module {
        let mut m = Module {
            name: self.name,
            imports: self.imports,
            exports: self.exports,
            str_pool: self.str_pool,
            functions: self.functions,
            init: self.init,
            import_digest: Digest::default(),
            export_digest: Digest::default(),
        };
        m.seal();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Env, NoHost};
    use crate::linker::Namespace;
    use crate::verify::verify_module;
    use crate::vm::{call, ExecConfig};

    /// Build, verify, load and run a nullary int function.
    fn run0(mb: ModuleBuilder, export: &str) -> i64 {
        let module = mb.build();
        verify_module(&module).expect("verifies");
        let mut ns = Namespace::new(Env::new());
        ns.load_module(module).unwrap();
        let (fv, _) = ns.lookup_export("m", export).unwrap();
        let (v, _) = call(&ns, &mut NoHost, fv, vec![], &ExecConfig::default()).unwrap();
        v.as_int()
    }

    #[test]
    fn loop_computes_sum() {
        // sum of 1..=10 via a while loop.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("sum", vec![], Ty::Int);
        let i = f.local(Ty::Int);
        let acc = f.local(Ty::Int);
        f.op(Op::ConstInt(1)).op(Op::LocalSet(i));
        f.op(Op::ConstInt(0)).op(Op::LocalSet(acc));
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.op(Op::LocalGet(i)).op(Op::ConstInt(10)).op(Op::Gt);
        f.br_if(exit);
        f.op(Op::LocalGet(acc)).op(Op::LocalGet(i)).op(Op::Add);
        f.op(Op::LocalSet(acc));
        f.op(Op::LocalGet(i)).op(Op::ConstInt(1)).op(Op::Add);
        f.op(Op::LocalSet(i));
        f.jump(head);
        f.place(exit);
        f.op(Op::LocalGet(acc)).op(Op::Return);
        let idx = mb.finish(f);
        mb.export("sum", idx);
        assert_eq!(run0(mb, "sum"), 55);
    }

    #[test]
    fn string_packing_roundtrip() {
        // pack 0xCAFE as 2 bytes, unpack at offset 0.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("roundtrip", vec![], Ty::Int);
        f.op(Op::ConstInt(0xCAFE));
        f.op(Op::StrPackInt(2));
        f.op(Op::ConstInt(0));
        f.op(Op::StrUnpackInt(2));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("roundtrip", idx);
        assert_eq!(run0(mb, "roundtrip"), 0xCAFE);
    }

    #[test]
    fn tuple_projection() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("snd", vec![], Ty::Int);
        f.op(Op::ConstInt(1));
        f.op(Op::ConstInt(42));
        f.op(Op::TupleMake(2));
        f.op(Op::TupleGet(1));
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("snd", idx);
        assert_eq!(run0(mb, "snd"), 42);
    }

    #[test]
    fn interning_dedupes() {
        let mut mb = ModuleBuilder::new("m");
        assert_eq!(mb.intern_str(b"x"), mb.intern_str(b"x"));
        assert_ne!(mb.intern_str(b"x"), mb.intern_str(b"y"));
        assert_eq!(
            mb.import("a", "b", Ty::func(vec![], Ty::Unit)),
            mb.import("a", "b", Ty::func(vec![], Ty::Unit))
        );
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("f", vec![], Ty::Unit);
        let l = f.new_label();
        f.jump(l);
        let _ = mb.finish(f);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.func("d", vec![], Ty::Int);
        f.op(Op::ConstInt(1)).op(Op::ConstInt(0)).op(Op::Div);
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("d", idx);
        let module = mb.build();
        verify_module(&module).unwrap();
        let mut ns = Namespace::new(Env::new());
        ns.load_module(module).unwrap();
        let (fv, _) = ns.lookup_export("m", "d").unwrap();
        let err = call(&ns, &mut NoHost, fv, vec![], &ExecConfig::default()).unwrap_err();
        assert_eq!(err, crate::vm::VmError::DivideByZero);
    }

    #[test]
    fn str_oob_traps() {
        let mut mb = ModuleBuilder::new("m");
        let s = mb.intern_str(b"ab");
        let mut f = mb.func("s", vec![], Ty::Int);
        f.op(Op::ConstStr(s)).op(Op::ConstInt(5)).op(Op::StrByte);
        f.op(Op::Return);
        let idx = mb.finish(f);
        mb.export("s", idx);
        let module = mb.build();
        verify_module(&module).unwrap();
        let mut ns = Namespace::new(Env::new());
        ns.load_module(module).unwrap();
        let (fv, _) = ns.lookup_export("m", "s").unwrap();
        let err = call(&ns, &mut NoHost, fv, vec![], &ExecConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            crate::vm::VmError::StrBounds { len: 2, index: 5 }
        ));
    }
}
