//! The module container and its wire format.
//!
//! Switchlets travel over the network (the paper pushes them through TFTP)
//! as self-describing byte codes: name, import/export signatures with MD5
//! interface digests, a string pool, function bodies, and the index of the
//! `init` function whose evaluation performs registration. Between the
//! exports and the string pool the layout keeps a `u16` type-pool count
//! that is always 0: no instruction reads a type pool. A trailing
//! MD5 over the whole body detects altered byte codes: "If the byte codes
//! are unaltered module thinning works as described."

use crate::bytecode::{Function, Op, INT_WIDTHS};
use crate::digest::{md5, Digest, Md5};
use crate::sig::{absorb_entry, digest_imports, ImportSig};
use crate::types::Ty;

/// Sanity caps on decoded modules (a switchlet claiming a million
/// functions is discarded before any allocation of that size).
pub const MAX_FUNCTIONS: usize = 4096;
/// Cap on instructions per function.
pub const MAX_CODE: usize = 1 << 20;
/// Cap on pool entries.
pub const MAX_POOL: usize = 4096;

/// One export: a named local function.
#[derive(Clone, PartialEq, Debug)]
pub struct Export {
    /// The exported name.
    pub name: String,
    /// Index of the exported function.
    pub func: u32,
}

/// A loadable switchlet module.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// The module's name; loaded units are registered under it.
    pub name: String,
    /// Imported items, with the types the module was compiled against.
    pub imports: Vec<ImportSig>,
    /// Exported functions.
    pub exports: Vec<Export>,
    /// String pool (referenced by `ConstStr`).
    pub str_pool: Vec<Vec<u8>>,
    /// Function bodies.
    pub functions: Vec<Function>,
    /// The function evaluated at load time ("the byte codes usually contain
    /// some top-level forms that call a registration function"). Must have
    /// type `[] -> unit`.
    pub init: Option<u32>,
    /// Digest of the import interface, recorded when the module was built.
    pub import_digest: Digest,
    /// Digest of the export interface.
    pub export_digest: Digest,
}

/// Errors from [`Module::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a switchlet image.
    BadMagic,
    /// Ran out of bytes.
    Truncated,
    /// A type encoding was malformed.
    BadType,
    /// Unknown opcode.
    BadOp(u8),
    /// A count exceeded its sanity cap.
    TooLarge(&'static str),
    /// A name was not UTF-8.
    BadUtf8,
    /// The body digest did not match — altered byte codes.
    CodeDigestMismatch,
    /// The recorded interface digests do not match the decoded signatures.
    InterfaceDigestMismatch,
    /// Trailing garbage after the image.
    TrailingBytes,
    /// An index field pointed outside its pool.
    BadIndex(&'static str),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a switchlet image (bad magic)"),
            DecodeError::Truncated => write!(f, "truncated switchlet image"),
            DecodeError::BadType => write!(f, "malformed type encoding"),
            DecodeError::BadOp(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::TooLarge(what) => write!(f, "{what} exceeds sanity cap"),
            DecodeError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            DecodeError::CodeDigestMismatch => {
                write!(f, "byte codes were altered (digest mismatch)")
            }
            DecodeError::InterfaceDigestMismatch => {
                write!(f, "interface digests do not match signatures")
            }
            DecodeError::TrailingBytes => write!(f, "trailing bytes after image"),
            DecodeError::BadIndex(what) => write!(f, "{what} index out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: &[u8; 4] = b"SWL1";

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str16(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes32(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    /// A type's canonical encoding behind its `u16` length, encoded in
    /// place and the length written in front of it afterwards.
    fn ty(&mut self, t: &Ty) {
        let at = self.buf.len();
        self.u16(0);
        t.encode(&mut self.buf);
        let len = self.buf.len() - at - 2;
        self.buf[at..at + 2].copy_from_slice(&(len as u16).to_le_bytes());
    }
}

/// The fewest bytes a type field takes: its `u16` length and a tag.
const TY_MIN: usize = 2 + 1;

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn str16(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    fn bytes32(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_CODE {
            return Err(DecodeError::TooLarge("string pool entry"));
        }
        Ok(self.take(len)?.to_vec())
    }
    /// An empty vector for `n` elements, each of which takes at least
    /// `min_len` of the bytes left: its capacity is never more than those
    /// bytes could encode, whatever the length field claimed.
    fn vec_for<T>(&self, n: usize, min_len: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.buf.len() / min_len))
    }
    fn ty(&mut self) -> Result<Ty, DecodeError> {
        let len = self.u16()? as usize;
        let mut enc = self.take(len)?;
        let t = Ty::decode(&mut enc).ok_or(DecodeError::BadType)?;
        if !enc.is_empty() {
            return Err(DecodeError::BadType);
        }
        Ok(t)
    }
}

fn encode_op(w: &mut Writer, op: &Op) {
    match op {
        Op::ConstUnit => w.u8(0x00),
        Op::ConstBool(b) => {
            w.u8(0x01);
            w.u8(*b as u8);
        }
        Op::ConstInt(i) => {
            w.u8(0x02);
            w.i64(*i);
        }
        Op::ConstStr(n) => {
            w.u8(0x03);
            w.u32(*n);
        }
        Op::LocalGet(n) => {
            w.u8(0x04);
            w.u16(*n);
        }
        Op::LocalSet(n) => {
            w.u8(0x05);
            w.u16(*n);
        }
        Op::Pop => w.u8(0x06),
        Op::Dup => w.u8(0x07),
        Op::Add => w.u8(0x10),
        Op::Sub => w.u8(0x11),
        Op::Mul => w.u8(0x12),
        Op::Div => w.u8(0x13),
        Op::Mod => w.u8(0x14),
        Op::Neg => w.u8(0x15),
        Op::Eq => w.u8(0x16),
        Op::Ne => w.u8(0x17),
        Op::Lt => w.u8(0x18),
        Op::Le => w.u8(0x19),
        Op::Gt => w.u8(0x1a),
        Op::Ge => w.u8(0x1b),
        Op::And => w.u8(0x1c),
        Op::Or => w.u8(0x1d),
        Op::Not => w.u8(0x1e),
        Op::Jump(t) => {
            w.u8(0x20);
            w.u32(*t);
        }
        Op::BrIf(t) => {
            w.u8(0x21);
            w.u32(*t);
        }
        Op::BrIfNot(t) => {
            w.u8(0x22);
            w.u32(*t);
        }
        Op::Return => w.u8(0x23),
        Op::Call(n) => {
            w.u8(0x24);
            w.u32(*n);
        }
        Op::CallImport(n) => {
            w.u8(0x25);
            w.u32(*n);
        }
        Op::CallRef(n) => {
            w.u8(0x26);
            w.u8(*n);
        }
        Op::FuncConst(n) => {
            w.u8(0x27);
            w.u32(*n);
        }
        Op::ImportGet(n) => {
            w.u8(0x28);
            w.u32(*n);
        }
        Op::TupleMake(n) => {
            w.u8(0x30);
            w.u8(*n);
        }
        Op::TupleGet(n) => {
            w.u8(0x31);
            w.u8(*n);
        }
        Op::StrLen => w.u8(0x40),
        Op::StrConcat => w.u8(0x41),
        Op::StrByte => w.u8(0x42),
        Op::StrSlice => w.u8(0x43),
        Op::StrPackInt(n) => {
            w.u8(0x44);
            w.u8(*n);
        }
        Op::StrUnpackInt(n) => {
            w.u8(0x45);
            w.u8(*n);
        }
        Op::StrFromInt => w.u8(0x46),
        Op::Nop => w.u8(0x60),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        0x00 => Op::ConstUnit,
        0x01 => Op::ConstBool(r.u8()? != 0),
        0x02 => Op::ConstInt(r.i64()?),
        0x03 => Op::ConstStr(r.u32()?),
        0x04 => Op::LocalGet(r.u16()?),
        0x05 => Op::LocalSet(r.u16()?),
        0x06 => Op::Pop,
        0x07 => Op::Dup,
        0x10 => Op::Add,
        0x11 => Op::Sub,
        0x12 => Op::Mul,
        0x13 => Op::Div,
        0x14 => Op::Mod,
        0x15 => Op::Neg,
        0x16 => Op::Eq,
        0x17 => Op::Ne,
        0x18 => Op::Lt,
        0x19 => Op::Le,
        0x1a => Op::Gt,
        0x1b => Op::Ge,
        0x1c => Op::And,
        0x1d => Op::Or,
        0x1e => Op::Not,
        0x20 => Op::Jump(r.u32()?),
        0x21 => Op::BrIf(r.u32()?),
        0x22 => Op::BrIfNot(r.u32()?),
        0x23 => Op::Return,
        0x24 => Op::Call(r.u32()?),
        0x25 => Op::CallImport(r.u32()?),
        0x26 => Op::CallRef(r.u8()?),
        0x27 => Op::FuncConst(r.u32()?),
        0x28 => Op::ImportGet(r.u32()?),
        0x30 => Op::TupleMake(r.u8()?),
        0x31 => Op::TupleGet(r.u8()?),
        0x40 => Op::StrLen,
        0x41 => Op::StrConcat,
        0x42 => Op::StrByte,
        0x43 => Op::StrSlice,
        0x44 => {
            let n = r.u8()?;
            if !INT_WIDTHS.contains(&n) {
                return Err(DecodeError::BadOp(0x44));
            }
            Op::StrPackInt(n)
        }
        0x45 => {
            let n = r.u8()?;
            if !INT_WIDTHS.contains(&n) {
                return Err(DecodeError::BadOp(0x45));
            }
            Op::StrUnpackInt(n)
        }
        0x46 => Op::StrFromInt,
        0x60 => Op::Nop,
        other => return Err(DecodeError::BadOp(other)),
    })
}

impl Module {
    /// Recompute and store both interface digests (called by the
    /// assembler as the final build step).
    pub fn seal(&mut self) {
        self.import_digest = digest_imports(&self.imports);
        self.export_digest = self.digest_export_interface();
    }

    /// The digest `digest_exports` gives the export signatures — each
    /// export's name with its function's type — read off the exported
    /// functions in place: no signature is built to be hashed. Every
    /// export must name a function of the module.
    fn digest_export_interface(&self) -> Digest {
        let mut h = Md5::new();
        for e in &self.exports {
            let f = &self.functions[e.func as usize];
            absorb_entry(&mut h, &self.name, &e.name, |h| {
                Ty::encode_func(&f.params, &f.result, h)
            });
        }
        h.finish()
    }

    /// Serialize to wire bytes (with trailing body digest).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.str16(&self.name);
        w.u16(self.imports.len() as u16);
        for imp in &self.imports {
            w.str16(&imp.module);
            w.str16(&imp.item);
            w.ty(&imp.ty);
        }
        w.u16(self.exports.len() as u16);
        for exp in &self.exports {
            w.str16(&exp.name);
            w.u32(exp.func);
        }
        w.u16(0); // the type-pool count
        w.u16(self.str_pool.len() as u16);
        for s in &self.str_pool {
            w.bytes32(s);
        }
        w.u16(self.functions.len() as u16);
        for f in &self.functions {
            w.str16(&f.name);
            w.u8(f.params.len() as u8);
            for p in &f.params {
                w.ty(p);
            }
            w.u16(f.locals.len() as u16);
            for l in &f.locals {
                w.ty(l);
            }
            w.ty(&f.result);
            w.u32(f.code.len() as u32);
            for op in &f.code {
                encode_op(&mut w, op);
            }
        }
        match self.init {
            Some(idx) => {
                w.u8(1);
                w.u32(idx);
            }
            None => w.u8(0),
        }
        w.buf.extend_from_slice(&self.import_digest.0);
        w.buf.extend_from_slice(&self.export_digest.0);
        let body_digest = md5(&w.buf);
        w.buf.extend_from_slice(&body_digest.0);
        w.buf
    }

    /// Deserialize and structurally validate an image. Checks the body
    /// digest, the interface digests, and all index bounds; *semantic*
    /// validation (type-checking the code) is the verifier's job.
    pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
        if bytes.len() < MAGIC.len() + 16 {
            return Err(DecodeError::Truncated);
        }
        let (body, want) = bytes
            .split_last_chunk()
            .expect("the length check above leaves 16 bytes");
        let want = Digest(*want);
        if md5(body) != want {
            return Err(DecodeError::CodeDigestMismatch);
        }
        let mut r = Reader { buf: body };
        if r.take(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let name = r.str16()?;
        let n_imports = r.u16()? as usize;
        if n_imports > MAX_POOL {
            return Err(DecodeError::TooLarge("import count"));
        }
        // An import is at least two `str16` lengths and a type; a type is
        // at least its `u16` length and a tag.
        let mut imports = r.vec_for(n_imports, 2 + 2 + TY_MIN);
        for _ in 0..n_imports {
            let module = r.str16()?;
            let item = r.str16()?;
            let ty = r.ty()?;
            imports.push(ImportSig { module, item, ty });
        }
        let n_exports = r.u16()? as usize;
        if n_exports > MAX_POOL {
            return Err(DecodeError::TooLarge("export count"));
        }
        let mut exports = r.vec_for(n_exports, 2 + 4);
        for _ in 0..n_exports {
            let name = r.str16()?;
            let func = r.u32()?;
            exports.push(Export { name, func });
        }
        if r.u16()? != 0 {
            return Err(DecodeError::TooLarge("type pool"));
        }
        let n_strs = r.u16()? as usize;
        if n_strs > MAX_POOL {
            return Err(DecodeError::TooLarge("string pool"));
        }
        let mut str_pool = r.vec_for(n_strs, 4);
        for _ in 0..n_strs {
            str_pool.push(r.bytes32()?);
        }
        let n_funcs = r.u16()? as usize;
        if n_funcs > MAX_FUNCTIONS {
            return Err(DecodeError::TooLarge("function count"));
        }
        // A name, the parameter and local counts, a result type and the
        // code length.
        let mut functions = r.vec_for(n_funcs, 2 + 1 + 2 + TY_MIN + 4);
        for _ in 0..n_funcs {
            let fname = r.str16()?;
            let n_params = r.u8()? as usize;
            let mut params = r.vec_for(n_params, TY_MIN);
            for _ in 0..n_params {
                params.push(r.ty()?);
            }
            let n_locals = r.u16()? as usize;
            if n_locals > MAX_POOL {
                return Err(DecodeError::TooLarge("local count"));
            }
            let mut locals = r.vec_for(n_locals, TY_MIN);
            for _ in 0..n_locals {
                locals.push(r.ty()?);
            }
            let result = r.ty()?;
            let n_code = r.u32()? as usize;
            if n_code > MAX_CODE {
                return Err(DecodeError::TooLarge("code length"));
            }
            // An op is at least its opcode byte.
            let mut code = r.vec_for(n_code, 1);
            for _ in 0..n_code {
                code.push(decode_op(&mut r)?);
            }
            functions.push(Function {
                name: fname,
                params,
                locals,
                result,
                code,
            });
        }
        let init = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        let import_digest = Digest(r.array()?);
        let export_digest = Digest(r.array()?);
        if !r.buf.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }

        // Structural bounds.
        for exp in &exports {
            if exp.func as usize >= functions.len() {
                return Err(DecodeError::BadIndex("export function"));
            }
        }
        if let Some(init_idx) = init {
            if init_idx as usize >= functions.len() {
                return Err(DecodeError::BadIndex("init function"));
            }
        }

        let module = Module {
            name,
            imports,
            exports,
            str_pool,
            functions,
            init,
            import_digest,
            export_digest,
        };
        // The recorded interface digests must match the decoded signatures.
        if digest_imports(&module.imports) != module.import_digest
            || module.digest_export_interface() != module.export_digest
        {
            return Err(DecodeError::InterfaceDigestMismatch);
        }
        Ok(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::ExportSig;

    fn sample_module() -> Module {
        let mut m = Module {
            name: "sample".into(),
            imports: vec![ImportSig {
                module: "safestd".into(),
                item: "log".into(),
                ty: Ty::func(vec![Ty::Str], Ty::Unit),
            }],
            exports: vec![Export {
                name: "go".into(),
                func: 0,
            }],
            str_pool: vec![b"hello".to_vec()],
            functions: vec![Function {
                name: "go".into(),
                params: vec![],
                locals: vec![Ty::Int],
                result: Ty::Unit,
                code: vec![
                    Op::ConstStr(0),
                    Op::CallImport(0),
                    Op::Pop,
                    Op::ConstUnit,
                    Op::Return,
                ],
            }],
            init: Some(0),
            import_digest: Digest::default(),
            export_digest: Digest::default(),
        };
        m.seal();
        m
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample_module();
        let bytes = m.encode();
        let back = Module::decode(&bytes).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.imports, m.imports);
        assert_eq!(back.exports, m.exports);
        assert_eq!(back.str_pool, m.str_pool);
        assert_eq!(back.functions, m.functions);
        assert_eq!(back.init, m.init);
        assert_eq!(back.import_digest, m.import_digest);
        assert_eq!(back.export_digest, m.export_digest);
    }

    #[test]
    fn export_digest_is_the_digest_of_the_export_signatures() {
        let m = sample_module();
        let sigs: Vec<ExportSig> = m
            .exports
            .iter()
            .map(|e| {
                let f = &m.functions[e.func as usize];
                ExportSig {
                    name: e.name.clone(),
                    ty: Ty::func(f.params.clone(), f.result.clone()),
                }
            })
            .collect();
        assert_eq!(m.export_digest, crate::sig::digest_exports(&m.name, &sigs));
    }

    #[test]
    fn tampered_bytes_rejected() {
        let m = sample_module();
        let mut bytes = m.encode();
        // Flip a bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(Module::decode(&bytes), Err(DecodeError::CodeDigestMismatch));
    }

    #[test]
    fn forged_interface_digest_rejected() {
        // Re-sign the body digest but leave a wrong interface digest: this
        // simulates an attacker recomputing the outer checksum after
        // altering the recorded interface fingerprint.
        let mut m = sample_module();
        m.import_digest = Digest([0xab; 16]);
        let bytes = m.encode(); // encode() signs the (inconsistent) body
        assert_eq!(
            Module::decode(&bytes),
            Err(DecodeError::InterfaceDigestMismatch)
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_module().encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(Module::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// `bytes` with its trailing body digest rewritten, so an edit reaches
    /// the structural checks behind the digest check.
    fn resigned(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 16;
        let d = md5(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&d.0);
        bytes
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_module().encode();
        bytes[0] = b'X';
        assert_eq!(Module::decode(&resigned(bytes)), Err(DecodeError::BadMagic));
    }

    /// The type-pool count stays in the layout and is always 0; the
    /// retired table opcodes 0x50–0x55 decode as unknown ones.
    #[test]
    fn a_type_pool_and_the_retired_opcodes_are_refused() {
        let mut m = Module {
            name: "t".into(),
            imports: vec![],
            exports: vec![],
            str_pool: vec![],
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                locals: vec![],
                result: Ty::Unit,
                code: vec![Op::ConstUnit, Op::Return],
            }],
            init: None,
            import_digest: Digest::default(),
            export_digest: Digest::default(),
        };
        m.seal();
        let image = m.encode();
        // Magic, the name "t", no imports, no exports.
        let pool_count = 4 + 2 + 1 + 2 + 2;
        assert_eq!(image[pool_count..pool_count + 2], [0, 0]);
        for count in [1u16, 0x100, u16::MAX] {
            let mut bytes = image.clone();
            bytes[pool_count..pool_count + 2].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                Module::decode(&resigned(bytes)),
                Err(DecodeError::TooLarge("type pool"))
            );
        }
        // The code is the last field before the init flag, the two
        // interface digests and the body digest.
        let first_op = image.len() - 16 - 32 - 1 - 2;
        assert_eq!(image[first_op..first_op + 2], [0x00, 0x23]);
        for op in 0x50..=0x55 {
            let mut bytes = image.clone();
            bytes[first_op] = op;
            assert_eq!(
                Module::decode(&resigned(bytes)),
                Err(DecodeError::BadOp(op))
            );
        }
    }

    #[test]
    fn decode_checks_init_bounds() {
        let mut m = sample_module();
        // Bypass seal-time indexing by appending a bogus export after
        // sealing, then re-encode manually is not possible — instead check
        // the init bound, which seal() does not touch.
        m.init = Some(9);
        let bytes = m.encode();
        assert_eq!(
            Module::decode(&bytes),
            Err(DecodeError::BadIndex("init function"))
        );
    }

    #[test]
    fn empty_module_roundtrips() {
        let mut m = Module {
            name: "empty".into(),
            imports: vec![],
            exports: vec![],
            str_pool: vec![],
            functions: vec![],
            init: None,
            import_digest: Digest::default(),
            export_digest: Digest::default(),
        };
        m.seal();
        let back = Module::decode(&m.encode()).unwrap();
        assert_eq!(back.name, "empty");
        assert!(back.functions.is_empty());
    }
}
