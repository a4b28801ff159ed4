//! Module signatures and interface digests.
//!
//! A signature is the *name-space surface* of a module: what it imports
//! (with full types) and what it exports. Following Caml's scheme, the
//! canonical encoding of each interface is fingerprinted with MD5 and the
//! fingerprints travel with the byte codes; the linker recomputes and
//! compares them. Combined with module thinning, "this leaves the switchlet
//! with no way of naming the excluded function and thus, no way of
//! accessing it."

use crate::digest::{Digest, Md5};
use crate::types::Ty;

/// One imported item: `module.item : ty`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImportSig {
    /// Providing module's name (a host module or an earlier loaded unit).
    pub module: String,
    /// Item name within the provider.
    pub item: String,
    /// The full type the importer was compiled against.
    pub ty: Ty,
}

/// One exported item: `name : ty` (always a function in loadable modules;
/// host modules may export values too).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExportSig {
    /// Exported name.
    pub name: String,
    /// Exported type.
    pub ty: Ty,
}

/// Absorb one canonical interface entry, `module NUL item NUL type '\n'`
/// (`ty` writes the type's encoding), into `h`.
pub(crate) fn absorb_entry(h: &mut Md5, module: &str, item: &str, ty: impl FnOnce(&mut Md5)) {
    h.update(module.as_bytes());
    h.update(&[0]);
    h.update(item.as_bytes());
    h.update(&[0]);
    ty(h);
    h.update(b"\n");
}

/// Digest of an import list (order-sensitive, like a compilation unit's
/// dependency list).
pub fn digest_imports(imports: &[ImportSig]) -> Digest {
    let mut h = Md5::new();
    for imp in imports {
        absorb_entry(&mut h, &imp.module, &imp.item, |h| imp.ty.encode_into(h));
    }
    h.finish()
}

/// Digest of a module's export interface.
pub fn digest_exports(module_name: &str, exports: &[ExportSig]) -> Digest {
    let mut h = Md5::new();
    for exp in exports {
        absorb_entry(&mut h, module_name, &exp.name, |h| exp.ty.encode_into(h));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(m: &str, i: &str, ty: Ty) -> ImportSig {
        ImportSig {
            module: m.into(),
            item: i.into(),
            ty,
        }
    }

    #[test]
    fn digest_changes_with_type() {
        let a = digest_imports(&[imp("safestd", "log", Ty::func(vec![Ty::Str], Ty::Unit))]);
        let b = digest_imports(&[imp("safestd", "log", Ty::func(vec![Ty::Int], Ty::Unit))]);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_changes_with_name() {
        let t = Ty::func(vec![Ty::Str], Ty::Unit);
        let a = digest_imports(&[imp("safestd", "log", t.clone())]);
        let b = digest_imports(&[imp("safestd", "warn", t)]);
        assert_ne!(a, b);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let x = imp("a", "x", Ty::Int);
        let y = imp("a", "y", Ty::Int);
        assert_ne!(
            digest_imports(&[x.clone(), y.clone()]),
            digest_imports(&[y, x])
        );
    }

    #[test]
    fn separator_cannot_be_confused() {
        // ("ab","c") vs ("a","bc") must digest differently thanks to the
        // NUL separators.
        let a = digest_imports(&[imp("ab", "c", Ty::Int)]);
        let b = digest_imports(&[imp("a", "bc", Ty::Int)]);
        assert_ne!(a, b);
    }

    /// The digests stream what used to be buffered: `module NUL item NUL
    /// type '\n'` per entry, hashed as one message.
    #[test]
    fn digests_hash_the_concatenated_canonical_entries() {
        let imports = [
            imp("safestd", "log", Ty::func(vec![Ty::Str], Ty::Unit)),
            imp(
                "unixnet",
                "t",
                Ty::func(vec![Ty::Int], Ty::tuple(vec![Ty::Str, Ty::named("oport")])),
            ),
        ];
        let mut buf = Vec::new();
        for i in &imports {
            buf.extend_from_slice(i.module.as_bytes());
            buf.push(0);
            buf.extend_from_slice(i.item.as_bytes());
            buf.push(0);
            i.ty.encode(&mut buf);
            buf.push(b'\n');
        }
        assert_eq!(digest_imports(&imports), crate::digest::md5(&buf));
        assert_eq!(digest_imports(&[]), crate::digest::md5(b""));
        let exports = [ExportSig {
            name: "t".into(),
            ty: imports[1].ty.clone(),
        }];
        let renamed = [imp("unixnet", "t", imports[1].ty.clone())];
        assert_eq!(
            digest_exports("unixnet", &exports),
            digest_imports(&renamed)
        );
    }

    #[test]
    fn export_digest_incorporates_module_name() {
        let e = vec![ExportSig {
            name: "f".into(),
            ty: Ty::func(vec![], Ty::Unit),
        }];
        assert_ne!(digest_exports("m1", &e), digest_exports("m2", &e));
    }
}
