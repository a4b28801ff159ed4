//! The host environment: thinned module signatures plus runtime dispatch.
//!
//! This is the paper's *module thinning* mechanism (Section 5.1): "We have
//! thinned the signature of the modules to be accessed by switchlets to
//! exclude those functions that might allow security violations. This
//! leaves the switchlet with no way of naming the excluded function and
//! thus, no way of accessing it."
//!
//! An [`Env`] holds only the *signatures* a switchlet may link against.
//! The implementations live behind [`HostDispatch`], supplied per call by
//! the embedding node (the bridge builds one around its ports, logger,
//! timers, ...). A host function absent from the `Env` is unnameable —
//! there is no import the linker would resolve to it — which is the whole
//! point: exclusion by name-space, checked statically, with no runtime
//! guard to get wrong.
//!
//! An `Env` is immutable once built and holds nothing but signatures, so
//! loaders whose offer is the same constant share one
//! ([`crate::Namespace::sharing`]; every bridge on a thread holds an `Rc`
//! to the one `active_bridge::hostmods` builds). Sharing does not weaken
//! thinning: what is shared is the list of what can be *named*. Every
//! name space still resolves, type-checks and verifies every image it
//! loads against that list, and every call still goes through the
//! `HostDispatch` of the one bridge that makes it.

use std::collections::HashMap;

use crate::types::Ty;
use crate::value::Value;
use crate::vm::VmError;

/// Signature of one host item. All importable host items are
/// function-typed (the paper's `unixnet.mli`, Figure 4, is all functions;
/// host *values* are exposed through nullary getters).
#[derive(Clone, Debug, PartialEq)]
pub struct HostItemSig {
    /// The item's name within its module.
    pub name: String,
    /// Its (function) type.
    pub ty: Ty,
}

/// The thinned signature of one host module.
#[derive(Clone, Debug, PartialEq)]
pub struct HostModuleSig {
    /// Module name, e.g. `safestd`.
    pub name: String,
    /// Exported items. Anything not listed here does not exist as far as
    /// switchlets are concerned.
    pub items: Vec<HostItemSig>,
}

impl HostModuleSig {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>) -> Self {
        HostModuleSig {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Add a function item; panics if the type is not a function type or
    /// the name repeats (host modules are built by trusted code).
    pub fn func(mut self, name: impl Into<String>, ty: Ty) -> Self {
        let name = name.into();
        assert!(
            matches!(ty, Ty::Func(_)),
            "host item {name} must be function-typed"
        );
        assert!(
            self.items.iter().all(|i| i.name != name),
            "duplicate host item {name}"
        );
        self.items.push(HostItemSig { name, ty });
        self
    }
}

/// Identifies a host item (module index, item index) within an [`Env`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HostSlot {
    /// Host module index.
    pub module: u16,
    /// Item index within the module.
    pub item: u16,
}

/// The set of host modules a loader offers to switchlets
/// (`Dynlink.add_available_units` in the paper's linking model).
#[derive(Clone, Debug, Default)]
pub struct Env {
    modules: Vec<HostModuleSig>,
    /// Two-level index: module name → (module index, item name → item
    /// index). Both levels key by `String` but are probed with `&str`
    /// (via `Borrow<str>`), so a lookup never builds an owned key.
    index: HashMap<String, (u16, HashMap<String, u16>)>,
}

impl Env {
    /// An empty environment (nothing is nameable).
    pub fn new() -> Env {
        Env::default()
    }

    /// Register a host module's thinned signature. Panics on duplicate
    /// module names (loader bug, not switchlet input).
    pub fn add_module(&mut self, sig: HostModuleSig) {
        assert!(
            self.modules.iter().all(|m| m.name != sig.name),
            "duplicate host module {}",
            sig.name
        );
        let mod_idx = self.modules.len() as u16;
        let items: HashMap<String, u16> = sig
            .items
            .iter()
            .enumerate()
            .map(|(item_idx, item)| (item.name.clone(), item_idx as u16))
            .collect();
        self.index.insert(sig.name.clone(), (mod_idx, items));
        self.modules.push(sig);
    }

    /// Look up `module.item`; `None` if it was thinned away (or never
    /// existed — indistinguishable by design). Allocation-free: probes
    /// the two-level index with borrowed keys.
    pub fn lookup(&self, module: &str, item: &str) -> Option<(HostSlot, &Ty)> {
        let (mod_idx, items) = self.index.get(module)?;
        let item_idx = *items.get(item)?;
        let slot = HostSlot {
            module: *mod_idx,
            item: item_idx,
        };
        Some((
            slot,
            &self.modules[slot.module as usize].items[slot.item as usize].ty,
        ))
    }

    /// Resolve a slot back to `(module, item, type)`.
    pub fn slot_names(&self, slot: HostSlot) -> (&str, &str, &Ty) {
        let m = &self.modules[slot.module as usize];
        let i = &m.items[slot.item as usize];
        (&m.name, &i.name, &i.ty)
    }

    /// All registered module signatures.
    pub fn modules(&self) -> &[HostModuleSig] {
        &self.modules
    }
}

/// Runtime dispatch for host calls. The embedder implements this; every
/// slot handed to it is guaranteed to name an item present in the `Env`
/// the module was linked against.
///
/// The VM invokes host functions with the argument values as a mutable
/// slice of its own scratch stack: an implementation that matches on the
/// slot pays an integer index plus a `match`, no string comparison and no
/// argument `Vec`. One that would rather match on names reads them from
/// [`Env::slot_names`].
pub trait HostDispatch {
    /// Invoke the host function at `slot` with `args` (a scratch slice —
    /// consume values freely; the VM discards it afterwards).
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError>;
}

/// A dispatcher that refuses everything — for executing pure modules.
pub struct NoHost;

impl HostDispatch for NoHost {
    fn call_slot(&mut self, env: &Env, slot: HostSlot, _: &mut [Value]) -> Result<Value, VmError> {
        let (m, i, _) = env.slot_names(slot);
        Err(VmError::HostUnavailable(format!("{m}.{i}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        let mut e = Env::new();
        e.add_module(
            HostModuleSig::new("safestd")
                .func("log", Ty::func(vec![Ty::Str], Ty::Unit))
                .func("now_ms", Ty::func(vec![], Ty::Int)),
        );
        e
    }

    #[test]
    fn lookup_present_item() {
        let e = env();
        let (slot, ty) = e.lookup("safestd", "log").unwrap();
        assert_eq!(*ty, Ty::func(vec![Ty::Str], Ty::Unit));
        let (m, i, _) = e.slot_names(slot);
        assert_eq!((m, i), ("safestd", "log"));
    }

    #[test]
    fn thinned_item_is_unnameable() {
        let e = env();
        assert!(e.lookup("safestd", "system").is_none());
        assert!(e.lookup("unix", "open").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate host module")]
    fn duplicate_module_panics() {
        let mut e = env();
        e.add_module(HostModuleSig::new("safestd"));
    }

    #[test]
    #[should_panic(expected = "must be function-typed")]
    fn value_item_panics() {
        let _ = HostModuleSig::new("m").func("v", Ty::Int);
    }
}
