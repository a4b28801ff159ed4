//! The bridge switchlets: the three of Section 5.3 (dumb, learning,
//! spanning tree), the DEC-style variant and control switchlet of
//! Section 5.4, and a bytecode edition of the dumb data path.

pub mod control;
pub mod dumb;
pub mod dumb_vm;
pub mod learning;
pub mod stp;
pub mod trap_vm;

use crate::bridge::{NativeInit, NativeSwitchlet};
use crate::loader::NetLoader;

/// Creates one of the built-in native switchlets.
pub(crate) type BuiltinFactory = fn(&NativeInit) -> Box<dyn NativeSwitchlet>;

/// The native switchlet every bridge knows out of the box under `name`
/// (its "disk"). Experiments may shadow entries through
/// [`crate::BridgeNode::register_factory`] — e.g. replacing `stp_ieee`
/// with a defect-injected build for the fallback run.
pub(crate) fn default_factory(name: &str) -> Option<BuiltinFactory> {
    Some(match name {
        crate::loader::NAME => |_| Box::new(NetLoader::default()),
        dumb::NAME => |_| Box::new(dumb::DumbBridge),
        learning::NAME => |_| Box::new(learning::LearningBridge),
        stp::IEEE_NAME => |_| Box::new(stp::StpSwitchlet::ieee()),
        stp::DEC_NAME => |_| Box::new(stp::StpSwitchlet::dec()),
        control::NAME => |_| Box::new(control::ControlSwitchlet::default()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_standard_switchlets_present() {
        for name in [
            "netloader",
            "bridge_dumb",
            "bridge_learning",
            "stp_ieee",
            "stp_dec",
            "control",
        ] {
            assert!(default_factory(name).is_some(), "missing factory {name}");
        }
        assert!(default_factory("no_such_switchlet").is_none());
    }
}
