//! # active-bridge — the Active Bridge of Alexander, Shaw, Nettles & Smith
//!
//! A programmable network bridge that is extended *while running* by
//! loadable, statically type-checked modules ("switchlets"):
//!
//! 1. the [`bridge::BridgeNode`] starts as nothing but a loader
//!    ([`loader::NetLoader`]: Ethernet demux → minimal IP → minimal UDP →
//!    write-only TFTP, per paper Section 5.2);
//! 2. the **dumb bridge** switchlet makes it a buffered repeater;
//! 3. the **learning** switchlet replaces the switching function with one
//!    that tracks source addresses;
//! 4. the **spanning tree** switchlet (IEEE 802.1D, or the DEC-style
//!    variant) suppresses redundant paths through per-port access points;
//! 5. the **control** switchlet upgrades the network from the old
//!    spanning-tree protocol to the new one on the fly — validating the
//!    new protocol against captured state and falling back automatically
//!    on failure (paper Table 1).
//!
//! Switchlets come in two kinds behind one loading discipline (image
//! format, MD5 interface digests, verification, lifecycle): **VM
//! switchlets** carrying real bytecode executed by the `switchlet` crate's
//! interpreter, and **native switchlets** (Rust implementations named by
//! their carrier image) for the heavyweight protocol engines — see
//! DESIGN.md §1 for the substitution argument.

pub mod bridge;
pub mod config;
pub mod hostmods;
pub mod loader;
pub mod plane;
pub mod switchlets;

pub use bridge::{
    BridgeCommand, BridgeCtx, BridgeNode, DataFrame, NativeInit, NativeSwitchlet, WATCHDOG_TRAPS,
};
pub use config::{BridgeConfig, StormConfig, StpTimers};
pub use plane::{
    BridgeStats, DataPlaneSel, DecisionCache, LearnOutcome, LearningTable, Plane, PortFlags,
    SwitchletStatus, Verdict,
};
pub use switchlets::control::{ControlSwitchlet, Phase, TransitionEvent, SUPPRESS_WINDOW, TEST_AT};
pub use switchlets::dumb::DumbBridge;
pub use switchlets::learning::LearningBridge;
pub use switchlets::stp::bpdu::{Bpdu, BridgeId, ConfigBpdu, StpVariant};
pub use switchlets::stp::engine::{Defect, PortRole, PortState, StpAction, StpEngine, StpSnapshot};
pub use switchlets::stp::StpSwitchlet;
