//! # hostsim — the end systems of the Active Bridging testbed
//!
//! Simulated Pentium/Linux hosts ([`HostNode`]) with a small real stack
//! (ARP, IPv4 with host-side fragmentation, ICMP echo responder) and the
//! measurement applications the paper's evaluation runs:
//!
//! * [`PingApp`] — the Figure 9 latency tool;
//! * [`TtcpSendApp`]/[`TtcpRecvApp`] — the Figure 10 / frame-rate ttcp
//!   pair over `netstack::tcplite`;
//! * [`UploadApp`] — delivers switchlet images to a bridge's TFTP loader;
//! * [`ProbeApp`] — the Section 7.5 two-NIC agility probe;
//! * [`BlastApp`] — a raw-frame workload generator;
//! * [`RepeaterNode`] — the user-mode "C buffered repeater" baseline.

pub mod apps;
pub mod cost;
pub mod host;
pub mod repeater;

pub use apps::{
    App, ArpStormApp, BlastApp, MacFloodApp, PingApp, ProbeApp, RogueBpduApp, TtcpRecvApp,
    TtcpSendApp, TtcpState, UploadApp, UploadState, UPLOAD_BUDGET,
};
pub use cost::HostCostModel;
pub use host::{HostConfig, HostCore, HostNode};
pub use repeater::RepeaterNode;

/// The TFTP server port on bridges.
pub const TFTP_PORT: u16 = 69;
