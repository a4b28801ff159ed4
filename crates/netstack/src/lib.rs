//! # netstack — the minimal protocol stack of Active Bridging
//!
//! The paper's switchlet loader is a four-layer stack built from scratch:
//! an Ethernet demultiplexer, "a minimal IP sufficient for our purposes"
//! (no fragmentation), a minimal UDP, and a TFTP server that "only
//! services write requests in binary format". This crate is that stack,
//! plus the two measurement substrates the evaluation needs: ICMP echo
//! (for the Figure 9 `ping` latencies) and [`tcplite`] (a from-scratch
//! sliding-window reliable stream standing in for the Linux TCP under
//! `ttcp` in Figure 10 — see DESIGN.md §1 for the substitution argument).
//!
//! Everything here is a pure codec or a pure state machine: no sockets, no
//! clocks. The `hostsim` and `active-bridge` crates bind these machines to
//! simulated NICs and timers.

pub mod arp;
pub mod checksum;
pub mod icmp;
pub mod ipv4;
pub mod tcplite;
pub mod tftp;
pub mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use checksum::{checksum, Checksum};
pub use icmp::{Echo, EchoKind, IcmpError};
pub use ipv4::{IpError, Packet as Ipv4Packet, Protocol};
pub use tcplite::{
    pattern_byte, ReceiverConfig, RecvAction, Segment as TcpLiteSegment, SenderConfig, TcpReceiver,
    TcpSender,
};
pub use tftp::{
    FailureClass, ReceivedFile, SenderStep, TftpPacket, TftpSender, TftpServer, IDLE_SESSION_NS,
};
pub use udp::{Datagram as UdpDatagram, UdpError};
