//! EtherType values.
//!
//! The paper's lowest loader layer "demultiplexes these frames based on the
//! Ethernet protocol identifier" — this module is that identifier space.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use core::fmt;

/// A 16-bit EtherType (or, for values < 1536, an 802.3 length — which this
/// reproduction treats as LLC-framed).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP.
    pub const ARP: EtherType = EtherType(0x0806);
    /// Frames whose type field is an 802.3 length and whose payload starts
    /// with an LLC header — how 802.1D BPDUs travel.
    pub const LLC_THRESHOLD: u16 = 0x0600;
    /// The DEC LANbridge spanning-tree protocol ("DEC MOP"-adjacent; the
    /// paper only requires an *incompatible* format, see footnote 4).
    pub const DEC_STP: EtherType = EtherType(0x8038);
    /// Local experimental type used by this reproduction's measurement
    /// probes (never forwarded differently from data).
    pub const EXPERIMENTAL: EtherType = EtherType(0x88B5);

    /// True if this value is really an 802.3 length field.
    #[inline]
    pub const fn is_length(self) -> bool {
        self.0 < Self::LLC_THRESHOLD
    }
}

impl fmt::Display for EtherType {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EtherType::IPV4 => write!(f, "IPv4"),
            EtherType::ARP => write!(f, "ARP"),
            EtherType::DEC_STP => write!(f, "DEC-STP"),
            EtherType(v) if v < EtherType::LLC_THRESHOLD => write!(f, "802.3-len({v})"),
            EtherType(v) => write!(f, "0x{v:04x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_vs_type() {
        assert!(EtherType(100).is_length());
        assert!(EtherType(0x05ff).is_length());
        assert!(!EtherType::IPV4.is_length());
    }

    #[test]
    fn display() {
        assert_eq!(EtherType::IPV4.to_string(), "IPv4");
        assert_eq!(EtherType(0x9000).to_string(), "0x9000");
        assert_eq!(EtherType(38).to_string(), "802.3-len(38)");
    }
}
