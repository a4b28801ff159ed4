//! MAC (IEEE 802) addresses and the well-known group addresses the paper's
//! protocols use.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address (never valid on the wire).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// The 802.1D "All Bridges" group address `01:80:c2:00:00:00` — the
    /// destination of IEEE spanning-tree BPDUs. The paper's third switchlet
    /// "registers with the demultiplexer requesting packets addressed to
    /// the All Bridges multicast address".
    pub const ALL_BRIDGES: MacAddr = MacAddr([0x01, 0x80, 0xc2, 0x00, 0x00, 0x00]);

    /// The DEC bridge-management group address `09:00:2b:01:00:00` — the
    /// destination the paper's modified ("old protocol") switchlet sends
    /// DEC-style spanning tree packets to.
    pub const DEC_BRIDGES: MacAddr = MacAddr([0x09, 0x00, 0x2b, 0x01, 0x00, 0x00]);

    /// Construct from raw octets.
    #[inline]
    pub const fn new(octets: [u8; 6]) -> MacAddr {
        MacAddr(octets)
    }

    /// A deterministic locally-administered unicast address derived from an
    /// index — handy for assigning simulated NIC addresses.
    #[inline]
    pub const fn local(index: u32) -> MacAddr {
        let b = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// The raw octets.
    #[inline]
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// True for group (multicast or broadcast) addresses: I/G bit set.
    #[inline]
    pub const fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True only for `ff:ff:ff:ff:ff:ff`.
    #[inline]
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// True for a unicast (individual) address.
    #[inline]
    pub const fn is_unicast(self) -> bool {
        !self.is_multicast()
    }

    /// Parse from a byte slice. Returns `None` unless exactly 6 bytes.
    #[inline]
    pub fn from_slice(bytes: &[u8]) -> Option<MacAddr> {
        let arr: [u8; 6] = bytes.try_into().ok()?;
        Some(MacAddr(arr))
    }
}

impl fmt::Display for MacAddr {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error from [`MacAddr::from_str`].
#[derive(Debug, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    /// Parses `aa:bb:cc:dd:ee:ff` (also accepts `-` separators).
    #[inline]
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for slot in &mut octets {
            let part = parts.next().ok_or(ParseMacError)?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_bits() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::ALL_BRIDGES.is_multicast());
        assert!(!MacAddr::ALL_BRIDGES.is_broadcast());
        assert!(MacAddr::DEC_BRIDGES.is_multicast());
        assert!(MacAddr::local(7).is_unicast());
    }

    #[test]
    fn local_addresses_are_distinct() {
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(MacAddr::local(1), MacAddr::local(1));
    }

    #[test]
    fn display_roundtrip() {
        let m = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let s = m.to_string();
        assert_eq!(s, "de:ad:be:ef:00:42");
        assert_eq!(s.parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_dash_separated() {
        assert_eq!(
            "01-80-c2-00-00-00".parse::<MacAddr>().unwrap(),
            MacAddr::ALL_BRIDGES
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("1:2:3".parse::<MacAddr>().is_err());
        assert!("zz:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("00:00:00:00:00:00:00".parse::<MacAddr>().is_err());
    }

    #[test]
    fn from_slice_checks_length() {
        assert_eq!(MacAddr::from_slice(&[1, 2, 3]), None);
        assert_eq!(
            MacAddr::from_slice(&[1, 2, 3, 4, 5, 6]),
            Some(MacAddr::new([1, 2, 3, 4, 5, 6]))
        );
    }
}
