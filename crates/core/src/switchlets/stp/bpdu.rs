//! Spanning-tree BPDU wire formats: IEEE 802.1D, and the DEC-style variant
//! the paper built for its protocol-transition experiment.
//!
//! The paper (footnote 4): "To completely implement the DEC protocol would
//! require changing some timings and states as well. We did not do this.
//! We simply required an incompatible packet format so that we could make
//! a transition." We follow suit: the DEC codec below carries the same
//! semantic fields in a deliberately incompatible layout, travels to a
//! different multicast address ([`ether::MacAddr::DEC_BRIDGES`]) under its
//! own EtherType, and cannot be confused with an 802.1D BPDU.

use ether::MacAddr;

/// A bridge identifier: 2-byte priority then 6-byte MAC, compared
/// lexicographically (lower wins elections).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BridgeId {
    /// Management priority (default 0x8000).
    pub priority: u16,
    /// The bridge's MAC address.
    pub mac: MacAddr,
}

impl BridgeId {
    /// Construct.
    pub fn new(priority: u16, mac: MacAddr) -> BridgeId {
        BridgeId { priority, mac }
    }

    /// Wire encoding (8 bytes).
    pub fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..2].copy_from_slice(&self.priority.to_be_bytes());
        out[2..].copy_from_slice(&self.mac.octets());
        out
    }

    /// Decode 8 bytes.
    pub fn decode(buf: &[u8]) -> Option<BridgeId> {
        if buf.len() < 8 {
            return None;
        }
        Some(BridgeId {
            priority: u16::from_be_bytes([buf[0], buf[1]]),
            mac: MacAddr::from_slice(&buf[2..8]).unwrap(),
        })
    }
}

impl core::fmt::Display for BridgeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:04x}.{}", self.priority, self.mac)
    }
}

/// The semantic content of a configuration BPDU (shared by both codecs).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ConfigBpdu {
    /// The transmitter's idea of the root.
    pub root: BridgeId,
    /// Its cost to that root.
    pub root_cost: u32,
    /// The transmitting bridge.
    pub bridge: BridgeId,
    /// The transmitting port (1-based, per 802.1D convention).
    pub port: u16,
    /// Age of the information in seconds (incremented per hop).
    pub message_age: u16,
    /// Lifetime bound in seconds.
    pub max_age: u16,
    /// Root's hello interval in seconds.
    pub hello_time: u16,
    /// Root's forward delay in seconds.
    pub forward_delay: u16,
    /// Topology-change flag.
    pub tc: bool,
    /// Topology-change acknowledgement flag.
    pub tca: bool,
}

/// A parsed BPDU of either kind.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Bpdu {
    /// Configuration BPDU.
    Config(ConfigBpdu),
    /// Topology-change notification.
    Tcn,
}

/// IEEE 802.1D encoding (35 bytes, carried over LLC SAP 0x42 to the
/// All Bridges address).
pub mod ieee {
    use super::{Bpdu, BridgeId, ConfigBpdu};

    /// Encoded length of a configuration BPDU.
    pub const CONFIG_LEN: usize = 35;

    /// Encode.
    pub fn emit(bpdu: &Bpdu) -> Vec<u8> {
        let mut out = Vec::with_capacity(CONFIG_LEN);
        emit_into(bpdu, &mut out);
        out
    }

    /// Encode behind whatever `out` already holds.
    pub fn emit_into(bpdu: &Bpdu, out: &mut Vec<u8>) {
        match bpdu {
            Bpdu::Tcn => out.extend_from_slice(&[0, 0, 0, 0x80]),
            Bpdu::Config(c) => {
                out.extend_from_slice(&[0, 0]); // protocol id
                out.push(0); // version
                out.push(0); // type: config
                let mut flags = 0u8;
                if c.tc {
                    flags |= 0x01;
                }
                if c.tca {
                    flags |= 0x80;
                }
                out.push(flags);
                out.extend_from_slice(&c.root.encode());
                out.extend_from_slice(&c.root_cost.to_be_bytes());
                out.extend_from_slice(&c.bridge.encode());
                out.extend_from_slice(&c.port.to_be_bytes());
                // 802.1D carries times in 1/256ths of a second: sixteen
                // bits hold whole seconds below 256, like DEC's one byte.
                for t in [c.message_age, c.max_age, c.hello_time, c.forward_delay] {
                    out.extend_from_slice(&(t << 8).to_be_bytes());
                }
            }
        }
    }

    /// Decode; `None` if this is not a well-formed 802.1D BPDU.
    pub fn parse(buf: &[u8]) -> Option<Bpdu> {
        if buf.len() < 4 || buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
            return None;
        }
        match buf[3] {
            0x80 => Some(Bpdu::Tcn),
            0x00 => {
                if buf.len() < CONFIG_LEN {
                    return None;
                }
                let flags = buf[4];
                Some(Bpdu::Config(ConfigBpdu {
                    tc: flags & 0x01 != 0,
                    tca: flags & 0x80 != 0,
                    root: BridgeId::decode(&buf[5..13])?,
                    root_cost: u32::from_be_bytes(buf[13..17].try_into().ok()?),
                    bridge: BridgeId::decode(&buf[17..25])?,
                    port: u16::from_be_bytes([buf[25], buf[26]]),
                    message_age: u16::from_be_bytes([buf[27], buf[28]]) / 256,
                    max_age: u16::from_be_bytes([buf[29], buf[30]]) / 256,
                    hello_time: u16::from_be_bytes([buf[31], buf[32]]) / 256,
                    forward_delay: u16::from_be_bytes([buf[33], buf[34]]) / 256,
                }))
            }
            _ => None,
        }
    }
}

/// The DEC-style encoding: same fields, incompatible layout (magic-tagged,
/// little-endian, different field order), carried under EtherType 0x8038
/// to the DEC bridge multicast address.
pub mod dec {
    use super::{Bpdu, BridgeId, ConfigBpdu};
    use ether::MacAddr;

    /// Magic first byte.
    pub const MAGIC: u8 = 0xE1;
    /// Encoded length of a configuration message: magic(1) + type(1) +
    /// bridge(8) + root(8) + cost(4) + port(2) + four timer bytes + two
    /// flag bytes.
    pub const CONFIG_LEN: usize = 30;

    /// Encode.
    pub fn emit(bpdu: &Bpdu) -> Vec<u8> {
        let mut out = Vec::with_capacity(CONFIG_LEN);
        emit_into(bpdu, &mut out);
        out
    }

    /// Encode behind whatever `out` already holds.
    pub fn emit_into(bpdu: &Bpdu, out: &mut Vec<u8>) {
        match bpdu {
            Bpdu::Tcn => out.extend_from_slice(&[MAGIC, 0x02]),
            Bpdu::Config(c) => {
                out.push(MAGIC);
                out.push(0x01); // type: config
                                // DEC-style: bridge first, then root (opposite of IEEE),
                                // little-endian scalars, raw seconds.
                out.extend_from_slice(&c.bridge.priority.to_le_bytes());
                out.extend_from_slice(&c.bridge.mac.octets());
                out.extend_from_slice(&c.root.priority.to_le_bytes());
                out.extend_from_slice(&c.root.mac.octets());
                out.extend_from_slice(&c.root_cost.to_le_bytes());
                out.extend_from_slice(&c.port.to_le_bytes());
                out.push(c.message_age as u8);
                out.push(c.max_age as u8);
                out.push(c.hello_time as u8);
                out.push(c.forward_delay as u8);
                out.push(if c.tc { 1 } else { 0 });
                out.push(if c.tca { 1 } else { 0 });
            }
        }
    }

    /// Decode; `None` if this is not a DEC-style message.
    pub fn parse(buf: &[u8]) -> Option<Bpdu> {
        if buf.len() < 2 || buf[0] != MAGIC {
            return None;
        }
        match buf[1] {
            0x02 => Some(Bpdu::Tcn),
            0x01 => {
                if buf.len() < CONFIG_LEN {
                    return None;
                }
                let bridge = BridgeId {
                    priority: u16::from_le_bytes([buf[2], buf[3]]),
                    mac: MacAddr::from_slice(&buf[4..10]).unwrap(),
                };
                let root = BridgeId {
                    priority: u16::from_le_bytes([buf[10], buf[11]]),
                    mac: MacAddr::from_slice(&buf[12..18]).unwrap(),
                };
                Some(Bpdu::Config(ConfigBpdu {
                    root,
                    root_cost: u32::from_le_bytes(buf[18..22].try_into().ok()?),
                    bridge,
                    port: u16::from_le_bytes([buf[22], buf[23]]),
                    message_age: buf[24] as u16,
                    max_age: buf[25] as u16,
                    hello_time: buf[26] as u16,
                    forward_delay: buf[27] as u16,
                    tc: buf[28] != 0,
                    tca: buf[29] != 0,
                }))
            }
            _ => None,
        }
    }
}

/// Which protocol family a BPDU belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StpVariant {
    /// IEEE 802.1D.
    Ieee,
    /// The DEC-style variant.
    Dec,
}

impl StpVariant {
    /// The destination group address this variant uses.
    pub fn group_addr(self) -> MacAddr {
        match self {
            StpVariant::Ieee => MacAddr::ALL_BRIDGES,
            StpVariant::Dec => MacAddr::DEC_BRIDGES,
        }
    }

    /// Encode a BPDU in this variant's format.
    pub fn emit(self, bpdu: &Bpdu) -> Vec<u8> {
        match self {
            StpVariant::Ieee => ieee::emit(bpdu),
            StpVariant::Dec => dec::emit(bpdu),
        }
    }

    /// Encode a BPDU in this variant's format behind whatever `out`
    /// already holds (a frame under construction: the headers).
    pub fn emit_into(self, bpdu: &Bpdu, out: &mut Vec<u8>) {
        match self {
            StpVariant::Ieee => ieee::emit_into(bpdu, out),
            StpVariant::Dec => dec::emit_into(bpdu, out),
        }
    }

    /// Decode a BPDU in this variant's format.
    pub fn parse(self, buf: &[u8]) -> Option<Bpdu> {
        match self {
            StpVariant::Ieee => ieee::parse(buf),
            StpVariant::Dec => dec::parse(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfigBpdu {
        ConfigBpdu {
            root: BridgeId::new(0x8000, MacAddr::local(1)),
            root_cost: 100,
            bridge: BridgeId::new(0x8000, MacAddr::local(2)),
            port: 2,
            message_age: 1,
            max_age: 20,
            hello_time: 2,
            forward_delay: 15,
            tc: false,
            tca: false,
        }
    }

    #[test]
    fn ieee_roundtrip() {
        let b = Bpdu::Config(sample());
        assert_eq!(ieee::parse(&ieee::emit(&b)), Some(b));
        assert_eq!(ieee::parse(&ieee::emit(&Bpdu::Tcn)), Some(Bpdu::Tcn));
    }

    #[test]
    fn dec_roundtrip() {
        let b = Bpdu::Config(sample());
        assert_eq!(dec::parse(&dec::emit(&b)), Some(b));
        assert_eq!(dec::parse(&dec::emit(&Bpdu::Tcn)), Some(Bpdu::Tcn));
    }

    #[test]
    fn formats_are_mutually_unintelligible() {
        let b = Bpdu::Config(sample());
        assert_eq!(dec::parse(&ieee::emit(&b)), None);
        assert_eq!(ieee::parse(&dec::emit(&b)), None);
    }

    #[test]
    fn bridge_id_ordering() {
        let low_prio = BridgeId::new(0x1000, MacAddr::local(9));
        let high_prio = BridgeId::new(0x8000, MacAddr::local(1));
        assert!(low_prio < high_prio, "priority dominates");
        let a = BridgeId::new(0x8000, MacAddr::local(1));
        let b = BridgeId::new(0x8000, MacAddr::local(2));
        assert!(a < b, "mac breaks ties");
    }

    #[test]
    fn variant_addresses_differ() {
        assert_ne!(StpVariant::Ieee.group_addr(), StpVariant::Dec.group_addr());
    }

    #[test]
    fn truncated_rejected() {
        let b = Bpdu::Config(sample());
        let enc = ieee::emit(&b);
        assert_eq!(ieee::parse(&enc[..20]), None);
        let enc = dec::emit(&b);
        assert_eq!(dec::parse(&enc[..10]), None);
    }

    #[test]
    fn tc_flags_roundtrip() {
        let mut c = sample();
        c.tc = true;
        c.tca = true;
        let b = Bpdu::Config(c);
        assert_eq!(ieee::parse(&ieee::emit(&b)), Some(b));
        assert_eq!(dec::parse(&dec::emit(&b)), Some(b));
    }
}
