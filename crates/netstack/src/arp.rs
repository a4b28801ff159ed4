//! Minimal ARP (RFC 826) for Ethernet/IPv4 — the simulated hosts need to
//! resolve each other's MAC addresses; bridges forward ARP like any other
//! frame (they are transparent).

use std::net::Ipv4Addr;

use ether::MacAddr;

/// ARP packet length for Ethernet/IPv4.
pub const PACKET_LEN: usize = 28;

/// Request or reply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 only).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: MacAddr,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub tha: MacAddr,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

/// Errors from [`ArpPacket::parse`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArpError {
    /// Too short.
    Truncated,
    /// Not Ethernet/IPv4 ARP.
    Unsupported,
}

impl core::fmt::Display for ArpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArpError::Truncated => write!(f, "truncated ARP packet"),
            ArpError::Unsupported => write!(f, "unsupported ARP packet"),
        }
    }
}

impl std::error::Error for ArpError {}

impl ArpPacket {
    /// Parse an ARP packet.
    pub fn parse(buf: &[u8]) -> Result<ArpPacket, ArpError> {
        if buf.len() < PACKET_LEN {
            return Err(ArpError::Truncated);
        }
        // htype=1 (Ethernet), ptype=0x0800 (IPv4), hlen=6, plen=4.
        if buf[0..6] != [0, 1, 8, 0, 6, 4] {
            return Err(ArpError::Unsupported);
        }
        let op = match u16::from_be_bytes([buf[6], buf[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(ArpError::Unsupported),
        };
        Ok(ArpPacket {
            op,
            sha: MacAddr::from_slice(&buf[8..14]).unwrap(),
            spa: Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]),
            tha: MacAddr::from_slice(&buf[18..24]).unwrap(),
            tpa: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
        })
    }

    /// Assemble this packet (fixed-size, so no allocation).
    pub fn emit(&self) -> [u8; PACKET_LEN] {
        let mut buf = [0u8; PACKET_LEN];
        buf[0..6].copy_from_slice(&[0, 1, 8, 0, 6, 4]);
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        buf[6..8].copy_from_slice(&op.to_be_bytes());
        buf[8..14].copy_from_slice(&self.sha.octets());
        buf[14..18].copy_from_slice(&self.spa.octets());
        buf[18..24].copy_from_slice(&self.tha.octets());
        buf[24..28].copy_from_slice(&self.tpa.octets());
        buf
    }

    /// A who-has request.
    pub fn request(sha: MacAddr, spa: Ipv4Addr, tpa: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sha,
            spa,
            tha: MacAddr::ZERO,
            tpa,
        }
    }

    /// The is-at reply to this request.
    pub fn reply_with(&self, my_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sha: my_mac,
            spa: self.tpa,
            tha: self.sha,
            tpa: self.spa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn request_reply_roundtrip() {
        let mac_a = MacAddr::local(1);
        let mac_b = MacAddr::local(2);
        let req = ArpPacket::request(mac_a, IP_A, IP_B);
        let parsed = ArpPacket::parse(&req.emit()).unwrap();
        assert_eq!(parsed, req);
        let rep = parsed.reply_with(mac_b);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sha, mac_b);
        assert_eq!(rep.spa, IP_B);
        assert_eq!(rep.tha, mac_a);
        assert_eq!(rep.tpa, IP_A);
        let parsed_rep = ArpPacket::parse(&rep.emit()).unwrap();
        assert_eq!(parsed_rep, rep);
    }

    #[test]
    fn padding_tolerated() {
        let req = ArpPacket::request(MacAddr::local(1), IP_A, IP_B);
        let mut bytes = req.emit().to_vec();
        bytes.resize(46, 0); // Ethernet minimum padding
        assert_eq!(ArpPacket::parse(&bytes).unwrap(), req);
    }

    #[test]
    fn non_ethernet_rejected() {
        let req = ArpPacket::request(MacAddr::local(1), IP_A, IP_B);
        let mut bytes = req.emit();
        bytes[1] = 6; // htype = IEEE 802? unsupported
        assert_eq!(ArpPacket::parse(&bytes).unwrap_err(), ArpError::Unsupported);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(ArpPacket::parse(&[0; 27]).unwrap_err(), ArpError::Truncated);
    }
}
