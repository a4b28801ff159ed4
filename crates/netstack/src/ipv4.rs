//! Minimal IPv4, after the paper's network loader: "The next layer
//! implements a minimal IP sufficient for our purposes. (It does not, for
//! example, implement fragmentation.)" Headers are always 20 bytes (no
//! options); [`Packet::parse`] rejects fragments and [`emit`] refuses
//! oversized datagrams. The hosts, which run full IP, parse fragments
//! with [`Packet::parse_fragment`] and fragment with [`emit_fragments`].

use core::fmt;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::checksum::{checksum, verify};

/// Fixed header length (no options).
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used in this reproduction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Protocol(pub u8);

impl Protocol {
    /// ICMP.
    pub const ICMP: Protocol = Protocol(1);
    /// UDP.
    pub const UDP: Protocol = Protocol(17);
    /// TcpLite (an experimental number; the real ttcp used TCP, protocol
    /// 6 — we keep a distinct number to make clear this is not full TCP).
    pub const TCPLITE: Protocol = Protocol(253);
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Protocol::ICMP => write!(f, "icmp"),
            Protocol::UDP => write!(f, "udp"),
            Protocol::TCPLITE => write!(f, "tcplite"),
            Protocol(p) => write!(f, "proto{p}"),
        }
    }
}

/// Parse/emit errors.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IpError {
    /// Too short for a header, or shorter than its own total-length field.
    Truncated,
    /// Not version 4 or has options (IHL != 5).
    BadHeader,
    /// Header checksum failed.
    BadChecksum,
    /// A fragment arrived (MF set or offset nonzero) — unsupported.
    Fragmented,
    /// Payload too large to emit without fragmentation.
    TooLarge,
}

impl fmt::Display for IpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpError::Truncated => write!(f, "truncated IP datagram"),
            IpError::BadHeader => write!(f, "unsupported IP header"),
            IpError::BadChecksum => write!(f, "IP header checksum mismatch"),
            IpError::Fragmented => write!(f, "fragmentation not implemented"),
            IpError::TooLarge => write!(f, "datagram exceeds MTU"),
        }
    }
}

impl std::error::Error for IpError {}

/// A parsed IPv4 datagram view.
#[derive(Copy, Clone, Debug)]
pub struct Packet<'a> {
    buf: &'a [u8],
}

impl<'a> Packet<'a> {
    /// Parse and validate a datagram, refusing fragments (the loader's
    /// minimal IP).
    pub fn parse(buf: &'a [u8]) -> Result<Packet<'a>, IpError> {
        Self::parse_as(buf, false)
    }

    /// Parse and validate a datagram that may be one fragment of a larger
    /// one (hosts only: they run full IP).
    #[inline]
    pub fn parse_fragment(buf: &'a [u8]) -> Result<Packet<'a>, IpError> {
        Self::parse_as(buf, true)
    }

    #[inline]
    fn parse_as(buf: &'a [u8], fragments: bool) -> Result<Packet<'a>, IpError> {
        if buf.len() < HEADER_LEN {
            return Err(IpError::Truncated);
        }
        if buf[0] != 0x45 {
            // version 4, IHL 5 — anything else is out of scope.
            return Err(IpError::BadHeader);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < HEADER_LEN || buf.len() < total_len {
            return Err(IpError::Truncated);
        }
        let packet = Packet {
            buf: &buf[..total_len],
        };
        if !fragments && packet.is_fragment() {
            return Err(IpError::Fragmented);
        }
        if !verify(&buf[..HEADER_LEN]) {
            return Err(IpError::BadChecksum);
        }
        Ok(packet)
    }

    /// Source address.
    #[inline]
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    #[inline]
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// Time to live.
    #[inline]
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// Payload protocol.
    #[inline]
    pub fn protocol(&self) -> Protocol {
        Protocol(self.buf[9])
    }

    /// Identification field.
    #[inline]
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// More-fragments flag.
    #[inline]
    pub fn more_fragments(&self) -> bool {
        u16::from_be_bytes([self.buf[6], self.buf[7]]) & 0x2000 != 0
    }

    /// Fragment offset in bytes.
    #[inline]
    pub fn offset_bytes(&self) -> usize {
        ((u16::from_be_bytes([self.buf[6], self.buf[7]]) & 0x1FFF) as usize) * 8
    }

    /// True if this datagram is one fragment of a larger one.
    #[inline]
    pub fn is_fragment(&self) -> bool {
        self.more_fragments() || self.offset_bytes() != 0
    }

    /// The payload.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.buf[HEADER_LEN..]
    }
}

/// Append a 20-byte IPv4 header for a payload of `payload_len` bytes
/// (which the caller appends right behind it). The header checksum is
/// complete — it covers only the header, so the payload may be generated
/// in place afterwards. Hot-path building block; no validation (callers
/// check the MTU).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn emit_header_append(
    buf: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    ident: u16,
    ttl: u8,
    payload_len: usize,
    more_fragments: bool,
    offset_bytes: usize,
) {
    let total = HEADER_LEN + payload_len;
    debug_assert!(total <= u16::MAX as usize);
    debug_assert_eq!(offset_bytes % 8, 0);
    // Compose on the stack and append once (one bounds check, and the
    // checksum pass reads cache-hot bytes).
    let mut h = [0u8; HEADER_LEN];
    h[0] = 0x45;
    // h[1]: TOS = 0
    h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    h[4..6].copy_from_slice(&ident.to_be_bytes());
    let mut flags_frag = (offset_bytes / 8) as u16;
    if more_fragments {
        flags_frag |= 0x2000;
    }
    h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
    h[8] = ttl;
    h[9] = protocol.0;
    // h[10..12]: checksum placeholder
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let c = checksum(&h);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    buf.reserve(total);
    buf.extend_from_slice(&h);
}

#[allow(clippy::too_many_arguments)]
fn emit_raw(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    ident: u16,
    ttl: u8,
    payload: &[u8],
    more_fragments: bool,
    offset_bytes: usize,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    emit_header_append(
        &mut buf,
        src,
        dst,
        protocol,
        ident,
        ttl,
        payload.len(),
        more_fragments,
        offset_bytes,
    );
    buf.extend_from_slice(payload);
    buf
}

/// Assemble a datagram. `mtu` is the link MTU the caller must respect;
/// exceeding it errors (no fragmentation — the loader stack's rule).
pub fn emit(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    ident: u16,
    ttl: u8,
    payload: &[u8],
    mtu: usize,
) -> Result<Vec<u8>, IpError> {
    let total = HEADER_LEN + payload.len();
    if total > mtu || total > u16::MAX as usize {
        return Err(IpError::TooLarge);
    }
    Ok(emit_raw(src, dst, protocol, ident, ttl, payload, false, 0))
}

/// Assemble a datagram, fragmenting if it exceeds `mtu` — what the
/// *hosts* (full Linux IP in the paper's testbed) do; bridges forward
/// fragments like any other frame, and the loader stack never sees them.
pub fn emit_fragments(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    ident: u16,
    ttl: u8,
    payload: &[u8],
    mtu: usize,
) -> Vec<Vec<u8>> {
    if HEADER_LEN + payload.len() <= mtu {
        return vec![emit_raw(src, dst, protocol, ident, ttl, payload, false, 0)];
    }
    // Fragment payload size: MTU minus header, rounded down to 8 bytes.
    let chunk = (mtu - HEADER_LEN) & !7;
    assert!(chunk > 0, "mtu too small to fragment");
    let mut out = Vec::new();
    let mut offset = 0;
    while offset < payload.len() {
        let end = (offset + chunk).min(payload.len());
        let mf = end < payload.len();
        out.push(emit_raw(
            src,
            dst,
            protocol,
            ident,
            ttl,
            &payload[offset..end],
            mf,
            offset,
        ));
        offset = end;
    }
    out
}

/// Host-side fragment reassembly (in-order, hole-free — which is what a
/// deterministic simulated LAN delivers; anything else is dropped).
///
/// What it holds is bounded whatever arrives: state exists only for
/// datagrams whose first fragment was seen, and for at most
/// [`Reassembler::MAX_PENDING`] of them.
#[derive(Default)]
pub struct Reassembler {
    /// Unfinished datagrams by `(source, ident, protocol)`, the one that
    /// has waited longest for its next fragment first.
    pending: VecDeque<((Ipv4Addr, u16, u8), Vec<u8>)>,
}

impl Reassembler {
    /// Unfinished datagrams held at once. A LAN host has a handful of
    /// peers and a datagram's fragments arrive back to back, so the cap is
    /// only met when tails are lost or forged; the longest-stalled
    /// datagram then makes room.
    pub const MAX_PENDING: usize = 64;

    /// Fresh reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feed one fragment; returns the whole payload when complete.
    pub fn push(&mut self, pkt: &Packet<'_>) -> Option<Vec<u8>> {
        let key = (pkt.src(), pkt.ident(), pkt.protocol().0);
        let offset = pkt.offset_bytes();
        let held = self.pending.iter().position(|(k, _)| *k == key);
        let mut data = if offset == 0 {
            // A first fragment starts its datagram over (retransmission).
            if let Some(at) = held {
                self.pending.remove(at);
            }
            Vec::new()
        } else {
            // A later fragment only ever extends the datagram it
            // continues; an orphan or out-of-order one leaves no trace.
            let at = held.filter(|&at| self.pending[at].1.len() == offset)?;
            self.pending.remove(at)?.1
        };
        data.extend_from_slice(pkt.payload());
        if !pkt.more_fragments() {
            return Some(data);
        }
        if self.pending.len() == Self::MAX_PENDING {
            self.pending.pop_front();
        }
        self.pending.push_back((key, data));
        None
    }

    /// Incomplete datagrams currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn emit_parse_roundtrip() {
        let pkt = emit(A, B, Protocol::UDP, 7, 64, b"payload!", 1500).unwrap();
        let p = Packet::parse(&pkt).unwrap();
        assert_eq!(p.src(), A);
        assert_eq!(p.dst(), B);
        assert_eq!(p.protocol(), Protocol::UDP);
        assert_eq!(p.ident(), 7);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.payload(), b"payload!");
    }

    #[test]
    fn trailing_padding_trimmed_by_total_len() {
        // Ethernet pads short frames; the IP total-length field recovers
        // the real datagram.
        let mut pkt = emit(A, B, Protocol::ICMP, 1, 64, b"xy", 1500).unwrap();
        pkt.resize(60, 0); // simulated Ethernet padding
        let p = Packet::parse(&pkt).unwrap();
        assert_eq!(p.payload(), b"xy");
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut pkt = emit(A, B, Protocol::UDP, 7, 64, b"data", 1500).unwrap();
        pkt[14] ^= 0x40; // flip a source-address bit
        assert!(matches!(Packet::parse(&pkt), Err(IpError::BadChecksum)));
    }

    #[test]
    fn fragments_rejected() {
        let mut pkt = emit(A, B, Protocol::UDP, 7, 64, b"data", 1500).unwrap();
        pkt[6] = 0x20; // MF
                       // refresh checksum so only the fragment check fires
        pkt[10] = 0;
        pkt[11] = 0;
        let c = checksum(&pkt[..HEADER_LEN]);
        pkt[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(matches!(Packet::parse(&pkt), Err(IpError::Fragmented)));
    }

    #[test]
    fn oversized_send_refused() {
        let big = vec![0u8; 1481];
        assert!(matches!(
            emit(A, B, Protocol::UDP, 0, 64, &big, 1500),
            Err(IpError::TooLarge)
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Packet::parse(&[0x45; 10]),
            Err(IpError::Truncated)
        ));
    }

    #[test]
    fn fragmentation_roundtrip() {
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 253) as u8).collect();
        let frags = emit_fragments(A, B, Protocol::ICMP, 9, 64, &payload, 1500);
        assert!(frags.len() >= 3, "4000 bytes over 1500 MTU needs 3 frames");
        // Every fragment fits the MTU and parses as a fragment.
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &frags {
            assert!(f.len() <= 1500);
            let p = Packet::parse_fragment(f).unwrap();
            assert!(p.is_fragment());
            if let Some(done) = r.push(&p) {
                out = Some(done);
            }
        }
        assert_eq!(out.unwrap(), payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn small_payload_not_fragmented() {
        let frags = emit_fragments(A, B, Protocol::UDP, 9, 64, b"tiny", 1500);
        assert_eq!(frags.len(), 1);
        let p = Packet::parse_fragment(&frags[0]).unwrap();
        assert!(!p.is_fragment());
        // And the strict parser accepts it too.
        assert!(Packet::parse(&frags[0]).is_ok());
    }

    #[test]
    fn strict_parser_still_rejects_fragments() {
        let payload = vec![0u8; 3000];
        let frags = emit_fragments(A, B, Protocol::ICMP, 9, 64, &payload, 1500);
        for f in &frags {
            assert!(matches!(Packet::parse(f), Err(IpError::Fragmented)));
        }
    }

    #[test]
    fn reassembler_restarts_on_duplicate_first_fragment() {
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let frags = emit_fragments(A, B, Protocol::ICMP, 5, 64, &payload, 1500);
        let mut r = Reassembler::new();
        // First fragment twice (retransmission): restart, then complete.
        let p0 = Packet::parse_fragment(&frags[0]).unwrap();
        assert!(r.push(&p0).is_none());
        assert!(r.push(&p0).is_none());
        let mut out = None;
        for f in &frags[1..] {
            out = r.push(&Packet::parse_fragment(f).unwrap());
        }
        assert_eq!(out.unwrap(), payload);
    }

    /// Two-fragment datagrams with distinct idents, one per `u16` below
    /// `n`, from one source.
    fn two_fragment_datagrams(n: u16) -> impl Iterator<Item = Vec<Vec<u8>>> {
        (0..n).map(|ident| {
            let frags = emit_fragments(A, B, Protocol::UDP, ident, 64, &[ident as u8; 2000], 1500);
            assert_eq!(frags.len(), 2);
            frags
        })
    }

    #[test]
    fn orphan_fragments_leave_no_state() {
        let mut r = Reassembler::new();
        for frags in two_fragment_datagrams(10_000) {
            assert!(r
                .push(&Packet::parse_fragment(&frags[1]).unwrap())
                .is_none());
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn unfinished_datagrams_are_capped_and_the_newest_still_complete() {
        let mut r = Reassembler::new();
        let mut tails = Vec::new();
        for mut frags in two_fragment_datagrams(10_000) {
            assert!(r
                .push(&Packet::parse_fragment(&frags[0]).unwrap())
                .is_none());
            tails.push(frags.pop().unwrap());
        }
        assert_eq!(r.pending(), Reassembler::MAX_PENDING);
        // The longest-stalled went first: the oldest tail finds nothing,
        // the newest completes its datagram.
        assert!(r
            .push(&Packet::parse_fragment(&tails[0]).unwrap())
            .is_none());
        let whole = r.push(&Packet::parse_fragment(&tails[9_999]).unwrap());
        assert_eq!(whole.unwrap(), vec![9_999u16 as u8; 2000]);
        assert_eq!(r.pending(), Reassembler::MAX_PENDING - 1);
    }
}
