//! Ethernet II / 802.3 framing.
//!
//! Parse/emit in the smoltcp idiom: [`Frame`] wraps a borrowed byte slice
//! and exposes typed accessors after a length check; [`FrameBuilder`]
//! assembles a new frame into an owned buffer. Frames in this reproduction
//! carry no FCS (the simulated segment charges FCS as wire overhead); the
//! [`crate::crc`] module is available when an experiment wants a real FCS.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use framebuf::{FrameBuf, FrameBufMut};

use crate::ethertype::EtherType;
use crate::mac::MacAddr;

/// Destination(6) + source(6) + type(2).
pub const HEADER_LEN: usize = 14;
/// Minimum Ethernet payload (frames are padded to this).
pub const MIN_PAYLOAD: usize = 46;
/// Maximum standard Ethernet payload.
pub const MAX_PAYLOAD: usize = 1500;
/// Maximum frame size without FCS.
pub const MAX_FRAME: usize = HEADER_LEN + MAX_PAYLOAD;
/// Minimum frame size without FCS.
pub const MIN_FRAME: usize = HEADER_LEN + MIN_PAYLOAD;

/// Errors from [`Frame::parse`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the 14-byte header.
    Truncated,
    /// Longer than the 1514-byte maximum.
    Oversized,
}

impl core::fmt::Display for FrameError {
    #[inline]
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than Ethernet header"),
            FrameError::Oversized => write!(f, "frame exceeds Ethernet maximum"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed view over an Ethernet frame.
#[derive(Copy, Clone, Debug)]
pub struct Frame<'a> {
    buf: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Validate the length and wrap the buffer.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        if buf.len() > MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        Ok(Frame { buf })
    }

    /// Destination address.
    #[inline]
    pub fn dst(&self) -> MacAddr {
        MacAddr::from_slice(&self.buf[0..6]).unwrap()
    }

    /// Source address.
    #[inline]
    pub fn src(&self) -> MacAddr {
        MacAddr::from_slice(&self.buf[6..12]).unwrap()
    }

    /// The type/length field.
    #[inline]
    pub fn ethertype(&self) -> EtherType {
        EtherType(u16::from_be_bytes([self.buf[12], self.buf[13]]))
    }

    /// The payload after the header. For 802.3 (length-typed) frames this
    /// trims trailing pad octets using the length field.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        let ty = self.ethertype();
        let body = &self.buf[HEADER_LEN..];
        if ty.is_length() {
            let len = (ty.0 as usize).min(body.len());
            &body[..len]
        } else {
            body
        }
    }

    /// The whole frame.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Total frame length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Frames are never empty once parsed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Assemble an Ethernet frame.
///
/// The frame is written once, into a single output buffer:
/// [`FrameBuilder::payload`] lays the header down and appends the payload
/// directly behind it, so building a frame performs exactly one copy of
/// the payload bytes — the build-once point of the zero-copy frame plane
/// (everything downstream shares the resulting buffer by refcount). The
/// buffer comes from the thread's frame pool ([`FrameBufMut::pooled`]):
/// a recycled one when the pool has it, otherwise one allocation sized
/// for the whole frame.
#[derive(Debug)]
pub struct FrameBuilder {
    /// The type field is patched at build time for LLC frames.
    header: [u8; HEADER_LEN],
    /// Header followed by payload, once either has been written.
    buf: FrameBufMut,
    llc: bool,
}

impl FrameBuilder {
    fn with_header(dst: MacAddr, src: MacAddr, ethertype: EtherType, llc: bool) -> Self {
        let mut header = [0u8; HEADER_LEN];
        header[0..6].copy_from_slice(&dst.octets());
        header[6..12].copy_from_slice(&src.octets());
        header[12..14].copy_from_slice(&ethertype.0.to_be_bytes());
        FrameBuilder {
            header,
            buf: FrameBufMut::new(),
            llc,
        }
    }

    /// Start a frame with the given addressing and type.
    #[inline]
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> Self {
        FrameBuilder::with_header(dst, src, ethertype, false)
    }

    /// An 802.3 frame whose type field is the payload length (LLC framing,
    /// used by 802.1D BPDUs). The length is filled in at [`build`] time.
    ///
    /// [`build`]: FrameBuilder::build
    #[inline]
    pub fn new_llc(dst: MacAddr, src: MacAddr) -> Self {
        FrameBuilder::with_header(dst, src, EtherType(0), true)
    }

    /// Set the payload (replacing any payload set earlier).
    #[inline]
    pub fn payload(self, payload: &[u8]) -> Self {
        self.payload_with(payload.len(), |out| out.extend_from_slice(payload))
    }

    /// Write the payload in place (replacing any payload set earlier):
    /// `write` appends about `len_hint` bytes directly behind the header,
    /// so a caller that encodes its payload composes the whole frame in
    /// the one buffer, with no intermediate copy of the payload.
    #[inline]
    pub fn payload_with(mut self, len_hint: usize, write: impl FnOnce(&mut Vec<u8>)) -> Self {
        // Room for the final frame size (including any pad to the
        // Ethernet minimum), so building stays at most one allocation.
        let size = (HEADER_LEN + len_hint).max(MIN_FRAME);
        if self.buf.capacity() == 0 {
            self.buf = FrameBufMut::pooled(size);
        } else {
            self.buf.clear();
            self.buf.reserve(size);
        }
        self.buf.extend_from_slice(&self.header);
        write(self.buf.as_mut_vec());
        self
    }

    /// Emit the frame.
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`]; the caller is
    /// expected to have segmented above this layer (the paper's bridge
    /// cannot fragment either — bridges must not modify frames).
    #[inline]
    pub fn build(mut self) -> FrameBuf {
        if self.buf.is_empty() {
            self = self.payload(&[]);
        }
        let mut buf = self.buf;
        let payload_len = buf.len() - HEADER_LEN;
        assert!(
            payload_len <= MAX_PAYLOAD,
            "payload {payload_len} exceeds Ethernet maximum {MAX_PAYLOAD}"
        );
        if self.llc {
            buf[12..HEADER_LEN].copy_from_slice(&(payload_len as u16).to_be_bytes());
        }
        if buf.len() < MIN_FRAME {
            buf.resize(MIN_FRAME, 0);
        }
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip() {
        let dst = MacAddr::local(1);
        let src = MacAddr::local(2);
        let frame = FrameBuilder::new(dst, src, EtherType::IPV4)
            .payload(b"datagram goes here, long enough not to matter")
            .build();
        let parsed = Frame::parse(&frame).unwrap();
        assert_eq!(parsed.dst(), dst);
        assert_eq!(parsed.src(), src);
        assert_eq!(parsed.ethertype(), EtherType::IPV4);
        assert!(parsed
            .payload()
            .starts_with(b"datagram goes here, long enough not to matter"));
    }

    #[test]
    fn short_payload_padded_to_minimum() {
        let frame = FrameBuilder::new(MacAddr::local(1), MacAddr::local(2), EtherType::IPV4)
            .payload(b"x")
            .build();
        assert_eq!(frame.len(), MIN_FRAME);
    }

    #[test]
    fn llc_frame_sets_length_and_trims_pad() {
        let bpdu = [0x42u8, 0x42, 0x03, 1, 2, 3];
        let frame = FrameBuilder::new_llc(MacAddr::ALL_BRIDGES, MacAddr::local(9))
            .payload(&bpdu)
            .build();
        assert_eq!(frame.len(), MIN_FRAME); // padded
        let parsed = Frame::parse(&frame).unwrap();
        assert!(parsed.ethertype().is_length());
        assert_eq!(parsed.payload(), &bpdu); // pad trimmed by length field
    }

    #[test]
    fn a_frame_is_built_in_recycled_storage() {
        let build = |b: FrameBuilder| b.payload(&[0x42, 0x42, 0x03, 7]).build();
        for llc in [false, true] {
            let start = || match llc {
                false => FrameBuilder::new(MacAddr::local(1), MacAddr::local(2), EtherType::ARP),
                true => FrameBuilder::new_llc(MacAddr::ALL_BRIDGES, MacAddr::local(2)),
            };
            let fresh = build(start());
            let mut dead = FrameBufMut::with_capacity(MAX_FRAME);
            dead.extend_from_slice(b"a dead frame's bytes");
            let dead = dead.freeze();
            let storage = dead.as_ptr();
            dead.recycle();
            let frame = build(start());
            assert_eq!(frame, fresh);
            assert_eq!(frame.as_ptr(), storage, "built in place");
        }
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Frame::parse(&[0u8; 13]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_rejected() {
        let buf = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(Frame::parse(&buf), Err(FrameError::Oversized)));
    }

    #[test]
    #[should_panic(expected = "exceeds Ethernet maximum")]
    fn oversized_build_panics() {
        let _ = FrameBuilder::new(MacAddr::local(1), MacAddr::local(2), EtherType::IPV4)
            .payload(&vec![0u8; MAX_PAYLOAD + 1])
            .build();
    }
}
