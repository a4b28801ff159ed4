//! IEEE 802.2 LLC header.
//!
//! 802.1D BPDUs travel in 802.3 frames whose payload begins with the LLC
//! header `DSAP=0x42, SSAP=0x42, control=0x03` (unnumbered information).

/// LLC header length.
pub const LLC_LEN: usize = 3;

/// The bridge spanning-tree SAP.
pub const SAP_BRIDGE: u8 = 0x42;

/// Unnumbered-information control field.
pub const CTRL_UI: u8 = 0x03;

/// An LLC header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Llc {
    /// Destination service access point.
    pub dsap: u8,
    /// Source service access point.
    pub ssap: u8,
    /// Control field.
    pub control: u8,
}

impl Llc {
    /// The header that carries 802.1D BPDUs.
    pub const BPDU: Llc = Llc {
        dsap: SAP_BRIDGE,
        ssap: SAP_BRIDGE,
        control: CTRL_UI,
    };

    /// Parse the header; returns it and the remaining payload.
    pub fn parse(buf: &[u8]) -> Option<(Llc, &[u8])> {
        if buf.len() < LLC_LEN {
            return None;
        }
        Some((
            Llc {
                dsap: buf[0],
                ssap: buf[1],
                control: buf[2],
            },
            &buf[LLC_LEN..],
        ))
    }

    /// Append the header to `out` (a caller composing a frame in one
    /// buffer writes its payload straight behind it).
    #[inline]
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[self.dsap, self.ssap, self.control]);
    }

    /// Emit the header followed by `payload`.
    pub fn wrap(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(LLC_LEN + payload.len());
        self.write_into(&mut out);
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_parse_roundtrip() {
        let wrapped = Llc::BPDU.wrap(b"bpdu body");
        let (llc, rest) = Llc::parse(&wrapped).unwrap();
        assert_eq!(llc, Llc::BPDU);
        assert_eq!(rest, b"bpdu body");
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Llc::parse(&[0x42, 0x42]).is_none());
    }
}
