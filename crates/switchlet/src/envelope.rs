//! Digest-sealed image envelope: the integrity gate's wire format.
//!
//! The paper leans on Caml's MD5 interface digests to keep *mismatched*
//! code out of the bridge; a hostile medium additionally threatens
//! *mangled* code — a switchlet image whose bits flipped in flight. An
//! envelope wraps a switchlet image with enough redundancy to reject a
//! corrupted upload **before** any decode or evaluation touches it:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SWEN"
//! 4       2     version (big-endian, currently 1)
//! 6       2     reserved (zero)
//! 8       4     payload length (big-endian)
//! 12      16    MD5 of the payload
//! 28      n     payload (the switchlet image itself)
//! ```
//!
//! Sealing is **opt-in** per upload: a bare image (no `SWEN` magic) takes
//! the legacy load path untouched, so existing scenarios are bit-for-bit
//! unchanged. MD5 here is an integrity fingerprint against line noise,
//! exactly the role it plays in the paper's interface digests — not an
//! authenticator (the paper: "we have not addressed the authentication
//! issues").

use crate::digest::{md5, Digest};

/// Envelope magic, first bytes on the wire.
pub const ENVELOPE_MAGIC: [u8; 4] = *b"SWEN";

/// Current envelope format version.
pub const ENVELOPE_VERSION: u16 = 1;

/// Header octets preceding the payload.
pub const ENVELOPE_HEADER_LEN: usize = 28;

/// Why [`unseal`] rejected an envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than a header, or the advertised payload length does not
    /// match the bytes that actually arrived.
    Truncated {
        /// Payload octets the header promised (`None`: header itself cut).
        expected: Option<usize>,
        /// Octets actually present after the header.
        got: usize,
    },
    /// An unknown format version — refuse rather than guess.
    BadVersion(u16),
    /// The payload's MD5 does not match the sealed digest.
    DigestMismatch {
        /// Digest the sealer stamped.
        sealed: Digest,
        /// Digest of the payload as received.
        computed: Digest,
    },
}

impl core::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EnvelopeError::Truncated { expected, got } => match expected {
                Some(e) => write!(
                    f,
                    "envelope truncated: {e} payload bytes promised, {got} seen"
                ),
                None => write!(
                    f,
                    "envelope truncated: {got} bytes is shorter than a header"
                ),
            },
            EnvelopeError::BadVersion(v) => write!(f, "unknown envelope version {v}"),
            EnvelopeError::DigestMismatch { sealed, computed } => {
                write!(
                    f,
                    "integrity digest mismatch: sealed {sealed}, computed {computed}"
                )
            }
        }
    }
}

/// Does this blob claim to be an envelope? (Magic check only — the claim
/// is then held to account by [`unseal`].)
pub fn is_enveloped(blob: &[u8]) -> bool {
    blob.len() >= ENVELOPE_MAGIC.len() && blob[..ENVELOPE_MAGIC.len()] == ENVELOPE_MAGIC
}

/// Wrap `payload` in a sealed envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + payload.len());
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&md5(payload).0);
    out.extend_from_slice(payload);
    out
}

/// Verify an envelope and return its payload.
///
/// Checks, in order: header present, version known, advertised length
/// matches the received length, sealed MD5 matches the computed MD5.
/// Only call on blobs where [`is_enveloped`] holds; a bare image is the
/// caller's legacy path, not an error here.
pub fn unseal(blob: &[u8]) -> Result<&[u8], EnvelopeError> {
    debug_assert!(is_enveloped(blob));
    if blob.len() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Truncated {
            expected: None,
            got: blob.len(),
        });
    }
    let version = u16::from_be_bytes([blob[4], blob[5]]);
    if version != ENVELOPE_VERSION || blob[6] != 0 || blob[7] != 0 {
        // Nonzero reserved octets are treated as a version we do not
        // speak — the header is not covered by the digest, so every one
        // of its bits must be load-bearing or checked-zero.
        return Err(EnvelopeError::BadVersion(version));
    }
    let len = u32::from_be_bytes([blob[8], blob[9], blob[10], blob[11]]) as usize;
    let payload = &blob[ENVELOPE_HEADER_LEN..];
    if payload.len() != len {
        return Err(EnvelopeError::Truncated {
            expected: Some(len),
            got: payload.len(),
        });
    }
    let sealed = Digest(
        blob[12..28]
            .try_into()
            .expect("the header check above leaves 28 octets, 12..28 is 16"),
    );
    let computed = md5(payload);
    if sealed != computed {
        return Err(EnvelopeError::DigestMismatch { sealed, computed });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"a switchlet image".to_vec();
        let sealed = seal(&payload);
        assert!(is_enveloped(&sealed));
        assert_eq!(sealed.len(), ENVELOPE_HEADER_LEN + payload.len());
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let sealed = seal(&[]);
        assert_eq!(unseal(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn bare_image_is_not_enveloped() {
        assert!(!is_enveloped(b"plain module bytes"));
        assert!(!is_enveloped(b"SW")); // shorter than the magic
    }

    #[test]
    fn single_bit_flip_anywhere_is_rejected() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let sealed = seal(&payload);
        // Flip one bit in every byte position past the magic (flipping the
        // magic itself just demotes the blob to "bare", which is the
        // legacy path, not a reject).
        for pos in ENVELOPE_MAGIC.len()..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x10;
            assert!(
                unseal(&bad).is_err(),
                "bit flip at {pos} slipped past the gate"
            );
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let sealed = seal(b"payload-payload-payload");
        let short = &sealed[..sealed.len() - 3];
        assert!(matches!(
            unseal(short),
            Err(EnvelopeError::Truncated {
                expected: Some(23),
                got: 20
            })
        ));
        let mut long = sealed.clone();
        long.extend_from_slice(b"junk");
        assert!(matches!(
            unseal(&long),
            Err(EnvelopeError::Truncated { .. })
        ));
        // Header cut mid-digest.
        assert!(matches!(
            unseal(&sealed[..10]),
            Err(EnvelopeError::Truncated {
                expected: None,
                got: 10
            })
        ));
    }

    #[test]
    fn unknown_version_is_refused() {
        let mut sealed = seal(b"x");
        sealed[5] = 9;
        assert_eq!(unseal(&sealed), Err(EnvelopeError::BadVersion(9)));
    }

    #[test]
    fn error_messages_name_the_integrity_gate() {
        let mut sealed = seal(b"abcdef");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        let err = unseal(&sealed).unwrap_err();
        assert!(
            err.to_string().contains("integrity"),
            "the TFTP reject message must let the sender classify: {err}"
        );
    }
}
