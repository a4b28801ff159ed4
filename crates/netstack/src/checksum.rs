//! The Internet checksum (RFC 1071): 16-bit ones'-complement sum.
//!
//! The accumulator is 64 bits wide, and input of 32 bytes or more is
//! summed 32 bytes at a time in the machine's own byte order (RFC 1071
//! §2(C): "the sum may be computed in a larger register ... on machines
//! with a wide addition unit" — ones'-complement addition is associative
//! under end-around carry, so any word grouping folds to the same 16-bit
//! sum; §2(B): the sum of byte-swapped words is the byte-swapped sum, so
//! the order is put right once per call, not once per word). This is the
//! per-frame TCP/ICMP payload pass on the ttcp path; the produced
//! checksums are bit-identical to a 16-bit-at-a-time big-endian loop.

// Every codec in this crate and `hostsim`'s apps call these per frame, and
// rustc inlines across a crate boundary only what is marked
// (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

/// Accumulates a ones'-complement sum.
#[derive(Default, Clone, Copy, Debug)]
pub struct Checksum {
    sum: u64,
    /// True when an odd byte is pending (data fed in odd-sized chunks).
    odd: Option<u8>,
}

impl Checksum {
    /// Fresh accumulator.
    #[inline]
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Add with end-around carry (keeps the accumulator congruent to the
    /// true sum modulo 2^16 − 1, which is all the final fold needs).
    #[inline]
    fn accum(&mut self, w: u64) {
        let (s, carry) = self.sum.overflowing_add(w);
        self.sum = s + carry as u64;
    }

    /// Feed bytes.
    #[inline]
    pub fn add(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.odd.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.accum(u64::from(u16::from_be_bytes([hi, lo])));
                data = rest;
            } else {
                self.odd = Some(hi);
                return;
            }
        }
        // Wide path: sum little-endian u32 words (each two 16-bit words,
        // congruent to their sum modulo 2^16 − 1) into eight
        // *independent* u64 lanes — no carry chain between iterations and
        // no byte swap per word, so the loop vectorizes. A u64 lane
        // absorbs 2^32 u32-words without overflowing, far beyond any
        // frame size. The lanes fold to the 16-bit sum of the
        // byte-swapped words; one swap turns it into the sum of the
        // words themselves (zero stays zero, so the 0x0000/0xFFFF
        // distinction `finish` makes is kept). Short input — pseudo-header
        // fields, ACKs — skips the lane fold and goes four bytes a step.
        if data.len() >= 32 {
            let mut lanes = [0u64; 8];
            let mut wide = data.chunks_exact(32);
            for c in &mut wide {
                for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(4)) {
                    *lane += u64::from(u32::from_le_bytes(w.try_into().unwrap()));
                }
            }
            let mut sum: u64 = lanes.iter().map(|l| (l & 0xFFFF_FFFF) + (l >> 32)).sum();
            while sum >> 16 != 0 {
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
            self.accum(u64::from((sum as u16).swap_bytes()));
            data = wide.remainder();
        }
        // Under 32 bytes remain: big-endian u32 words (each congruent to
        // the sum of its two 16-bit words, since 2^16 ≡ 1 modulo
        // 2^16 − 1) summed into a local that at most seven of them cannot
        // overflow, then one trailing 16-bit word, folded in once.
        let mut words = data.chunks_exact(4);
        let mut sum: u64 = words
            .by_ref()
            .map(|w| u64::from(u32::from_be_bytes(w.try_into().unwrap())))
            .sum();
        let mut rest = words.remainder();
        if let [hi, lo, tail @ ..] = rest {
            sum += u64::from(u16::from_be_bytes([*hi, *lo]));
            rest = tail;
        }
        self.accum(sum);
        if let [last] = rest {
            self.odd = Some(*last);
        }
    }

    /// Feed a 16-bit word.
    #[inline]
    pub fn add_u16(&mut self, v: u16) {
        self.add(&v.to_be_bytes());
    }

    /// Fold another accumulator's state into this one, as if the bytes it
    /// consumed had been fed here instead. Valid only while `self` sits at
    /// an even byte offset (no pending odd byte) — the caller is composing
    /// `[even-length prefix] ++ [suffix summed elsewhere]`. This is how
    /// hot paths reuse a precomputed payload sum instead of re-walking an
    /// unchanged payload per packet.
    #[inline]
    pub fn add_partial(&mut self, other: Checksum) {
        debug_assert!(
            self.odd.is_none(),
            "add_partial requires an even-offset accumulator"
        );
        self.accum(other.sum);
        self.odd = other.odd;
    }

    /// Finish: fold carries and complement.
    #[inline]
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.odd.take() {
            self.accum(u64::from(u16::from_be_bytes([hi, 0])));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum of a buffer.
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already in place: the total
/// must come out zero.
#[inline]
pub fn verify(data: &[u8]) -> bool {
    let mut c = Checksum::new();
    c.add(data);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Longest input the reference comparison runs on (past 4 KiB, at a
    /// length that is not a multiple of the 32-byte wide step).
    const MAX_LEN: usize = 4100;

    #[test]
    fn rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2 -> cksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn chunked_equals_one_shot() {
        let data: Vec<u8> = (0..37u8).collect();
        let one = checksum(&data);
        for cut in 1..data.len() {
            let mut c = Checksum::new();
            c.add(&data[..cut]);
            c.add(&data[cut..]);
            assert_eq!(c.finish(), one, "split at {cut}");
        }
    }

    /// The plain 16-bit big-endian ones'-complement sum the accumulator
    /// must agree with, however wide it reads.
    fn reference(d: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for c in d.chunks(2) {
            let w = if c.len() == 2 {
                u16::from_be_bytes([c[0], c[1]])
            } else {
                u16::from_be_bytes([c[0], 0])
            };
            sum += u32::from(w);
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Arbitrary bytes, the multiplicative-hash bytes the fixed-length
        /// cases (0, 1, 2, 7, 8, 9, 1462, 4096, 4097) used to run on, and
        /// all-`0x00` / all-`0xFF` (where the fold meets its
        /// `0x0000`/`0xFFFF` edge): every length one-shot, and cut in two
        /// and in three at drawn points moved through both parities, so a
        /// pending odd byte enters and leaves the wide path.
        #[test]
        fn wide_accumulation_matches_16bit_reference(
            random in prop::collection::vec(any::<u8>(), MAX_LEN),
            a in 0..MAX_LEN,
            b in 0..MAX_LEN,
        ) {
            let hashed: Vec<u8> = (0..MAX_LEN as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect();
            for data in [random, hashed, vec![0x00; MAX_LEN], vec![0xFF; MAX_LEN]] {
                for len in 0..=MAX_LEN {
                    let d = &data[..len];
                    prop_assert_eq!(checksum(d), reference(d), "len {}", len);
                }
                for (da, db) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let (i, j) = ((a + da).min(b + db), (a + da).max(b + db));
                    let mut two = Checksum::new();
                    two.add(&data[..i]);
                    two.add(&data[i..]);
                    prop_assert_eq!(two.finish(), reference(&data), "cut at {}", i);
                    let mut three = Checksum::new();
                    three.add(&data[..i]);
                    three.add(&data[i..j]);
                    three.add(&data[j..]);
                    prop_assert_eq!(three.finish(), reference(&data), "cuts at {} and {}", i, j);
                }
            }
        }
    }

    /// The short path (under 32 bytes, and the wide path's remainder):
    /// every length to 96, fed whole and split in two at every offset,
    /// on hashed bytes and on all-`0x00` / all-`0xFF`.
    #[test]
    fn short_lengths_match_16bit_reference_at_every_split() {
        let hashed: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for data in [hashed, vec![0x00; 96], vec![0xFF; 96]] {
            for len in 0..=96 {
                let d = &data[..len];
                assert_eq!(checksum(d), reference(d), "len {len}");
                for cut in 0..=len {
                    let mut c = Checksum::new();
                    c.add(&d[..cut]);
                    c.add(&d[cut..]);
                    assert_eq!(c.finish(), reference(d), "len {len} split at {cut}");
                }
            }
        }
    }

    #[test]
    fn verify_roundtrip() {
        // Build a pseudo-header-free packet with checksum at offset 2.
        let mut pkt = vec![0x45, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78];
        let c = checksum(&pkt);
        pkt[2..4].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&pkt));
        pkt[5] ^= 1;
        assert!(!verify(&pkt));
    }
}
