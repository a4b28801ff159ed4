//! MD5 (RFC 1321), implemented in-repo.
//!
//! The paper: "When Caml compiles a set of sources into byte codes, it
//! includes an MD5 digest of the interfaces required by this module as well
//! as the MD5 digest of the interface exported by this module." We use the
//! same construction for switchlet interface digests. MD5 is used here as a
//! *format fingerprint*, exactly as Caml used it — not as a cryptographic
//! authenticator (the paper likewise defers authentication: "we have not
//! addressed the authentication issues").

/// A 128-bit MD5 digest.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Hex representation.
    pub fn to_hex(self) -> String {
        self.to_string()
    }
}

impl core::fmt::Display for Digest {
    /// Lowercase hex, two digits a byte, written straight into `f`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.0.iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

/// Streaming MD5 state.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh state.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let free = 64 - self.buf_len;
        if data.len() < free {
            // The common case for the short pieces an interface digest is
            // streamed in: nothing completes a block.
            self.buf[self.buf_len..self.buf_len + data.len()].copy_from_slice(data);
            self.buf_len += data.len();
            return;
        }
        if self.buf_len > 0 {
            let (head, rest) = data.split_at(free);
            self.buf[self.buf_len..].copy_from_slice(head);
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
            data = rest;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().unwrap());
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and produce the digest: the `0x80` marker, zeros to 56
    /// bytes mod 64 and the bit length are written into one block behind
    /// the buffered tail — a second block only when the tail leaves fewer
    /// than nine bytes for them.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.total.wrapping_mul(8);
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    /// The 64 steps of RFC 1321 § 3.4, written out as the RFC lists them:
    /// each names its message word, shift and sine constant, so nothing is
    /// looked up or selected at run time.
    fn compress(&mut self, block: &[u8; 64]) {
        let m: [u32; 16] = core::array::from_fn(|i| {
            u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap())
        });
        let [mut a, mut b, mut c, mut d] = self.state;
        // `[abcd k s t]`: a = b + ((a + fun(b, c, d) + X[k] + t) <<< s).
        macro_rules! step {
            ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $k:literal, $s:literal, $t:literal) => {
                $a = $b.wrapping_add(
                    $a.wrapping_add($fun($b, $c, $d))
                        .wrapping_add(m[$k])
                        .wrapping_add($t)
                        .rotate_left($s),
                );
            };
        }
        // Round 1.
        step!(f, a, b, c, d, 0, 7, 0xd76aa478);
        step!(f, d, a, b, c, 1, 12, 0xe8c7b756);
        step!(f, c, d, a, b, 2, 17, 0x242070db);
        step!(f, b, c, d, a, 3, 22, 0xc1bdceee);
        step!(f, a, b, c, d, 4, 7, 0xf57c0faf);
        step!(f, d, a, b, c, 5, 12, 0x4787c62a);
        step!(f, c, d, a, b, 6, 17, 0xa8304613);
        step!(f, b, c, d, a, 7, 22, 0xfd469501);
        step!(f, a, b, c, d, 8, 7, 0x698098d8);
        step!(f, d, a, b, c, 9, 12, 0x8b44f7af);
        step!(f, c, d, a, b, 10, 17, 0xffff5bb1);
        step!(f, b, c, d, a, 11, 22, 0x895cd7be);
        step!(f, a, b, c, d, 12, 7, 0x6b901122);
        step!(f, d, a, b, c, 13, 12, 0xfd987193);
        step!(f, c, d, a, b, 14, 17, 0xa679438e);
        step!(f, b, c, d, a, 15, 22, 0x49b40821);
        // Round 2.
        step!(g, a, b, c, d, 1, 5, 0xf61e2562);
        step!(g, d, a, b, c, 6, 9, 0xc040b340);
        step!(g, c, d, a, b, 11, 14, 0x265e5a51);
        step!(g, b, c, d, a, 0, 20, 0xe9b6c7aa);
        step!(g, a, b, c, d, 5, 5, 0xd62f105d);
        step!(g, d, a, b, c, 10, 9, 0x02441453);
        step!(g, c, d, a, b, 15, 14, 0xd8a1e681);
        step!(g, b, c, d, a, 4, 20, 0xe7d3fbc8);
        step!(g, a, b, c, d, 9, 5, 0x21e1cde6);
        step!(g, d, a, b, c, 14, 9, 0xc33707d6);
        step!(g, c, d, a, b, 3, 14, 0xf4d50d87);
        step!(g, b, c, d, a, 8, 20, 0x455a14ed);
        step!(g, a, b, c, d, 13, 5, 0xa9e3e905);
        step!(g, d, a, b, c, 2, 9, 0xfcefa3f8);
        step!(g, c, d, a, b, 7, 14, 0x676f02d9);
        step!(g, b, c, d, a, 12, 20, 0x8d2a4c8a);
        // Round 3.
        step!(h, a, b, c, d, 5, 4, 0xfffa3942);
        step!(h, d, a, b, c, 8, 11, 0x8771f681);
        step!(h, c, d, a, b, 11, 16, 0x6d9d6122);
        step!(h, b, c, d, a, 14, 23, 0xfde5380c);
        step!(h, a, b, c, d, 1, 4, 0xa4beea44);
        step!(h, d, a, b, c, 4, 11, 0x4bdecfa9);
        step!(h, c, d, a, b, 7, 16, 0xf6bb4b60);
        step!(h, b, c, d, a, 10, 23, 0xbebfbc70);
        step!(h, a, b, c, d, 13, 4, 0x289b7ec6);
        step!(h, d, a, b, c, 0, 11, 0xeaa127fa);
        step!(h, c, d, a, b, 3, 16, 0xd4ef3085);
        step!(h, b, c, d, a, 6, 23, 0x04881d05);
        step!(h, a, b, c, d, 9, 4, 0xd9d4d039);
        step!(h, d, a, b, c, 12, 11, 0xe6db99e5);
        step!(h, c, d, a, b, 15, 16, 0x1fa27cf8);
        step!(h, b, c, d, a, 2, 23, 0xc4ac5665);
        // Round 4.
        step!(i, a, b, c, d, 0, 6, 0xf4292244);
        step!(i, d, a, b, c, 7, 10, 0x432aff97);
        step!(i, c, d, a, b, 14, 15, 0xab9423a7);
        step!(i, b, c, d, a, 5, 21, 0xfc93a039);
        step!(i, a, b, c, d, 12, 6, 0x655b59c3);
        step!(i, d, a, b, c, 3, 10, 0x8f0ccc92);
        step!(i, c, d, a, b, 10, 15, 0xffeff47d);
        step!(i, b, c, d, a, 1, 21, 0x85845dd1);
        step!(i, a, b, c, d, 8, 6, 0x6fa87e4f);
        step!(i, d, a, b, c, 15, 10, 0xfe2ce6e0);
        step!(i, c, d, a, b, 6, 15, 0xa3014314);
        step!(i, b, c, d, a, 13, 21, 0x4e0811a1);
        step!(i, a, b, c, d, 4, 6, 0xf7537e82);
        step!(i, d, a, b, c, 11, 10, 0xbd3af235);
        step!(i, c, d, a, b, 2, 15, 0x2ad7d2bb);
        step!(i, b, c, d, a, 9, 21, 0xeb86d391);
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

// The four auxiliary functions of RFC 1321 § 3.4.
#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (!x & z)
}
#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    (x & z) | (y & !z)
}
#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}
#[inline(always)]
fn i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

impl crate::types::Sink for Md5 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// One-shot MD5.
pub fn md5(data: &[u8]) -> Digest {
    let mut h = Md5::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md5(input).to_hex(), *want, "md5({input:?})");
        }
    }

    /// Every byte value renders as two lowercase digits, zero-padded, and
    /// the formatter's own width and fill do not reach the digits.
    #[test]
    fn hex_is_two_lowercase_digits_a_byte() {
        for first in (0..=255u8).step_by(16) {
            let d = Digest(core::array::from_fn(|i| first.wrapping_add(i as u8)));
            let want: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(d.to_hex(), want);
            assert_eq!(format!("{d:>40}"), want);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = md5(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 130] {
            let mut h = Md5::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finish(), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_cases() {
        // Lengths straddling the 56-byte padding boundary, where `finish`
        // needs one block or two.
        for len in 54..=66 {
            let data = vec![0xabu8; len];
            assert_eq!(md5(&data), reference::md5(&data), "length {len}");
        }
    }

    /// MD5 in its loop form — the 64 steps driven by an index, the
    /// padding absorbed a zero byte at a time: what `Md5` computed before
    /// its steps were written out and its padding written as one block.
    /// It is the oracle the property below holds `Md5` to.
    mod reference {
        use super::Digest;

        const S: [u32; 64] = [
            7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
            5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
        ];

        const K: [u32; 64] = [
            0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
            0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
            0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
            0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
            0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
            0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
            0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
            0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
            0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
            0xeb86d391,
        ];

        pub struct Md5 {
            state: [u32; 4],
            buf: [u8; 64],
            buf_len: usize,
            total: u64,
        }

        impl Md5 {
            pub fn new() -> Md5 {
                Md5 {
                    state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
                    buf: [0; 64],
                    buf_len: 0,
                    total: 0,
                }
            }

            pub fn update(&mut self, mut data: &[u8]) {
                self.total = self.total.wrapping_add(data.len() as u64);
                if self.buf_len > 0 {
                    let need = 64 - self.buf_len;
                    let take = need.min(data.len());
                    self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                    self.buf_len += take;
                    data = &data[take..];
                    if self.buf_len == 64 {
                        let block = self.buf;
                        self.compress(&block);
                        self.buf_len = 0;
                    }
                }
                while data.len() >= 64 {
                    let block: [u8; 64] = data[..64].try_into().unwrap();
                    self.compress(&block);
                    data = &data[64..];
                }
                if !data.is_empty() {
                    self.buf[..data.len()].copy_from_slice(data);
                    self.buf_len = data.len();
                }
            }

            pub fn finish(mut self) -> Digest {
                let bit_len = self.total.wrapping_mul(8);
                self.update(&[0x80]);
                while self.buf_len != 56 {
                    self.update(&[0]);
                }
                self.update(&bit_len.to_le_bytes());
                let mut out = [0u8; 16];
                for (i, word) in self.state.iter().enumerate() {
                    out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
                }
                Digest(out)
            }

            fn compress(&mut self, block: &[u8; 64]) {
                let mut m = [0u32; 16];
                for (i, w) in m.iter_mut().enumerate() {
                    *w = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
                }
                let [mut a, mut b, mut c, mut d] = self.state;
                for i in 0..64 {
                    let (f, g) = match i / 16 {
                        0 => ((b & c) | (!b & d), i),
                        1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                        2 => (b ^ c ^ d, (3 * i + 5) % 16),
                        _ => (c ^ (b | !d), (7 * i) % 16),
                    };
                    let tmp = d;
                    d = c;
                    c = b;
                    b = b.wrapping_add(
                        a.wrapping_add(f)
                            .wrapping_add(K[i])
                            .wrapping_add(m[g])
                            .rotate_left(S[i]),
                    );
                    a = tmp;
                }
                for (s, v) in self.state.iter_mut().zip([a, b, c, d]) {
                    *s = s.wrapping_add(v);
                }
            }
        }

        pub fn md5(data: &[u8]) -> Digest {
            let mut h = Md5::new();
            h.update(data);
            h.finish()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `Md5` agrees with the loop form on every length from 0 to 300
        /// bytes however the input is cut into `update` calls — a cut at
        /// or across a block boundary, an empty piece, a tail that leaves
        /// `finish` one block or two.
        #[test]
        fn md5_matches_the_loop_form(
            data in prop::collection::vec(any::<u8>(), 0..=300),
            cuts in prop::collection::vec(any::<u16>(), 0..8),
        ) {
            let want = reference::md5(&data);
            let mut h = Md5::new();
            let mut r = reference::Md5::new();
            let mut rest: &[u8] = &data;
            for c in cuts {
                let (head, tail) = rest.split_at(c as usize % (rest.len() + 1));
                h.update(head);
                r.update(head);
                rest = tail;
            }
            h.update(rest);
            r.update(rest);
            prop_assert_eq!(md5(&data), want);
            prop_assert_eq!(r.finish(), want);
            prop_assert_eq!(h.finish(), want);
        }
    }

    /// Every length 0–300 once, one-shot, against the loop form.
    #[test]
    fn md5_matches_the_loop_form_at_every_length() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                md5(&data[..len]),
                reference::md5(&data[..len]),
                "length {len}"
            );
        }
    }
}
