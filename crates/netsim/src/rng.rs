//! Deterministic pseudo-random number generation.
//!
//! The simulator owns a single xoshiro256** generator seeded from the run's
//! seed via SplitMix64. Every random decision (fault injection, workload
//! jitter) is drawn from it in event order, so a run is exactly reproducible
//! from `(topology, seed)`. Child generators can be [`forked`](Xoshiro::fork)
//! off for per-node streams that must not perturb each other.
//!
//! Implemented in-repo (rather than depending on `rand` here) so that the
//! substrate has zero non-workspace dependencies and the bit stream can never
//! change underneath recorded experiment outputs.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

/// SplitMix64: used only for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
#[derive(Clone, Debug)]
pub struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    /// Seed deterministically from a 64-bit seed.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid; splitmix64 cannot produce four
        // zeros from any seed, but be defensive anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Xoshiro { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    #[inline]
    pub fn range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected: retry (vanishingly rare for small n).
        }
    }

    /// True with probability `1/n`. `n == 0` means never.
    #[inline]
    pub fn one_in(&mut self, n: u64) -> bool {
        n != 0 && self.range(n) == 0
    }

    /// A uniform float in `[0, 1)` (for workload shaping; never used on the
    /// event-ordering path).
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Split off an independent child generator.
    ///
    /// The child is seeded from the parent's stream, so forking is itself
    /// deterministic.
    #[inline]
    pub fn fork(&mut self) -> Xoshiro {
        Xoshiro::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Xoshiro::seed_from_u64(42);
        let mut b = Xoshiro::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro::seed_from_u64(1);
        let mut b = Xoshiro::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut r = Xoshiro::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    fn one_in_zero_never_fires() {
        let mut r = Xoshiro::seed_from_u64(7);
        for _ in 0..100 {
            assert!(!r.one_in(0));
        }
    }

    #[test]
    fn one_in_one_always_fires() {
        let mut r = Xoshiro::seed_from_u64(7);
        for _ in 0..100 {
            assert!(r.one_in(1));
        }
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = Xoshiro::seed_from_u64(9);
        for _ in 0..1000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Xoshiro::seed_from_u64(11);
        let mut b = Xoshiro::seed_from_u64(11);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..100 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // Parent streams stay in lockstep too.
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
