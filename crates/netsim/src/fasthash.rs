//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with per-process random
//! keys) costs ~50–100 cycles per short key — measurable on per-frame
//! paths like the learning table and hosts' ARP caches — and its
//! per-process seeding is the one source of nondeterminism the simulator
//! tolerates only because nothing observable iterates those maps. This
//! multiply-xor hasher (the `rustc-hash`/FxHash construction) is one
//! rotate, xor and multiply per word of key and fully deterministic, which
//! fits the repo's replay-everything rule. It is **not** DoS-resistant;
//! keys here are simulation state (MACs, IPs, sequence numbers), not
//! attacker input.
//!
//! # Where the bits go
//!
//! A product's bit *k* depends on its factors' bits *0..=k* only, and keys
//! here differ high in the word (`MacAddr::local(n)` is `02:00:` then `n`
//! big-endian: bits 32–47), so sequential stations share the product's low
//! 32 bits — the bits a table reads: hashbrown takes the bucket from the
//! low end (its seven-bit tag from the top), a masked index likewise.
//! [`FxHasher::finish`] therefore xors the top twenty bits onto the low
//! twenty (`rustc-hash` 2 rotates instead, which leaves these keys four
//! tag values); `tests::distributes_short_keys` counts both ends.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash mixing constant (64-bit golden-ratio multiplier).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (FxHash construction).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(rest[..8].try_into().unwrap()));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The product, its top twenty bits folded onto its low twenty.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 44)
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast deterministic hasher.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn deterministic_across_instances() {
        let mut m1: FastMap<u64, u64> = FastMap::default();
        let mut m2: FastMap<u64, u64> = FastMap::default();
        for i in 0..100 {
            m1.insert(i, i * 2);
            m2.insert(i, i * 2);
        }
        let v1: Vec<_> = m1
            .iter()
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        let v2: Vec<_> = m2
            .iter()
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        assert_eq!(v1, v2);
        assert_eq!(m1.get(&42), Some(&84));
    }

    /// How many distinct values `finish()`'s low ten bits and its top
    /// seven take over `keys`.
    fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        let hashes: Vec<u64> = keys.map(|k| FxBuildHasher::default().hash_one(k)).collect();
        let distinct = |bits: fn(u64) -> u64| {
            let seen: std::collections::BTreeSet<u64> = hashes.iter().map(|&h| bits(h)).collect();
            seen.len()
        };
        (distinct(|h| h & 0x3ff), distinct(|h| h >> 57))
    }

    /// What a table reads of a hash is not the 64-bit value: hashbrown
    /// picks the bucket from the low bits and tags it with the top seven,
    /// and a masked index (`hash & (slots - 1)`) reads the low bits alone.
    /// 1 024 sequential keys of every shape the workspace hashes must
    /// spread over both. (Thrown at random, 1 024 keys fill ≈ 647 of 1 024
    /// slots and all 128 tags; the bare product left MAC-shaped keys on
    /// one slot, and a 13-byte flow key of two of them on 32.)
    #[test]
    fn distributes_short_keys() {
        let check = |shape: &str, (low, top): (usize, usize)| {
            assert!(low >= 600, "{shape}: low 10 bits take {low} values");
            assert!(top >= 100, "{shape}: top 7 bits take {top} values");
        };
        // `MacAddr::local(i)`, and `host_mac(i)`'s block of it, hashed as
        // `#[derive(Hash)]` hashes a `[u8; 6]` newtype.
        let mac = |i: u32| {
            let b = i.to_be_bytes();
            [0x02u8, 0x00, b[0], b[1], b[2], b[3]]
        };
        check("MacAddr::local", spread((0..1024).map(mac)));
        check("host_mac", spread((0x2000..0x2400).map(mac)));
        // `host_ip(i)`: an `Ipv4Addr` hashes as its four octets.
        let ip = |i: u32| std::net::Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8);
        check("host_ip", spread((0..1024).map(ip)));
        check("u16", spread(0..1024u16));
        check("u32", spread(0..1024u32));
    }
}
