//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which the simulator's internal bookkeeping maps do not
//! need: their keys are addresses and IDs produced by the simulation
//! itself, and the maps are only ever used for keyed get/insert/remove
//! (never iterated), so hash quality affects speed but not results. The
//! synthetic walker's per-branch state maps use [`FastMap`]. The per-lane
//! stores that once did — the BTB targets and the shared GHRP block
//! metadata — are now flat arrays indexed by cache frame, so no map sits
//! on a policy lane's path.
//!
//! The mixer is a Fibonacci-style multiply with an xor-shift finalizer.
//! The finalizer matters here: simulator keys are block-aligned addresses
//! (low bits always zero), and a bare multiply leaves those low bits zero
//! in the output, which would cluster every key into a fraction of the
//! table's buckets. Folding the high half back down (`h ^ (h >> 32)`)
//! restores entropy exactly where the hash table's bucket mask looks.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (high-entropy odd number, from the golden
/// ratio as popularized by Fibonacci hashing).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A non-cryptographic, deterministic 64-bit hasher.
///
/// Hashing is unkeyed, so the same key hashes identically on every run —
/// map *lookups* are reproducible, and since no simulator map is
/// iterated, bucket order can never leak into results.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(SEED).rotate_left(23);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold high-half entropy into the low bits the bucket mask uses.
        let h = self.state.wrapping_mul(SEED);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `HashMap` with the deterministic [`FastHasher`] — for simulator
/// bookkeeping maps on hot paths (keyed access only, never iterated).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_u64(v: u64) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_u64(0xdead_beef), hash_u64(0xdead_beef));
        assert_ne!(hash_u64(1), hash_u64(2));
    }

    #[test]
    fn block_aligned_keys_spread_low_bits() {
        // Block addresses are 64-byte aligned; the low 6 bits of the
        // *hash* must still vary or every key lands in 1/64th of the
        // buckets.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(hash_u64(i * 64) & 0x3f);
        }
        assert!(low_bits.len() > 32, "low bits collapse: {}", low_bits.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, u32::try_from(i).unwrap_or(0));
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)).copied(), u32::try_from(i).ok());
        }
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn byte_stream_matches_word_writes_for_collisions_only() {
        // Different inputs should not trivially collide.
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write(&[3, 2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
