//! Signature construction and prediction-table index hashing.
//!
//! The signature is the XOR of the 16-bit path history with the (shifted)
//! PC of the access being predicted (Algorithm 2, line 4). The zero bits
//! interleaved in the history let some PC bits pass into the signature
//! unmodified, "yielding a useful hash of the history and PC".
//!
//! Each of the three prediction tables is indexed by a *distinct* hash of
//! the signature (Algorithm 2, line 7; the skewing mirrors SDBP's three
//! tables and fights aliasing).

#![forbid(unsafe_code)]

/// Compute the GHRP signature for an access.
///
/// `history` is the current (speculative) path history; `pc` must already
/// be shifted to the granularity the structure is indexed at (block
/// address bits for the I-cache, instruction address bits for the BTB).
///
/// ```
/// let sig = ghrp_core::signature::signature(0b1010, 0x1234, 16);
/// assert_eq!(sig, (0b1010 ^ 0x1234) & 0xFFFF);
/// ```
pub fn signature(history: u64, pc: u64, signature_bits: u32) -> u16 {
    let keep = if signature_bits >= 16 {
        0xFFFF
    } else {
        (1u64 << signature_bits) - 1
    };
    // Truncation-safe: masked to at most 16 bits on the previous line.
    #[allow(clippy::cast_possible_truncation)]
    let sig = ((history ^ pc) & keep) as u16;
    sig
}

/// Multiplicative-xorshift hashing constants, one per table. Odd constants
/// give a bijective multiply over `u32`; the xorshift folds high bits down.
const HASH_MULT: [u32; 8] = [
    0x9E37_79B9,
    0x85EB_CA6B,
    0xC2B2_AE35,
    0x27D4_EB2F,
    0x1656_67B1,
    0xB529_7A4D,
    0x68E3_1DA5,
    0x71D6_7FFF,
];

/// Hash `signature` into a `index_bits`-wide index for table `table`.
///
/// Distinct tables use distinct constants, producing decorrelated
/// ("skewed") indices so that aliasing in one table is voted down by the
/// other two.
///
/// This runs several times per I-cache access, so it checks nothing per
/// call: `index_bits` must be in `1..=31` and `table` below 8, which
/// [`crate::GhrpConfig::validate`] guarantees for the predictor's own
/// tables (debug builds still assert the width).
///
/// # Panics
///
/// Panics if `table >= 8` (no hash constant for it).
pub fn table_index(signature: u16, table: usize, index_bits: u32) -> usize {
    debug_assert!(
        (1..=31).contains(&index_bits),
        "index_bits must be 1..=31, got {index_bits}"
    );
    let x = u32::from(signature).wrapping_mul(HASH_MULT[table]);
    let x = x ^ (x >> 15);
    // lint:allow(pow2-mask): multiplier pick from a small constant table, not a cache index
    let x = x.wrapping_mul(HASH_MULT[(table + 3) % HASH_MULT.len()]);
    let x = x ^ (x >> (32 - index_bits));
    fe_cache::index::mask(u64::from(x), 1usize << index_bits)
}

/// Compute all `num_tables` indices for a signature (Algorithm 4's
/// `ComputeIndices`).
pub fn compute_indices(signature: u16, num_tables: usize, index_bits: u32) -> Vec<usize> {
    (0..num_tables)
        .map(|t| table_index(signature, t, index_bits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_is_xor_masked() {
        assert_eq!(signature(0xFFFF_FFFF, 0, 16), 0xFFFF);
        assert_eq!(signature(0xAAAA, 0x5555, 16), 0xFFFF);
        assert_eq!(signature(0x1_0000, 0, 16), 0, "only low 16 bits");
        assert_eq!(signature(0xFF, 0xFF, 16), 0);
    }

    #[test]
    fn narrower_signatures_mask_harder() {
        assert_eq!(signature(0xFFFF, 0, 8), 0xFF);
        assert_eq!(signature(0xFFFF, 0, 12), 0xFFF);
    }

    #[test]
    fn indices_fit_width() {
        for sig in [0u16, 1, 0xFFFF, 0x1234, 0xBEEF] {
            for t in 0..3 {
                let i = table_index(sig, t, 12);
                assert!(i < 4096);
            }
        }
    }

    #[test]
    fn tables_are_decorrelated() {
        // For a spread of signatures, the three tables should rarely agree
        // on the same index.
        let mut collisions = 0;
        let n = 4096u16;
        for s in 0..n {
            let i = compute_indices(s, 3, 12);
            if i[0] == i[1] || i[1] == i[2] || i[0] == i[2] {
                collisions += 1;
            }
        }
        // Random chance of any pairwise collision ≈ 3/4096 per signature.
        assert!(collisions < n / 100, "{collisions} collisions out of {n}");
    }

    #[test]
    fn index_distribution_is_roughly_uniform() {
        let mut histogram = vec![0u32; 4096];
        for s in 0..=u16::MAX {
            histogram[table_index(s, 0, 12)] += 1;
        }
        // 65,536 signatures over 4,096 buckets: mean 16 per bucket.
        let max = *histogram.iter().max().unwrap();
        let zero_buckets = histogram.iter().filter(|&&c| c == 0).count();
        assert!(max < 64, "worst bucket holds {max}");
        assert!(zero_buckets < 41, "{zero_buckets} empty buckets");
    }

    #[test]
    fn deterministic() {
        assert_eq!(table_index(0x1234, 1, 12), table_index(0x1234, 1, 12));
        assert_ne!(
            compute_indices(0x1234, 3, 12),
            compute_indices(0x1235, 3, 12)
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn too_many_tables_panics() {
        let _ = table_index(0, 8, 12);
    }
}
