//! Hashed perceptron predictor (Tarjan & Skadron, TACO 2005).
//!
//! Merges gshare, path-based and perceptron prediction: instead of one
//! weight per history bit, *segments* of the global outcome history and the
//! path history are hashed (together with the PC) to index several weight
//! tables; the prediction is the sign of the summed weights. Training is
//! perceptron-style — on a misprediction, or while the magnitude of the sum
//! is below an adaptively trained threshold, every selected weight moves
//! toward the outcome.
//!
//! Each table hashes the last `len` outcomes and the last `3·len` path
//! bits (capped at 63), each XOR-folded down to the 12-bit table index.
//! The folds live in registers — one outcome and one path register per
//! table — that every branch updates in O(1), as real predictors keep
//! their folded histories: rotate left within 12 bits, XOR the new bits in
//! at position 0, and XOR out the bits that leave the window. The
//! geometry is fixed at compile time, so every shift amount is a
//! constant.

#![forbid(unsafe_code)]

use crate::DirectionPredictor;
use fe_cache::index::mask;

/// Number of weight tables.
const TABLES: usize = 8;
/// Index bits per table; the history folds are this wide.
const INDEX_BITS: u32 = 12;
/// Entries per table.
const ENTRIES: usize = 1 << INDEX_BITS;
/// Low [`INDEX_BITS`] bits.
const FOLD_MASK: u64 = (1 << INDEX_BITS) - 1;
/// History length (in branches) seen by each table. Table 0 uses length 0
/// (bias/PC-only, the "gshare with zero history" component); the others
/// are roughly geometric, capped by the 64-bit history registers.
const HISTORY_LENGTHS: [u32; TABLES] = [0, 3, 6, 10, 16, 25, 40, 60];
/// Path-history bits recorded per branch (low PC bits above the
/// instruction alignment).
const PATH_BITS: u32 = 3;
/// Weight saturation magnitude (symmetric, fits 8-bit weights).
const WEIGHT_MAX: i16 = 127;
/// Initial training threshold.
const INITIAL_THETA: i32 = 18;

/// Path-history bits a table of history length `len` folds: three per
/// branch, capped at 63 (the register holds 64).
const fn path_len(len: u32) -> u32 {
    if PATH_BITS * len < 63 {
        PATH_BITS * len
    } else {
        63
    }
}

// Every window must fit its 64-bit history register, and a table with
// history must cover at least one branch of path bits.
const _: () = {
    let mut t = 0;
    while t < TABLES {
        let len = HISTORY_LENGTHS[t];
        assert!(len < 64);
        assert!(len == 0 || path_len(len) >= PATH_BITS);
        t += 1;
    }
};

/// Rotate the [`INDEX_BITS`]-wide value `x` left by `k < INDEX_BITS`.
#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    ((x << k) | (x >> (INDEX_BITS - k))) & FOLD_MASK
}

/// The hashed perceptron predictor.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    /// [`TABLES`] tables of [`ENTRIES`] weights.
    weights: Box<[[i16; ENTRIES]]>,
    /// Global outcome history (1 bit per branch).
    ghist: u64,
    /// Path history (3 low PC bits per branch).
    phist: u64,
    /// Per table: the last `len` bits of `ghist`, XOR-folded to 12 bits.
    gfold: [u64; TABLES],
    /// Per table: the last `path_len(len)` bits of `phist`, folded alike.
    pfold: [u64; TABLES],
    /// Adaptive threshold (O-GEHL style).
    theta: i32,
    /// Threshold-training counter.
    tc: i32,
}

impl HashedPerceptron {
    fn index(&self, table: usize, pc: u64) -> usize {
        let h = (pc >> 2) ^ (self.gfold[table] << 1) ^ self.pfold[table] ^ ((table as u64) << 5);
        // Final avalanche so adjacent PCs spread across the table.
        let h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mask(h >> 13, ENTRIES)
    }

    fn sum(&self, pc: u64) -> i32 {
        (0..TABLES)
            .map(|t| i32::from(self.weights[t][self.index(t, pc)]))
            .sum()
    }

    /// Shift the outcome and path of the branch at `pc` into the
    /// histories and their folded registers.
    #[inline]
    fn advance(&mut self, pc: u64, taken: bool) {
        let bit = u64::from(taken);
        let path = (pc >> 2) & ((1 << PATH_BITS) - 1);
        for (t, &len) in HISTORY_LENGTHS.iter().enumerate() {
            if len == 0 {
                continue;
            }
            // The oldest outcome leaves the window; after the rotation it
            // would sit at position `len mod 12`.
            let out = (self.ghist >> (len - 1)) & 1;
            self.gfold[t] = rotl(self.gfold[t], 1) ^ bit ^ (out << (len % INDEX_BITS));
            let plen = path_len(len);
            let out = (self.phist >> (plen - PATH_BITS)) & ((1 << PATH_BITS) - 1);
            self.pfold[t] = rotl(self.pfold[t], PATH_BITS) ^ path ^ rotl(out, plen % INDEX_BITS);
        }
        self.ghist = (self.ghist << 1) | bit;
        self.phist = (self.phist << PATH_BITS) | path;
    }

    /// Current adaptive threshold (diagnostics).
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Restore the predictor to its freshly-constructed state, reusing
    /// the weight-table allocation.
    pub fn reset(&mut self) {
        for table in &mut self.weights {
            table.fill(0);
        }
        self.ghist = 0;
        self.phist = 0;
        self.gfold = [0; TABLES];
        self.pfold = [0; TABLES];
        self.theta = INITIAL_THETA;
        self.tc = 0;
    }

    /// Predict `pc` and train on the actual `taken` outcome in one step,
    /// returning the prediction.
    ///
    /// Identical to [`DirectionPredictor::predict`] followed by
    /// [`DirectionPredictor::update`], but the table indices are computed
    /// once instead of twice. The simulator observes every conditional
    /// branch through this call.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let mut idxs = [0usize; TABLES];
        for (t, slot) in idxs.iter_mut().enumerate() {
            *slot = self.index(t, pc);
        }
        let sum: i32 = idxs
            .iter()
            .enumerate()
            .map(|(t, &i)| i32::from(self.weights[t][i]))
            .sum();
        let predicted = sum >= 0;
        let mispredicted = predicted != taken;
        if mispredicted || sum.abs() <= self.theta {
            for (t, &i) in idxs.iter().enumerate() {
                let w = &mut self.weights[t][i];
                if taken {
                    *w = (*w + 1).min(WEIGHT_MAX);
                } else {
                    *w = (*w - 1).max(-WEIGHT_MAX);
                }
            }
        }
        // Adaptive threshold training (Seznec): raise theta on
        // mispredictions, lower it when training fires with a correct,
        // low-confidence prediction.
        if mispredicted {
            self.tc += 1;
            if self.tc >= 32 {
                self.theta += 1;
                self.tc = 0;
            }
        } else if sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -32 {
                self.theta = (self.theta - 1).max(1);
                self.tc = 0;
            }
        }
        self.advance(pc, taken);
        predicted
    }
}

impl Default for HashedPerceptron {
    /// Eight tables of 4096 weights, history lengths
    /// `[0, 3, 6, 10, 16, 25, 40, 60]`, weights saturating at ±127 and an
    /// initial threshold of 18.
    fn default() -> HashedPerceptron {
        HashedPerceptron {
            weights: vec![[0; ENTRIES]; TABLES].into_boxed_slice(),
            ghist: 0,
            phist: 0,
            gfold: [0; TABLES],
            pfold: [0; TABLES],
            theta: INITIAL_THETA,
            tc: 0,
        }
    }
}

impl DirectionPredictor for HashedPerceptron {
    fn predict(&self, pc: u64) -> bool {
        self.sum(pc) >= 0
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let _ = self.predict_and_update(pc, taken);
    }

    fn name(&self) -> String {
        "hashed-perceptron".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// XOR-fold the low `bits` bits of `x` into `out_bits`-bit chunks.
    fn fold(mut x: u64, bits: u32, out_bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        x &= mask;
        let mut folded = 0u64;
        while x != 0 {
            folded ^= x & ((1 << out_bits) - 1);
            x >>= out_bits;
        }
        folded
    }

    /// The predictor as it was before the folded registers: every index
    /// re-folds both histories from scratch. The oracle the registers
    /// must reproduce bit for bit.
    #[derive(Debug)]
    struct RefoldingPerceptron {
        weights: Vec<Vec<i16>>,
        ghist: u64,
        phist: u64,
        theta: i32,
        tc: i32,
    }

    impl RefoldingPerceptron {
        fn new() -> RefoldingPerceptron {
            RefoldingPerceptron {
                weights: vec![vec![0; ENTRIES]; TABLES],
                ghist: 0,
                phist: 0,
                theta: INITIAL_THETA,
                tc: 0,
            }
        }

        fn index(&self, table: usize, pc: u64) -> usize {
            let len = HISTORY_LENGTHS[table];
            let g = fold(self.ghist, len, INDEX_BITS);
            let p = fold(self.phist, (len * 3).min(63), INDEX_BITS);
            let h = (pc >> 2) ^ (g << 1) ^ p ^ ((table as u64) << 5);
            let h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            mask(h >> 13, ENTRIES)
        }

        fn predict(&self, pc: u64) -> bool {
            (0..TABLES)
                .map(|t| i32::from(self.weights[t][self.index(t, pc)]))
                .sum::<i32>()
                >= 0
        }

        fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
            let idxs: Vec<usize> = (0..TABLES).map(|t| self.index(t, pc)).collect();
            let sum: i32 = idxs
                .iter()
                .enumerate()
                .map(|(t, &i)| i32::from(self.weights[t][i]))
                .sum();
            let predicted = sum >= 0;
            let mispredicted = predicted != taken;
            if mispredicted || sum.abs() <= self.theta {
                for (t, &i) in idxs.iter().enumerate() {
                    let w = &mut self.weights[t][i];
                    *w = if taken {
                        (*w + 1).min(WEIGHT_MAX)
                    } else {
                        (*w - 1).max(-WEIGHT_MAX)
                    };
                }
            }
            if mispredicted {
                self.tc += 1;
                if self.tc >= 32 {
                    self.theta += 1;
                    self.tc = 0;
                }
            } else if sum.abs() <= self.theta {
                self.tc -= 1;
                if self.tc <= -32 {
                    self.theta = (self.theta - 1).max(1);
                    self.tc = 0;
                }
            }
            self.ghist = (self.ghist << 1) | u64::from(taken);
            self.phist = (self.phist << 3) | ((pc >> 2) & 0x7);
            predicted
        }
    }

    /// Every table's folded registers against `fold` of the live
    /// histories.
    fn registers_match_folds(p: &HashedPerceptron) -> Result<(), TestCaseError> {
        for (t, &len) in HISTORY_LENGTHS.iter().enumerate() {
            prop_assert_eq!(p.gfold[t], fold(p.ghist, len, INDEX_BITS));
            prop_assert_eq!(p.pfold[t], fold(p.phist, (len * 3).min(63), INDEX_BITS));
        }
        Ok(())
    }

    fn same_weights(p: &HashedPerceptron, oracle: &RefoldingPerceptron) -> bool {
        p.weights
            .iter()
            .zip(&oracle.weights)
            .all(|(a, b)| a[..] == b[..])
    }

    proptest! {
        /// Random branch streams, with a `reset()` somewhere in the
        /// middle: predictions, θ and every weight equal the refolding
        /// oracle's, and the registers equal the folds after every step.
        #[test]
        fn folded_registers_match_the_refolding_oracle(
            steps in prop::collection::vec((0u64..96, any::<u64>(), 0u64..8), 0..1500),
            reset_at in 0usize..1500,
        ) {
            let mut p = HashedPerceptron::default();
            let mut oracle = RefoldingPerceptron::new();
            for (i, &(slot, salt, bias)) in steps.iter().enumerate() {
                if i == reset_at {
                    prop_assert!(same_weights(&p, &oracle), "weights differ before reset");
                    p.reset();
                    oracle = RefoldingPerceptron::new();
                }
                // A small pool of hot PCs (so weights train and collide),
                // plus an occasional arbitrary one.
                let pc = if slot == 0 { salt } else { 0x40_0000 + slot * 4 };
                // Mostly PC-biased outcomes with noise from `salt`.
                let taken = if bias < 6 { slot % 3 != 0 } else { salt & 1 == 1 };
                prop_assert_eq!(p.predict(pc), oracle.predict(pc));
                prop_assert_eq!(
                    p.predict_and_update(pc, taken),
                    oracle.predict_and_update(pc, taken)
                );
                prop_assert_eq!(p.theta(), oracle.theta);
                prop_assert_eq!((p.ghist, p.phist), (oracle.ghist, oracle.phist));
                registers_match_folds(&p)?;
            }
            prop_assert!(same_weights(&p, &oracle), "weights differ at the end");
        }
    }

    #[test]
    fn learns_long_period_pattern() {
        // Period-7 pattern: needs real history capacity.
        let pattern = [true, true, false, true, false, false, true];
        let mut p = HashedPerceptron::default();
        let mut correct = 0;
        let total = 7000;
        for i in 0..total {
            let taken = pattern[i % 7];
            if p.predict(0x1234) == taken {
                correct += 1;
            }
            p.update(0x1234, taken);
        }
        let acc = f64::from(correct) / total as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_correlated_branches() {
        // Branch B's outcome equals branch A's previous outcome.
        let mut p = HashedPerceptron::default();
        let mut a_prev = false;
        let mut correct = 0;
        let total = 4000;
        for i in 0..total {
            let a = (i / 3) % 2 == 0;
            let _ = p.predict(0x100);
            p.update(0x100, a);
            let b = a_prev;
            if p.predict(0x200) == b {
                correct += 1;
            }
            p.update(0x200, b);
            a_prev = a;
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn weights_saturate() {
        // Table 0 sits at a limit while the other tables outvote it, so
        // every update mispredicts and trains table 0 past its limit.
        for (limit, taken) in [(WEIGHT_MAX, true), (-WEIGHT_MAX, false)] {
            let mut p = HashedPerceptron::default();
            p.weights[0].fill(limit);
            for table in &mut p.weights[1..] {
                table.fill(-limit);
            }
            for _ in 0..1000 {
                p.update(0x40, taken);
            }
            assert!(p
                .weights
                .iter()
                .flatten()
                .all(|&w| (-WEIGHT_MAX..=WEIGHT_MAX).contains(&w)));
            assert!(p.weights[0].iter().all(|&w| w == limit));
        }
    }

    #[test]
    fn theta_adapts_upward_under_noise() {
        let mut p = HashedPerceptron::default();
        let before = p.theta();
        // Random-ish (incompressible) outcomes force mispredictions.
        let mut x = 0x1234_5678_u64;
        for i in 0..20_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let taken = (x >> 62) & 1 == 1;
            let _ = p.predict(0x1000 + (i % 16) * 4);
            p.update(0x1000 + (i % 16) * 4, taken);
        }
        assert!(p.theta() > before, "theta {} -> {}", before, p.theta());
    }

    #[test]
    fn fold_handles_extremes() {
        assert_eq!(fold(0xFFFF, 0, 12), 0);
        assert_eq!(fold(0xABC, 12, 12), 0xABC);
        let f = fold(u64::MAX, 64, 12);
        assert!(f < 4096);
    }

    #[test]
    fn reset_restores_the_default_state() {
        let mut p = HashedPerceptron::default();
        for i in 0..500u64 {
            let _ = p.predict_and_update(0x1000 + (i % 37) * 4, i % 5 != 0);
        }
        p.reset();
        let fresh = HashedPerceptron::default();
        assert_eq!(
            (p.ghist, p.phist, p.gfold, p.pfold, p.theta, p.tc),
            (
                fresh.ghist,
                fresh.phist,
                fresh.gfold,
                fresh.pfold,
                fresh.theta,
                fresh.tc
            )
        );
        assert!(p.weights.iter().flatten().all(|&w| w == 0));
    }
}
