//! Hashed perceptron predictor (Tarjan & Skadron, TACO 2005).
//!
//! Merges gshare, path-based and perceptron prediction: instead of one
//! weight per history bit, *segments* of the global outcome history and the
//! path history are hashed (together with the PC) to index several weight
//! tables; the prediction is the sign of the summed weights. Training is
//! perceptron-style — on a misprediction, or while the magnitude of the sum
//! is below an adaptively trained threshold, every selected weight moves
//! toward the outcome.

#![forbid(unsafe_code)]

use crate::DirectionPredictor;

/// Configuration for [`HashedPerceptron`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Number of weight tables.
    pub num_tables: usize,
    /// Entries per table (power of two).
    pub table_entries: usize,
    /// Weight saturation magnitude (symmetric, fits 8-bit weights).
    pub weight_max: i16,
    /// History length (in branches) seen by each table. Table 0
    /// conventionally uses length 0 (bias/PC-only, the "gshare with zero
    /// history" component).
    pub history_lengths: [u32; 8],
    /// Initial training threshold.
    pub initial_theta: i32,
}

impl Default for PerceptronConfig {
    fn default() -> PerceptronConfig {
        PerceptronConfig {
            num_tables: 8,
            table_entries: 4096,
            weight_max: 127,
            // Roughly geometric lengths, capped by the 64-bit registers.
            history_lengths: [0, 3, 6, 10, 16, 25, 40, 60],
            initial_theta: 18,
        }
    }
}

/// The hashed perceptron predictor.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    cfg: PerceptronConfig,
    weights: Vec<Vec<i16>>,
    /// Global outcome history (1 bit per branch).
    ghist: u64,
    /// Path history (3 low PC bits per branch).
    phist: u64,
    /// Adaptive threshold (O-GEHL style).
    theta: i32,
    /// Threshold-training counter.
    tc: i32,
}

impl HashedPerceptron {
    /// Create a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a power of two of at least 2 (a
    /// 1-entry table has a zero-bit index, which history folding cannot
    /// produce) or `num_tables` is not in `1..=8`.
    pub fn new(cfg: PerceptronConfig) -> HashedPerceptron {
        assert!(
            cfg.table_entries.is_power_of_two() && cfg.table_entries >= 2,
            "table_entries must be a power of two >= 2, got {}",
            cfg.table_entries
        );
        assert!(
            (1..=8).contains(&cfg.num_tables),
            "num_tables must be 1..=8"
        );
        HashedPerceptron {
            weights: vec![vec![0i16; cfg.table_entries]; cfg.num_tables],
            ghist: 0,
            phist: 0,
            theta: cfg.initial_theta,
            tc: 0,
            cfg,
        }
    }

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

    fn index(&self, table: usize, pc: u64) -> usize {
        let bits = self.cfg.table_entries.trailing_zeros();
        let len = self.cfg.history_lengths[table];
        let g = Self::fold(self.ghist, len, bits);
        let p = Self::fold(self.phist, (len * 3).min(63), bits);
        let h = (pc >> 2) ^ (g << 1) ^ p ^ ((table as u64) << 5);
        // Final avalanche so adjacent PCs spread across the table.
        let h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 13) as usize) & (self.cfg.table_entries - 1)
    }

    fn sum(&self, pc: u64) -> i32 {
        (0..self.cfg.num_tables)
            .map(|t| i32::from(self.weights[t][self.index(t, pc)]))
            .sum()
    }

    /// Current adaptive threshold (diagnostics).
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Restore the predictor to its freshly-constructed state, reusing
    /// the weight-table allocations.
    pub fn reset(&mut self) {
        for table in &mut self.weights {
            table.fill(0);
        }
        self.ghist = 0;
        self.phist = 0;
        self.theta = self.cfg.initial_theta;
        self.tc = 0;
    }

    /// Predict `pc` and train on the actual `taken` outcome in one step,
    /// returning the prediction.
    ///
    /// Identical to [`DirectionPredictor::predict`] followed by
    /// [`DirectionPredictor::update`], but the table indices — two history
    /// folds each — are computed once instead of up to three times. The
    /// simulator observes every conditional branch through this call.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let mut idxs = [0usize; 8];
        let n = self.cfg.num_tables;
        for (t, slot) in idxs.iter_mut().enumerate().take(n) {
            *slot = self.index(t, pc);
        }
        let sum: i32 = idxs[..n]
            .iter()
            .enumerate()
            .map(|(t, &i)| i32::from(self.weights[t][i]))
            .sum();
        let predicted = sum >= 0;
        let mispredicted = predicted != taken;
        if mispredicted || sum.abs() <= self.theta {
            for (t, &i) in idxs[..n].iter().enumerate() {
                let w = &mut self.weights[t][i];
                if taken {
                    *w = (*w + 1).min(self.cfg.weight_max);
                } else {
                    *w = (*w - 1).max(-self.cfg.weight_max);
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
        // Advance histories.
        self.ghist = (self.ghist << 1) | u64::from(taken);
        self.phist = (self.phist << 3) | ((pc >> 2) & 0x7);
        predicted
    }
}

impl Default for HashedPerceptron {
    fn default() -> HashedPerceptron {
        HashedPerceptron::new(PerceptronConfig::default())
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
        let cfg = PerceptronConfig {
            weight_max: 7,
            ..PerceptronConfig::default()
        };
        let mut p = HashedPerceptron::new(cfg);
        for _ in 0..1000 {
            p.update(0x40, true);
        }
        assert!(p.weights.iter().flatten().all(|&w| (-7..=7).contains(&w)));
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
        assert_eq!(HashedPerceptron::fold(0xFFFF, 0, 12), 0);
        assert_eq!(HashedPerceptron::fold(0xABC, 12, 12), 0xABC);
        let f = HashedPerceptron::fold(u64::MAX, 64, 12);
        assert!(f < 4096);
    }

    #[test]
    #[should_panic(expected = "table_entries must be a power of two >= 2")]
    fn one_entry_table_panics() {
        let cfg = PerceptronConfig {
            table_entries: 1,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }

    #[test]
    fn two_entry_table_predicts_repeatedly() {
        let mut p = HashedPerceptron::new(PerceptronConfig {
            table_entries: 2,
            ..PerceptronConfig::default()
        });
        for i in 0..64u64 {
            let _ = p.predict_and_update(0x1000 + i * 4, i % 3 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "num_tables")]
    fn zero_tables_panics() {
        let cfg = PerceptronConfig {
            num_tables: 0,
            ..PerceptronConfig::default()
        };
        let _ = HashedPerceptron::new(cfg);
    }
}
