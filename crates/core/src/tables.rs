//! The skewed prediction tables and vote aggregation.
//!
//! Three tables of 4,096 two-bit saturating counters (by default), indexed
//! by distinct hashes of the signature. A counter is incremented when a
//! block carrying that signature is evicted dead (Algorithm 6, `isDead =
//! true`) and decremented when such a block is reused. Predictions
//! threshold each counter and combine per [`crate::Aggregation`]; the
//! paper finds **majority vote** superior to SDBP-style summation for
//! instruction streams because it tolerates single-table aliasing without
//! demanding a high (coverage-killing) threshold.

#![forbid(unsafe_code)]

use crate::config::{Aggregation, GhrpConfig};
use crate::signature::table_index;

/// The GHRP counter arrays.
#[derive(Debug, Clone)]
pub struct PredictionTables {
    /// Every table's counters in one array, table-major: table `t`
    /// occupies `[t * entries, (t + 1) * entries)`.
    counters: Vec<u8>,
    /// Counters per table (`2^index_bits`).
    entries: usize,
    index_bits: u32,
    counter_max: u8,
    aggregation: Aggregation,
    num_tables: usize,
}

impl PredictionTables {
    /// Allocate zeroed tables per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GhrpConfig::validate`].
    pub fn new(cfg: &GhrpConfig) -> PredictionTables {
        if let Err(e) = cfg.validate() {
            // lint:allow(panic-path): constructor-time config validation, documented `# Panics`; never on the per-access path
            panic!("invalid GhrpConfig: {e}");
        }
        PredictionTables {
            counters: vec![0u8; cfg.table_entries * cfg.num_tables],
            entries: cfg.table_entries,
            index_bits: cfg.index_bits(),
            counter_max: cfg.counter_max(),
            aggregation: cfg.aggregation,
            num_tables: cfg.num_tables,
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Position of table `t`'s counter for `signature` in the flat array.
    fn slot(&self, signature: u16, t: usize) -> usize {
        t * self.entries + table_index(signature, t, self.index_bits)
    }

    /// Read the counters a signature maps to (Algorithm 4, `GetCounters`).
    pub fn counters(&self, signature: u16) -> Vec<u8> {
        (0..self.num_tables)
            .map(|t| self.counters[self.slot(signature, t)])
            .collect()
    }

    /// Train the tables for `signature` (Algorithm 6): increment each
    /// counter when the block proved dead, decrement when it proved live.
    pub fn update(&mut self, signature: u16, is_dead: bool) {
        for t in 0..self.num_tables {
            let i = self.slot(signature, t);
            let c = &mut self.counters[i];
            if is_dead {
                *c = c.saturating_add(1).min(self.counter_max);
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Predict whether a block accessed under `signature` is dead, using
    /// the given per-counter threshold (Algorithm 3).
    ///
    /// Allocation-free: this runs several times per I-cache access in the
    /// simulator hot path (hit re-tag, fill, victim scan, BTB coupling),
    /// so the votes are folded inline rather than collected via
    /// [`PredictionTables::counters`].
    pub fn predict(&self, signature: u16, threshold: u8) -> bool {
        match self.aggregation {
            Aggregation::MajorityVote => {
                let dead = (0..self.num_tables)
                    .filter(|&t| self.counters[self.slot(signature, t)] >= threshold)
                    .count();
                dead * 2 > self.num_tables
            }
            Aggregation::Sum => {
                let sum: u32 = (0..self.num_tables)
                    .map(|t| u32::from(self.counters[self.slot(signature, t)]))
                    .sum();
                // Truncation-safe: GhrpConfig::validate caps num_tables
                // at 8.
                #[allow(clippy::cast_possible_truncation)]
                let tables = self.num_tables as u32;
                sum >= u32::from(threshold) * tables
            }
        }
    }

    /// Fraction of counters that are saturated at max — a diagnostic for
    /// table pressure.
    // A diagnostic off the hot path: not worth a bytecount dependency.
    #[allow(clippy::naive_bytecount)]
    pub fn saturation(&self) -> f64 {
        let sat = self
            .counters
            .iter()
            .filter(|&&c| c == self.counter_max)
            .count();
        sat as f64 / self.counters.len() as f64
    }

    /// Validate the table invariants: every table has exactly
    /// `2^index_bits` entries, every counter is within `[0, counter_max]`,
    /// and the skewed index hashes stay in bounds for representative
    /// signatures.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let entries = 1usize << self.index_bits;
        if entries != self.entries || self.counters.len() != self.num_tables * entries {
            return Err(format!(
                "{} counters in {} tables, expected 2^{} = {entries} per table",
                self.counters.len(),
                self.num_tables,
                self.index_bits
            ));
        }
        for (t, table) in self.counters.chunks_exact(entries).enumerate() {
            if let Some(i) = table.iter().position(|&c| c > self.counter_max) {
                return Err(format!(
                    "table {t} counter {i}: value {} exceeds max {}",
                    table[i], self.counter_max
                ));
            }
        }
        // The skewed hashes must land inside the tables for any signature;
        // probe the corners and a couple of mixed patterns.
        for sig in [0u16, 1, 0x5555, 0xAAAA, u16::MAX] {
            for t in 0..self.num_tables {
                let i = table_index(sig, t, self.index_bits);
                if i >= entries {
                    return Err(format!(
                        "table {t}: index {i} for signature {sig:#06x} outside \
                         the {entries}-entry bound"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Reset all counters to zero.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's nominal geometry (3 x 4096 x 2-bit), which these unit
    /// tests are written against.
    fn paper_cfg() -> GhrpConfig {
        GhrpConfig {
            table_entries: 4096,
            counter_bits: 2,
            dead_threshold: 2,
            bypass_threshold: 3,
            btb_dead_threshold: 3,
            ..GhrpConfig::default()
        }
    }

    fn tables() -> PredictionTables {
        PredictionTables::new(&paper_cfg())
    }

    #[test]
    fn fresh_tables_predict_live() {
        let t = tables();
        assert!(!t.predict(0x1234, 2));
        assert_eq!(t.counters(0x1234), vec![0, 0, 0]);
    }

    #[test]
    fn training_dead_flips_prediction() {
        let mut t = tables();
        t.update(0xBEEF, true);
        assert!(!t.predict(0xBEEF, 2), "one increment is not enough");
        t.update(0xBEEF, true);
        assert!(t.predict(0xBEEF, 2), "counters at 2 clear threshold 2");
    }

    #[test]
    fn training_live_undoes_dead() {
        let mut t = tables();
        for _ in 0..3 {
            t.update(0xBEEF, true);
        }
        assert!(t.predict(0xBEEF, 2));
        for _ in 0..2 {
            t.update(0xBEEF, false);
        }
        assert!(!t.predict(0xBEEF, 2));
    }

    #[test]
    fn counters_saturate_both_ends() {
        let mut t = tables();
        for _ in 0..10 {
            t.update(0x1, true);
        }
        assert_eq!(t.counters(0x1), vec![3, 3, 3]);
        for _ in 0..10 {
            t.update(0x1, false);
        }
        assert_eq!(t.counters(0x1), vec![0, 0, 0]);
    }

    #[test]
    fn majority_vote_tolerates_single_aliased_table() {
        let mut t = tables();
        // Saturate the signature everywhere, then drive *one* table's
        // counter down via direct manipulation to model aliasing.
        for _ in 0..3 {
            t.update(0x42, true);
        }
        let idx0 = t.slot(0x42, 0);
        t.counters[idx0] = 0;
        assert!(
            t.predict(0x42, 2),
            "2 of 3 tables above threshold still predicts dead"
        );
        // Two aliased tables defeat the vote.
        let idx1 = t.slot(0x42, 1);
        t.counters[idx1] = 0;
        assert!(!t.predict(0x42, 2));
    }

    #[test]
    fn sum_aggregation_differs_from_vote() {
        let mut cfg = paper_cfg();
        cfg.aggregation = Aggregation::Sum;
        let mut sum_t = PredictionTables::new(&cfg);
        let mut vote_t = tables();
        // One table saturated high, two at zero → sum = 3 < 2*3=6,
        // vote = 1 of 3.
        let sig = 0x7;
        for t in [&mut sum_t, &mut vote_t] {
            t.update(sig, true);
            t.update(sig, true);
        }
        // Both at [2,2,2]: sum 6 >= 6 → dead; vote 3of3 → dead.
        assert!(sum_t.predict(sig, 2));
        assert!(vote_t.predict(sig, 2));
        // Now knock one table to 0: sum 4 < 6 → live; vote 2of3 → dead.
        let i = sum_t.slot(sig, 2);
        sum_t.counters[i] = 0;
        vote_t.counters[i] = 0;
        assert!(!sum_t.predict(sig, 2));
        assert!(vote_t.predict(sig, 2));
    }

    #[test]
    fn distinct_signatures_mostly_independent() {
        let mut t = tables();
        for _ in 0..3 {
            t.update(0x1111, true);
        }
        // An unrelated signature stays live.
        assert!(!t.predict(0x2222, 2));
    }

    #[test]
    fn clear_resets() {
        let mut t = tables();
        for _ in 0..3 {
            t.update(0x1, true);
        }
        assert!(t.saturation() > 0.0);
        t.clear();
        assert!(t.saturation().abs() < f64::EPSILON);
        assert!(!t.predict(0x1, 2));
    }

    #[test]
    #[should_panic(expected = "invalid GhrpConfig")]
    fn invalid_config_panics() {
        let cfg = GhrpConfig {
            table_entries: 1000,
            ..GhrpConfig::default()
        };
        let _ = PredictionTables::new(&cfg);
    }
}
