//! GHRP configuration.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};

/// How the three per-table votes combine into one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// A majority of tables must individually clear the threshold — the
    /// paper's choice for instruction streams (§III.C).
    MajorityVote,
    /// Sum the counters and compare against `threshold × num_tables` — the
    /// SDBP-style aggregation, kept for the ablation study.
    Sum,
}

/// Tunable parameters of the GHRP predictor.
///
/// Defaults follow §IV.A of the paper: three skewed tables of 4,096
/// two-bit counters, a 16-bit history/signature with three PC bits plus a
/// zero bit shifted in per access, majority-vote aggregation, and separate
/// dead/bypass thresholds (the BTB threshold is tuned independently,
/// §III.E point 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// Each bool is an independent ablation switch; a state machine would
// obscure that they compose freely.
#[allow(clippy::struct_excessive_bools)]
pub struct GhrpConfig {
    /// Entries per prediction table (power of two).
    pub table_entries: usize,
    /// Number of skewed prediction tables.
    pub num_tables: usize,
    /// Saturating-counter width in bits (1..=8).
    pub counter_bits: u32,
    /// A counter ≥ this value votes "dead" for replacement.
    pub dead_threshold: u8,
    /// A counter ≥ this value votes "dead" for bypass (more conservative).
    pub bypass_threshold: u8,
    /// Dead threshold used for BTB-entry predictions.
    pub btb_dead_threshold: u8,
    /// Whether misses may bypass the I-cache.
    pub enable_bypass: bool,
    /// Whether misses may bypass the BTB.
    pub btb_enable_bypass: bool,
    /// Width of the path-history register in bits.
    pub history_bits: u32,
    /// PC bits shifted into the history per access.
    pub pc_bits_per_access: u32,
    /// Zero bits appended after the PC bits per access.
    pub pad_bits_per_access: u32,
    /// Vote aggregation mode.
    pub aggregation: Aggregation,
    /// Never choose the MRU way as a predicted-dead victim. Blocks are
    /// frequently mid-burst when (falsely) marked dead; protecting the
    /// MRU position bounds the cost of a false-dead prediction at one
    /// re-reference, in the spirit of cache-burst prediction (Liu et al.),
    /// which only predicts once a block leaves the MRU position.
    pub protect_mru: bool,
    /// Train the prediction tables from a *shadow* LRU tag array instead
    /// of the policy's own hits/evictions. Algorithm 1 trains on the real
    /// cache's events, which couples the training labels to the policy's
    /// own decisions: a false dead prediction evicts a block early, the
    /// early eviction trains its signature dead again, and the error
    /// self-amplifies. Decoupling training from the managed structure is
    /// exactly the role of SDBP's sampler (which the paper already sizes
    /// equal to the cache for instruction streams, SIV.A); the shadow
    /// array applies the same idea to GHRP, making the learned label a
    /// stable "dead under LRU". The ablation harness can disable this to
    /// reproduce the self-training feedback effect.
    pub shadow_training: bool,
    /// Recompute dead predictions from the *current* tables during victim
    /// selection (using each candidate's stored signature) instead of
    /// consuming the prediction bit stored at the block's last access.
    /// The stored bit ages with the block: the least-recent blocks — the
    /// very candidates victim selection inspects — carry the oldest
    /// predictions. Re-indexing three tables for up to eight candidates
    /// happens off the critical path on a miss.
    pub fresh_victim_prediction: bool,
    /// Among predicted-dead candidates, evict the most recently used one
    /// first. A block marked dead at its final touch is typically fresh
    /// streaming code; evicting it immediately (rather than the first or
    /// oldest dead-marked way) leaves older resident blocks — the ones a
    /// pure LRU would sacrifice — undisturbed for longer.
    pub prefer_young_dead: bool,
    /// During BTB victim selection, treat an entry whose branch's I-cache
    /// block is no longer resident as predicted dead. §III.E's coupling
    /// argument runs both ways: "if a cache block is mostly live, the
    /// corresponding BTB entries will be predicted as live" — and a block
    /// that has left the I-cache entirely is the strongest evidence its
    /// branches' BTB entries are dead.
    pub btb_absent_block_is_dead: bool,
}

impl Default for GhrpConfig {
    fn default() -> GhrpConfig {
        GhrpConfig {
            // The paper's hardware design point is 4,096 entries (Table
            // I), tuned on 100M–1B-instruction industrial traces. Our
            // synthetic workloads pack the same path diversity into a few
            // million instructions, so the default scales the tables to
            // 16,384 entries to keep the aliasing rate comparable; the
            // Table I storage bin reports the paper's nominal geometry.
            table_entries: 16384,
            num_tables: 3,
            // 3-bit counters: one bit wider than the paper's 2-bit design
            // point. At our scaled-down trace lengths the extra dynamic
            // range resists the flicker of sparsely trained signatures;
            // the ablation harness measures the 2-bit (paper) variant.
            counter_bits: 3,
            // §III.C: "Instruction accesses are less likely to be dead,
            // requiring lower thresholds for reasonable coverage. Majority
            // vote avoids the effects of aliasing without needing a high
            // threshold." A block predicts dead once a majority of its
            // counters have seen one more death than reuse.
            dead_threshold: 1,
            bypass_threshold: 7,
            btb_dead_threshold: 1,
            enable_bypass: true,
            // BTB bypass is off by default: the bypass decision must be
            // made at insert time under the *arrival* signature, which at
            // this reproduction's trace scale mispredicts often enough
            // that the re-miss cost exceeds the pollution saved (the
            // ablate_bypass harness quantifies this; the paper's design
            // enables it, and `btb_enable_bypass = true` restores that).
            btb_enable_bypass: false,
            history_bits: 16,
            pc_bits_per_access: 3,
            pad_bits_per_access: 1,
            aggregation: Aggregation::MajorityVote,
            protect_mru: false,
            shadow_training: true,
            fresh_victim_prediction: true,
            prefer_young_dead: false,
            btb_absent_block_is_dead: true,
        }
    }
}

impl GhrpConfig {
    /// Maximum counter value for the configured width.
    pub fn counter_max(&self) -> u8 {
        // Truncation-safe: validate() caps counter_bits at 8, so the
        // all-ones value fits in u8.
        #[allow(clippy::cast_possible_truncation)]
        let max = ((1u16 << self.counter_bits) - 1) as u8;
        max
    }

    /// Total history shift per access (PC bits + padding).
    pub fn shift_per_access(&self) -> u32 {
        self.pc_bits_per_access + self.pad_bits_per_access
    }

    /// Number of prior accesses the history can represent.
    pub fn history_depth(&self) -> u32 {
        self.history_bits / self.shift_per_access()
    }

    /// Bits needed to index one prediction table.
    pub fn index_bits(&self) -> u32 {
        self.table_entries.trailing_zeros()
    }

    /// Check invariants; called by the predictor constructors.
    ///
    /// Everything the per-access code relies on is checked here once, so
    /// the hot path needs no argument checks of its own: every table index
    /// is 1..=31 bits wide and every history shift is below 64.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GhrpConfigError> {
        if !self.table_entries.is_power_of_two() || !(2..=1 << 31).contains(&self.table_entries) {
            return Err(GhrpConfigError::TableEntries(self.table_entries));
        }
        if self.num_tables == 0 || self.num_tables > 8 {
            return Err(GhrpConfigError::NumTables(self.num_tables));
        }
        if !(1..=8).contains(&self.counter_bits) {
            return Err(GhrpConfigError::CounterBits(self.counter_bits));
        }
        let max = self.counter_max();
        if self.dead_threshold > max || self.bypass_threshold > max || self.btb_dead_threshold > max
        {
            return Err(GhrpConfigError::Threshold {
                max,
                dead: self.dead_threshold,
                bypass: self.bypass_threshold,
                btb: self.btb_dead_threshold,
            });
        }
        if self.history_bits == 0 || self.history_bits > 64 {
            return Err(GhrpConfigError::HistoryBits(self.history_bits));
        }
        let shift = self
            .pc_bits_per_access
            .saturating_add(self.pad_bits_per_access);
        if shift == 0 || shift > self.history_bits || shift >= 64 {
            return Err(GhrpConfigError::ShiftPerAccess {
                pc_bits: self.pc_bits_per_access,
                pad_bits: self.pad_bits_per_access,
                history_bits: self.history_bits,
            });
        }
        Ok(())
    }
}

/// A [`GhrpConfig`] field outside the range the predictor supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhrpConfigError {
    /// `table_entries` is not a power of two in `2..=2^31` (a 1-entry
    /// table has a zero-bit index, which the skewed hashes cannot
    /// produce).
    TableEntries(usize),
    /// `num_tables` is not in `1..=8`.
    NumTables(usize),
    /// `counter_bits` is not in `1..=8`.
    CounterBits(u32),
    /// A threshold exceeds the counter maximum.
    Threshold {
        /// The counter maximum.
        max: u8,
        /// `dead_threshold`.
        dead: u8,
        /// `bypass_threshold`.
        bypass: u8,
        /// `btb_dead_threshold`.
        btb: u8,
    },
    /// `history_bits` is not in `1..=64`.
    HistoryBits(u32),
    /// The per-access history shift (PC bits plus padding) is not in
    /// `1..=history_bits`, or reaches 64 (a whole-register shift).
    ShiftPerAccess {
        /// `pc_bits_per_access`.
        pc_bits: u32,
        /// `pad_bits_per_access`.
        pad_bits: u32,
        /// `history_bits`.
        history_bits: u32,
    },
}

impl std::fmt::Display for GhrpConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GhrpConfigError::TableEntries(n) => {
                write!(
                    f,
                    "table_entries must be a power of two in 2..=2^31, got {n}"
                )
            }
            GhrpConfigError::NumTables(n) => write!(f, "num_tables must be 1..=8, got {n}"),
            GhrpConfigError::CounterBits(n) => write!(f, "counter_bits must be 1..=8, got {n}"),
            GhrpConfigError::Threshold {
                max,
                dead,
                bypass,
                btb,
            } => write!(
                f,
                "thresholds must be <= counter max {max}: dead={dead} bypass={bypass} btb={btb}"
            ),
            GhrpConfigError::HistoryBits(n) => write!(f, "history_bits must be 1..=64, got {n}"),
            GhrpConfigError::ShiftPerAccess {
                pc_bits,
                pad_bits,
                history_bits,
            } => write!(
                f,
                "shift per access ({pc_bits} PC + {pad_bits} pad bits) must be \
                 1..=history_bits ({history_bits}) and below 64"
            ),
        }
    }
}

impl std::error::Error for GhrpConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let c = GhrpConfig::default();
        // Structure follows the paper: 3 skewed tables, 16-bit history,
        // 3 PC bits + 1 zero bit per access, majority vote.
        assert_eq!(c.num_tables, 3);
        assert_eq!(c.history_bits, 16);
        assert_eq!(c.shift_per_access(), 4);
        assert_eq!(c.history_depth(), 4, "four previous accesses recorded");
        assert_eq!(c.aggregation, Aggregation::MajorityVote);
        assert_eq!(c.validate(), Ok(()));
    }

    /// The paper's published hardware design point must stay expressible
    /// (used by the Table I storage report and the ablation harness).
    #[test]
    fn paper_nominal_configuration_is_valid() {
        let c = GhrpConfig::paper_nominal();
        assert_eq!(c.table_entries, 4096);
        assert_eq!(c.counter_bits, 2);
        assert_eq!(c.index_bits(), 12);
        assert_eq!(c.counter_max(), 3);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_tables() {
        let c = GhrpConfig {
            table_entries: 1000,
            ..GhrpConfig::default()
        };
        assert_eq!(c.validate(), Err(GhrpConfigError::TableEntries(1000)));
        let c = GhrpConfig {
            num_tables: 0,
            ..GhrpConfig::default()
        };
        assert_eq!(c.validate(), Err(GhrpConfigError::NumTables(0)));
    }

    /// A 1-entry table has a zero-bit index; it used to pass validation
    /// and panic at the first prediction.
    #[test]
    fn validate_rejects_single_entry_tables() {
        let c = GhrpConfig {
            table_entries: 1,
            ..GhrpConfig::default()
        };
        assert_eq!(c.validate(), Err(GhrpConfigError::TableEntries(1)));
        let c = GhrpConfig {
            table_entries: 2,
            ..GhrpConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    /// A 64-bit per-access shift used to pass validation and overflow the
    /// history shift (a panic in debug, a wrapped mask in release).
    #[test]
    fn validate_rejects_whole_register_shifts() {
        let c = GhrpConfig {
            history_bits: 64,
            pc_bits_per_access: 64,
            pad_bits_per_access: 0,
            ..GhrpConfig::default()
        };
        let err = c.validate().expect_err("a 64-bit shift must be rejected");
        assert_eq!(
            err,
            GhrpConfigError::ShiftPerAccess {
                pc_bits: 64,
                pad_bits: 0,
                history_bits: 64
            }
        );
        assert!(err.to_string().contains("below 64"), "{err}");
        let c = GhrpConfig {
            pc_bits_per_access: u32::MAX,
            pad_bits_per_access: 1,
            ..GhrpConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(GhrpConfigError::ShiftPerAccess { .. })
        ));
        let c = GhrpConfig {
            history_bits: 64,
            pc_bits_per_access: 62,
            pad_bits_per_access: 1,
            ..GhrpConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_threshold_overflow() {
        let c = GhrpConfig {
            counter_bits: 2,
            dead_threshold: 4, // > 2-bit max of 3
            bypass_threshold: 3,
            btb_dead_threshold: 3,
            ..GhrpConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_history() {
        let c = GhrpConfig {
            history_bits: 0,
            ..GhrpConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GhrpConfig {
            pc_bits_per_access: 0,
            pad_bits_per_access: 0,
            ..GhrpConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn wider_counters_raise_max() {
        let c = GhrpConfig {
            counter_bits: 8,
            ..GhrpConfig::default()
        };
        assert_eq!(c.counter_max(), 255);
    }
}
