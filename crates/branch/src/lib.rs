//! Branch direction predictors for the front-end simulator.
//!
//! The paper's methodology (§IV.A) uses a **hashed perceptron** direction
//! predictor — the Tarjan & Skadron design that merges gshare, path-based
//! and perceptron prediction, as shipped in Samsung, AMD and Oracle
//! processors. This crate implements it along with two simpler comparators
//! (bimodal, gshare) and a return-address stack.
//!
//! The perceptron's geometry is fixed: eight tables of 4096 weights over
//! history lengths `[0, 3, 6, 10, 16, 25, 40, 60]`, weights saturating at
//! ±127. Its history folds are registers updated in O(1) per branch, and
//! the compile-time geometry keeps every shift amount constant.
//! [`HashedPerceptron::default`] is the only constructor.
//!
//! All predictors implement [`DirectionPredictor`]: call
//! [`predict`](DirectionPredictor::predict) for the current branch, then
//! [`update`](DirectionPredictor::update) with the actual outcome (which
//! also advances the predictor's internal histories).
//!
//! ```
//! use fe_branch::{DirectionPredictor, HashedPerceptron};
//!
//! let mut p = HashedPerceptron::default();
//! // A strongly taken branch becomes predictable after a few updates.
//! for _ in 0..32 {
//!     let _ = p.predict(0x4000);
//!     p.update(0x4000, true);
//! }
//! assert!(p.predict(0x4000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod gshare;
mod perceptron;
mod ras;
mod target_cache;

pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use perceptron::HashedPerceptron;
pub use ras::ReturnAddressStack;
pub use target_cache::TargetCache;

/// A conditional-branch direction predictor.
pub trait DirectionPredictor {
    /// Predict the direction of the conditional branch at `pc` under the
    /// current history.
    fn predict(&self, pc: u64) -> bool;

    /// Resolve the branch at `pc` with its actual direction: train the
    /// predictor and advance its histories.
    fn update(&mut self, pc: u64, taken: bool);

    /// Short human-readable name.
    fn name(&self) -> String;
}

/// Accuracy bookkeeping helper shared by tests and the frontend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl PredictorStats {
    /// Record one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
    }

    /// Mispredictions per kilo-instruction, given the instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / instructions as f64
        }
    }

    /// Prediction accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<P: DirectionPredictor>(p: &mut P, pattern: &[bool], reps: usize) -> PredictorStats {
        let mut stats = PredictorStats::default();
        for _ in 0..reps {
            for (i, &taken) in pattern.iter().enumerate() {
                let pc = 0x1000 + (i as u64) * 8;
                let pred = p.predict(pc);
                stats.record(pred == taken);
                p.update(pc, taken);
            }
        }
        stats
    }

    #[test]
    fn all_predictors_learn_static_biases() {
        let pattern = [true, true, false, true, false, false, true, true];
        let mut bi = Bimodal::default();
        let mut gs = Gshare::default();
        let mut hp = HashedPerceptron::default();
        for acc in [
            drive(&mut bi, &pattern, 200).accuracy(),
            drive(&mut gs, &pattern, 200).accuracy(),
            drive(&mut hp, &pattern, 200).accuracy(),
        ] {
            assert!(acc > 0.9, "accuracy {acc}");
        }
    }

    fn drive_single_pc<P: DirectionPredictor>(p: &mut P, n: usize) -> PredictorStats {
        // One branch that strictly alternates.
        let mut stats = PredictorStats::default();
        for i in 0..n {
            let taken = i % 2 == 0;
            let pred = p.predict(0x9000);
            stats.record(pred == taken);
            p.update(0x9000, taken);
        }
        stats
    }

    #[test]
    fn history_predictors_learn_alternation_bimodal_cannot() {
        // A strictly alternating branch: bimodal hovers near 50%; gshare
        // and the perceptron learn it nearly perfectly.
        let mut bi = Bimodal::default();
        let mut gs = Gshare::default();
        let mut hp = HashedPerceptron::default();
        let a_bi = drive_single_pc(&mut bi, 1000).accuracy();
        let a_gs = drive_single_pc(&mut gs, 1000).accuracy();
        let a_hp = drive_single_pc(&mut hp, 1000).accuracy();
        assert!(a_bi < 0.7, "bimodal should struggle, got {a_bi}");
        assert!(a_gs > 0.95, "gshare should learn alternation, got {a_gs}");
        assert!(
            a_hp > 0.95,
            "perceptron should learn alternation, got {a_hp}"
        );
    }

    #[test]
    fn stats_mpki() {
        let mut s = PredictorStats::default();
        for i in 0..100 {
            s.record(i % 10 != 0);
        }
        assert_eq!(s.mispredictions, 10);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
        assert!((s.accuracy() - 0.9).abs() < 1e-12);
    }
}
