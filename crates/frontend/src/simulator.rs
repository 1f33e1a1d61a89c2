//! The trace-driven front-end simulator.
//!
//! Mirrors the paper's methodology (§IV): replay a CBP-5-style branch
//! trace, reconstruct the fetch-block stream, access the I-cache once per
//! fetch group and the BTB once per taken branch, drive a hashed-perceptron
//! direction predictor, warm structures over the first half of the trace
//! (capped), and report misses per kilo-instruction.
//!
//! The simulator is not cycle accurate. GHRP history management follows
//! §III.F: the speculative history advances with fetch; when wrong-path
//! injection is enabled, a misprediction fetches a configurable number of
//! wrong-path blocks (polluting the cache and the speculative history,
//! exactly the pollution the dual-history mechanism exists to bound) and
//! then restores the speculative history from the retired one.

#![forbid(unsafe_code)]

use crate::policy::{build_pair, PolicyKind};
use fe_branch::{
    DirectionPredictor, HashedPerceptron, PredictorStats, ReturnAddressStack, TargetCache,
};
use fe_cache::{CacheConfig, CacheStats};
use fe_sdbp::SdbpConfig;
use fe_trace::fetch::FetchStream;
use fe_trace::record::{BranchKind, BranchRecord, INSTRUCTION_BYTES};
use ghrp_core::GhrpConfig;
use serde::{Deserialize, Serialize};

/// Paper default: warm-up is the first half of the trace, capped at 200 M
/// instructions (§IV.C).
pub const WARMUP_CAP_INSTRUCTIONS: u64 = 200_000_000;

/// Wrong-path injection parameters (the §III.F ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrongPathConfig {
    /// Sequential wrong-path blocks fetched per conditional misprediction.
    pub blocks_per_misprediction: u32,
    /// Whether to restore the speculative GHRP history from the retired
    /// one after the misprediction resolves (on = the paper's recovery).
    pub recover_history: bool,
}

impl Default for WrongPathConfig {
    fn default() -> WrongPathConfig {
        WrongPathConfig {
            blocks_per_misprediction: 2,
            recover_history: true,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// I-cache geometry.
    pub icache: CacheConfig,
    /// Total BTB entries.
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Replacement policy for both structures.
    pub policy: PolicyKind,
    /// GHRP tunables (used when `policy == Ghrp`).
    pub ghrp: GhrpConfig,
    /// SDBP tunables (used when `policy == Sdbp`).
    pub sdbp: SdbpConfig,
    /// Warm-up cap in instructions (`WARMUP_CAP_INSTRUCTIONS` = paper).
    pub warmup_cap: u64,
    /// Seed for randomized policies.
    pub seed: u64,
    /// Optional wrong-path injection.
    pub wrong_path: Option<WrongPathConfig>,
    /// Miss-triggered next-line I-prefetch degree (0 = off). On each
    /// demand miss, the next `prefetch_degree` sequential blocks are
    /// installed — the simplest member of the instruction-prefetching
    /// family the paper positions itself against (§II.E).
    pub prefetch_degree: u32,
}

impl SimConfig {
    /// The paper's headline configuration: 64 KB 8-way 64 B I-cache,
    /// 4,096-entry 4-way BTB, LRU policy.
    ///
    /// # Panics
    ///
    /// Never in practice — the hard-coded geometry is valid.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            icache: CacheConfig::with_capacity(64 * 1024, 8, 64).expect("paper geometry is valid"),
            btb_entries: 4096,
            btb_ways: 4,
            policy: PolicyKind::Lru,
            ghrp: GhrpConfig::default(),
            sdbp: SdbpConfig::default(),
            warmup_cap: WARMUP_CAP_INSTRUCTIONS,
            seed: 0,
            wrong_path: None,
            prefetch_degree: 0,
        }
    }

    /// Builder-style policy override.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> SimConfig {
        self.policy = policy;
        self
    }

    /// Builder-style I-cache override.
    #[must_use]
    pub fn with_icache(mut self, icache: CacheConfig) -> SimConfig {
        self.icache = icache;
        self
    }
}

/// Measured outcome of one simulation run (post-warm-up window).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Instructions in the measurement window.
    pub instructions: u64,
    /// I-cache counters over the window.
    pub icache: CacheStats,
    /// BTB lookups over the window.
    pub btb_lookups: u64,
    /// BTB misses over the window.
    pub btb_misses: u64,
    /// Conditional branches predicted over the window.
    pub cond_branches: u64,
    /// Conditional mispredictions over the window.
    pub cond_mispredictions: u64,
    /// Return-address-stack mispredictions over the window.
    pub ras_mispredictions: u64,
    /// Indirect jumps/calls predicted over the window.
    pub indirect_branches: u64,
    /// Indirect target mispredictions over the window.
    pub indirect_mispredictions: u64,
    /// Prefetch fills issued over the window.
    pub prefetch_fills: u64,
}

impl RunResult {
    /// I-cache misses per kilo-instruction.
    pub fn icache_mpki(&self) -> f64 {
        mpki(self.icache.misses, self.instructions)
    }

    /// BTB misses per kilo-instruction.
    pub fn btb_mpki(&self) -> f64 {
        mpki(self.btb_misses, self.instructions)
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        mpki(self.cond_mispredictions, self.instructions)
    }

    /// Indirect-target mispredictions per kilo-instruction.
    pub fn indirect_mpki(&self) -> f64 {
        mpki(self.indirect_mispredictions, self.instructions)
    }
}

fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

/// Offline (OPT) access sequences for a trace, in one decode pass: the
/// I-cache fetch-group block sequence and the BTB taken-branch PC
/// sequence (instruction-aligned), exactly the orders in which the
/// simulator later touches those structures.
///
/// Both the legacy single-policy path and the multi-policy engine build
/// their [`fe_cache::policy::BeladyOpt`] lanes from this; the engine
/// computes it at most **once per trace** and shares it across every
/// offline lane.
pub fn offline_sequences<I>(records: I, block_bytes: u64) -> (Vec<u64>, Vec<u64>)
where
    I: Iterator<Item = BranchRecord>,
{
    let mut blocks = Vec::new();
    let mut pcs = Vec::new();
    for chunk in FetchStream::new(records, block_bytes) {
        if chunk.starts_group {
            blocks.push(chunk.block_addr);
        }
        if let Some(b) = chunk.branch {
            if b.taken {
                pcs.push(b.pc & !(INSTRUCTION_BYTES - 1));
            }
        }
    }
    (blocks, pcs)
}

/// The simulator itself. Construct with [`Simulator::new`], then call
/// [`Simulator::run`] with the trace records.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Create a simulator for `cfg`.
    pub fn new(cfg: SimConfig) -> Simulator {
        Simulator { cfg }
    }

    /// Warm-up length for a trace of `total_instructions` (§IV.C: half the
    /// trace or the cap, whichever is smaller).
    pub fn warmup_instructions(&self, total_instructions: u64) -> u64 {
        (total_instructions / 2).min(self.cfg.warmup_cap)
    }

    /// Simulate `records`. `total_instructions` is the trace's instruction
    /// count (used to size the warm-up window).
    // The fetch/predict/update loop reads as one unit; splitting it would
    // scatter the per-chunk protocol across helpers.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, records: &[BranchRecord], total_instructions: u64) -> RunResult {
        let cfg = &self.cfg;
        // Offline (OPT) policies need the exact access sequences up front.
        let (opt_blocks, opt_pcs) = if cfg.policy.is_offline() {
            let (blocks, pcs) =
                offline_sequences(records.iter().copied(), cfg.icache.block_bytes());
            (Some(blocks), Some(pcs))
        } else {
            (None, None)
        };

        let mut pair = build_pair(
            cfg.policy,
            cfg.icache,
            cfg.btb_entries,
            cfg.btb_ways,
            cfg.ghrp,
            cfg.sdbp,
            cfg.seed,
            opt_blocks.as_deref(),
            opt_pcs.as_deref(),
        );
        let mut bp = HashedPerceptron::default();
        let mut ras = ReturnAddressStack::default();
        let mut itp = TargetCache::default();
        let mut bp_stats = PredictorStats::default();
        let mut ras_mispred = 0u64;
        let mut indirect = (0u64, 0u64); // (predicted, mispredicted)

        let warmup = self.warmup_instructions(total_instructions);
        let mut warmed = warmup == 0;
        let mut instructions = 0u64;
        let mut measured_instructions = 0u64;
        // Wrong-path pollution is excluded from the miss counts (wrong-path
        // fetches do not retire, so they cannot be MPKI events).
        let mut wrong_path_misses = 0u64;
        let mut wrong_path_accesses = 0u64;

        let stream = FetchStream::new(records.iter().copied(), cfg.icache.block_bytes());
        for chunk in stream {
            instructions += u64::from(chunk.n_instr);
            if warmed {
                measured_instructions += u64::from(chunk.n_instr);
            }
            // One I-cache access per *fetch group* (§IV.A): sequential
            // fetch within a block past a not-taken branch does not access
            // the cache again.
            if chunk.starts_group {
                let result = pair.icache.access(chunk.block_addr, chunk.first_pc);
                // Miss-triggered next-line prefetching.
                if result.is_miss() && cfg.prefetch_degree > 0 {
                    for i in 1..=u64::from(cfg.prefetch_degree) {
                        pair.icache
                            .prefetch(chunk.block_addr + i * cfg.icache.block_bytes());
                    }
                }
                // Commit-time (right-path) history retirement for GHRP: in
                // this trace-driven model every fetched group retires.
                if let (Some(shared), Some(_wp)) = (&pair.ghrp, cfg.wrong_path.as_ref()) {
                    shared.retire(chunk.block_addr);
                }
            }

            if let Some(branch) = chunk.branch {
                self.handle_branch(
                    &mut pair,
                    &mut bp,
                    &mut ras,
                    &mut itp,
                    &mut bp_stats,
                    &mut ras_mispred,
                    &mut indirect,
                    &branch,
                    &mut wrong_path_misses,
                    &mut wrong_path_accesses,
                );
            }

            if !warmed && instructions >= warmup {
                warmed = true;
                pair.icache.reset_stats();
                pair.btb.reset_stats();
                bp_stats = PredictorStats::default();
                ras_mispred = 0;
                indirect = (0, 0);
                wrong_path_misses = 0;
                wrong_path_accesses = 0;
            }
        }

        let mut icache_stats = pair.icache.stats();
        // Subtract wrong-path pollution from the figure of merit.
        icache_stats.misses -= wrong_path_misses.min(icache_stats.misses);
        icache_stats.accesses -= wrong_path_accesses.min(icache_stats.accesses);
        let btb_stats = pair.btb.stats();

        RunResult {
            policy: cfg.policy,
            instructions: measured_instructions,
            icache: icache_stats,
            btb_lookups: btb_stats.lookups,
            btb_misses: btb_stats.misses,
            cond_branches: bp_stats.predictions,
            cond_mispredictions: bp_stats.mispredictions,
            ras_mispredictions: ras_mispred,
            indirect_branches: indirect.0,
            indirect_mispredictions: indirect.1,
            prefetch_fills: icache_stats.prefetch_fills,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_branch(
        &self,
        pair: &mut crate::policy::FrontendPair,
        bp: &mut HashedPerceptron,
        ras: &mut ReturnAddressStack,
        itp: &mut TargetCache,
        bp_stats: &mut PredictorStats,
        ras_mispred: &mut u64,
        indirect: &mut (u64, u64),
        branch: &BranchRecord,
        wrong_path_misses: &mut u64,
        wrong_path_accesses: &mut u64,
    ) {
        let mut mispredicted = false;
        match branch.kind {
            BranchKind::CondDirect => {
                let pred = bp.predict(branch.pc);
                let correct = pred == branch.taken;
                bp_stats.record(correct);
                bp.update(branch.pc, branch.taken);
                mispredicted = !correct;
            }
            BranchKind::Call => {
                ras.push(branch.fall_through());
            }
            BranchKind::IndirectCall => {
                ras.push(branch.fall_through());
                indirect.0 += 1;
                if itp.predict(branch.pc) != Some(branch.target) {
                    indirect.1 += 1;
                    mispredicted = true;
                }
                itp.update(branch.pc, branch.target);
            }
            BranchKind::Indirect => {
                indirect.0 += 1;
                if itp.predict(branch.pc) != Some(branch.target) {
                    indirect.1 += 1;
                    mispredicted = true;
                }
                itp.update(branch.pc, branch.target);
            }
            BranchKind::Return => {
                let predicted = ras.pop();
                if predicted != Some(branch.target) {
                    *ras_mispred += 1;
                    mispredicted = true;
                }
            }
            BranchKind::UncondDirect => {}
        }

        // BTB: taken branches look up and refresh/allocate.
        if branch.taken {
            pair.btb.lookup_and_update(branch.pc, branch.target);
        }

        // Optional wrong-path injection on mispredictions.
        if mispredicted {
            if let Some(wp) = self.cfg.wrong_path {
                let block_bytes = self.cfg.icache.block_bytes();
                // The wrong path is the direction not taken.
                let wrong_start = if branch.taken {
                    branch.fall_through()
                } else {
                    branch.target
                };
                let mut block = wrong_start & !(block_bytes - 1);
                for _ in 0..wp.blocks_per_misprediction {
                    let r = pair.icache.access(block, block);
                    *wrong_path_accesses += 1;
                    if r.is_miss() {
                        *wrong_path_misses += 1;
                    }
                    block += block_bytes;
                }
                if wp.recover_history {
                    if let Some(shared) = &pair.ghrp {
                        shared.recover();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_trace::synth::{WorkloadCategory, WorkloadSpec};

    fn trace(seed: u64, n: u64) -> (Vec<BranchRecord>, u64) {
        let t = WorkloadSpec::new(WorkloadCategory::ShortServer, seed)
            .instructions(n)
            .generate();
        (t.records, t.instructions)
    }

    #[test]
    fn warmup_is_half_capped() {
        let sim = Simulator::new(SimConfig::paper_default());
        assert_eq!(sim.warmup_instructions(1000), 500);
        assert_eq!(
            sim.warmup_instructions(10_000_000_000),
            WARMUP_CAP_INSTRUCTIONS
        );
    }

    #[test]
    fn run_produces_sane_numbers() {
        let (records, n) = trace(3, 300_000);
        let sim = Simulator::new(SimConfig::paper_default());
        let r = sim.run(&records, n);
        assert!(r.instructions > 100_000, "post-warm-up window too small");
        assert!(r.icache.accesses > 0);
        assert!(r.btb_lookups > 0);
        assert!(r.cond_branches > 0);
        assert!(r.icache_mpki() >= 0.0 && r.icache_mpki() < 200.0);
        assert!(r.btb_mpki() >= 0.0 && r.btb_mpki() < 300.0);
        // The hashed perceptron should do well on structured code.
        let acc = 1.0 - r.cond_mispredictions as f64 / r.cond_branches as f64;
        assert!(acc > 0.80, "branch accuracy {acc}");
    }

    #[test]
    fn deterministic_runs() {
        let (records, n) = trace(5, 200_000);
        let sim = Simulator::new(SimConfig::paper_default().with_policy(PolicyKind::Ghrp));
        let a = sim.run(&records, n);
        let b = sim.run(&records, n);
        assert_eq!(a, b);
    }

    #[test]
    fn all_policies_run_without_panic() {
        let (records, n) = trace(7, 150_000);
        for k in PolicyKind::ALL_ONLINE {
            let sim = Simulator::new(SimConfig::paper_default().with_policy(*k));
            let r = sim.run(&records, n);
            assert!(r.instructions > 0, "{k}");
        }
    }

    #[test]
    fn opt_runs_and_beats_lru() {
        let (records, n) = trace(11, 200_000);
        // Small cache so there is real pressure.
        let small = CacheConfig::with_capacity(8 * 1024, 4, 64).unwrap();
        let lru = Simulator::new(
            SimConfig::paper_default()
                .with_icache(small)
                .with_policy(PolicyKind::Lru),
        )
        .run(&records, n);
        let opt = Simulator::new(
            SimConfig::paper_default()
                .with_icache(small)
                .with_policy(PolicyKind::Opt),
        )
        .run(&records, n);
        assert!(
            opt.icache_mpki() <= lru.icache_mpki() + 1e-9,
            "OPT {} vs LRU {}",
            opt.icache_mpki(),
            lru.icache_mpki()
        );
    }

    #[test]
    fn wrong_path_injection_changes_contents_not_mpki_accounting() {
        let (records, n) = trace(13, 200_000);
        let mut cfg = SimConfig::paper_default().with_policy(PolicyKind::Ghrp);
        cfg.wrong_path = Some(WrongPathConfig::default());
        let r = Simulator::new(cfg).run(&records, n);
        // Wrong-path misses are subtracted, so MPKI stays in a sane range.
        assert!(r.icache_mpki() < 200.0);
        assert!(r.instructions > 0);
    }

    #[test]
    fn indirect_predictor_reports_sane_numbers() {
        let (records, n) = trace(17, 300_000);
        let r = Simulator::new(SimConfig::paper_default()).run(&records, n);
        assert!(r.indirect_branches > 0, "server traces have indirect calls");
        assert!(r.indirect_mispredictions <= r.indirect_branches);
        // The two-level target cache must do far better than always-miss.
        let acc = 1.0 - r.indirect_mispredictions as f64 / r.indirect_branches as f64;
        assert!(acc > 0.3, "indirect accuracy {acc}");
    }

    #[test]
    fn prefetching_reduces_sequential_misses() {
        let (records, n) = trace(19, 400_000);
        let base = SimConfig::paper_default();
        let off = Simulator::new(base).run(&records, n);
        let mut pf_cfg = base;
        pf_cfg.prefetch_degree = 2;
        let on = Simulator::new(pf_cfg).run(&records, n);
        assert!(on.prefetch_fills > 0, "prefetcher must fire");
        assert!(
            on.icache_mpki() < off.icache_mpki(),
            "next-line prefetch should cut sequential code misses: {} vs {}",
            on.icache_mpki(),
            off.icache_mpki()
        );
    }

    #[test]
    fn offline_sequences_match_direct_scans() {
        let (records, _) = trace(23, 100_000);
        let (blocks, pcs) = offline_sequences(records.iter().copied(), 64);
        // The taken-PC sequence equals a direct scan of the records.
        let direct_pcs: Vec<u64> = records
            .iter()
            .filter(|r| r.taken)
            .map(|r| r.pc & !(INSTRUCTION_BYTES - 1))
            .collect();
        assert_eq!(pcs, direct_pcs);
        // The block sequence equals a dedicated fetch-stream scan.
        let direct_blocks: Vec<u64> = FetchStream::new(records.iter().copied(), 64)
            .filter(|c| c.starts_group)
            .map(|c| c.block_addr)
            .collect();
        assert_eq!(blocks, direct_blocks);
        assert!(!blocks.is_empty() && !pcs.is_empty());
    }

    #[test]
    fn zero_instruction_trace() {
        let sim = Simulator::new(SimConfig::paper_default());
        let r = sim.run(&[], 0);
        assert_eq!(r.instructions, 0);
        assert!(r.icache_mpki().abs() < f64::EPSILON);
    }
}
