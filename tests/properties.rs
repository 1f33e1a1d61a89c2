//! Property-based tests over the core data structures and invariants.

#![forbid(unsafe_code)]

use ghrp_repro::cache::policy::{
    BeladyOpt, Drrip, DuelConfig, DuelSelect, Fifo, Lru, PolicyInvariants, RandomPolicy, Srrip,
    ValidatingPolicy,
};
use ghrp_repro::cache::{AccessContext, Cache, CacheConfig, ReplacementPolicy};
use ghrp_repro::ghrp::{GhrpConfig, GhrpPolicy, SharedGhrp};
use ghrp_repro::trace::fetch::FetchStream;
use ghrp_repro::trace::io;
use ghrp_repro::trace::record::INSTRUCTION_BYTES;
use ghrp_repro::trace::{BranchKind, BranchRecord};
use proptest::prelude::*;

/// Strategy: a plausible branch record.
fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (0u64..1_000_000, 0usize..6, any::<bool>(), 0u64..1_000_000).prop_map(
        |(pc4, kind, taken, tgt4)| {
            BranchRecord::new(
                pc4 * INSTRUCTION_BYTES,
                BranchKind::ALL[kind],
                taken,
                tgt4 * INSTRUCTION_BYTES,
            )
        },
    )
}

/// Strategy: a short block-address access sequence over a small region.
fn arb_accesses() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..64, 1..400).prop_map(|v| v.into_iter().map(|b| b * 64).collect())
}

fn drive<P: ReplacementPolicy>(cache: &mut Cache<P>, blocks: &[u64]) {
    for &b in blocks {
        cache.access(b, b);
    }
}

/// A two-variant candidate for heterogeneous set-dueling under test:
/// `DuelSelect` needs one candidate type, so mixing LRU and SRRIP goes
/// through this delegating enum (the production stack uses `AnyPolicy`).
enum EitherPolicy {
    Lru(Lru),
    Srrip(Srrip),
}

impl ReplacementPolicy for EitherPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        match self {
            EitherPolicy::Lru(p) => p.on_access(ctx),
            EitherPolicy::Srrip(p) => p.on_access(ctx),
        }
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        match self {
            EitherPolicy::Lru(p) => p.on_hit(way, ctx),
            EitherPolicy::Srrip(p) => p.on_hit(way, ctx),
        }
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        match self {
            EitherPolicy::Lru(p) => p.should_bypass(ctx),
            EitherPolicy::Srrip(p) => p.should_bypass(ctx),
        }
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        match self {
            EitherPolicy::Lru(p) => p.choose_victim(ctx),
            EitherPolicy::Srrip(p) => p.choose_victim(ctx),
        }
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        match self {
            EitherPolicy::Lru(p) => p.on_evict(way, victim_block, ctx),
            EitherPolicy::Srrip(p) => p.on_evict(way, victim_block, ctx),
        }
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        match self {
            EitherPolicy::Lru(p) => p.on_fill(way, ctx),
            EitherPolicy::Srrip(p) => p.on_fill(way, ctx),
        }
    }
    fn reset(&mut self) {
        match self {
            EitherPolicy::Lru(p) => p.reset(),
            EitherPolicy::Srrip(p) => p.reset(),
        }
    }
    fn name(&self) -> String {
        match self {
            EitherPolicy::Lru(p) => p.name(),
            EitherPolicy::Srrip(p) => p.name(),
        }
    }
}

impl PolicyInvariants for EitherPolicy {
    fn check_invariants(&self) -> Result<(), String> {
        match self {
            EitherPolicy::Lru(p) => p.check_invariants(),
            EitherPolicy::Srrip(p) => p.check_invariants(),
        }
    }
}

proptest! {
    /// Binary trace serialization round-trips exactly.
    #[test]
    fn trace_binary_roundtrip(records in prop::collection::vec(arb_record(), 0..200)) {
        let mut buf = Vec::new();
        io::write_binary(&mut buf, &records).unwrap();
        let back = io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(back, records);
    }

    /// JSON trace serialization round-trips exactly.
    #[test]
    fn trace_json_roundtrip(records in prop::collection::vec(arb_record(), 0..50)) {
        let mut buf = Vec::new();
        io::write_json(&mut buf, &records).unwrap();
        let back = io::read_json(buf.as_slice()).unwrap();
        prop_assert_eq!(back, records);
    }

    /// Fetch reconstruction: chunk instruction counts are positive, blocks
    /// are aligned, branches appear exactly once each, and the branch of a
    /// chunk lies inside its block.
    #[test]
    fn fetch_stream_invariants(records in prop::collection::vec(arb_record(), 1..200)) {
        let mut branch_count = 0usize;
        for chunk in FetchStream::new(records.iter().copied(), 64) {
            prop_assert!(chunk.n_instr >= 1);
            prop_assert_eq!(chunk.block_addr % 64, 0);
            prop_assert_eq!(chunk.first_pc & !(64 - 1), chunk.block_addr);
            prop_assert!(chunk.last_pc() < chunk.block_addr + 64);
            if let Some(b) = chunk.branch {
                branch_count += 1;
                prop_assert_eq!(b.pc, chunk.last_pc());
            }
        }
        prop_assert_eq!(branch_count, records.len());
    }

    /// Every policy keeps the accessed block resident right after a
    /// non-bypassed access, and never reports more hits than accesses.
    #[test]
    fn cache_residency_invariant(blocks in arb_accesses(), ways in 1u32..=8) {
        let ways = ways.next_power_of_two();
        let cfg = CacheConfig::with_sets(8, ways, 64).unwrap();
        // Every policy runs under ValidatingPolicy, so its internal
        // invariants (LRU stack permutation, RRPV bounds, PSEL range) are
        // re-checked after each access of each generated sequence.
        let policies: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(ValidatingPolicy::new(Lru::new(cfg))),
            Box::new(ValidatingPolicy::new(Fifo::new(cfg))),
            Box::new(ValidatingPolicy::new(RandomPolicy::new(cfg, 1))),
            Box::new(ValidatingPolicy::new(Srrip::new(cfg))),
            Box::new(ValidatingPolicy::new(Drrip::new(cfg))),
        ];
        for p in policies {
            let mut c = Cache::new(cfg, p);
            for &b in &blocks {
                let r = c.access(b, b);
                if !matches!(r, ghrp_repro::cache::AccessResult::Bypassed) {
                    prop_assert!(c.contains(b), "block {b:#x} absent after fill");
                }
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, s.accesses);
            prop_assert!(c.valid_frames() <= cfg.frames());
        }
    }

    /// LRU stack/inclusion property: with the same set count, a cache with
    /// more ways never misses more under LRU.
    #[test]
    fn lru_inclusion(blocks in arb_accesses()) {
        let mut prev_misses = u64::MAX;
        for ways in [1u32, 2, 4, 8] {
            let cfg = CacheConfig::with_sets(4, ways, 64).unwrap();
            let mut c = Cache::new(cfg, ValidatingPolicy::new(Lru::new(cfg)));
            drive(&mut c, &blocks);
            let m = c.stats().misses;
            prop_assert!(m <= prev_misses, "{ways}-way missed {m} > {prev_misses}");
            prev_misses = m;
        }
    }

    /// Belady's OPT never misses more than LRU on any sequence.
    #[test]
    fn opt_is_optimal_vs_lru(blocks in arb_accesses()) {
        let cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let mut lru = Cache::new(cfg, ValidatingPolicy::new(Lru::new(cfg)));
        drive(&mut lru, &blocks);
        let mut opt = Cache::new(cfg, ValidatingPolicy::new(BeladyOpt::from_trace(cfg, &blocks)));
        drive(&mut opt, &blocks);
        prop_assert!(opt.stats().misses <= lru.stats().misses);
    }

    /// GHRP's metadata store tracks exactly the resident blocks (plus
    /// nothing else), for any access pattern.
    #[test]
    fn ghrp_metadata_matches_residency(blocks in arb_accesses()) {
        let cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let gcfg = GhrpConfig {
            enable_bypass: false,
            ..GhrpConfig::default()
        };
        let shared = SharedGhrp::new(gcfg, cfg);
        let mut c = Cache::new(cfg, ValidatingPolicy::new(GhrpPolicy::new(cfg, shared.clone())));
        for &b in &blocks {
            c.access(b, b);
            prop_assert!(shared.meta(b).is_some(), "no metadata for resident {b:#x}");
        }
        prop_assert_eq!(shared.meta_len(), c.valid_frames());
    }

    /// GHRP's frame-indexed metadata mirrors the I-cache tag array under
    /// demand accesses, next-line prefetches and bypasses: one entry per
    /// valid frame, and the by-block lookup the BTB uses finds every
    /// resident block's metadata in the frame that holds it (and nothing
    /// for an absent block).
    #[test]
    fn ghrp_frame_metadata_mirrors_the_tag_array(
        blocks in arb_accesses(),
        prefetch_every in 1usize..4,
        bypass_threshold in 1u8..=7,
    ) {
        let cfg = CacheConfig::with_sets(4, 4, 64).unwrap();
        let gcfg = GhrpConfig {
            enable_bypass: true,
            bypass_threshold,
            ..GhrpConfig::default()
        };
        let shared = SharedGhrp::new(gcfg, cfg);
        let mut c = Cache::new(cfg, ValidatingPolicy::new(GhrpPolicy::new(cfg, shared.clone())));
        for (i, &b) in blocks.iter().enumerate() {
            if c.access(b, b).is_miss() && i % prefetch_every == 0 {
                c.prefetch(b + 64);
            }
            prop_assert_eq!(shared.meta_len(), c.valid_frames());
        }
        for block in (0..=64u64).map(|b| b * 64) {
            match c.locate(block) {
                Some(frame) => {
                    let held = shared.frame_meta(frame);
                    prop_assert_eq!(held.map(|(b, _)| b), Some(block));
                    prop_assert_eq!(shared.meta(block), held.map(|(_, m)| m));
                }
                None => prop_assert_eq!(shared.meta(block), None),
            }
        }
    }

    /// The GHRP signature depends only on the history and the shifted PC,
    /// and fits 16 bits.
    #[test]
    fn signature_fits_and_is_deterministic(h in any::<u64>(), pc in any::<u64>()) {
        let a = ghrp_repro::ghrp::signature::signature(h, pc, 16);
        let b = ghrp_repro::ghrp::signature::signature(h, pc, 16);
        prop_assert_eq!(a, b);
        // Table indices are in range for every table.
        for t in 0..3 {
            prop_assert!(ghrp_repro::ghrp::signature::table_index(a, t, 12) < 4096);
        }
    }

    /// Saturating counters never leave their range under arbitrary
    /// training sequences.
    #[test]
    fn table_counters_stay_in_range(updates in prop::collection::vec((any::<u16>(), any::<bool>()), 0..500)) {
        let cfg = GhrpConfig {
            table_entries: 256,
            ..GhrpConfig::default()
        };
        let mut t = ghrp_repro::ghrp::PredictionTables::new(&cfg);
        for (sig, dead) in updates {
            t.update(sig, dead);
            for c in t.counters(sig) {
                prop_assert!(c <= cfg.counter_max());
            }
        }
    }

    /// The synthetic walker always respects its instruction budget within
    /// one block's slack and is deterministic.
    #[test]
    fn walker_budget_and_determinism(seed in 0u64..64, budget in 1000u64..40_000) {
        use ghrp_repro::trace::synth::{WorkloadCategory, WorkloadSpec};
        let cat = WorkloadCategory::ALL[(seed % 4) as usize];
        let spec = WorkloadSpec::new(cat, seed).instructions(budget);
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(&a.records, &b.records);
        prop_assert!(a.instructions >= budget);
        prop_assert!(a.instructions < budget + 64);
    }

    /// GHRP skewed-table indices stay inside the table for *any* history,
    /// PC and supported geometry, and the signature hash is deterministic.
    #[test]
    fn signature_indices_in_bounds_any_geometry(
        h in any::<u64>(),
        pc in any::<u64>(),
        index_bits in 6u32..=14,
    ) {
        let sig = ghrp_repro::ghrp::signature::signature(h, pc, 16);
        prop_assert_eq!(sig, ghrp_repro::ghrp::signature::signature(h, pc, 16));
        for t in 0..8 {
            let i = ghrp_repro::ghrp::signature::table_index(sig, t, index_bits);
            prop_assert!(i < (1usize << index_bits),
                "table {t}: index {i} out of 2^{index_bits} bound");
        }
    }

    /// Counters saturate at the configured max (and at zero) rather than
    /// wrapping, no matter how one-sided the training is.
    #[test]
    fn counters_saturate_not_wrap(sig in any::<u16>(), extra in 0usize..64) {
        let cfg = GhrpConfig { table_entries: 256, ..GhrpConfig::default() };
        let max = cfg.counter_max();
        let mut t = ghrp_repro::ghrp::PredictionTables::new(&cfg);
        // Far more dead-trainings than the counter can hold: must pin at
        // max, not wrap past it.
        for _ in 0..(usize::from(max) + 1 + extra) {
            t.update(sig, true);
        }
        prop_assert!(t.counters(sig).into_iter().all(|c| c == max));
        // And the same number of live-trainings plus slack: pin at zero.
        for _ in 0..(usize::from(max) + 1 + extra) {
            t.update(sig, false);
        }
        prop_assert!(t.counters(sig).into_iter().all(|c| c == 0));
        prop_assert!(t.check_invariants().is_ok());
    }

    /// The dueling meta-policy holds every [`ValidatingPolicy`]-checked
    /// invariant — PSEL bounds, leader-set disjointness and coverage,
    /// follower-steering consistency, window-counter bounds, plus each
    /// candidate's own invariants — across arbitrary access streams in
    /// both continuous and phase-adaptive modes, with heterogeneous
    /// candidates, and never loses residency of the accessed block.
    #[test]
    fn duel_invariants_and_residency(blocks in arb_accesses(), window in 0u32..4) {
        let cfg = CacheConfig::with_sets(16, 2, 64).unwrap();
        let duel = if window == 0 {
            DuelConfig::continuous()
        } else {
            DuelConfig::phase_adaptive(32 * window)
        };
        let candidates = vec![
            EitherPolicy::Lru(Lru::new(cfg)),
            EitherPolicy::Srrip(Srrip::new(cfg)),
        ];
        let mut c = Cache::new(
            cfg,
            ValidatingPolicy::new(DuelSelect::new(cfg, duel, candidates)),
        );
        for &b in &blocks {
            let r = c.access(b, b);
            if !matches!(r, ghrp_repro::cache::AccessResult::Bypassed) {
                prop_assert!(c.contains(b), "block {b:#x} absent after duel fill");
            }
        }
        prop_assert!(c.policy().check_invariants().is_ok());
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
    }

    /// §III.F: for any interleaving of speculative updates, retirements
    /// and recoveries, recovery restores exactly the retired history, and
    /// the dual-history invariants hold throughout.
    #[test]
    fn history_recovery_restores_retired(ops in prop::collection::vec((0u8..3, any::<u64>()), 1..200)) {
        let mut h = ghrp_repro::ghrp::SpeculativeHistory::new(&GhrpConfig::default());
        let mut retired_shadow = ghrp_repro::ghrp::SpeculativeHistory::new(&GhrpConfig::default());
        for (op, pc) in ops {
            match op {
                0 => h.update_speculative(pc),
                1 => {
                    h.retire(pc);
                    retired_shadow.update_speculative(pc);
                }
                _ => h.recover(),
            }
            prop_assert!(h.check_invariants().is_ok());
            // The retired history must follow the committed stream alone.
            prop_assert_eq!(h.retired(), retired_shadow.speculative());
        }
        h.recover();
        prop_assert_eq!(h.speculative(), h.retired());
    }

    /// The validated GHRP policy holds all its invariants (stack
    /// permutation, counter ranges, in-bounds indices, exact recovery)
    /// across arbitrary access streams interleaved with mispredictions.
    #[test]
    fn ghrp_invariants_under_mispredictions(
        blocks in arb_accesses(),
        recover_every in 1usize..16,
    ) {
        let cfg = CacheConfig::with_sets(4, 4, 64).unwrap();
        let shared = SharedGhrp::new(GhrpConfig::default(), cfg);
        let mut c = Cache::new(cfg, ValidatingPolicy::new(GhrpPolicy::new(cfg, shared.clone())));
        for (i, &b) in blocks.iter().enumerate() {
            c.access(b, b);
            if i % recover_every == 0 {
                shared.recover(); // simulated branch misprediction
            } else {
                shared.retire(b);
            }
        }
        prop_assert!(c.policy().check_invariants().is_ok());
    }
}
