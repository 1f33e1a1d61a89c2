//! GHRP as an I-cache replacement policy (Algorithm 1 of the paper).

#![forbid(unsafe_code)]

use crate::shared::SharedGhrp;
use fe_cache::{AccessContext, CacheConfig, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// Shadow tag of an empty frame. Block addresses are aligned to the block
/// size, so no block of a cache with blocks of 2 B or more can equal it.
const NO_BLOCK: u64 = u64::MAX;

/// Diagnostic counters for a GHRP policy instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhrpPolicyStats {
    /// Victims chosen because they were predicted dead.
    pub dead_victims: u64,
    /// Victims chosen by LRU fallback (no dead block in the set).
    pub lru_victims: u64,
    /// Misses bypassed by prediction.
    pub bypasses: u64,
    /// Hits to blocks whose prediction bit said dead (false-dead
    /// predictions that did not yet cost a miss).
    pub false_dead_hits: u64,
    /// Evictions of blocks whose prediction bit said live (deaths the
    /// predictor missed — lost coverage).
    pub unpredicted_deaths: u64,
}

/// GHRP replacement + bypass for the instruction cache.
///
/// Implements the access protocol of [`ReplacementPolicy`] following
/// Algorithm 1:
///
/// * every access computes the current signature and advances the shared
///   speculative path history;
/// * hits decrement the counters under the block's old signature, then
///   re-tag the block with the current signature and a fresh prediction;
/// * misses may bypass; otherwise the victim is the first predicted-dead
///   block, else the LRU block; the victim's stored signature trains the
///   tables dead; the incoming block is tagged with the current signature.
///
/// With [`crate::GhrpConfig::shadow_training`] enabled (the default), the
/// train-on-hit/train-on-evict events come from a shadow LRU tag array of
/// the same geometry rather than from the policy's own decisions, which
/// keeps the learned label a stable "dead under LRU" (see the config
/// field's documentation for the rationale).
#[derive(Debug, Clone)]
// The bools are hot-path caches of independent GhrpConfig flags, not state.
#[allow(clippy::struct_excessive_bools)]
pub struct GhrpPolicy {
    shared: SharedGhrp,
    ways: usize,
    /// LRU stamps per frame (the paper's 3 LRU-stack bits, implemented as
    /// exact timestamps).
    stamps: Vec<u64>,
    clock: u64,
    /// Signature of the in-flight access, computed in `on_access`.
    current_sig: u16,
    /// Shadow LRU tag array used for decoupled training; [`NO_BLOCK`]
    /// marks an empty shadow frame.
    shadow_block: Vec<u64>,
    shadow_sig: Vec<u16>,
    shadow_stamps: Vec<u64>,
    shadow_training: bool,
    // Immutable-after-construction config flags, cached out of the shared
    // state so the hot path skips a borrow + config copy per query.
    enable_bypass: bool,
    protect_mru: bool,
    prefer_young_dead: bool,
    fresh_victim_prediction: bool,
    stats: GhrpPolicyStats,
}

impl GhrpPolicy {
    /// Create a GHRP policy for a cache with geometry `cfg`, backed by the
    /// `shared` predictor (which the BTB may also hold). `shared` must
    /// have been built for the same geometry: its block metadata is
    /// indexed by this cache's frames.
    pub fn new(cfg: CacheConfig, shared: SharedGhrp) -> GhrpPolicy {
        debug_assert_eq!(
            shared.icache_config(),
            cfg,
            "the shared GHRP state mirrors another I-cache geometry"
        );
        let gcfg = shared.config();
        let shadow_training = gcfg.shadow_training;
        GhrpPolicy {
            shared,
            ways: cfg.ways() as usize,
            stamps: vec![0; cfg.frames()],
            clock: 0,
            current_sig: 0,
            shadow_block: vec![NO_BLOCK; if shadow_training { cfg.frames() } else { 0 }],
            shadow_sig: vec![0; if shadow_training { cfg.frames() } else { 0 }],
            shadow_stamps: vec![0; if shadow_training { cfg.frames() } else { 0 }],
            shadow_training,
            enable_bypass: gcfg.enable_bypass,
            protect_mru: gcfg.protect_mru,
            prefer_young_dead: gcfg.prefer_young_dead,
            fresh_victim_prediction: gcfg.fresh_victim_prediction,
            stats: GhrpPolicyStats::default(),
        }
    }

    /// Handle to the shared predictor.
    pub fn shared(&self) -> &SharedGhrp {
        &self.shared
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> GhrpPolicyStats {
        self.stats
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }

    /// Drive the shadow LRU array for one access: its hits and evictions
    /// are the (policy-independent) training events.
    fn shadow_access(&mut self, ctx: &AccessContext) {
        let base = ctx.set * self.ways;
        self.clock += 1;
        for w in 0..self.ways {
            if self.shadow_block[base + w] == ctx.block_addr {
                // Shadow hit: the previous signature led to a reuse.
                self.shared.train(self.shadow_sig[base + w], false);
                self.shadow_sig[base + w] = self.current_sig;
                self.shadow_stamps[base + w] = self.clock;
                return;
            }
        }
        // Shadow miss: evict shadow-LRU, training its signature dead.
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                (
                    self.shadow_block[base + w] != NO_BLOCK,
                    self.shadow_stamps[base + w],
                )
            })
            .unwrap_or(0); // ways >= 1 by construction; hot path stays panic-free
        if self.shadow_block[base + victim] != NO_BLOCK {
            self.shared.train(self.shadow_sig[base + victim], true);
        }
        self.shadow_block[base + victim] = ctx.block_addr;
        self.shadow_sig[base + victim] = self.current_sig;
        self.shadow_stamps[base + victim] = self.clock;
    }
}

impl ReplacementPolicy for GhrpPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        // Signature first (from the history *excluding* this access), then
        // advance the speculative history with this access — one shared
        // borrow via the combined hot-path entry.
        self.current_sig = self.shared.access_signature(ctx.block_addr);
        if self.shadow_training {
            self.shadow_access(ctx);
        }
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        // The block proved live under the conditions of its previous
        // access (Algorithm 1 lines 21–25). With shadow training the
        // equivalent event was already recorded by the shadow array, so
        // the old signature trains live only in direct-training mode.
        // Re-tag with the current signature and a fresh prediction bit.
        let old = self.shared.rehit_meta(
            ctx.set * self.ways + way,
            self.current_sig,
            !self.shadow_training,
        );
        if old.is_some_and(|o| o.predicted_dead) {
            self.stats.false_dead_hits += 1;
        }
        self.touch(ctx.set, way);
    }

    fn should_bypass(&mut self, _ctx: &AccessContext) -> bool {
        if !self.enable_bypass {
            return false;
        }
        let bypass = self.shared.predict_bypass(self.current_sig);
        if bypass {
            self.stats.bypasses += 1;
        }
        bypass
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * self.ways;
        // Algorithm 5: first predicted-dead block, else LRU. Optionally
        // exempt the MRU way (see `GhrpConfig::protect_mru`).
        let mru = if self.protect_mru {
            (0..self.ways).max_by_key(|&w| self.stamps[base + w])
        } else {
            None
        };
        let mut best: Option<(u64, usize)> = None;
        for w in 0..self.ways {
            if mru == Some(w) {
                continue;
            }
            // An empty frame carries no metadata and scans as live.
            if self
                .shared
                .victim_is_dead(base + w, self.fresh_victim_prediction)
            {
                if !self.prefer_young_dead {
                    self.stats.dead_victims += 1;
                    return w;
                }
                let stamp = self.stamps[base + w];
                if best.is_none_or(|(s, _)| stamp > s) {
                    best = Some((stamp, w));
                }
            }
        }
        if let Some((_, w)) = best {
            self.stats.dead_victims += 1;
            return w;
        }
        self.stats.lru_victims += 1;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0) // ways >= 1 by construction; hot path stays panic-free
    }

    fn on_evict(&mut self, way: usize, _victim_block: u64, ctx: &AccessContext) {
        // The victim just proved dead (Algorithm 1 lines 15–17, Algorithm
        // 6). With shadow training the dead label instead comes from the
        // shadow array's own eviction of this block, so the signature
        // trains dead only in direct-training mode.
        let meta = self
            .shared
            .evict_meta(ctx.set * self.ways + way, !self.shadow_training);
        if meta.is_some_and(|m| !m.predicted_dead) {
            self.stats.unpredicted_deaths += 1;
        }
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.shared
            .fill_meta(ctx.set * self.ways + way, ctx.block_addr, self.current_sig);
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        // Private fields only; the pair's owner resets `SharedGhrp` once
        // so the shared tables are not cleared per policy.
        self.stamps.fill(0);
        self.clock = 0;
        self.current_sig = 0;
        self.shadow_block.fill(NO_BLOCK);
        self.shadow_sig.fill(0);
        self.shadow_stamps.fill(0);
        self.stats = GhrpPolicyStats::default();
    }

    fn name(&self) -> String {
        "GHRP".to_owned()
    }
}

impl fe_cache::policy::PolicyInvariants for GhrpPolicy {
    fn check_invariants(&self) -> Result<(), String> {
        // Recency stamps (and the shadow array's, when enabled) must form
        // an LRU stack per set.
        fe_cache::policy::check_lru_stack(&self.stamps, self.ways, self.clock)?;
        if self.shadow_training {
            fe_cache::policy::check_lru_stack(&self.shadow_stamps, self.ways, self.clock)?;
        }
        // The frame metadata (each block in its own set, once), counter
        // ranges, skewed-index bounds and exact misprediction recovery
        // (paper §III.F) live in the shared predictor.
        self.shared.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::BlockMeta;
    use crate::GhrpConfig;
    use fe_cache::Cache;

    fn mk(cfg_mod: impl FnOnce(&mut GhrpConfig)) -> (Cache<GhrpPolicy>, SharedGhrp) {
        let cache_cfg = CacheConfig::with_sets(4, 2, 64).unwrap();
        let mut gcfg = GhrpConfig::default();
        cfg_mod(&mut gcfg);
        let shared = SharedGhrp::new(gcfg, cache_cfg);
        let cache = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared.clone()));
        (cache, shared)
    }

    #[test]
    fn behaves_like_lru_before_training() {
        let (mut c, _s) = mk(|c| c.enable_bypass = false);
        // Set 0 holds blocks 0x000 and 0x100 (4 sets × 64B).
        c.access(0x000, 0);
        c.access(0x100, 0);
        c.access(0x000, 0); // MRU
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x100)
            }
        );
    }

    #[test]
    fn metadata_tracks_residency() {
        let (mut c, s) = mk(|c| c.enable_bypass = false);
        c.access(0x000, 0);
        assert!(s.meta(0x000).is_some());
        c.access(0x100, 0);
        c.access(0x200, 0); // evicts one of them
        let live = [0x000u64, 0x100, 0x200]
            .iter()
            .filter(|&&b| s.meta(b).is_some())
            .count();
        assert_eq!(live, 2);
        assert_eq!(s.meta_len(), 2);
    }

    #[test]
    fn eviction_trains_dead_and_reuse_trains_live() {
        let (mut c, s) = mk(|c| c.enable_bypass = false);
        for _ in 0..50 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        assert!(
            s.table_saturation() > 0.0,
            "training must move some counters"
        );
    }

    #[test]
    fn direct_training_mode_trains_from_policy_events() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            c.shadow_training = false;
        });
        for _ in 0..50 {
            for b in [0x000u64, 0x100, 0x200] {
                c.access(b, 0);
            }
        }
        assert!(s.table_saturation() > 0.0);
    }

    #[test]
    fn dead_predicted_victim_preferred_over_lru() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            // Drive the decision from the stored prediction bits alone so
            // the test controls exactly which block is marked dead.
            c.protect_mru = false;
            c.shadow_training = false;
            c.fresh_victim_prediction = false;
        });
        c.access(0x000, 0);
        c.access(0x100, 0);
        // Mark the MRU block (0x100) dead via its stored prediction bit.
        let meta = s.meta(0x100).unwrap();
        s.set_meta(
            0x100,
            BlockMeta {
                signature: meta.signature,
                predicted_dead: true,
            },
        );
        // Miss: GHRP should evict predicted-dead 0x100, not LRU 0x000.
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x100)
            }
        );
        assert_eq!(c.policy().stats().dead_victims, 1);
    }

    #[test]
    fn mru_protection_exempts_most_recent_way() {
        let (mut c, s) = mk(|c| {
            c.enable_bypass = false;
            c.protect_mru = true;
        });
        c.access(0x000, 0);
        c.access(0x100, 0); // 0x100 is MRU
                            // Mark MRU 0x100 dead; with protection the victim must be LRU
                            // 0x000 instead.
        let meta = s.meta(0x100).unwrap();
        s.set_meta(
            0x100,
            BlockMeta {
                signature: meta.signature,
                predicted_dead: true,
            },
        );
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            fe_cache::AccessResult::Miss {
                evicted: Some(0x000)
            }
        );
    }

    #[test]
    fn bypass_skips_fill_after_saturation() {
        let (mut c, s) = mk(|c| c.enable_bypass = true);
        for _ in 0..300 {
            for b in [0x000u64, 0x100, 0x200, 0x300] {
                c.access(b, 0);
            }
        }
        let st = c.policy().stats();
        assert!(
            st.bypasses > 0,
            "cyclic thrash must eventually trigger bypasses (stats {st:?}, sat {})",
            s.table_saturation()
        );
    }

    #[test]
    fn bypass_disabled_never_bypasses() {
        let (mut c, _s) = mk(|c| c.enable_bypass = false);
        for i in 0..500u64 {
            c.access((i % 5) * 0x100, 0);
        }
        assert_eq!(c.policy().stats().bypasses, 0);
        assert_eq!(c.stats().bypasses, 0);
    }

    #[test]
    fn ghrp_beats_lru_on_predictable_streaming_mix() {
        // A hot block is reused every iteration; a stream of cold blocks
        // passes through the same set. Under LRU the stream evicts the hot
        // block; GHRP learns the stream's path signatures are dead and
        // protects the hot block.
        let cache_cfg = CacheConfig::with_sets(1, 2, 64).unwrap();
        let run_lru = {
            let mut c = Cache::new(cache_cfg, fe_cache::policy::Lru::new(cache_cfg));
            let mut miss = 0u64;
            for i in 0..3000u64 {
                if c.access(0x0, 0).is_miss() {
                    miss += 1;
                }
                let cold = 0x1000 + (i % 8) * 0x40;
                if c.access(cold, 0).is_miss() {
                    miss += 1;
                }
            }
            miss
        };
        let run_ghrp = {
            let shared = SharedGhrp::new(GhrpConfig::default(), cache_cfg);
            let mut c = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared));
            let mut miss = 0u64;
            for i in 0..3000u64 {
                if c.access(0x0, 0).is_miss() {
                    miss += 1;
                }
                let cold = 0x1000 + (i % 8) * 0x40;
                if c.access(cold, 0).is_miss() {
                    miss += 1;
                }
            }
            miss
        };
        assert!(
            run_ghrp < run_lru,
            "GHRP misses {run_ghrp} should beat LRU misses {run_lru}"
        );
    }
}
