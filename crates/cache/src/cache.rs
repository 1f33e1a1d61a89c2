//! The tag-array cache simulator.

#![forbid(unsafe_code)]

use crate::config::CacheConfig;
use crate::efficiency::EfficiencyTracker;
use crate::policy::{AccessContext, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was present.
    Hit,
    /// The block was absent and filled, possibly evicting `evicted`.
    Miss {
        /// Block address evicted to make room, if the set was full.
        evicted: Option<u64>,
    },
    /// The block was absent and the policy chose not to fill it.
    Bypassed,
}

impl AccessResult {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Whether the access missed (filled or bypassed).
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

/// Running counters for a cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (including bypassed).
    pub misses: u64,
    /// Misses the policy chose not to fill.
    pub bypasses: u64,
    /// Valid blocks evicted to make room.
    pub evictions: u64,
    /// Blocks installed by [`Cache::prefetch`] (not counted as accesses
    /// or misses).
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Reset all counters (used at the end of the warm-up phase).
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

/// Tag of an invalid frame. Tags are block addresses, aligned to the
/// block size, so no block of a cache with blocks of 2 B or more can
/// equal it.
const INVALID: u64 = u64::MAX;

/// A set-associative cache with a pluggable [`ReplacementPolicy`].
///
/// The cache stores block addresses as full tags (no aliasing) and delegates
/// all replacement decisions to the policy per the protocol documented on
/// [`ReplacementPolicy`].
#[derive(Debug)]
pub struct Cache<P> {
    cfg: CacheConfig,
    /// `sets × ways` frames; [`INVALID`] marks an invalid frame. A plain
    /// `u64` rather than `Option<u64>` keeps an 8-way set's tags in one
    /// 64-byte line.
    tags: Vec<u64>,
    policy: P,
    stats: CacheStats,
    efficiency: Option<EfficiencyTracker>,
}

impl<P> Cache<P> {
    /// Swap in `policy`, returning this cache with it and the old policy.
    /// Geometry, contents, statistics and efficiency tracking carry over
    /// untouched.
    ///
    /// This lets a caller that received a `Cache<AnyPolicy>`-style cache
    /// unwrap the concrete policy into a monomorphic `Cache<Q>`: swap in
    /// `()`, match on the returned policy, then swap the payload back in.
    pub fn replace_policy<Q>(self, policy: Q) -> (Cache<Q>, P) {
        let Cache {
            cfg,
            tags,
            policy: old,
            stats,
            efficiency,
        } = self;
        (
            Cache {
                cfg,
                tags,
                policy,
                stats,
                efficiency,
            },
            old,
        )
    }
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig, policy: P) -> Cache<P> {
        // `CacheConfig` constructors enforce this, but a config can also
        // arrive through deserialization; set indexing relies on it.
        debug_assert!(
            cfg.sets().is_power_of_two(),
            "set count {} is not a power of two",
            cfg.sets()
        );
        Cache {
            cfg,
            tags: vec![INVALID; cfg.frames()],
            policy,
            stats: CacheStats::default(),
            efficiency: None,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Immutable access to the policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (e.g. to feed GHRP history updates
    /// from outside the cache access path).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics, e.g. after warm-up. Cache contents and policy
    /// state are preserved.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some(e) = &mut self.efficiency {
            e.reset();
        }
    }

    /// Restore the cache to its freshly-constructed state — tags
    /// invalidated, statistics zeroed, the policy rewound via
    /// [`ReplacementPolicy::reset`] — while keeping every allocation.
    ///
    /// Behaviour after `reset` is bit-identical to a cache newly built
    /// with the same geometry and policy arguments; per-worker lane
    /// arenas use this to recycle caches across suite tasks.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.stats.reset();
        self.policy.reset();
        if let Some(e) = &mut self.efficiency {
            *e = EfficiencyTracker::new(self.cfg);
        }
    }

    /// Begin recording per-frame efficiency (live-time fractions) for heat
    /// maps. See [`EfficiencyTracker`].
    pub fn enable_efficiency_tracking(&mut self) {
        self.efficiency = Some(EfficiencyTracker::new(self.cfg));
    }

    /// The efficiency tracker, if enabled.
    pub fn efficiency(&self) -> Option<&EfficiencyTracker> {
        self.efficiency.as_ref()
    }

    /// Finish efficiency tracking and return the per-frame map.
    ///
    /// Returns `None` if tracking was never enabled.
    pub fn finish_efficiency(&mut self) -> Option<crate::EfficiencyMap> {
        self.efficiency.take().map(EfficiencyTracker::finish)
    }

    /// Whether `addr`'s block is currently resident (no side effects).
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.cfg.block_of(addr)).is_some()
    }

    /// Number of valid frames.
    pub fn valid_frames(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    fn find(&self, block: u64) -> Option<usize> {
        let set = self.cfg.set_of(block);
        let base = set * self.cfg.ways() as usize;
        (0..self.cfg.ways() as usize).find(|&w| self.tags[base + w] == block)
    }

    /// Install `addr`'s block without counting an access — a prefetch.
    ///
    /// Returns `true` if a fill occurred (`false` when already resident).
    /// The policy's victim-selection and fill callbacks run as for a
    /// demand fill, but `on_access` does not (a prefetch is not part of
    /// the demand stream, so history-based policies do not advance their
    /// histories).
    ///
    /// # Panics
    ///
    /// Panics if the policy chooses a victim way `>= ways` — a policy
    /// bug, not a caller error.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        let block = self.cfg.block_of(addr);
        let set = self.cfg.set_of(block);
        if self.find(block).is_some() {
            return false;
        }
        let ctx = AccessContext {
            addr,
            block_addr: block,
            set,
        };
        let base = set * self.cfg.ways() as usize;
        let ways = self.cfg.ways() as usize;
        let way = if let Some(w) = (0..ways).find(|&w| self.tags[base + w] == INVALID) {
            w
        } else {
            let w = self.policy.choose_victim(&ctx);
            assert!(w < ways, "policy chose way {w} of {ways}");
            // The set is full here (no invalid frame was found above), so
            // every way holds a tag.
            let victim = self.tags[base + w];
            debug_assert!(victim != INVALID, "full set has a valid tag in every way");
            if victim != INVALID {
                self.policy.on_evict(w, victim, &ctx);
                if let Some(e) = &mut self.efficiency {
                    e.on_evict(set, w);
                }
                self.stats.evictions += 1;
            }
            w
        };
        self.tags[base + way] = block;
        self.policy.on_fill(way, &ctx);
        if let Some(e) = &mut self.efficiency {
            e.on_fill(set, way);
        }
        self.stats.prefetch_fills += 1;
        true
    }

    /// Perform one access at `addr` (any address within the block). `pc`
    /// is unused by the baseline policies but kept in the signature for
    /// symmetry with the BTB; predictive policies receive the *block*
    /// address through [`AccessContext`].
    ///
    /// # Panics
    ///
    /// Panics if the policy chooses a victim way `>= ways` — a policy
    /// bug, not a caller error.
    pub fn access(&mut self, addr: u64, pc: u64) -> AccessResult {
        self.access_locate(addr, pc).0
    }

    /// The frame (global `set * ways + way` index) currently holding
    /// `addr`'s block, if resident. Side-effect-free, like
    /// [`Cache::contains`]. Lets callers keep per-entry payloads in a
    /// flat side array indexed by frame instead of a keyed map.
    pub fn locate(&self, addr: u64) -> Option<usize> {
        let block = self.cfg.block_of(addr);
        let set = self.cfg.set_of(block);
        self.find(block).map(|w| set * self.cfg.ways() as usize + w)
    }

    /// Like [`Cache::access`], additionally reporting the frame (global
    /// `set * ways + way` index) the access hit in or filled — `None`
    /// when the policy bypassed the fill.
    ///
    /// # Panics
    ///
    /// Panics if the policy chooses a victim way `>= ways` — a policy
    /// bug, not a caller error.
    pub fn access_locate(&mut self, addr: u64, pc: u64) -> (AccessResult, Option<usize>) {
        let _ = pc;
        let block = self.cfg.block_of(addr);
        let set = self.cfg.set_of(block);
        let ctx = AccessContext {
            addr,
            block_addr: block,
            set,
        };
        self.stats.accesses += 1;
        self.policy.on_access(&ctx);
        if let Some(e) = &mut self.efficiency {
            e.tick();
        }

        let base = set * self.cfg.ways() as usize;
        let ways = self.cfg.ways() as usize;

        if let Some(way) = (0..ways).find(|&w| self.tags[base + w] == block) {
            self.stats.hits += 1;
            self.policy.on_hit(way, &ctx);
            if let Some(e) = &mut self.efficiency {
                e.on_hit(set, way);
            }
            return (AccessResult::Hit, Some(base + way));
        }

        self.stats.misses += 1;
        if self.policy.should_bypass(&ctx) {
            self.stats.bypasses += 1;
            return (AccessResult::Bypassed, None);
        }

        // Prefer an invalid frame; otherwise ask the policy for a victim.
        let (way, evicted) = if let Some(w) = (0..ways).find(|&w| self.tags[base + w] == INVALID) {
            (w, None)
        } else {
            let w = self.policy.choose_victim(&ctx);
            assert!(w < ways, "policy chose way {w} of {ways}");
            // The set is full here (no invalid frame was found above), so
            // every way holds a tag.
            let victim = self.tags[base + w];
            debug_assert!(victim != INVALID, "full set has a valid tag in every way");
            if victim != INVALID {
                self.policy.on_evict(w, victim, &ctx);
                if let Some(e) = &mut self.efficiency {
                    e.on_evict(set, w);
                }
                self.stats.evictions += 1;
            }
            (w, (victim != INVALID).then_some(victim))
        };
        self.tags[base + way] = block;
        self.policy.on_fill(way, &ctx);
        if let Some(e) = &mut self.efficiency {
            e.on_fill(set, way);
        }
        (AccessResult::Miss { evicted }, Some(base + way))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    fn small() -> Cache<Lru> {
        let cfg = CacheConfig::with_sets(2, 2, 64).unwrap();
        Cache::new(cfg, Lru::new(cfg))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0x1000, 0), AccessResult::Miss { evicted: None });
        assert_eq!(c.access(0x1000, 0), AccessResult::Hit);
        assert_eq!(c.access(0x1004, 0), AccessResult::Hit, "same block");
        let s = c.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (3, 2, 1));
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut c = small();
        // Set 0 blocks: 0x000, 0x100 (sets=2, block=64 → set = (a/64)%2).
        c.access(0x000, 0);
        c.access(0x100, 0);
        assert_eq!(c.valid_frames(), 2);
        assert_eq!(c.stats().evictions, 0);
        // Third distinct block in set 0 must evict.
        let r = c.access(0x200, 0);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some(0x000)
            }
        );
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn contains_is_side_effect_free() {
        let mut c = small();
        c.access(0x1000, 0);
        let before = c.stats();
        assert!(c.contains(0x1000));
        assert!(c.contains(0x103f));
        assert!(!c.contains(0x2000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = small();
        c.access(0x1000, 0);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.access(0x1000, 0).is_hit(), "contents survive reset");
    }

    #[test]
    fn replace_policy_keeps_contents_and_stats() {
        let mut c = small();
        c.access(0x1000, 0);
        c.access(0x1000, 0);
        let (shell, lru) = c.replace_policy(());
        let (mut c, ()) = shell.replace_policy(lru);
        assert_eq!((c.stats().accesses, c.stats().hits), (2, 1));
        assert!(c.access(0x1000, 0).is_hit(), "contents survive the swap");
    }

    #[test]
    fn miss_ratio() {
        let mut s = CacheStats::default();
        assert!(s.miss_ratio().abs() < f64::EPSILON);
        s.accesses = 4;
        s.misses = 1;
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }
}
