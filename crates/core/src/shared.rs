//! Shared GHRP predictor state.
//!
//! One GHRP instance serves both the I-cache and the BTB (§III.E: "All of
//! the other structures for the GHRP algorithm are already present for use
//! by the I-cache dead block prediction, so BTB replacement comes with
//! almost no additional overhead"). [`SharedGhrp`] is a cheaply clonable
//! handle (`Rc<RefCell<…>>` — the simulator is single-threaded) that the
//! I-cache policy ([`crate::GhrpPolicy`]) and the BTB policy (in `fe-btb`)
//! both hold.
//!
//! Besides the tables and the dual path history, the shared state keeps
//! the I-cache's per-block metadata, which is exactly what the BTB needs:
//! "the signature recorded for that I-cache block is used to index the
//! I-cache GHRP prediction tables to generate … a dead-entry prediction
//! for that BTB entry".
//!
//! The metadata is kept in arrays indexed by I-cache frame (`set * ways +
//! way`): the resident block's address (a mirror of the tag array) and
//! its signature and prediction bit. The I-cache policy addresses it
//! by the frame the cache reports; the BTB, which only knows a branch PC,
//! finds the branch's block by scanning that block's I-cache set.

#![forbid(unsafe_code)]

use crate::config::GhrpConfig;
use crate::history::SpeculativeHistory;
use crate::signature::signature;
use crate::tables::PredictionTables;
use fe_cache::CacheConfig;
use std::cell::RefCell;
use std::rc::Rc;

// The checked index primitives every predictor-side index computation
// must go through (enforced by `cargo xtask lint`): `mask` for
// power-of-two bucket selection, `idx` for bounds-checked `u64 → usize`
// narrowing. Canonical implementations live in `fe_cache::index`; this
// re-export is the predictor-facing path.
pub use fe_cache::index::{idx, mask};

/// Per-I-cache-block GHRP metadata (16-bit signature + prediction bit;
/// the valid and LRU bits live in the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Signature recorded at fill or last reuse.
    pub signature: u16,
    /// Dead-block prediction bit, refreshed on each access to the block.
    pub predicted_dead: bool,
}

/// Block address marking an empty frame. Block addresses are aligned to
/// the block size, so no block of a cache with blocks of 2 B or more can
/// equal it.
const EMPTY: u64 = u64::MAX;

/// Metadata of an empty frame (never read: the frame's block says empty).
const NO_META: BlockMeta = BlockMeta {
    signature: 0,
    predicted_dead: false,
};

#[derive(Debug)]
struct GhrpState {
    cfg: GhrpConfig,
    tables: PredictionTables,
    history: SpeculativeHistory,
    /// The block resident in each I-cache frame ([`EMPTY`] for none): a
    /// mirror of the I-cache tag array, which the BTB scans by set.
    blocks: Vec<u64>,
    /// The metadata of each frame's block, parallel to `blocks`.
    metas: Vec<BlockMeta>,
    /// The I-cache geometry the frames mirror.
    icache: CacheConfig,
    /// Right-shift applied to I-cache block addresses before they enter
    /// the history/signature (the block offset width).
    icache_shift: u32,
}

impl GhrpState {
    /// The frame holding `block_addr`, by a scan of its I-cache set.
    fn find(&self, block_addr: u64) -> Option<usize> {
        self.find_in_set(block_addr, block_addr)
    }

    /// The first frame of `addr`'s I-cache set whose block is `block`.
    fn find_in_set(&self, addr: u64, block: u64) -> Option<usize> {
        let ways = self.icache.ways() as usize;
        let base = self.icache.set_of(addr) * ways;
        self.blocks
            .get(base..base + ways)?
            .iter()
            .position(|&b| b == block)
            .map(|w| base + w)
    }

    /// The metadata of `block_addr`, if it is resident.
    fn meta_of(&self, block_addr: u64) -> Option<BlockMeta> {
        self.find(block_addr)
            .and_then(|f| self.metas.get(f).copied())
    }

    /// The metadata of the block in `frame`, if the frame holds one.
    fn meta_at(&self, frame: usize) -> Option<BlockMeta> {
        self.blocks
            .get(frame)
            .filter(|&&b| b != EMPTY)
            .and_then(|_| self.metas.get(frame).copied())
    }

    /// Record `block` with `meta` in `frame`.
    fn store(&mut self, frame: usize, block: u64, meta: BlockMeta) {
        if let (Some(b), Some(m)) = (self.blocks.get_mut(frame), self.metas.get_mut(frame)) {
            *b = block;
            *m = meta;
        }
    }

    /// The signature under the current speculative history for an
    /// already-shifted PC.
    fn signature(&self, shifted_pc: u64) -> u16 {
        signature(
            self.history.speculative(),
            shifted_pc,
            self.cfg.history_bits.min(16),
        )
    }
}

/// Clonable handle to the shared GHRP predictor.
#[derive(Debug, Clone)]
pub struct SharedGhrp {
    state: Rc<RefCell<GhrpState>>,
}

impl SharedGhrp {
    /// Create a fresh predictor for the I-cache of geometry `icache`.
    ///
    /// I-cache accesses enter the history at fetch-block granularity, so
    /// the low (always-zero) block-offset bits are shifted away first;
    /// the block metadata holds one entry per I-cache frame.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GhrpConfig::validate`].
    pub fn new(cfg: GhrpConfig, icache: CacheConfig) -> SharedGhrp {
        let tables = PredictionTables::new(&cfg);
        let history = SpeculativeHistory::new(&cfg);
        SharedGhrp {
            state: Rc::new(RefCell::new(GhrpState {
                cfg,
                tables,
                history,
                blocks: vec![EMPTY; icache.frames()],
                metas: vec![NO_META; icache.frames()],
                icache,
                icache_shift: icache.offset_bits(),
            })),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> GhrpConfig {
        self.state.borrow().cfg
    }

    /// The I-cache geometry whose frames the block metadata mirrors.
    pub fn icache_config(&self) -> CacheConfig {
        self.state.borrow().icache
    }

    /// Compute the signature for an I-cache access to `block_addr` under
    /// the *current* speculative history (before the access updates it).
    pub fn icache_signature(&self, block_addr: u64) -> u16 {
        let s = self.state.borrow();
        s.signature(block_addr >> s.icache_shift)
    }

    /// Compute a signature for an arbitrary (pre-shifted) PC — the BTB
    /// fallback when the branch's I-cache block has no metadata.
    pub fn pc_signature(&self, shifted_pc: u64) -> u16 {
        self.state.borrow().signature(shifted_pc)
    }

    /// Advance the speculative history with an I-cache access.
    pub fn update_history(&self, block_addr: u64) {
        let mut s = self.state.borrow_mut();
        let pc = block_addr >> s.icache_shift;
        s.history.update_speculative(pc);
    }

    /// Hot-path combination of [`SharedGhrp::icache_signature`] followed
    /// by [`SharedGhrp::update_history`]: compute the signature for an
    /// I-cache access under the history *excluding* this access, then
    /// advance the speculative history — in one borrow.
    pub fn access_signature(&self, block_addr: u64) -> u16 {
        let mut s = self.state.borrow_mut();
        let pc = block_addr >> s.icache_shift;
        let sig = s.signature(pc);
        s.history.update_speculative(pc);
        sig
    }

    /// Hot-path re-tag on an I-cache hit in `frame` (Algorithm 1 lines
    /// 21–25): read the resident block's previous metadata, optionally
    /// train its old signature live (`train_live`, i.e. direct-training
    /// mode), then store fresh metadata under `sig` with a fresh dead
    /// prediction. Returns the previous metadata. One borrow, no search;
    /// the frame keeps its block, which a hit does not change.
    pub fn rehit_meta(&self, frame: usize, sig: u16, train_live: bool) -> Option<BlockMeta> {
        let mut s = self.state.borrow_mut();
        let old = s.meta_at(frame);
        if train_live {
            if let Some(o) = old {
                s.tables.update(o.signature, false);
            }
        }
        let predicted_dead = s.tables.predict(sig, s.cfg.dead_threshold);
        if let Some(m) = s.metas.get_mut(frame) {
            *m = BlockMeta {
                signature: sig,
                predicted_dead,
            };
        }
        old
    }

    /// Hot-path fill: store metadata for `block_addr`, newly filled into
    /// `frame`, under `sig` with a fresh dead prediction, in one borrow.
    pub fn fill_meta(&self, frame: usize, block_addr: u64, sig: u16) {
        let mut s = self.state.borrow_mut();
        let predicted_dead = s.tables.predict(sig, s.cfg.dead_threshold);
        s.store(
            frame,
            block_addr,
            BlockMeta {
                signature: sig,
                predicted_dead,
            },
        );
    }

    /// Hot-path eviction from `frame` (Algorithm 1 lines 15–17): empty
    /// the frame, optionally training the victim's signature dead
    /// (`train_dead`, i.e. direct-training mode). Returns the victim's
    /// metadata. One borrow.
    pub fn evict_meta(&self, frame: usize, train_dead: bool) -> Option<BlockMeta> {
        let mut s = self.state.borrow_mut();
        let old = s.meta_at(frame);
        s.store(frame, EMPTY, NO_META);
        if train_dead {
            if let Some(o) = old {
                s.tables.update(o.signature, true);
            }
        }
        old
    }

    /// Hot-path victim scan: whether the block resident in `frame` is
    /// considered dead — by a fresh table vote on its stored signature
    /// (`fresh`) or by its stored prediction bit. An empty frame is live.
    /// One borrow per candidate way.
    pub fn victim_is_dead(&self, frame: usize, fresh: bool) -> bool {
        let s = self.state.borrow();
        match s.meta_at(frame) {
            Some(m) if fresh => s.tables.predict(m.signature, s.cfg.dead_threshold),
            Some(m) => m.predicted_dead,
            None => false,
        }
    }

    /// Hot-path BTB access prediction (§III.E): look up the I-cache
    /// metadata for the branch's block; fall back to a PC signature when
    /// the block is absent. Returns `(used_fallback, predicted_dead)`
    /// under the BTB's own threshold — in one borrow.
    pub fn btb_access_prediction(&self, block_addr: u64, shifted_pc: u64) -> (bool, bool) {
        let s = self.state.borrow();
        let (fallback, sig) = match s.meta_of(block_addr) {
            Some(m) => (false, m.signature),
            None => (true, s.signature(shifted_pc)),
        };
        (fallback, s.tables.predict(sig, s.cfg.btb_dead_threshold))
    }

    /// Hot-path BTB victim scan: dead prediction for the BTB entry whose
    /// branch lives at `shifted_pc` in I-cache block `block_addr`. When
    /// the block has no metadata, `absent_is_dead` short-circuits the
    /// vote (see [`GhrpConfig::btb_absent_block_is_dead`]). One borrow.
    pub fn btb_victim_is_dead(
        &self,
        block_addr: u64,
        shifted_pc: u64,
        absent_is_dead: bool,
    ) -> bool {
        let s = self.state.borrow();
        match s.meta_of(block_addr) {
            Some(m) => s.tables.predict(m.signature, s.cfg.btb_dead_threshold),
            None if absent_is_dead => true,
            None => s
                .tables
                .predict(s.signature(shifted_pc), s.cfg.btb_dead_threshold),
        }
    }

    /// Advance the retired (non-speculative) history with a committed
    /// access.
    pub fn retire(&self, block_addr: u64) {
        let mut s = self.state.borrow_mut();
        let pc = block_addr >> s.icache_shift;
        s.history.retire(pc);
    }

    /// Branch-misprediction recovery: restore the speculative history
    /// from the retired one (§III.F).
    pub fn recover(&self) {
        self.state.borrow_mut().history.recover();
    }

    /// Current speculative history value (diagnostics/tests).
    pub fn speculative_history(&self) -> u64 {
        self.state.borrow().history.speculative()
    }

    /// Dead-block prediction for replacement (I-cache threshold).
    pub fn predict_dead(&self, sig: u16) -> bool {
        let s = self.state.borrow();
        s.tables.predict(sig, s.cfg.dead_threshold)
    }

    /// Dead-block prediction for bypass (higher threshold).
    pub fn predict_bypass(&self, sig: u16) -> bool {
        let s = self.state.borrow();
        s.tables.predict(sig, s.cfg.bypass_threshold)
    }

    /// Dead-entry prediction for the BTB (independently tuned threshold,
    /// §III.E point 4).
    pub fn predict_btb_dead(&self, sig: u16) -> bool {
        let s = self.state.borrow();
        s.tables.predict(sig, s.cfg.btb_dead_threshold)
    }

    /// Train the tables: the block carrying `sig` proved dead (eviction
    /// without reuse) or live (reuse).
    pub fn train(&self, sig: u16, is_dead: bool) {
        self.state.borrow_mut().tables.update(sig, is_dead);
    }

    /// Look up the I-cache metadata for `block_addr` — the by-block
    /// lookup the BTB uses (a scan of the block's I-cache set).
    pub fn meta(&self, block_addr: u64) -> Option<BlockMeta> {
        self.state.borrow().meta_of(block_addr)
    }

    /// The block resident in I-cache `frame` and its metadata, if any.
    pub fn frame_meta(&self, frame: usize) -> Option<(u64, BlockMeta)> {
        let s = self.state.borrow();
        s.meta_at(frame).map(|m| (s.blocks[frame], m))
    }

    /// Overwrite the metadata of `block_addr` (diagnostics and tests):
    /// in place when the block is resident, else in the first empty
    /// frame of its set. Returns `false`, storing nothing, when the block
    /// is absent and its set is full.
    pub fn set_meta(&self, block_addr: u64, meta: BlockMeta) -> bool {
        let mut s = self.state.borrow_mut();
        let frame = s
            .find(block_addr)
            .or_else(|| s.find_in_set(block_addr, EMPTY));
        match frame {
            Some(f) => {
                s.store(f, block_addr, meta);
                true
            }
            None => false,
        }
    }

    /// Restore the shared predictor to its freshly-constructed state,
    /// reusing every allocation: all counters zeroed, both history
    /// registers cleared, and every frame's metadata dropped.
    ///
    /// Policies sharing this state reset only their private fields; the
    /// pair's owner calls this once so the shared state is not cleared
    /// twice.
    pub fn reset(&self) {
        let mut s = self.state.borrow_mut();
        s.tables.clear();
        s.history.reset();
        s.blocks.fill(EMPTY);
        s.metas.fill(NO_META);
    }

    /// Number of frames currently carrying metadata (the I-cache's valid
    /// frames).
    pub fn meta_len(&self) -> usize {
        self.state
            .borrow()
            .blocks
            .iter()
            .filter(|&&b| b != EMPTY)
            .count()
    }

    /// Fraction of saturated counters (diagnostics).
    pub fn table_saturation(&self) -> f64 {
        self.state.borrow().tables.saturation()
    }

    /// Validate the shared predictor state: every frame's block belongs
    /// to that frame's I-cache set and appears once in it, table counters
    /// within `[0, counter_max]` and in-bounds skewed indices
    /// ([`PredictionTables::check_invariants`]), plus the dual-history
    /// width and exact misprediction recovery
    /// ([`SpeculativeHistory::check_invariants`], §III.F).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = self.state.borrow();
        let ways = s.icache.ways() as usize;
        for (frame, &block) in s.blocks.iter().enumerate() {
            if block == EMPTY {
                continue;
            }
            if s.icache.set_of(block) != frame / ways {
                return Err(format!(
                    "frame {frame}: block {block:#x} belongs to set {}",
                    s.icache.set_of(block)
                ));
            }
            if s.find(block) != Some(frame) {
                return Err(format!(
                    "frame {frame}: block {block:#x} is resident twice in its set"
                ));
            }
        }
        s.tables.check_invariants()?;
        s.history.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> SharedGhrp {
        let icache = CacheConfig::with_sets(4, 2, 64).expect("valid geometry");
        SharedGhrp::new(GhrpConfig::default(), icache)
    }

    #[test]
    fn clones_share_state() {
        let a = shared();
        let b = a.clone();
        a.update_history(0x40);
        assert_eq!(a.speculative_history(), b.speculative_history());
        a.set_meta(
            0x40,
            BlockMeta {
                signature: 7,
                predicted_dead: false,
            },
        );
        assert_eq!(b.meta(0x40).unwrap().signature, 7);
    }

    #[test]
    fn signature_uses_block_granularity() {
        let s = shared();
        // Same block, different offsets → same signature.
        assert_eq!(s.icache_signature(0x1000), s.icache_signature(0x103f));
        assert_ne!(s.icache_signature(0x1000), s.icache_signature(0x1040));
    }

    #[test]
    fn signature_changes_with_history() {
        let s = shared();
        let before = s.icache_signature(0x1000);
        s.update_history(0x2040);
        let after = s.icache_signature(0x1000);
        assert_ne!(before, after);
    }

    #[test]
    fn train_and_predict_roundtrip() {
        let s = shared();
        let cfg = s.config();
        let sig = s.icache_signature(0x8000);
        assert!(!s.predict_dead(sig));
        for _ in 0..cfg.dead_threshold {
            s.train(sig, true);
        }
        assert!(s.predict_dead(sig));
        // The bypass threshold is strictly higher than the dead threshold.
        assert!(!s.predict_bypass(sig));
        for _ in cfg.dead_threshold..cfg.bypass_threshold {
            s.train(sig, true);
        }
        assert!(s.predict_bypass(sig));
    }

    #[test]
    fn meta_lifecycle() {
        let s = shared();
        let meta = BlockMeta {
            signature: 0xAB,
            predicted_dead: true,
        };
        assert_eq!(s.meta(0x40), None);
        // 0x40 is in set 1 of the 4-set, 2-way cache: frames 2 and 3.
        assert!(s.set_meta(0x40, meta));
        assert_eq!(s.meta_len(), 1);
        assert_eq!(s.frame_meta(2), Some((0x40, meta)));
        assert_eq!(s.evict_meta(2, false), Some(meta));
        assert_eq!(s.meta_len(), 0);
        assert_eq!(s.meta(0x40), None);
        assert_eq!(s.evict_meta(2, false), None);
    }

    #[test]
    fn frames_hold_their_own_sets_blocks() {
        let s = shared();
        s.fill_meta(2, 0x40, 7);
        s.fill_meta(3, 0x140, 9);
        assert_eq!(s.meta(0x40).map(|m| m.signature), Some(7));
        assert_eq!(s.meta(0x140).map(|m| m.signature), Some(9));
        assert_eq!(s.check_invariants(), Ok(()));
        // Set 1 is full: a third block of the set has nowhere to go.
        let meta = BlockMeta {
            signature: 1,
            predicted_dead: false,
        };
        assert!(!s.set_meta(0x240, meta));
        assert_eq!(s.meta(0x240), None);
        // A hit re-tags in place and reports the old metadata.
        let old = s.rehit_meta(3, 11, false);
        assert_eq!(old.map(|m| m.signature), Some(9));
        assert_eq!(s.meta(0x140).map(|m| m.signature), Some(11));
        // A block in a frame of another set breaks the mirror.
        s.fill_meta(0, 0x40, 7);
        assert!(s.check_invariants().is_err());
        s.reset();
        assert_eq!(s.meta_len(), 0);
    }

    #[test]
    fn recovery_matches_retired_stream() {
        let s = shared();
        s.update_history(0x40);
        s.retire(0x40);
        s.update_history(0x80); // speculative-only (wrong path)
        s.recover();
        let expected = {
            let t = shared();
            t.update_history(0x40);
            t.speculative_history()
        };
        assert_eq!(s.speculative_history(), expected);
    }
}
