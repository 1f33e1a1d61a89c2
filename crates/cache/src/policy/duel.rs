//! Generalized set-dueling meta-policy: N candidate policies race on
//! disjoint leader sets, follower sets adopt the current winner.
//!
//! [`Drrip`](super::Drrip) hardwires the classic two-way duel (SRRIP vs
//! BRRIP insertion) inside one policy. [`DuelSelect`] lifts the same
//! mechanism one level up: the candidates are *whole replacement
//! policies* — GHRP, SRRIP, SDBP, or any other [`ReplacementPolicy`] —
//! each maintaining full metadata over every set. Every set is either a
//! *leader* pinned to one candidate (that candidate makes all
//! replacement decisions there, and its demand misses train that
//! candidate's PSEL tally) or a *follower* steered to whichever
//! candidate currently tallies the fewest leader-set misses.
//!
//! Two selection modes share the structure:
//!
//! * **continuous** (`window == 0`): the winner is re-derived from the
//!   saturating miss tallies after every leader-set miss, with
//!   normalize-on-saturation halving preserving relative order — the
//!   N-way generalization of DRRIP's single up/down PSEL counter.
//! * **phase-adaptive** (`window > 0`): the winner is committed only at
//!   access-window boundaries (the same fixed-interval windowing notion
//!   the `fe-trace` signature/SimPoint pipeline uses, counted here in
//!   demand accesses since replacement policies do not observe
//!   instruction retirement), and each window measures afresh — so a
//!   phase change shows up within one window instead of having to
//!   out-vote the accumulated history.
//!
//! The PSEL tallies are **intentionally sticky across
//! [`reset`](ReplacementPolicy::reset)**: a deployed frontend that
//! replays trace after trace keeps its learned winner, which is the
//! whole production-adaptivity point. Engine lane arenas that need
//! bit-identical cold starts call [`DuelSelect::cold_restart`] instead
//! (see `fe-frontend`'s engine lane arena).
//!
//! With a single candidate the meta-policy is provably transparent:
//! every decision comes from candidate 0 regardless of the tallies, so
//! `duel(p)` is bit-identical to static `p` (pinned by the engine
//! equivalence proptests).

#![forbid(unsafe_code)]

use super::{AccessContext, PolicyInvariants, ReplacementPolicy};
use crate::CacheConfig;

/// Bits per candidate PSEL miss tally (the saturating counter width).
/// budget-key: `duel.psel_bits`
pub const DUEL_PSEL_BITS: u32 = 10;

/// Saturation ceiling of one PSEL tally.
pub const DUEL_PSEL_MAX: u32 = (1 << DUEL_PSEL_BITS) - 1;

/// Hardware design point: at most this many candidates duel at once
/// (bounds the PSEL register file and the leader-role decode width).
/// budget-key: `duel.max_candidates`
pub const MAX_DUEL_CANDIDATES: usize = 4;

/// Bits of the phase-window access counter.
/// budget-key: `duel.window_bits`
pub const DUEL_WINDOW_BITS: u32 = 16;

/// Default phase-adaptive re-decision window, in demand accesses.
pub const DUEL_DEFAULT_WINDOW: u32 = 8192;

/// Role marker for sets not pinned to any candidate.
const ROLE_FOLLOWER: u8 = u8::MAX;

/// Selection-mode configuration for [`DuelSelect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuelConfig {
    /// `0`: continuous set-dueling. `> 0`: phase-adaptive — commit the
    /// winner every `window` demand accesses, measuring each window
    /// afresh.
    pub window: u32,
}

impl DuelConfig {
    /// Continuous set-dueling (DRRIP-style, re-decided per miss).
    pub fn continuous() -> DuelConfig {
        DuelConfig { window: 0 }
    }

    /// Phase-adaptive selection committing every `window` accesses
    /// (`0` is coerced to [`DUEL_DEFAULT_WINDOW`]).
    pub fn phase_adaptive(window: u32) -> DuelConfig {
        DuelConfig {
            window: if window == 0 {
                DUEL_DEFAULT_WINDOW
            } else {
                window
            },
        }
    }
}

/// The dueling meta-policy. See the module docs for the mechanism.
#[derive(Debug, Clone)]
pub struct DuelSelect<P> {
    /// The racing candidate policies, each full-state over all sets.
    candidates: Vec<P>,
    /// Per-set role: candidate index for leaders, [`ROLE_FOLLOWER`]
    /// otherwise. Geometry-derived; survives every kind of reset.
    roles: Vec<u8>,
    /// Per-candidate saturating leader-set miss tallies (the PSEL
    /// register file). Intentionally sticky across `reset()`.
    tallies: Vec<u32>,
    /// The candidate follower sets currently obey.
    winner: usize,
    /// Phase window length in demand accesses (`0` = continuous).
    window: u32,
    /// Demand accesses since the last window boundary.
    since_boundary: u32,
}

/// Phase-adaptive alias: a [`DuelSelect`] built with
/// [`DuelConfig::phase_adaptive`]; the type is identical, only the
/// re-decision cadence differs.
pub type PhaseAdaptive<P> = DuelSelect<P>;

/// Index of the smallest tally (ties break toward the lower index).
fn argmin(tallies: &[u32]) -> usize {
    let mut best = 0;
    for (i, &t) in tallies.iter().enumerate() {
        if t < tallies[best] {
            best = i;
        }
    }
    best
}

impl<P: ReplacementPolicy> DuelSelect<P> {
    /// Build the meta-policy for `cfg`'s geometry over `candidates`.
    ///
    /// Leader sets are interleaved through the index space DRRIP-style:
    /// `min(32, sets / (4 * n))` (at least one) per candidate, strided so
    /// consecutive leader groups rotate through the candidates. With
    /// fewer sets than candidates the surplus candidates get no leader
    /// and can never be measured — [`PolicyInvariants`] reports that as
    /// a construction error in validating builds.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty (a selector with nothing to
    /// select) or holds more than [`MAX_DUEL_CANDIDATES`] policies (the
    /// audited hardware design point): both are configuration bugs,
    /// caught at construction rather than surfacing as a wrong victim
    /// mid-simulation.
    pub fn new(cfg: CacheConfig, duel: DuelConfig, candidates: Vec<P>) -> DuelSelect<P> {
        assert!(
            !candidates.is_empty(),
            "DuelSelect needs at least one candidate policy"
        );
        assert!(
            candidates.len() <= MAX_DUEL_CANDIDATES,
            "DuelSelect supports at most {MAX_DUEL_CANDIDATES} candidates, got {}",
            candidates.len()
        );
        let sets = cfg.sets() as usize;
        let n = candidates.len();
        let leaders_per = (sets / (4 * n)).clamp(1, 32);
        let stride = (sets / (leaders_per * n)).max(1);
        let mut roles = vec![ROLE_FOLLOWER; sets];
        for i in 0..leaders_per {
            let mut role: u8 = 0;
            for c in 0..n {
                let s = (i * n + c) * stride;
                if s < sets && roles[s] == ROLE_FOLLOWER {
                    roles[s] = role;
                }
                role = role.saturating_add(1);
            }
        }
        DuelSelect {
            tallies: vec![0; n],
            candidates,
            roles,
            winner: 0,
            window: duel.window,
            since_boundary: 0,
        }
    }

    /// The candidate that owns decisions for `set`.
    fn owner(&self, set: usize) -> usize {
        match self.roles[set] {
            ROLE_FOLLOWER => self.winner,
            r => usize::from(r),
        }
    }

    /// The committed winner (what follower sets currently run).
    pub fn current_winner(&self) -> usize {
        self.winner
    }

    /// Per-candidate PSEL miss tallies, in candidate order.
    pub fn psel_tallies(&self) -> &[u32] {
        &self.tallies
    }

    /// The racing candidates, in construction order.
    pub fn candidates(&self) -> &[P] {
        &self.candidates
    }

    /// Number of leader sets pinned to candidate `i`.
    pub fn leader_sets_of(&self, i: usize) -> usize {
        self.roles
            .iter()
            .filter(|&&r| r != ROLE_FOLLOWER && usize::from(r) == i)
            .count()
    }

    /// Restore to the freshly-constructed state *including* the sticky
    /// PSEL tallies and winner — the bit-identical cold start that
    /// [`ReplacementPolicy::reset`] deliberately does not provide for
    /// this type. Engine lane arenas call this between traces so reuse
    /// order can never show through in results.
    pub fn cold_restart(&mut self) {
        self.reset();
        self.tallies.fill(0);
        self.winner = 0;
    }

    /// Record a demand miss in a leader set and update the winner per
    /// the selection mode.
    fn train(&mut self, set: usize) {
        let role = self.roles[set];
        if role == ROLE_FOLLOWER {
            return;
        }
        let r = usize::from(role);
        self.tallies[r] = (self.tallies[r] + 1).min(DUEL_PSEL_MAX);
        if self.window == 0 {
            // Continuous mode: normalize on saturation (halving keeps
            // the relative order) and re-derive the winner immediately.
            if self.tallies[r] >= DUEL_PSEL_MAX {
                for t in &mut self.tallies {
                    *t /= 2;
                }
            }
            self.winner = argmin(&self.tallies);
        }
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for DuelSelect<P> {
    fn on_access(&mut self, ctx: &AccessContext) {
        for c in &mut self.candidates {
            c.on_access(ctx);
        }
        if self.window > 0 {
            self.since_boundary += 1;
            if self.since_boundary >= self.window {
                // Phase boundary: commit this window's measurement and
                // start the next one from zero.
                self.since_boundary = 0;
                self.winner = argmin(&self.tallies);
                self.tallies.fill(0);
            }
        }
    }

    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        for c in &mut self.candidates {
            c.on_hit(way, ctx);
        }
    }

    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        // Called on every demand miss, before the fill/bypass split —
        // the one place that sees all leader-set misses (prefetch fills
        // skip it and correctly do not train the duel).
        self.train(ctx.set);
        let owner = self.owner(ctx.set);
        // Every candidate sees the miss (keeping its internal protocol
        // state advancing); only the owner's verdict is obeyed.
        let mut verdict = false;
        for (i, c) in self.candidates.iter_mut().enumerate() {
            let v = c.should_bypass(ctx);
            if i == owner {
                verdict = v;
            }
        }
        verdict
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let owner = self.owner(ctx.set);
        self.candidates[owner].choose_victim(ctx)
    }

    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        for c in &mut self.candidates {
            c.on_evict(way, victim_block, ctx);
        }
    }

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        for c in &mut self.candidates {
            c.on_fill(way, ctx);
        }
    }

    // lint:allow(reset-complete): `tallies` and `winner` are the set-dueling PSEL state, deliberately sticky across traces so a long-running deployment keeps its learned winner; arenas needing a bit-identical cold start call `cold_restart` instead
    fn reset(&mut self) {
        for c in &mut self.candidates {
            c.reset();
        }
        self.since_boundary = 0;
    }

    fn name(&self) -> String {
        let names: Vec<String> = self
            .candidates
            .iter()
            .map(ReplacementPolicy::name)
            .collect();
        if self.window == 0 {
            format!("Duel({})", names.join(","))
        } else {
            format!("Phase({};window={})", names.join(","), self.window)
        }
    }
}

impl<P: ReplacementPolicy + PolicyInvariants> PolicyInvariants for DuelSelect<P> {
    fn check_invariants(&self) -> Result<(), String> {
        let n = self.candidates.len();
        if n == 0 {
            return Err("duel has no candidate policies".into());
        }
        // PSEL bounds.
        if let Some(i) = self.tallies.iter().position(|&t| t > DUEL_PSEL_MAX) {
            return Err(format!(
                "candidate {i}: PSEL tally {} exceeds the {DUEL_PSEL_BITS}-bit ceiling {DUEL_PSEL_MAX}",
                self.tallies[i]
            ));
        }
        if self.tallies.len() != n {
            return Err(format!(
                "{} PSEL tallies for {n} candidates",
                self.tallies.len()
            ));
        }
        // Leader-set disjointness: one role per set by representation;
        // every leader role must name a real candidate, and every
        // candidate must own at least one leader to be measurable.
        for (s, &r) in self.roles.iter().enumerate() {
            if r != ROLE_FOLLOWER && usize::from(r) >= n {
                return Err(format!("set {s}: leader role {r} names no candidate"));
            }
        }
        for c in 0..n {
            if self.leader_sets_of(c) == 0 {
                return Err(format!(
                    "candidate {c} has no leader set — it can never win"
                ));
            }
        }
        // Follower-decision consistency: the committed winner is a real
        // candidate, and in continuous mode it minimizes the tallies
        // (phase mode may lag by design until the next boundary).
        if self.winner >= n {
            return Err(format!("winner {} names no candidate", self.winner));
        }
        if self.window == 0 {
            let min = self.tallies.iter().copied().min().unwrap_or(0);
            if self.tallies[self.winner] != min {
                return Err(format!(
                    "follower steering inconsistent: winner {} tallies {} but the minimum is {min}",
                    self.winner, self.tallies[self.winner]
                ));
            }
        }
        if self.window > 0 && self.since_boundary >= self.window {
            return Err(format!(
                "window counter {} at or past the {}-access boundary",
                self.since_boundary, self.window
            ));
        }
        for (i, c) in self.candidates.iter().enumerate() {
            if let Err(e) = c.check_invariants() {
                return Err(format!("candidate {i}: {e}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, Srrip, ValidatingPolicy};
    use crate::Cache;

    fn cfg(sets: u32) -> CacheConfig {
        CacheConfig::with_sets(sets, 4, 64).unwrap()
    }

    fn duel2(sets: u32, window: u32) -> DuelSelect<Srrip> {
        let c = cfg(sets);
        DuelSelect::new(c, DuelConfig { window }, vec![Srrip::new(c), Srrip::new(c)])
    }

    #[test]
    fn leader_sets_are_disjoint_and_cover_every_candidate() {
        let c = cfg(128);
        let d = DuelSelect::new(
            c,
            DuelConfig::continuous(),
            vec![Srrip::new(c), Srrip::new(c), Srrip::new(c)],
        );
        for i in 0..3 {
            assert!(d.leader_sets_of(i) >= 1, "candidate {i} unmeasured");
        }
        assert_eq!(d.leader_sets_of(0), d.leader_sets_of(1));
        assert_eq!(d.leader_sets_of(1), d.leader_sets_of(2));
        // Disjoint by representation: roles sum == total leaders.
        let leaders: usize = (0..3).map(|i| d.leader_sets_of(i)).sum();
        assert_eq!(
            leaders,
            d.roles.iter().filter(|&&r| r != ROLE_FOLLOWER).count()
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn single_candidate_duel_matches_static_policy() {
        let c = cfg(16);
        let mut duel = Cache::new(
            c,
            DuelSelect::new(c, DuelConfig::continuous(), vec![Lru::new(c)]),
        );
        let mut plain = Cache::new(c, Lru::new(c));
        // Deterministic mixed pattern with reuse and thrash.
        for i in 0..4000u64 {
            let addr = (i * 2_654_435_761) % (1 << 14);
            assert_eq!(duel.access(addr, addr), plain.access(addr, addr), "at {i}");
        }
        assert_eq!(duel.stats().misses, plain.stats().misses);
    }

    #[test]
    fn leader_misses_move_the_winner_in_continuous_mode() {
        let mut d = duel2(16, 0);
        let leader1 = d.roles.iter().position(|&r| r == 1).unwrap();
        assert_eq!(d.current_winner(), 0);
        // Misses in candidate 0's leader set push the winner to 1? No —
        // misses in candidate *0*'s leaders tally against 0.
        let leader0 = d.roles.iter().position(|&r| r == 0).unwrap();
        let ctx = AccessContext {
            addr: 0,
            block_addr: 0,
            set: leader0,
        };
        d.should_bypass(&ctx);
        assert_eq!(d.current_winner(), 1, "candidate 0 missed; 1 leads");
        // Two misses against candidate 1 swing it back.
        let ctx1 = AccessContext {
            addr: 0,
            block_addr: 0,
            set: leader1,
        };
        d.should_bypass(&ctx1);
        d.should_bypass(&ctx1);
        assert_eq!(d.current_winner(), 0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn phase_mode_commits_only_at_window_boundaries() {
        let mut d = duel2(16, 8);
        let leader0 = d.roles.iter().position(|&r| r == 0).unwrap();
        let ctx = AccessContext {
            addr: 0,
            block_addr: 0,
            set: leader0,
        };
        d.should_bypass(&ctx);
        assert_eq!(d.current_winner(), 0, "no commit before the boundary");
        for _ in 0..8 {
            d.on_access(&ctx);
        }
        assert_eq!(d.current_winner(), 1, "boundary commits the measurement");
        assert_eq!(d.psel_tallies(), &[0, 0], "window measures afresh");
        d.check_invariants().unwrap();
    }

    #[test]
    fn tallies_saturate_and_normalize() {
        let mut d = duel2(16, 0);
        let leader0 = d.roles.iter().position(|&r| r == 0).unwrap();
        let ctx = AccessContext {
            addr: 0,
            block_addr: 0,
            set: leader0,
        };
        for _ in 0..5000 {
            d.should_bypass(&ctx);
            assert!(d.psel_tallies().iter().all(|&t| t <= DUEL_PSEL_MAX));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn reset_is_sticky_but_cold_restart_is_not() {
        let mut d = duel2(16, 0);
        let leader0 = d.roles.iter().position(|&r| r == 0).unwrap();
        let ctx = AccessContext {
            addr: 0,
            block_addr: 0,
            set: leader0,
        };
        d.should_bypass(&ctx);
        assert_eq!(d.current_winner(), 1);
        d.reset();
        assert_eq!(d.current_winner(), 1, "PSEL survives reset");
        assert!(d.psel_tallies().iter().any(|&t| t > 0));
        d.cold_restart();
        assert_eq!(d.current_winner(), 0);
        assert!(d.psel_tallies().iter().all(|&t| t == 0));
        d.check_invariants().unwrap();
    }

    #[test]
    fn validating_wrapper_accepts_a_healthy_duel() {
        let c = cfg(64);
        let inner = DuelSelect::new(
            c,
            DuelConfig::phase_adaptive(64),
            vec![Srrip::new(c), Srrip::new(c)],
        );
        let mut cache = Cache::new(c, ValidatingPolicy::new(inner));
        for i in 0..20_000u64 {
            let addr = (i * 7919) % (1 << 15);
            cache.access(addr, addr);
        }
        assert!(cache.stats().accesses == 20_000);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidate_list_is_rejected() {
        let c = cfg(16);
        let _ = DuelSelect::<Lru>::new(c, DuelConfig::continuous(), Vec::new());
    }
}
