//! Runtime policy selection: building matched I-cache/BTB policy pairs.

#![forbid(unsafe_code)]

use fe_btb::{btb_config, Btb, GhrpBtbPolicy};
use fe_cache::policy::{
    BeladyOpt, Drrip, DuelConfig, DuelSelect, Fifo, Lru, RandomPolicy, Srrip, DUEL_DEFAULT_WINDOW,
    MAX_DUEL_CANDIDATES,
};
use fe_cache::{AccessContext, Cache, CacheConfig, ReplacementPolicy};
use fe_sdbp::{CounterDbpPolicy, SdbpConfig, SdbpPolicy, ShipConfig, ShipPolicy};
use ghrp_core::{GhrpConfig, GhrpPolicy, SharedGhrp};
use serde::{DeError, Deserialize, Serialize, Value};

/// An online, non-composite policy usable as a set-dueling candidate.
///
/// Mirrors the unit [`PolicyKind`] variants minus the offline oracle and
/// the composites themselves (hybrids don't nest — the hardware story is
/// one PSEL register file, not a tree of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants mirror PolicyKind's documented ones
pub enum BasePolicy {
    Lru,
    Fifo,
    Random,
    Srrip,
    Drrip,
    Ship,
    CounterDbp,
    Sdbp,
    Ghrp,
}

impl BasePolicy {
    /// Every base policy, in declaration order.
    pub(crate) const ALL: [BasePolicy; 9] = [
        BasePolicy::Lru,
        BasePolicy::Fifo,
        BasePolicy::Random,
        BasePolicy::Srrip,
        BasePolicy::Drrip,
        BasePolicy::Ship,
        BasePolicy::CounterDbp,
        BasePolicy::Sdbp,
        BasePolicy::Ghrp,
    ];

    /// `(serialized, display, config spellings)`: the one place a base
    /// policy is named. The serialized name is the derive-era variant
    /// name that existing manifests and keys store; the first config
    /// spelling is the display name in lower case.
    const fn names(self) -> (&'static str, &'static str, &'static [&'static str]) {
        match self {
            BasePolicy::Lru => ("Lru", "LRU", &["lru"]),
            BasePolicy::Fifo => ("Fifo", "FIFO", &["fifo"]),
            BasePolicy::Random => ("Random", "Random", &["random", "rand"]),
            BasePolicy::Srrip => ("Srrip", "SRRIP", &["srrip"]),
            BasePolicy::Drrip => ("Drrip", "DRRIP", &["drrip"]),
            BasePolicy::Ship => ("Ship", "SHiP", &["ship"]),
            BasePolicy::CounterDbp => ("CounterDbp", "CounterDBP", &["counterdbp", "aip"]),
            BasePolicy::Sdbp => ("Sdbp", "SDBP", &["sdbp"]),
            BasePolicy::Ghrp => ("Ghrp", "GHRP", &["ghrp"]),
        }
    }

    /// Parse a candidate token (the same spellings the static policies
    /// use on experiment command lines).
    pub fn parse(s: &str) -> Option<BasePolicy> {
        let lower = s.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|b| b.names().2.contains(&lower.as_str()))
    }

    /// The static [`PolicyKind`] this candidate corresponds to.
    pub fn as_kind(self) -> PolicyKind {
        match self {
            BasePolicy::Lru => PolicyKind::Lru,
            BasePolicy::Fifo => PolicyKind::Fifo,
            BasePolicy::Random => PolicyKind::Random,
            BasePolicy::Srrip => PolicyKind::Srrip,
            BasePolicy::Drrip => PolicyKind::Drrip,
            BasePolicy::Ship => PolicyKind::Ship,
            BasePolicy::CounterDbp => PolicyKind::CounterDbp,
            BasePolicy::Sdbp => PolicyKind::Sdbp,
            BasePolicy::Ghrp => PolicyKind::Ghrp,
        }
    }

    /// Build this policy's matched I-cache/BTB pair, plus the shared GHRP
    /// handle for GHRP (the simulator uses it for commit-time history
    /// retirement and misprediction recovery).
    ///
    /// The one construction site of every static policy (seeds, GHRP
    /// wiring): static pairs and hybrid candidates both come from here,
    /// which is what makes a one-candidate hybrid bit-identical to the
    /// static policy (pinned by the engine equivalence proptests).
    fn build(
        self,
        icache_cfg: CacheConfig,
        btb_cfg: CacheConfig,
        ghrp_cfg: GhrpConfig,
        sdbp_cfg: SdbpConfig,
        seed: u64,
    ) -> (AnyPolicy, AnyPolicy, Option<SharedGhrp>) {
        let (ipol, bpol) = match self {
            BasePolicy::Lru => (
                AnyPolicy::Lru(Lru::new(icache_cfg)),
                AnyPolicy::Lru(Lru::new(btb_cfg)),
            ),
            BasePolicy::Fifo => (
                AnyPolicy::Fifo(Fifo::new(icache_cfg)),
                AnyPolicy::Fifo(Fifo::new(btb_cfg)),
            ),
            BasePolicy::Random => (
                AnyPolicy::Random(RandomPolicy::new(icache_cfg, seed)),
                AnyPolicy::Random(RandomPolicy::new(btb_cfg, seed ^ 0xB7B_5EED)),
            ),
            BasePolicy::Srrip => (
                AnyPolicy::Srrip(Srrip::new(icache_cfg)),
                AnyPolicy::Srrip(Srrip::new(btb_cfg)),
            ),
            BasePolicy::Drrip => (
                AnyPolicy::Drrip(Drrip::new(icache_cfg)),
                AnyPolicy::Drrip(Drrip::new(btb_cfg)),
            ),
            BasePolicy::Ship => (
                AnyPolicy::Ship(ShipPolicy::new(icache_cfg, ShipConfig::default())),
                AnyPolicy::Ship(ShipPolicy::new(btb_cfg, ShipConfig::default())),
            ),
            BasePolicy::CounterDbp => (
                AnyPolicy::CounterDbp(CounterDbpPolicy::new(icache_cfg, 16 * 1024)),
                AnyPolicy::CounterDbp(CounterDbpPolicy::new(btb_cfg, 16 * 1024)),
            ),
            BasePolicy::Sdbp => (
                AnyPolicy::Sdbp(SdbpPolicy::new(icache_cfg, sdbp_cfg)),
                AnyPolicy::Sdbp(SdbpPolicy::new(btb_cfg, sdbp_cfg)),
            ),
            BasePolicy::Ghrp => {
                let shared = SharedGhrp::new(ghrp_cfg, icache_cfg);
                return (
                    AnyPolicy::Ghrp(GhrpPolicy::new(icache_cfg, shared.clone())),
                    AnyPolicy::GhrpBtb(GhrpBtbPolicy::new(
                        btb_cfg,
                        shared.clone(),
                        icache_cfg.block_bytes(),
                    )),
                    Some(shared),
                );
            }
        };
        (ipol, bpol, None)
    }
}

impl std::fmt::Display for BasePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.names().1)
    }
}

/// The candidate list + selection window of a composite policy.
///
/// Stored inline (a fixed array and a length) so [`PolicyKind`] stays
/// `Copy` and hashable for arena keys and request canonicalization.
/// Construction canonicalizes the padding, so derived equality and
/// hashing see one representation per distinct hybrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HybridSpec {
    /// Candidates, padded past `len` with `BasePolicy::Lru`.
    candidates: [BasePolicy; MAX_DUEL_CANDIDATES],
    len: u8,
    /// Re-decision window in accesses (`0` = continuous dueling).
    window: u32,
}

impl HybridSpec {
    /// Build a spec from 1..=[`MAX_DUEL_CANDIDATES`] candidates; `None`
    /// outside that range.
    pub fn new(candidates: &[BasePolicy], window: u32) -> Option<HybridSpec> {
        if candidates.is_empty() || candidates.len() > MAX_DUEL_CANDIDATES {
            return None;
        }
        let mut padded = [BasePolicy::Lru; MAX_DUEL_CANDIDATES];
        padded[..candidates.len()].copy_from_slice(candidates);
        Some(HybridSpec {
            candidates: padded,
            len: u8::try_from(candidates.len()).ok()?,
            window,
        })
    }

    /// The candidate policies, in duel order.
    pub fn candidates(&self) -> &[BasePolicy] {
        &self.candidates[..usize::from(self.len)]
    }

    /// The phase window in accesses (`0` for continuous dueling).
    pub fn window(&self) -> u32 {
        self.window
    }
}

/// The replacement policies under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's baseline).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random victims.
    Random,
    /// Static re-reference interval prediction (SRRIP-HP).
    Srrip,
    /// Dynamic RRIP (set-dueling SRRIP vs BRRIP) — extension baseline.
    Drrip,
    /// Signature-based hit predictor (SHiP-PC) — extension baseline.
    Ship,
    /// Counter-based (AIP-style) dead block prediction — extension
    /// baseline (§II.B).
    CounterDbp,
    /// Modified sampling dead block prediction.
    Sdbp,
    /// Global history reuse prediction — the paper's contribution.
    Ghrp,
    /// Belady's OPT (offline oracle; bound studies only, not in the paper).
    Opt,
    /// Set-dueling hybrid: the candidates race continuously on leader
    /// sets, followers adopt the PSEL winner (`duel(ghrp,srrip,sdbp)`).
    Duel(HybridSpec),
    /// Phase-adaptive hybrid: like `Duel`, but the winner is committed
    /// only at fixed access-window boundaries
    /// (`phase(ghrp,srrip;window=8192)`).
    Phase(HybridSpec),
}

impl PolicyKind {
    /// The five policies the paper's figures compare.
    pub const PAPER_SET: &'static [PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    /// Every online policy (excludes the offline oracle).
    pub const ALL_ONLINE: &'static [PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::CounterDbp,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    /// The static policy this kind names; `None` for OPT and the hybrids.
    pub(crate) fn base(self) -> Option<BasePolicy> {
        BasePolicy::ALL.into_iter().find(|b| b.as_kind() == self)
    }

    /// Parse from the names used on experiment command lines.
    ///
    /// Besides the static spellings, two composite forms are accepted
    /// (case-insensitive, matching what [`Display`](std::fmt::Display)
    /// emits):
    ///
    /// * `duel(p1,...,pN)` — continuous set-dueling over 1..=4
    ///   candidates, e.g. `duel(ghrp,srrip,sdbp)`;
    /// * `phase(p1,...,pN;window=W)` — phase-adaptive selection
    ///   re-deciding every `W` accesses (default 8192 when the
    ///   `;window=` part is omitted), e.g. `phase(ghrp,srrip)`.
    ///
    /// Candidates use the static spellings; `opt` and nested composites
    /// are rejected.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let lower = s.to_ascii_lowercase();
        if let Some(body) = strip_call(&lower, "duel") {
            let spec = parse_candidate_list(body, 0)?;
            return Some(PolicyKind::Duel(spec));
        }
        if let Some(body) = strip_call(&lower, "phase") {
            let (list, window) = match body.split_once(';') {
                Some((list, tail)) => {
                    let w: u32 = tail.strip_prefix("window=")?.parse().ok()?;
                    if w == 0 {
                        return None;
                    }
                    (list, w)
                }
                None => (body, DUEL_DEFAULT_WINDOW),
            };
            let spec = parse_candidate_list(list, window)?;
            return Some(PolicyKind::Phase(spec));
        }
        if OPT_SPELLINGS.contains(&lower.as_str()) {
            return Some(PolicyKind::Opt);
        }
        BasePolicy::parse(&lower).map(BasePolicy::as_kind)
    }

    /// A continuous set-dueling hybrid over `candidates`.
    ///
    /// # Panics
    ///
    /// Panics unless `1..=MAX_DUEL_CANDIDATES` candidates are given.
    pub fn duel(candidates: &[BasePolicy]) -> PolicyKind {
        let spec =
            HybridSpec::new(candidates, 0).expect("duel takes 1..=MAX_DUEL_CANDIDATES candidates");
        PolicyKind::Duel(spec)
    }

    /// A phase-adaptive hybrid over `candidates` re-deciding every
    /// `window` accesses (`0` selects the default window).
    ///
    /// # Panics
    ///
    /// Panics unless `1..=MAX_DUEL_CANDIDATES` candidates are given.
    pub fn phase(candidates: &[BasePolicy], window: u32) -> PolicyKind {
        let w = if window == 0 {
            DUEL_DEFAULT_WINDOW
        } else {
            window
        };
        let spec =
            HybridSpec::new(candidates, w).expect("phase takes 1..=MAX_DUEL_CANDIDATES candidates");
        PolicyKind::Phase(spec)
    }

    /// Whether this policy needs the full block sequence ahead of time.
    pub fn is_offline(self) -> bool {
        self == PolicyKind::Opt
    }

    /// One line per valid config-string spelling, for error messages
    /// (see `fe-sim --policy` and the experiment drivers).
    pub fn spellings_help() -> String {
        let mut statics: Vec<String> = BasePolicy::ALL
            .iter()
            .map(|b| b.names().2.join("|"))
            .collect();
        statics.push(OPT_SPELLINGS.join("|"));
        let mut out = String::from("valid policies:\n");
        for line in [
            &format!("  {}", statics.join(" ")),
            "  duel(p1,...,p4)              set-dueling hybrid, e.g. duel(ghrp,srrip,sdbp)",
            "  phase(p1,...,p4;window=N)    phase-adaptive hybrid, e.g. phase(ghrp,srrip;window=8192)",
            "                               (candidates: any spelling above except opt/belady)",
        ] {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Config-string spellings of [`PolicyKind::Opt`].
const OPT_SPELLINGS: [&str; 2] = ["opt", "belady"];

/// `name(body)` → `body`, or `None` if `s` is not that call form.
fn strip_call<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    s.strip_prefix(name)?.strip_prefix('(')?.strip_suffix(')')
}

/// Parse a comma-separated candidate list into a canonical spec.
fn parse_candidate_list(list: &str, window: u32) -> Option<HybridSpec> {
    let mut candidates = Vec::new();
    for token in list.split(',') {
        candidates.push(BasePolicy::parse(token.trim())?);
    }
    HybridSpec::new(&candidates, window)
}

impl Serialize for PolicyKind {
    fn to_value(&self) -> Value {
        // Unit variants keep the derive-era spelling (`"Lru"`, `"Ghrp"`,
        // ...) so existing manifests and keys stay byte-stable;
        // composites serialize as their canonical config string, which
        // `parse` round-trips.
        let s = match (self, self.base()) {
            (_, Some(base)) => base.names().0.to_owned(),
            (PolicyKind::Opt, None) => "Opt".to_owned(),
            _ => self.to_string().to_ascii_lowercase(),
        };
        Value::Str(s)
    }
}

impl Deserialize for PolicyKind {
    fn from_value(v: &Value) -> Result<PolicyKind, DeError> {
        let Value::Str(s) = v else {
            return Err(DeError::expected("policy string", v));
        };
        // Derive-era variant names first (exact), then the config-string
        // grammar (case-insensitive, covers composites).
        let unit = match s.as_str() {
            "Opt" => Some(PolicyKind::Opt),
            s => BasePolicy::ALL
                .into_iter()
                .find(|b| b.names().0 == s)
                .map(BasePolicy::as_kind),
        };
        unit.or_else(|| PolicyKind::parse(s))
            .ok_or_else(|| DeError::new(format!("unknown policy string `{s}`")))
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self, self.base()) {
            (_, Some(base)) => base.fmt(f),
            (PolicyKind::Duel(spec), None) => write!(f, "Duel({})", join_candidates(spec)),
            (PolicyKind::Phase(spec), None) => write!(
                f,
                "Phase({};window={})",
                join_candidates(spec),
                spec.window()
            ),
            _ => f.write_str("OPT"),
        }
    }
}

/// Comma-joined candidate names of a hybrid spec.
fn join_candidates(spec: &HybridSpec) -> String {
    let names: Vec<String> = spec.candidates().iter().map(ToString::to_string).collect();
    names.join(",")
}

/// Closed sum of every concrete replacement policy the experiments use.
///
/// The simulator drives the policy callbacks on every cache access, so the
/// per-lane structures dispatch through this enum (a `match` on a fixed
/// discriminant that the optimizer can inline through) instead of
/// `Box<dyn ReplacementPolicy>`, whose indirect calls defeat cross-crate
/// inlining on the hottest loop in the workspace.
///
/// The hybrids carry their candidates as `AnyPolicy`s; the `Vec` inside
/// [`DuelSelect`] breaks the type recursion.
#[allow(missing_docs, clippy::large_enum_variant)] // variants mirror PolicyKind; lanes are few
pub enum AnyPolicy {
    Lru(Lru),
    Fifo(Fifo),
    Random(RandomPolicy),
    Srrip(Srrip),
    Drrip(Drrip),
    Ship(ShipPolicy),
    CounterDbp(CounterDbpPolicy),
    Sdbp(SdbpPolicy),
    Ghrp(GhrpPolicy),
    GhrpBtb(GhrpBtbPolicy),
    Opt(BeladyOpt),
    /// Continuous set-dueling (`PolicyKind::Duel`).
    Duel(DuelSelect<AnyPolicy>),
    /// Phase-adaptive set-dueling (`PolicyKind::Phase`): the same runtime
    /// shape with a windowed re-decision cadence.
    Phase(DuelSelect<AnyPolicy>),
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Fifo($p) => $body,
            AnyPolicy::Random($p) => $body,
            AnyPolicy::Srrip($p) => $body,
            AnyPolicy::Drrip($p) => $body,
            AnyPolicy::Ship($p) => $body,
            AnyPolicy::CounterDbp($p) => $body,
            AnyPolicy::Sdbp($p) => $body,
            AnyPolicy::Ghrp($p) => $body,
            AnyPolicy::GhrpBtb($p) => $body,
            AnyPolicy::Opt($p) => $body,
            AnyPolicy::Duel($p) | AnyPolicy::Phase($p) => $body,
        }
    };
}

impl AnyPolicy {
    /// Clear the *intentionally sticky* cross-trace state of the
    /// dueling hybrids (PSEL tallies and the committed winner) on top of
    /// the ordinary [`ReplacementPolicy::reset`] contract; a no-op for
    /// every static policy, whose `reset` is already bit-identical to a
    /// rebuild. Lane arenas call this so arena reuse order can never
    /// show through in results.
    pub fn cold_restart(&mut self) {
        if let AnyPolicy::Duel(p) | AnyPolicy::Phase(p) = self {
            p.cold_restart();
        }
    }
}

impl ReplacementPolicy for AnyPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        dispatch!(self, p => p.on_access(ctx));
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        dispatch!(self, p => p.on_hit(way, ctx));
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        dispatch!(self, p => p.should_bypass(ctx))
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        dispatch!(self, p => p.choose_victim(ctx))
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        dispatch!(self, p => p.on_evict(way, victim_block, ctx));
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        dispatch!(self, p => p.on_fill(way, ctx));
    }
    fn reset(&mut self) {
        dispatch!(self, p => p.reset());
    }
    fn name(&self) -> String {
        dispatch!(self, p => p.name())
    }
}

/// A matched I-cache + BTB pair built for one policy, plus the shared GHRP
/// handle when the policy is GHRP (the simulator uses it for commit-time
/// history retirement and misprediction recovery).
pub struct FrontendPair {
    /// The instruction cache.
    pub icache: Cache<AnyPolicy>,
    /// The branch target buffer.
    pub btb: Btb<AnyPolicy>,
    /// Present only for GHRP.
    pub ghrp: Option<SharedGhrp>,
}

impl std::fmt::Debug for FrontendPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendPair")
            .field("icache", &self.icache.config())
            .field("btb", &self.btb.entries().config())
            .field("ghrp", &self.ghrp.is_some())
            .finish()
    }
}

/// Why [`try_build_pair`] could not build a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// `entries / ways` is not a power-of-two set count of power-of-two
    /// ways.
    BtbGeometry {
        /// Requested BTB entries.
        entries: u32,
        /// Requested BTB associativity.
        ways: u32,
    },
    /// An OPT pair was asked for without its offline access sequences.
    MissingOfflineSequences,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BtbGeometry { entries, ways } => write!(
                f,
                "invalid BTB geometry: {entries} entries in {ways} ways is not a \
                 power-of-two set count of power-of-two ways"
            ),
            BuildError::MissingOfflineSequences => {
                f.write_str("OPT requires the I-cache block and BTB access sequences")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The BTB geometry of `entries` in `ways`, as [`try_build_pair`] checks
/// it.
pub(crate) fn btb_geometry(entries: u32, ways: u32) -> Result<CacheConfig, BuildError> {
    btb_config(entries, ways).map_err(|_| BuildError::BtbGeometry { entries, ways })
}

/// Build the I-cache/BTB pair for `kind`.
///
/// `icache_opt_blocks` / `btb_opt_pcs` supply the offline access sequences
/// and are required only for [`PolicyKind::Opt`].
///
/// # Panics
///
/// Panics where [`try_build_pair`] returns an error: if `kind` is `Opt`
/// and the offline sequences are missing, or if the BTB geometry is
/// invalid.
#[allow(clippy::too_many_arguments)] // a constructor-style fan-in; callers use named locals
pub fn build_pair(
    kind: PolicyKind,
    icache_cfg: CacheConfig,
    btb_entries: u32,
    btb_ways: u32,
    ghrp_cfg: GhrpConfig,
    sdbp_cfg: SdbpConfig,
    seed: u64,
    icache_opt_blocks: Option<&[u64]>,
    btb_opt_pcs: Option<&[u64]>,
) -> FrontendPair {
    try_build_pair(
        kind,
        icache_cfg,
        btb_entries,
        btb_ways,
        ghrp_cfg,
        sdbp_cfg,
        seed,
        icache_opt_blocks,
        btb_opt_pcs,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Build the I-cache/BTB pair for `kind`: the entry point [`build_pair`]
/// and the engine's lanes both go through. Static policies and hybrid
/// candidates are built by one constructor per [`BasePolicy`].
///
/// `icache_opt_blocks` / `btb_opt_pcs` supply the offline access sequences
/// and are required only for [`PolicyKind::Opt`].
///
/// # Errors
///
/// Returns a [`BuildError`] if the BTB geometry is invalid, or if `kind`
/// is `Opt` and the offline sequences are missing.
#[allow(clippy::too_many_arguments)] // a constructor-style fan-in; callers use named locals
pub fn try_build_pair(
    kind: PolicyKind,
    icache_cfg: CacheConfig,
    btb_entries: u32,
    btb_ways: u32,
    ghrp_cfg: GhrpConfig,
    sdbp_cfg: SdbpConfig,
    seed: u64,
    icache_opt_blocks: Option<&[u64]>,
    btb_opt_pcs: Option<&[u64]>,
) -> Result<FrontendPair, BuildError> {
    let btb_cfg = btb_geometry(btb_entries, btb_ways)?;
    let hybrid =
        |duel: DuelConfig, spec: &HybridSpec, wrap: fn(DuelSelect<AnyPolicy>) -> AnyPolicy| {
            let (mut icache, mut btb, mut ghrp) = (Vec::new(), Vec::new(), None);
            for c in spec.candidates() {
                let (ipol, bpol, shared) = c.build(icache_cfg, btb_cfg, ghrp_cfg, sdbp_cfg, seed);
                icache.push(ipol);
                btb.push(bpol);
                // The first GHRP candidate's predictor is the one the
                // simulator retires history into.
                ghrp = ghrp.or(shared);
            }
            (
                wrap(DuelSelect::new(icache_cfg, duel, icache)),
                wrap(DuelSelect::new(btb_cfg, duel, btb)),
                ghrp,
            )
        };
    let (ipol, bpol, ghrp) = match (kind, kind.base()) {
        (_, Some(base)) => base.build(icache_cfg, btb_cfg, ghrp_cfg, sdbp_cfg, seed),
        (PolicyKind::Duel(spec), None) => hybrid(DuelConfig::continuous(), &spec, AnyPolicy::Duel),
        (PolicyKind::Phase(spec), None) => hybrid(
            DuelConfig::phase_adaptive(spec.window()),
            &spec,
            AnyPolicy::Phase,
        ),
        // OPT: the one kind that is neither static nor a hybrid.
        _ => {
            let (Some(blocks), Some(pcs)) = (icache_opt_blocks, btb_opt_pcs) else {
                return Err(BuildError::MissingOfflineSequences);
            };
            (
                AnyPolicy::Opt(BeladyOpt::from_trace(icache_cfg, blocks)),
                AnyPolicy::Opt(BeladyOpt::from_trace(btb_cfg, pcs)),
                None,
            )
        }
    };
    Ok(FrontendPair {
        icache: Cache::new(icache_cfg, ipol),
        btb: Btb::new(btb_cfg, bpol),
        ghrp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::with_capacity(16 * 1024, 8, 64).unwrap()
    }

    /// Every kind the grammar can name: each base policy, OPT, and a
    /// `duel` and a `phase` over each base.
    fn every_kind() -> Vec<PolicyKind> {
        let mut kinds = vec![PolicyKind::Opt];
        for b in BasePolicy::ALL {
            kinds.push(b.as_kind());
            kinds.push(PolicyKind::duel(&[b]));
            kinds.push(PolicyKind::phase(&[b], 4096));
        }
        kinds
    }

    /// The index of `p`'s variant. The match is exhaustive, so a new
    /// `AnyPolicy` variant does not compile until it is listed here, and
    /// the test below then fails until some kind builds it.
    fn variant_index(p: &AnyPolicy) -> usize {
        match p {
            AnyPolicy::Lru(_) => 0,
            AnyPolicy::Fifo(_) => 1,
            AnyPolicy::Random(_) => 2,
            AnyPolicy::Srrip(_) => 3,
            AnyPolicy::Drrip(_) => 4,
            AnyPolicy::Ship(_) => 5,
            AnyPolicy::CounterDbp(_) => 6,
            AnyPolicy::Sdbp(_) => 7,
            AnyPolicy::Ghrp(_) => 8,
            AnyPolicy::GhrpBtb(_) => 9,
            AnyPolicy::Opt(_) => 10,
            AnyPolicy::Duel(_) => 11,
            AnyPolicy::Phase(_) => 12,
        }
    }

    #[test]
    fn every_kind_builds_every_variant_and_round_trips() {
        use serde::{Deserialize as _, Serialize as _};
        let blocks = [0x1000_u64, 0x1040, 0x1000];
        let pcs = [0x1004_u64, 0x2008, 0x1004];
        let mut built = [false; 13];
        for k in every_kind() {
            let pair = try_build_pair(
                k,
                cfg(),
                1024,
                4,
                GhrpConfig::default(),
                SdbpConfig::default(),
                7,
                Some(&blocks),
                Some(&pcs),
            )
            .unwrap_or_else(|e| panic!("{k}: {e}"));
            built[variant_index(pair.icache.policy())] = true;
            built[variant_index(pair.btb.entries().policy())] = true;
            assert_eq!(PolicyKind::parse(&k.to_string()), Some(k), "{k}");
            assert_eq!(PolicyKind::from_value(&k.to_value()).unwrap(), k, "{k}");
        }
        let bases: Vec<PolicyKind> = BasePolicy::ALL.map(BasePolicy::as_kind).to_vec();
        assert_eq!(bases, PolicyKind::ALL_ONLINE);
        let missing: Vec<usize> = (0..built.len()).filter(|&i| !built[i]).collect();
        assert!(
            missing.is_empty(),
            "AnyPolicy variants never built: {missing:?}"
        );
    }

    #[test]
    fn parse_roundtrip() {
        for k in PolicyKind::ALL_ONLINE {
            assert_eq!(PolicyKind::parse(&k.to_string()), Some(*k));
        }
        assert_eq!(PolicyKind::parse("belady"), Some(PolicyKind::Opt));
        assert_eq!(PolicyKind::parse("nope"), None);
        // Composites round-trip through their Display form too.
        for k in [
            PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]),
            PolicyKind::phase(&[BasePolicy::Ghrp, BasePolicy::Srrip], 8192),
            PolicyKind::phase(&[BasePolicy::Lru], 64),
        ] {
            assert_eq!(PolicyKind::parse(&k.to_string()), Some(k), "{k}");
        }
    }

    #[test]
    fn composite_grammar_parses() {
        let duel = PolicyKind::parse("duel(ghrp,srrip,sdbp)").unwrap();
        let PolicyKind::Duel(spec) = duel else {
            panic!("expected Duel, got {duel:?}");
        };
        assert_eq!(
            spec.candidates(),
            [BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]
        );
        assert_eq!(spec.window(), 0);

        // Window defaults when omitted; explicit windows stick; spaces ok.
        let phase = PolicyKind::parse("phase(ghrp, srrip)").unwrap();
        let PolicyKind::Phase(spec) = phase else {
            panic!("expected Phase, got {phase:?}");
        };
        assert_eq!(spec.window(), DUEL_DEFAULT_WINDOW);
        let phase = PolicyKind::parse("PHASE(GHRP,SRRIP;window=4096)").unwrap();
        let PolicyKind::Phase(spec) = phase else {
            panic!("expected Phase, got {phase:?}");
        };
        assert_eq!(spec.window(), 4096);
    }

    #[test]
    fn composite_grammar_rejects_malformed_specs() {
        for bad in [
            "duel()",                         // empty candidate list
            "duel(ghrp,srrip,sdbp,lru,fifo)", // more than MAX_DUEL_CANDIDATES
            "duel(opt)",                      // offline oracle can't duel
            "duel(duel(lru))",                // no nesting
            "duel(ghrp,srrip",                // unbalanced
            "phase(ghrp;window=0)",           // zero window
            "phase(ghrp;window=x)",           // non-numeric window
            "phase(ghrp;w=8)",                // unknown key
            "phase()",
        ] {
            assert_eq!(PolicyKind::parse(bad), None, "{bad} should not parse");
        }
    }

    #[test]
    fn spellings_help_names_every_grammar_form() {
        let help = PolicyKind::spellings_help();
        for needle in [
            "  lru fifo random|rand srrip drrip ship counterdbp|aip sdbp ghrp opt|belady\n",
            "duel(",
            "phase(",
            "window=N",
        ] {
            assert!(help.contains(needle), "help is missing `{needle}`:\n{help}");
        }
    }

    #[test]
    fn serde_roundtrips_and_keeps_legacy_unit_spellings() {
        use serde::{Deserialize as _, Serialize as _};
        // Unit variants keep the derive-era string form.
        assert_eq!(PolicyKind::Ghrp.to_value(), Value::Str("Ghrp".into()));
        assert_eq!(
            PolicyKind::from_value(&Value::Str("CounterDbp".into())).unwrap(),
            PolicyKind::CounterDbp
        );
        // Everything round-trips, composites included.
        let mut kinds = PolicyKind::ALL_ONLINE.to_vec();
        kinds.push(PolicyKind::Opt);
        kinds.push(PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip]));
        kinds.push(PolicyKind::phase(
            &[BasePolicy::Ghrp, BasePolicy::Sdbp],
            2048,
        ));
        for k in kinds {
            assert_eq!(PolicyKind::from_value(&k.to_value()).unwrap(), k, "{k}");
        }
        assert!(PolicyKind::from_value(&Value::Str("bogus".into())).is_err());
        assert!(PolicyKind::from_value(&Value::UInt(3)).is_err());
    }

    #[test]
    fn build_hybrid_pairs() {
        for k in [
            PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]),
            PolicyKind::phase(&[BasePolicy::Ghrp, BasePolicy::Srrip], 1024),
            PolicyKind::duel(&[BasePolicy::Srrip, BasePolicy::Sdbp]),
        ] {
            let mut pair = build_pair(
                k,
                cfg(),
                1024,
                4,
                GhrpConfig::default(),
                SdbpConfig::default(),
                7,
                None,
                None,
            );
            assert!(pair.icache.access(0x1000, 0x1000).is_miss());
            assert!(pair.icache.access(0x1000, 0x1000).is_hit());
            assert!(!pair.btb.lookup_and_update(0x1004, 0x2000));
            assert!(pair.btb.lookup_and_update(0x1004, 0x2000));
            // The GHRP handle is exposed iff a GHRP candidate exists.
            let wants_ghrp = match k {
                PolicyKind::Duel(s) | PolicyKind::Phase(s) => {
                    s.candidates().contains(&BasePolicy::Ghrp)
                }
                _ => false,
            };
            assert_eq!(pair.ghrp.is_some(), wants_ghrp, "{k}");
        }
    }

    #[test]
    fn cold_restart_clears_sticky_duel_state() {
        let k = PolicyKind::duel(&[BasePolicy::Srrip, BasePolicy::Lru]);
        let mut pair = build_pair(
            k,
            cfg(),
            1024,
            4,
            GhrpConfig::default(),
            SdbpConfig::default(),
            7,
            None,
            None,
        );
        for i in 0..50_000u64 {
            let addr = (i * 2_654_435_761) % (1 << 16);
            pair.icache.access(addr, addr);
        }
        pair.icache.reset();
        let AnyPolicy::Duel(d) = pair.icache.policy() else {
            panic!("expected a duel policy");
        };
        assert!(
            d.psel_tallies().iter().any(|&t| t > 0),
            "reset alone must keep the sticky PSEL tallies"
        );
        pair.icache.policy_mut().cold_restart();
        let AnyPolicy::Duel(d) = pair.icache.policy() else {
            panic!("expected a duel policy");
        };
        assert!(d.psel_tallies().iter().all(|&t| t == 0));
        assert_eq!(d.current_winner(), 0);
    }

    #[test]
    fn paper_set_is_the_papers_five() {
        let names: Vec<String> = PolicyKind::PAPER_SET
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(names, ["LRU", "Random", "SRRIP", "SDBP", "GHRP"]);
    }

    #[test]
    fn build_all_online_pairs() {
        for k in PolicyKind::ALL_ONLINE {
            let mut pair = build_pair(
                *k,
                cfg(),
                1024,
                4,
                GhrpConfig::default(),
                SdbpConfig::default(),
                7,
                None,
                None,
            );
            assert!(pair.icache.access(0x1000, 0x1000).is_miss());
            assert!(pair.icache.access(0x1000, 0x1000).is_hit());
            assert!(!pair.btb.lookup_and_update(0x1004, 0x2000));
            assert!(pair.btb.lookup_and_update(0x1004, 0x2000));
            assert_eq!(pair.ghrp.is_some(), *k == PolicyKind::Ghrp);
        }
    }

    #[test]
    fn bad_btb_geometry_and_missing_sequences_are_errors() {
        let build = |kind, entries, ways| {
            try_build_pair(
                kind,
                cfg(),
                entries,
                ways,
                GhrpConfig::default(),
                SdbpConfig::default(),
                0,
                None,
                None,
            )
            .map(|_| ())
        };
        for (entries, ways) in [(1000, 4), (1024, 0), (1024, 3)] {
            let err = build(PolicyKind::Lru, entries, ways).expect_err("bad geometry");
            assert_eq!(err, BuildError::BtbGeometry { entries, ways });
            assert!(err.to_string().contains("BTB geometry"), "{err}");
        }
        assert_eq!(
            build(PolicyKind::Opt, 1024, 4),
            Err(BuildError::MissingOfflineSequences)
        );
        assert_eq!(build(PolicyKind::Ghrp, 1024, 4), Ok(()));
    }

    #[test]
    #[should_panic(expected = "OPT requires")]
    fn opt_without_sequences_panics() {
        let _ = build_pair(
            PolicyKind::Opt,
            cfg(),
            1024,
            4,
            GhrpConfig::default(),
            SdbpConfig::default(),
            0,
            None,
            None,
        );
    }
}
