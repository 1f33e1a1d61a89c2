//! The simulation engine: one replay loop and one run driver.
//!
//! The paper's methodology (§IV) evaluates every replacement policy on the
//! same trace stream. The policy-independent work — fetch-group decode,
//! the hashed-perceptron direction predictor, the return-address stack and
//! the indirect target cache — dominates a run, yet the reference path
//! ([`crate::simulator::Simulator::run`]) repeats all of it once per
//! policy. This engine replays a trace **once**, decoding the fetch stream
//! and driving the shared predictors a single time, and broadcasts every
//! fetch group and branch event to N independent **policy lanes**.
//!
//! Each lane owns exactly the per-policy state of a standalone run: its
//! I-cache, its BTB, and (for GHRP/SDBP) its predictor tables including
//! the §III.F dual history. The branch-predictor outcome stream that
//! triggers wrong-path injection is policy-independent — the shared
//! predictors never read cache state — so each lane observes the same
//! event sequence, in the same order, as a standalone simulation, and its
//! counters stay **bit-identical** to the per-policy reference (proved
//! by the `engine_equivalence` property suite).
//!
//! One loop replays a list of [`Segment`]s: a full run is a single
//! segment over the whole trace (warm-up on the first half, capped), a
//! phase-sampled run is its plan's segments. One driver,
//! [`RunSpec::run`], schedules every suite, sweep and sampled run over
//! that loop and folds each lane's segments into a [`RunGrid`]; suite
//! rows and sweep points are reshapes of that grid.
//!
//! Traces enter through [`ReplaySource`], which abstracts over a
//! materialized record slice ([`SliceReplay`]), a streaming replay of a
//! synthetic workload ([`fe_trace::synth::StreamedTrace`]) and a corpus
//! trace. The streaming path never materializes a `Vec<BranchRecord>`, so
//! paper-scale traces (100 M+ instructions, §IV.C) cost walker state
//! instead of gigabytes.

#![forbid(unsafe_code)]

use crate::experiment::SuiteSource;
use crate::policy::{build_pair, FrontendPair, PolicyKind};
use crate::sampled::{build_plan, SampleParams, SamplePlan, SampledInfo};
use crate::schedule::{self, SchedulerStats};
use crate::simulator::{offline_sequences, RunResult, SimConfig, WrongPathConfig};
use fe_branch::{HashedPerceptron, PredictorStats, ReturnAddressStack, TargetCache};
use fe_cache::CacheConfig;
use fe_trace::fetch::{FetchChunk, FetchStream};
use fe_trace::record::{BranchKind, BranchRecord};
use fe_trace::synth::{StreamedTrace, SyntheticTrace, Walker, WorkloadSpec};

/// A trace that can be replayed from the start any number of times.
///
/// The engine makes one pass for the simulation itself plus, when the
/// policy set contains an offline (OPT) policy, one precompute pass. Both
/// passes must observe identical record streams.
pub trait ReplaySource {
    /// The record iterator for one replay pass.
    type Iter<'a>: Iterator<Item = BranchRecord>
    where
        Self: 'a;

    /// Start a fresh pass over the branch records, in program order.
    fn replay(&self) -> Self::Iter<'_>;

    /// Exact instruction total of the trace (sizes the warm-up window,
    /// §IV.C: first half of the trace, capped).
    fn total_instructions(&self) -> u64;
}

/// Replay of a materialized record slice (the legacy representation).
#[derive(Debug, Clone, Copy)]
pub struct SliceReplay<'r> {
    records: &'r [BranchRecord],
    instructions: u64,
}

impl<'r> SliceReplay<'r> {
    /// Wrap `records` whose walk implies `instructions` instructions.
    pub fn new(records: &'r [BranchRecord], instructions: u64) -> SliceReplay<'r> {
        SliceReplay {
            records,
            instructions,
        }
    }

    /// Replay a fully materialized synthetic trace.
    pub fn from_trace(trace: &'r SyntheticTrace) -> SliceReplay<'r> {
        SliceReplay {
            records: &trace.records,
            instructions: trace.instructions,
        }
    }
}

impl ReplaySource for SliceReplay<'_> {
    type Iter<'a>
        = std::iter::Copied<std::slice::Iter<'a, BranchRecord>>
    where
        Self: 'a;

    fn replay(&self) -> Self::Iter<'_> {
        self.records.iter().copied()
    }

    fn total_instructions(&self) -> u64 {
        self.instructions
    }
}

impl ReplaySource for StreamedTrace {
    type Iter<'a> = Walker<'a>;

    fn replay(&self) -> Walker<'_> {
        StreamedTrace::replay(self)
    }

    fn total_instructions(&self) -> u64 {
        self.instructions()
    }
}

impl ReplaySource for fe_trace::corpus::CorpusTrace {
    type Iter<'a> = fe_trace::corpus::CorpusCursor<'a>;

    /// Zero-copy replay: every pass opens a fresh chunked cursor over
    /// the corpus's shared column buffer — no parsing, no cloning, no
    /// per-record allocation, and safe to share across scheduler
    /// workers (each worker's cursor reads the same immutable bytes).
    fn replay(&self) -> fe_trace::corpus::CorpusCursor<'_> {
        self.cursor()
    }

    fn total_instructions(&self) -> u64 {
        self.instructions()
    }
}

/// The policy-independent front end, driven exactly once per trace: the
/// conditional-direction predictor, the return-address stack and the
/// indirect target cache. None of these read cache or BTB state, so their
/// outcome stream is identical for every lane.
#[derive(Debug, Default)]
struct SharedFrontEnd {
    bp: HashedPerceptron,
    ras: ReturnAddressStack,
    itp: TargetCache,
    bp_stats: PredictorStats,
    ras_mispredictions: u64,
    /// (predicted, mispredicted) indirect jumps/calls.
    indirect: (u64, u64),
}

impl SharedFrontEnd {
    /// Predict and train on one branch record; returns whether the front
    /// end mispredicted it (the trigger for wrong-path injection).
    fn observe(&mut self, branch: &BranchRecord) -> bool {
        let mut mispredicted = false;
        match branch.kind {
            BranchKind::CondDirect => {
                let pred = self.bp.predict_and_update(branch.pc, branch.taken);
                let correct = pred == branch.taken;
                self.bp_stats.record(correct);
                mispredicted = !correct;
            }
            BranchKind::Call => {
                self.ras.push(branch.fall_through());
            }
            BranchKind::IndirectCall => {
                self.ras.push(branch.fall_through());
                self.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    self.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Indirect => {
                self.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    self.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                if predicted != Some(branch.target) {
                    self.ras_mispredictions += 1;
                    mispredicted = true;
                }
            }
            BranchKind::UncondDirect => {}
        }
        mispredicted
    }

    /// End-of-warm-up counter reset (predictor state itself stays warm).
    fn reset_stats(&mut self) {
        self.bp_stats = PredictorStats::default();
        self.ras_mispredictions = 0;
        self.indirect = (0, 0);
    }
}

/// One lane of a run: a complete simulator configuration — I-cache
/// geometry, policy, BTB size, GHRP/SDBP knobs, seed, wrong-path and
/// prefetch settings — plus whether the lane drives its BTB.
///
/// Lanes of one [`RunSpec`] may differ in every field except the I-cache
/// block size and the warm-up cap: the shared front end chunks the fetch
/// stream once and warms once, and it never reads a lane's
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSpec {
    /// The lane's configuration; `config.policy` is the lane's policy.
    pub config: SimConfig,
    /// Whether the lane drives its BTB. A lane that skips it reports
    /// zero BTB figures; the GHRP BTB policy only reads the shared
    /// predictor, so the lane's I-cache figures are unaffected.
    pub measure_btb: bool,
}

impl LaneSpec {
    /// The lanes of `geometries × policies` over `base`, geometry-major,
    /// all with the same BTB measurement.
    pub fn grid(
        base: &SimConfig,
        geometries: &[CacheConfig],
        policies: &[PolicyKind],
        measure_btb: bool,
    ) -> Vec<LaneSpec> {
        geometries
            .iter()
            .flat_map(|&icache| {
                policies.iter().map(move |&policy| LaneSpec {
                    config: base.with_icache(icache).with_policy(policy),
                    measure_btb,
                })
            })
            .collect()
    }
}

/// One policy lane: the complete per-policy state of a standalone run.
///
/// The lane keeps its own copy of the few configuration fields the
/// per-event calls read, so the hot path never goes through the whole
/// [`SimConfig`].
///
/// Each lane starts on a cache line of its own. A worker's lane vector is
/// only 16-byte aligned, and its offset within a line changes from one
/// run to the next; with unaligned lanes that offset decided which lanes'
/// hot fields straddled a line, so pass times varied between runs.
#[derive(Debug)]
#[repr(align(64))]
struct Lane {
    policy: PolicyKind,
    measure_btb: bool,
    prefetch_degree: u32,
    block_bytes: u64,
    wrong_path: Option<WrongPathConfig>,
    pair: FrontendPair,
    /// Wrong-path pollution, excluded from the figure of merit (wrong-path
    /// fetches do not retire, so they cannot be MPKI events).
    wrong_path_misses: u64,
    wrong_path_accesses: u64,
    /// Fetch groups this lane processed (cross-lane lockstep check).
    groups: u64,
}

impl Lane {
    /// One I-cache access per fetch group (§IV.A), plus prefetch and
    /// commit-time GHRP history retirement — the per-lane half of what
    /// the legacy loop does per `starts_group` chunk.
    fn access_group(&mut self, chunk: &FetchChunk) {
        self.groups += 1;
        let result = self.pair.icache.access(chunk.block_addr, chunk.first_pc);
        // Miss-triggered next-line prefetching.
        if result.is_miss() && self.prefetch_degree > 0 {
            for i in 1..=u64::from(self.prefetch_degree) {
                self.pair
                    .icache
                    .prefetch(chunk.block_addr + i * self.block_bytes);
            }
        }
        // Commit-time (right-path) history retirement for GHRP: in this
        // trace-driven model every fetched group retires.
        if let (Some(shared), Some(_wp)) = (&self.pair.ghrp, self.wrong_path.as_ref()) {
            shared.retire(chunk.block_addr);
        }
    }

    /// The per-lane half of a branch event: BTB refresh/allocate on taken
    /// branches (skipped when the lane does not measure its BTB — the
    /// GHRP BTB policy only *reads* the shared predictor, so skipping it
    /// leaves every I-cache counter bit-identical), then wrong-path
    /// injection if the (shared) front end mispredicted.
    fn observe_branch(&mut self, branch: &BranchRecord, mispredicted: bool) {
        if self.measure_btb && branch.taken {
            self.pair.btb.lookup_and_update(branch.pc, branch.target);
        }
        if mispredicted {
            if let Some(wp) = self.wrong_path {
                let block_bytes = self.block_bytes;
                // The wrong path is the direction not taken.
                let wrong_start = if branch.taken {
                    branch.fall_through()
                } else {
                    branch.target
                };
                let mut block = wrong_start & !(block_bytes - 1);
                for _ in 0..wp.blocks_per_misprediction {
                    let r = self.pair.icache.access(block, block);
                    self.wrong_path_accesses += 1;
                    if r.is_miss() {
                        self.wrong_path_misses += 1;
                    }
                    block += block_bytes;
                }
                if wp.recover_history {
                    if let Some(shared) = &self.pair.ghrp {
                        shared.recover();
                    }
                }
            }
        }
    }

    fn reset_stats(&mut self) {
        self.pair.icache.reset_stats();
        self.pair.btb.reset_stats();
        self.wrong_path_misses = 0;
        self.wrong_path_accesses = 0;
    }

    /// Restore the lane to its freshly-built state, reusing every
    /// allocation (cache arrays, BTB tables, predictor tables). Offline
    /// lanes cannot be reused — their policy state is trace-derived.
    fn reset_for_reuse(&mut self) {
        self.pair.icache.reset();
        self.pair.btb.reset();
        // The dueling hybrids keep their PSEL tallies across `reset()`
        // on purpose (production adaptivity); arena reuse must stay
        // bit-identical to a rebuild, so clear the sticky state too.
        self.pair.icache.policy_mut().cold_restart();
        self.pair.btb.entries_mut().policy_mut().cold_restart();
        // The shared GHRP state is external to both policies; reset it
        // exactly once here, as the pair's owner.
        if let Some(shared) = &self.pair.ghrp {
            shared.reset();
        }
        self.wrong_path_misses = 0;
        self.wrong_path_accesses = 0;
        self.groups = 0;
    }

    fn finish(&self, measured_instructions: u64, fe: &SharedFrontEnd) -> RunResult {
        let mut icache_stats = self.pair.icache.stats();
        // Subtract wrong-path pollution from the figure of merit.
        icache_stats.misses -= self.wrong_path_misses.min(icache_stats.misses);
        icache_stats.accesses -= self.wrong_path_accesses.min(icache_stats.accesses);
        let btb_stats = self.pair.btb.stats();
        RunResult {
            policy: self.policy,
            instructions: measured_instructions,
            icache: icache_stats,
            btb_lookups: btb_stats.lookups,
            btb_misses: btb_stats.misses,
            cond_branches: fe.bp_stats.predictions,
            cond_mispredictions: fe.bp_stats.mispredictions,
            ras_mispredictions: fe.ras_mispredictions,
            indirect_branches: fe.indirect.0,
            indirect_mispredictions: fe.indirect.1,
            prefetch_fills: icache_stats.prefetch_fills,
        }
    }
}

/// Reusable per-worker lane storage: a worker's consecutive tasks usually
/// share a lane list, so the arena keeps the previous task's lanes and
/// resets them **in place** (same post-construction state, zero
/// allocation) when the list matches, rebuilding on a change. Offline
/// lanes always rebuild: their state is derived from the concrete trace.
#[derive(Debug, Default)]
struct EngineArena {
    /// The lane list the held lanes were built for.
    key: Vec<LaneSpec>,
    lanes: Vec<Lane>,
}

impl EngineArena {
    /// Ready fresh lanes for `lanes`: reset the held lanes in place when
    /// they were built for the same list, else rebuild. Offline lanes
    /// always rebuild, from `offline`, the precomputed access sequences of
    /// the current trace.
    ///
    /// # Panics
    ///
    /// Panics if a lane's BTB geometry is invalid.
    fn prepare(&mut self, lanes: &[LaneSpec], offline: Option<&(Vec<u64>, Vec<u64>)>) {
        if self.key != lanes {
            self.lanes.clear();
            self.key = lanes.to_vec();
        }
        for (i, &spec) in lanes.iter().enumerate() {
            let cfg = &spec.config;
            let held = self.lanes.get_mut(i);
            if let Some(lane) = held.filter(|_| !cfg.policy.is_offline()) {
                lane.reset_for_reuse();
                continue;
            }
            let seq = offline.filter(|_| cfg.policy.is_offline());
            // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
            let pair = build_pair(
                cfg.policy,
                cfg.icache,
                cfg.btb_entries,
                cfg.btb_ways,
                cfg.ghrp,
                cfg.sdbp,
                cfg.seed,
                seq.map(|(blocks, _)| blocks.as_slice()),
                seq.map(|(_, pcs)| pcs.as_slice()),
            );
            let lane = Lane {
                policy: cfg.policy,
                measure_btb: spec.measure_btb,
                prefetch_degree: cfg.prefetch_degree,
                block_bytes: cfg.icache.block_bytes(),
                wrong_path: cfg.wrong_path,
                pair,
                wrong_path_misses: 0,
                wrong_path_accesses: 0,
                groups: 0,
            };
            match self.lanes.get_mut(i) {
                Some(held) => *held = lane,
                None => self.lanes.push(lane),
            }
        }
    }
}

/// Simulate every policy in `policies` over one full replay of `source`,
/// returning one [`RunResult`] per policy (in input order).
///
/// The shared pass decodes the fetch stream and drives the direction
/// predictor, RAS and indirect target cache exactly once; per-policy work
/// is limited to each lane's I-cache/BTB accesses. `base.policy` is
/// ignored — each lane is built for its own policy. Results are
/// bit-identical to running [`crate::simulator::Simulator::run`] once per
/// policy on the same trace.
///
/// # Panics
///
/// Panics if the BTB geometry in `base` is invalid.
pub fn run_lanes<S: ReplaySource>(
    base: &SimConfig,
    policies: &[PolicyKind],
    source: &S,
) -> Vec<RunResult> {
    let lanes = LaneSpec::grid(base, std::slice::from_ref(&base.icache), policies, true);
    let full = [Segment::full(source.total_instructions(), base.warmup_cap)];
    // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
    replay_segments(
        &lanes,
        &full,
        |_| source.replay(),
        &mut EngineArena::default(),
    )
}

/// One replayed stretch of a trace: the record range, how much of its
/// prefix is warm-up (measurement off), and the weight its measured
/// metrics carry in the run's result.
///
/// A full run is one segment over the whole trace, warming on its first
/// half (capped, §IV.C) with weight 1; a phase-sampled run replays the
/// segments of its [`crate::sampled::SamplePlan`], in ascending trace
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First record of the segment (inclusive).
    pub rec_lo: u64,
    /// One past the last record of the segment.
    pub rec_hi: u64,
    /// Instructions at the segment start replayed with measurement off
    /// (warming of caches, BTB and predictors).
    pub warmup_instructions: u64,
    /// Weight of the measured interval (a run's weights sum to 1).
    pub weight: f64,
}

impl Segment {
    /// The whole trace of `total_instructions`, warming on its first
    /// half capped at `warmup_cap` (§IV.C), with weight 1.
    fn full(total_instructions: u64, warmup_cap: u64) -> Segment {
        Segment {
            rec_lo: 0,
            rec_hi: u64::MAX,
            warmup_instructions: (total_instructions / 2).min(warmup_cap),
            weight: 1.0,
        }
    }
}

/// The replay loop: drive `lanes` through `segments` in order over one
/// persistent front end and lane grid, returning every segment's
/// per-lane results, segment-major (`out[s * lanes.len() + l]`).
///
/// `records(seg)` opens the record stream of one segment. Cache, BTB and
/// predictor **state** persists across segments (the previous segment is
/// the best available approximation of a skipped gap); **counters**
/// reset at each segment's warm-up boundary, so each segment's results
/// cover exactly its measured interval. A segment without warm-up resets
/// counters before its first record.
///
/// Every lane shares the first lane's I-cache block size: the fetch
/// stream is chunked once at that granularity. Everything else — policy,
/// geometry, BTB, predictor knobs, wrong-path, prefetch — is per lane.
///
/// # Panics
///
/// Panics if an offline (OPT) lane meets anything but one full segment —
/// its precompute is defined over a full replay — or if a lane's BTB
/// geometry is invalid.
fn replay_segments<I, F>(
    lanes: &[LaneSpec],
    segments: &[Segment],
    mut records: F,
    arena: &mut EngineArena,
) -> Vec<RunResult>
where
    F: FnMut(&Segment) -> I,
    I: Iterator<Item = BranchRecord>,
{
    let Some(first) = lanes.first() else {
        return Vec::new();
    };
    let block_bytes = first.config.icache.block_bytes();
    // Offline (OPT) lanes need the full access sequences ahead of time:
    // precompute them once per trace and share them across all offline
    // lanes (the block sequence is geometry-independent).
    let offline = lanes.iter().any(|l| l.config.policy.is_offline()).then(|| {
        assert!(
            matches!(segments, [s] if s.rec_lo == 0 && s.rec_hi == u64::MAX),
            "offline policies cannot be phase-sampled"
        );
        offline_sequences(records(&segments[0]), block_bytes)
    });
    // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
    arena.prepare(lanes, offline.as_ref());
    let lanes = &mut arena.lanes;

    let mut fe = SharedFrontEnd::default();
    let mut out = Vec::with_capacity(segments.len() * lanes.len());
    for seg in segments {
        let warmup = seg.warmup_instructions;
        let mut warmed = warmup == 0;
        if warmed {
            // No warm-up prefix: counters carried over from the previous
            // segment must still be cleared at the measurement start.
            fe.reset_stats();
            for lane in lanes.iter_mut() {
                lane.reset_stats();
            }
        }
        let mut instructions = 0u64;
        let mut measured_instructions = 0u64;
        for chunk in FetchStream::new(records(seg), block_bytes) {
            instructions += u64::from(chunk.n_instr);
            if warmed {
                measured_instructions += u64::from(chunk.n_instr);
            }
            if chunk.starts_group {
                for lane in lanes.iter_mut() {
                    lane.access_group(&chunk);
                }
            }
            if let Some(branch) = chunk.branch {
                let mispredicted = fe.observe(&branch);
                for lane in lanes.iter_mut() {
                    lane.observe_branch(&branch, mispredicted);
                }
            }
            if !warmed && instructions >= warmup {
                warmed = true;
                fe.reset_stats();
                for lane in lanes.iter_mut() {
                    lane.reset_stats();
                }
            }
        }
        out.extend(
            lanes
                .iter()
                .map(|lane| lane.finish(measured_instructions, &fe)),
        );
    }

    // Every lane consumed the identical event stream.
    debug_assert!(
        lanes.windows(2).all(|w| w[0].groups == w[1].groups),
        "policy lanes diverged: fetch-group counts {:?}",
        lanes.iter().map(|l| l.groups).collect::<Vec<_>>()
    );
    out
}

/// A precondition of [`RunSpec::run`] that the spec does not meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Lanes of one run must share the I-cache block size (the fetch
    /// stream is chunked once).
    MixedBlockSize {
        /// Block size of the first lane.
        expected: u64,
        /// The first differing block size.
        found: u64,
    },
    /// Lanes of one run must share the warm-up cap (the front end warms
    /// once).
    MixedWarmupCap {
        /// Warm-up cap of the first lane.
        expected: u64,
        /// The first differing warm-up cap.
        found: u64,
    },
    /// Phase-sampled replay needs a corpus source (its plans come from
    /// the corpus signature sidecars).
    SampledStreamed,
    /// An offline (OPT) lane met a non-exact sampled plan; its oracle is
    /// defined over a full replay only.
    OfflineSampled,
    /// The corpus holds a different number of traces than the run has
    /// workloads.
    CorpusLength {
        /// Traces in the corpus.
        corpus: usize,
        /// Workloads in the run.
        specs: usize,
    },
    /// Corpus trace `index` is not the workload the run expects there.
    CorpusName {
        /// Trace index.
        index: usize,
        /// Name of the corpus trace.
        found: String,
        /// Name of the workload spec.
        expected: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::MixedBlockSize { expected, found } => write!(
                f,
                "lanes of one run must share the block size ({expected} B vs {found} B)"
            ),
            RunError::MixedWarmupCap { expected, found } => write!(
                f,
                "lanes of one run must share the warm-up cap ({expected} vs {found})"
            ),
            RunError::SampledStreamed => f.write_str("sampled replay needs a corpus source"),
            RunError::OfflineSampled => f.write_str("offline policies cannot be phase-sampled"),
            RunError::CorpusLength { corpus, specs } => write!(
                f,
                "corpus has {corpus} traces but the suite has {specs} workloads"
            ),
            RunError::CorpusName {
                index,
                found,
                expected,
            } => write!(
                f,
                "corpus trace {index} is `{found}` but the suite expects `{expected}`"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// One simulation run: which traces to replay, from where, through which
/// lanes, and whether to phase-sample them.
///
/// Every suite, sweep and sampled run goes through [`RunSpec::run`]. A
/// suite is one geometry's policies, a sweep many geometries' — and the
/// planner fuses every full-replay request on one suite into one lane
/// list, since each lane carries its own configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Workloads, one trace each, in row order.
    pub specs: &'a [WorkloadSpec],
    /// Where the records come from.
    pub source: SuiteSource<'a>,
    /// The lanes every trace drives, in column order. All share one
    /// I-cache block size and one warm-up cap.
    pub lanes: &'a [LaneSpec],
    /// Phase-sampled replay ([`crate::sampled`]), which needs a corpus
    /// source; `None` replays every trace in full.
    pub sampling: Option<SampleParams>,
    /// Widest lane part one task may replay; `None` splits the lanes
    /// only as far as the workers need. The `report` planner sets it for
    /// the wide lane lists it fuses from many requests; the adapters
    /// leave it `None`.
    pub part_width: Option<usize>,
}

/// Measured figures of one (trace, lane) cell, merged over its replayed
/// segments by segment weight.
///
/// A full run is one segment of weight 1, and `0.0 + 1.0 * x == x`
/// exactly, so full-run figures are the lane's own MPKIs bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LaneMetrics {
    /// Measured (post-warm-up) instructions, summed over segments.
    pub instructions: u64,
    /// Conditional-branch MPKI (policy independent).
    pub branch_mpki: f64,
    /// I-cache MPKI.
    pub icache_mpki: f64,
    /// BTB MPKI (zero when the lane skipped its BTB).
    pub btb_mpki: f64,
}

impl LaneMetrics {
    /// Add one segment's result at the segment's weight. A segment whose
    /// measurement never started contributes nothing (its MPKI would be
    /// 0/0).
    fn fold(&mut self, seg: &Segment, r: &RunResult) {
        self.instructions += r.instructions;
        if r.instructions == 0 || seg.weight == 0.0 {
            return;
        }
        self.branch_mpki += seg.weight * r.branch_mpki();
        self.icache_mpki += seg.weight * r.icache_mpki();
        self.btb_mpki += seg.weight * r.btb_mpki();
    }
}

/// The result of a [`RunSpec`]: the merged figures of every (trace,
/// lane) cell, plus the run's observability. Suite rows
/// ([`crate::SuiteResult::from_grid`]) and sweep points
/// ([`crate::sweep::SweepResult::from_grid`]) are its reshapes.
#[derive(Debug, Clone)]
pub struct RunGrid {
    traces: usize,
    lanes: usize,
    /// Trace-major, then lane.
    cells: Vec<LaneMetrics>,
    /// Scheduler observability for the run.
    pub scheduler: SchedulerStats,
    /// Sampling observability when the run was phase-sampled.
    pub sampled: Option<SampledInfo>,
}

impl RunGrid {
    /// Number of traces (rows) in the grid.
    pub(crate) fn traces(&self) -> usize {
        self.traces
    }

    /// Every lane of `trace`, in the spec's lane order.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub(crate) fn row(&self, trace: usize) -> &[LaneMetrics] {
        &self.cells[trace * self.lanes..(trace + 1) * self.lanes]
    }

    /// The grid of columns `lanes` of this one, in that order — what a
    /// run of just those lanes returns. With `measure_btb` off the BTB
    /// figures read zero, as they do for a lane that skipped its BTB.
    /// The selection carries no scheduler counters (the drain belongs to
    /// the whole run); sampling observability is kept.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range.
    #[must_use]
    pub fn select(&self, lanes: &[usize], measure_btb: bool) -> RunGrid {
        let cells = (0..self.traces)
            .flat_map(|s| {
                let row = self.row(s);
                lanes.iter().map(move |&l| LaneMetrics {
                    btb_mpki: if measure_btb { row[l].btb_mpki } else { 0.0 },
                    ..row[l]
                })
            })
            .collect();
        RunGrid {
            traces: self.traces,
            lanes: lanes.len(),
            cells,
            scheduler: SchedulerStats::default(),
            sampled: self.sampled,
        }
    }
}

impl RunSpec<'_> {
    /// The block size and warm-up cap every lane shares, or `None`
    /// without lanes.
    fn shared_geometry(&self) -> Result<Option<(u64, u64)>, RunError> {
        let Some(first) = self.lanes.first() else {
            return Ok(None);
        };
        let block = first.config.icache.block_bytes();
        let cap = first.config.warmup_cap;
        for lane in self.lanes {
            let found = lane.config.icache.block_bytes();
            if found != block {
                return Err(RunError::MixedBlockSize {
                    expected: block,
                    found,
                });
            }
            if lane.config.warmup_cap != cap {
                return Err(RunError::MixedWarmupCap {
                    expected: cap,
                    found: lane.config.warmup_cap,
                });
            }
        }
        Ok(Some((block, cap)))
    }

    /// Check the spec's preconditions and lay it out as a task grid for
    /// `threads` workers.
    fn task_grid(&self, threads: usize) -> Result<TaskGrid<'_>, RunError> {
        self.source.validate(self.specs)?;
        let shared = self.shared_geometry()?;
        let plans: Vec<SamplePlan> = match (self.sampling, self.source, self.lanes.first()) {
            (Some(_), SuiteSource::Streamed, _) => return Err(RunError::SampledStreamed),
            (Some(params), SuiteSource::Corpus(corpus), Some(lane)) => (0..corpus.len())
                .map(|s| build_plan(corpus.trace(s), &lane.config, &params))
                .collect(),
            // Unsampled, or no lane to plan for.
            _ => Vec::new(),
        };
        if self.lanes.iter().any(|l| l.config.policy.is_offline()) && plans.iter().any(|p| !p.exact)
        {
            return Err(RunError::OfflineSampled);
        }
        let nlanes = self.lanes.len();
        let workers = schedule::resolve_threads(threads);
        let nparts = workers
            .div_ceil(self.specs.len().max(1))
            .max(self.part_width.map_or(1, |w| nlanes.div_ceil(w.max(1))))
            .clamp(1, nlanes.max(1));
        Ok(TaskGrid {
            spec: *self,
            plans,
            warmup_cap: shared.map_or(0, |(_, cap)| cap),
            parts: (0..nparts)
                .map(|p| (p * nlanes / nparts, (p + 1) * nlanes / nparts))
                .collect(),
            workers,
        })
    }

    /// Run the spec on `threads` worker threads (`0` = every available
    /// hardware thread) and return its per-lane grid.
    ///
    /// The task grid is `lane part × trace`. The lane list is one part
    /// when the traces alone give every worker a task and the list is no
    /// wider than [`RunSpec::part_width`]; otherwise it splits into
    /// balanced contiguous parts. Tasks are part-major, so a worker's
    /// consecutive tasks share a part and its lane arena resets lanes in
    /// place instead of rebuilding them. The grid is bit-identical to a serial run at
    /// every thread count and every part split.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the lanes mix block sizes or warm-up
    /// caps, if sampling is asked of a streamed source, if an offline
    /// lane meets a non-exact sampled plan, or if a corpus source does
    /// not match `specs` (length or names).
    ///
    /// # Panics
    ///
    /// Panics if a lane's BTB geometry is invalid, or if a worker panics.
    pub fn run(&self, threads: usize) -> Result<RunGrid, RunError> {
        let grid = self.task_grid(threads)?;
        let (results, scheduler) = schedule::run_grid(
            grid.len(),
            grid.workers,
            |_| EngineArena::default(),
            |arena, t| grid.task(arena, t),
        );
        Ok(grid.assemble(&results, scheduler))
    }

    /// [`RunSpec::run`] without scheduler counters: the drain goes
    /// through [`schedule::run_tasks`], which reads no clock, and the
    /// grid's `scheduler` is the default. An experiment's `render`
    /// simulates through this, so host time cannot reach its output.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::run`].
    ///
    /// # Panics
    ///
    /// As [`RunSpec::run`].
    pub fn run_untimed(&self, threads: usize) -> Result<RunGrid, RunError> {
        let grid = self.task_grid(threads)?;
        let results = schedule::run_tasks(
            grid.len(),
            grid.workers,
            |_| EngineArena::default(),
            |arena, t| grid.task(arena, t),
        );
        Ok(grid.assemble(&results, SchedulerStats::default()))
    }
}

/// A checked [`RunSpec`] laid out as `lane part × trace` tasks,
/// part-major (`t = part · traces + trace`).
struct TaskGrid<'a> {
    spec: RunSpec<'a>,
    /// One sampling plan per trace when the run is sampled.
    plans: Vec<SamplePlan>,
    /// The warm-up cap every lane shares.
    warmup_cap: u64,
    /// Contiguous, ascending `[lo, hi)` lane ranges.
    parts: Vec<(usize, usize)>,
    workers: usize,
}

impl TaskGrid<'_> {
    fn len(&self) -> usize {
        self.parts.len() * self.spec.specs.len()
    }

    /// Task `t`: replay one trace through one lane part.
    ///
    /// # Panics
    ///
    /// Panics if a lane's BTB geometry is invalid.
    fn task(&self, arena: &mut EngineArena, t: usize) -> Vec<LaneMetrics> {
        let ntraces = self.spec.specs.len();
        let (lo, hi) = self.parts[t / ntraces];
        let s = t % ntraces;
        let part = &self.spec.lanes[lo..hi];
        match self.spec.source {
            SuiteSource::Streamed => {
                let trace = self.spec.specs[s].streamed();
                let full = [Segment::full(trace.instructions(), self.warmup_cap)];
                let records = |_: &Segment| trace.replay();
                // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
                let results = replay_segments(part, &full, records, arena);
                fold_segments(&full, &results, part.len())
            }
            SuiteSource::Corpus(corpus) => {
                let trace = corpus.trace(s);
                let full = [Segment::full(trace.instructions(), self.warmup_cap)];
                let segments = match self.plans.get(s) {
                    Some(plan) if !plan.exact => &plan.segments[..],
                    _ => &full[..],
                };
                let records = |seg: &Segment| trace.cursor_range(seg.rec_lo, seg.rec_hi);
                // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
                let results = replay_segments(part, segments, records, arena);
                fold_segments(segments, &results, part.len())
            }
        }
    }

    /// The run's grid from its task results (in task order).
    fn assemble(self, results: &[Vec<LaneMetrics>], scheduler: SchedulerStats) -> RunGrid {
        // Parts are contiguous and ascending, so concatenating a trace's
        // parts restores its full lane list.
        let ntraces = self.spec.specs.len();
        let mut cells = Vec::with_capacity(ntraces * self.spec.lanes.len());
        for s in 0..ntraces {
            for p in 0..self.parts.len() {
                cells.extend_from_slice(&results[p * ntraces + s]);
            }
        }
        RunGrid {
            traces: ntraces,
            lanes: self.spec.lanes.len(),
            cells,
            scheduler,
            sampled: self
                .spec
                .sampling
                .map(|_| SampledInfo::from_plans(&self.plans)),
        }
    }
}

/// The weighted-segment fold: merge each lane's per-segment results
/// (segment-major, as [`replay_segments`] returns them) into its
/// [`LaneMetrics`].
fn fold_segments(segments: &[Segment], results: &[RunResult], nlanes: usize) -> Vec<LaneMetrics> {
    let mut metrics = vec![LaneMetrics::default(); nlanes];
    for (seg, seg_results) in segments.iter().zip(results.chunks_exact(nlanes.max(1))) {
        for (m, r) in metrics.iter_mut().zip(seg_results) {
            m.fold(seg, r);
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{Simulator, WrongPathConfig};
    use fe_trace::synth::{WorkloadCategory, WorkloadSpec};

    fn spec(seed: u64, n: u64) -> WorkloadSpec {
        WorkloadSpec::new(WorkloadCategory::ShortServer, seed).instructions(n)
    }

    const SEVEN: &[PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    #[test]
    fn lanes_match_legacy_per_policy_runs() {
        let trace = spec(3, 200_000).generate();
        let base = SimConfig::paper_default();
        let results = run_lanes(&base, SEVEN, &SliceReplay::from_trace(&trace));
        assert_eq!(results.len(), SEVEN.len());
        for (r, &p) in results.iter().zip(SEVEN) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy");
        }
    }

    #[test]
    fn lanes_match_legacy_with_wrong_path() {
        let trace = spec(5, 150_000).generate();
        let mut base = SimConfig::paper_default();
        base.wrong_path = Some(WrongPathConfig::default());
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Sdbp];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (wrong-path)");
        }
    }

    #[test]
    fn streaming_source_matches_slice_source() {
        let s = spec(7, 120_000);
        let base = SimConfig::paper_default();
        let trace = s.generate();
        let from_slice = run_lanes(&base, SEVEN, &SliceReplay::from_trace(&trace));
        let from_stream = run_lanes(&base, SEVEN, &s.streamed());
        assert_eq!(from_slice, from_stream);
    }

    #[test]
    fn offline_lane_shares_precompute_with_online_lanes() {
        let trace = spec(11, 100_000).generate();
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Opt, PolicyKind::Lru];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (OPT)");
        }
    }

    #[test]
    fn prefetch_lanes_match_legacy() {
        let trace = spec(13, 150_000).generate();
        let mut base = SimConfig::paper_default();
        base.prefetch_degree = 2;
        let pols = [PolicyKind::Lru, PolicyKind::Srrip];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (prefetch)");
        }
    }

    #[test]
    fn empty_policy_set_yields_nothing() {
        let trace = spec(17, 50_000).generate();
        let results = run_lanes(
            &SimConfig::paper_default(),
            &[],
            &SliceReplay::from_trace(&trace),
        );
        assert!(results.is_empty());
    }

    #[test]
    fn empty_trace_runs_all_lanes() {
        let results = run_lanes(
            &SimConfig::paper_default(),
            &[PolicyKind::Lru, PolicyKind::Ghrp],
            &SliceReplay::new(&[], 0),
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.instructions, 0);
            assert_eq!(r.icache.accesses, 0);
        }
    }

    #[test]
    fn lanes_with_distinct_configs_match_standalone_runs() {
        // Every knob but block size and warm-up cap may differ between
        // the lanes of one pass.
        let trace = spec(19, 150_000).generate();
        let base = SimConfig::paper_default();
        let mut wrong_path = base.with_policy(PolicyKind::Ghrp);
        wrong_path.wrong_path = Some(WrongPathConfig::default());
        let mut prefetch = base.with_policy(PolicyKind::Srrip);
        prefetch.prefetch_degree = 2;
        let mut small_btb = base.with_policy(PolicyKind::Lru);
        small_btb.btb_entries = 1024;
        let mut knobs = base.with_policy(PolicyKind::Ghrp);
        knobs.ghrp.dead_threshold = 1;
        knobs.ghrp.protect_mru = false;
        let small_cache = base
            .with_icache(CacheConfig::with_capacity(16 * 1024, 4, 64).expect("valid geometry"))
            .with_policy(PolicyKind::Opt);
        let mut seeded = base.with_policy(PolicyKind::Random);
        seeded.seed = 7;
        let configs = [wrong_path, prefetch, small_btb, knobs, small_cache, seeded];
        let lanes: Vec<LaneSpec> = configs
            .iter()
            .map(|&config| LaneSpec {
                config,
                measure_btb: true,
            })
            .collect();
        let full = [Segment::full(trace.instructions, base.warmup_cap)];
        let results = replay_segments(
            &lanes,
            &full,
            |_| trace.records.iter().copied(),
            &mut EngineArena::default(),
        );
        for (r, cfg) in results.iter().zip(&configs) {
            let alone = Simulator::new(*cfg).run(&trace.records, trace.instructions);
            assert_eq!(*r, alone, "lane {cfg:?} diverged from its standalone run");
        }
    }

    #[test]
    fn arena_reuse_with_an_offline_lane_matches_fresh_lanes() {
        // Online lanes reset in place while the OPT lane rebuilds from
        // the new trace's sequences.
        let base = SimConfig::paper_default();
        let lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Ghrp, PolicyKind::Opt, PolicyKind::Drrip],
            true,
        );
        let mut arena = EngineArena::default();
        for seed in [23, 29] {
            let trace = spec(seed, 80_000).generate();
            let full = [Segment::full(trace.instructions, base.warmup_cap)];
            let records = |_: &Segment| trace.records.iter().copied();
            let reused = replay_segments(&lanes, &full, records, &mut arena);
            let fresh = replay_segments(&lanes, &full, records, &mut EngineArena::default());
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    fn run_error(spec: RunSpec<'_>) -> RunError {
        spec.run(1).expect_err("precondition must fail")
    }

    #[test]
    fn mixed_block_sizes_and_warmup_caps_are_errors() {
        let specs = [spec(31, 20_000)];
        let base = SimConfig::paper_default();
        let mut lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Lru],
            true,
        );
        let mut wide = lanes[0];
        wide.config.icache = CacheConfig::with_capacity(64 * 1024, 8, 128).expect("valid geometry");
        lanes.push(wide);
        let run = |lanes: &[LaneSpec]| {
            run_error(RunSpec {
                specs: &specs,
                source: SuiteSource::Streamed,
                lanes,
                sampling: None,
                part_width: None,
            })
        };
        assert_eq!(
            run(&lanes),
            RunError::MixedBlockSize {
                expected: 64,
                found: 128
            }
        );
        lanes[1] = lanes[0];
        lanes[1].config.warmup_cap = 1_000;
        assert_eq!(
            run(&lanes),
            RunError::MixedWarmupCap {
                expected: base.warmup_cap,
                found: 1_000
            }
        );
    }

    #[test]
    fn sampling_a_streamed_source_is_an_error() {
        let specs = [spec(37, 20_000)];
        let base = SimConfig::paper_default();
        let lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Lru],
            true,
        );
        let err = run_error(RunSpec {
            specs: &specs,
            source: SuiteSource::Streamed,
            lanes: &lanes,
            sampling: Some(SampleParams::default()),
            part_width: None,
        });
        assert_eq!(err, RunError::SampledStreamed);
        assert!(err.to_string().contains("corpus source"));
    }

    #[test]
    fn a_corpus_that_does_not_match_its_specs_is_an_error() {
        use fe_trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
        let specs = [spec(41, 20_000), spec(43, 20_000)];
        let mut b = CorpusBuilder::new();
        b.push_synthetic(&specs[1].generate()).expect("encodes");
        b.push_synthetic(&specs[0].generate()).expect("encodes");
        let swapped =
            SuiteCorpus::from_corpus(&Corpus::from_bytes(b.finish()).expect("fresh corpus parses"));
        let base = SimConfig::paper_default();
        let lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Lru],
            true,
        );
        let run = |specs: &[WorkloadSpec]| {
            run_error(RunSpec {
                specs,
                source: SuiteSource::Corpus(&swapped),
                lanes: &lanes,
                sampling: None,
                part_width: None,
            })
        };
        assert_eq!(
            run(&specs[..1]),
            RunError::CorpusLength {
                corpus: 2,
                specs: 1
            }
        );
        assert_eq!(
            run(&specs),
            RunError::CorpusName {
                index: 0,
                found: specs[1].name.clone(),
                expected: specs[0].name.clone(),
            }
        );
    }

    #[test]
    fn an_offline_lane_cannot_be_sampled() {
        use fe_trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
        let specs = [spec(47, 300_000)];
        let mut b = CorpusBuilder::new();
        b.push_synthetic(&specs[0].generate()).expect("encodes");
        let corpus =
            SuiteCorpus::from_corpus(&Corpus::from_bytes(b.finish()).expect("fresh corpus parses"));
        let base = SimConfig::paper_default();
        let lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Lru, PolicyKind::Opt],
            true,
        );
        let err = run_error(RunSpec {
            specs: &specs,
            source: SuiteSource::Corpus(&corpus),
            lanes: &lanes,
            sampling: Some(SampleParams {
                windows: 16,
                k: 2,
                warmup: 1024,
            }),
            part_width: None,
        });
        assert_eq!(err, RunError::OfflineSampled);
    }

    #[test]
    fn selecting_lanes_matches_running_them_alone() {
        let specs = [spec(53, 60_000), spec(59, 60_000)];
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Srrip];
        let all = LaneSpec::grid(&base, std::slice::from_ref(&base.icache), &pols, true);
        let run = |lanes: &[LaneSpec], threads, part_width| {
            RunSpec {
                specs: &specs,
                source: SuiteSource::Streamed,
                lanes,
                sampling: None,
                part_width,
            }
            .run(threads)
            .expect("valid spec")
        };
        // One lane per part: every lane replays in its own task.
        let fused = run(&all, 2, Some(1));
        assert_eq!(fused.cells, run(&all, 1, None).cells);
        let picked = [all[2], all[0]];
        let alone = run(&picked, 1, None);
        let selected = fused.select(&[2, 0], true);
        assert_eq!(selected.cells, alone.cells);
        let no_btb = fused.select(&[2, 0], false);
        assert!(no_btb.cells.iter().all(|c| c.btb_mpki == 0.0));
        assert!(fused.cells.iter().any(|c| c.btb_mpki > 0.0));
    }
}
