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
use crate::simulator::{offline_sequences, RunResult, SimConfig};
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

/// One policy lane: the complete per-policy state of a standalone run.
#[derive(Debug)]
struct Lane {
    policy: PolicyKind,
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
    fn access_group(&mut self, chunk: &FetchChunk, cfg: &SimConfig) {
        self.groups += 1;
        let result = self.pair.icache.access(chunk.block_addr, chunk.first_pc);
        // Miss-triggered next-line prefetching.
        if result.is_miss() && cfg.prefetch_degree > 0 {
            for i in 1..=u64::from(cfg.prefetch_degree) {
                self.pair
                    .icache
                    .prefetch(chunk.block_addr + i * cfg.icache.block_bytes());
            }
        }
        // Commit-time (right-path) history retirement for GHRP: in this
        // trace-driven model every fetched group retires.
        if let (Some(shared), Some(_wp)) = (&self.pair.ghrp, cfg.wrong_path.as_ref()) {
            shared.retire(chunk.block_addr);
        }
    }

    /// The per-lane half of a branch event: BTB refresh/allocate on taken
    /// branches (skippable when the caller never reads BTB results — the
    /// GHRP BTB policy only *reads* the shared predictor, so skipping it
    /// leaves every I-cache counter bit-identical), then wrong-path
    /// injection if the (shared) front end mispredicted.
    fn observe_branch(
        &mut self,
        branch: &BranchRecord,
        mispredicted: bool,
        cfg: &SimConfig,
        measure_btb: bool,
    ) {
        if measure_btb && branch.taken {
            self.pair.btb.lookup_and_update(branch.pc, branch.target);
        }
        if mispredicted {
            if let Some(wp) = cfg.wrong_path {
                let block_bytes = cfg.icache.block_bytes();
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

/// One lane of a run's grid: an I-cache geometry under one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaneSpec {
    icache: CacheConfig,
    policy: PolicyKind,
}

/// The configuration a set of arena lanes was built for.
#[derive(Debug, Clone, PartialEq)]
struct ArenaKey {
    base: SimConfig,
    lanes: Vec<LaneSpec>,
}

/// Reusable per-worker lane storage: a worker's consecutive tasks usually
/// share a configuration, so the arena keeps the previous task's lanes
/// and resets them **in place** (same post-construction state, zero
/// allocation) when the key matches, rebuilding only on a change or for
/// offline lanes, whose state is derived from the concrete trace.
#[derive(Debug, Default)]
struct EngineArena {
    key: Option<ArenaKey>,
    lanes: Vec<Lane>,
}

impl EngineArena {
    /// Ready fresh lanes for `lanes` under `base`: reset the held lanes
    /// in place when they were built for the same key, else rebuild.
    /// `offline` carries the precomputed access sequences of offline
    /// lanes, whose trace-derived state is never reused.
    fn prepare(
        &mut self,
        base: &SimConfig,
        lanes: &[LaneSpec],
        offline: Option<&(Vec<u64>, Vec<u64>)>,
    ) {
        let reusable = offline.is_none()
            && self
                .key
                .as_ref()
                .is_some_and(|k| k.base == *base && k.lanes == lanes);
        if reusable {
            for lane in &mut self.lanes {
                lane.reset_for_reuse();
            }
            return;
        }
        self.lanes.clear();
        for spec in lanes {
            let seq = offline.filter(|_| spec.policy.is_offline());
            // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
            let pair = build_pair(
                spec.policy,
                spec.icache,
                base.btb_entries,
                base.btb_ways,
                base.ghrp,
                base.sdbp,
                base.seed,
                seq.map(|(blocks, _)| blocks.as_slice()),
                seq.map(|(_, pcs)| pcs.as_slice()),
            );
            self.lanes.push(Lane {
                policy: spec.policy,
                pair,
                wrong_path_misses: 0,
                wrong_path_accesses: 0,
                groups: 0,
            });
        }
        self.key = offline.is_none().then(|| ArenaKey {
            base: *base,
            lanes: lanes.to_vec(),
        });
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
    let lanes = lane_grid(std::slice::from_ref(&base.icache), policies);
    let full = [Segment::full(source.total_instructions(), base.warmup_cap)];
    // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
    replay_segments(
        base,
        &lanes,
        true,
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

/// The lane grid of `geometries × policies`, geometry-major.
fn lane_grid(geometries: &[CacheConfig], policies: &[PolicyKind]) -> Vec<LaneSpec> {
    geometries
        .iter()
        .flat_map(|&icache| {
            policies
                .iter()
                .map(move |&policy| LaneSpec { icache, policy })
        })
        .collect()
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
/// Every lane shares `base.icache`'s block size: the fetch stream is
/// chunked once at that granularity. `measure_btb = false` skips the
/// per-lane BTB entirely (its stats come back zero); the GHRP BTB policy
/// only reads the shared predictor, so I-cache results are unaffected.
///
/// # Panics
///
/// Panics if an offline (OPT) lane meets anything but one full segment —
/// its precompute is defined over a full replay — or if the BTB geometry
/// in `base` is invalid.
fn replay_segments<I, F>(
    base: &SimConfig,
    lanes: &[LaneSpec],
    measure_btb: bool,
    segments: &[Segment],
    mut records: F,
    arena: &mut EngineArena,
) -> Vec<RunResult>
where
    F: FnMut(&Segment) -> I,
    I: Iterator<Item = BranchRecord>,
{
    if lanes.is_empty() {
        return Vec::new();
    }
    let block_bytes = base.icache.block_bytes();
    // Offline (OPT) lanes need the full access sequences ahead of time:
    // precompute them once per trace and share them across all offline
    // lanes (the block sequence is geometry-independent).
    let offline = lanes.iter().any(|l| l.policy.is_offline()).then(|| {
        assert!(
            matches!(segments, [s] if s.rec_lo == 0 && s.rec_hi == u64::MAX),
            "offline policies cannot be phase-sampled"
        );
        offline_sequences(records(&segments[0]), block_bytes)
    });
    // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
    arena.prepare(base, lanes, offline.as_ref());
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
                    lane.access_group(&chunk, base);
                }
            }
            if let Some(branch) = chunk.branch {
                let mispredicted = fe.observe(&branch);
                for lane in lanes.iter_mut() {
                    lane.observe_branch(&branch, mispredicted, base, measure_btb);
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

/// One simulation run: which traces to replay, from where, through which
/// lane grid, and whether to phase-sample them.
///
/// Every suite, sweep and sampled run goes through [`RunSpec::run`]; a
/// suite is a one-geometry grid (`base.icache`), a sweep a many-geometry
/// one.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Workloads, one trace each, in row order.
    pub specs: &'a [WorkloadSpec],
    /// Shared configuration. `base.policy` is ignored, and `base.icache`
    /// only sets the block size the fetch stream is chunked at.
    pub base: &'a SimConfig,
    /// Where the records come from.
    pub source: SuiteSource<'a>,
    /// I-cache geometries of the lane grid, all at `base`'s block size.
    pub geometries: &'a [CacheConfig],
    /// Policies of the lane grid; every geometry runs all of them.
    pub policies: &'a [PolicyKind],
    /// Whether lanes drive their BTB; runs that read only I-cache MPKI
    /// skip it (BTB figures then come back zero).
    pub measure_btb: bool,
    /// Phase-sampled replay ([`crate::sampled`]), which needs a corpus
    /// source; `None` replays every trace in full.
    pub sampling: Option<SampleParams>,
}

/// Measured figures of one (trace, geometry, policy) lane, merged over
/// its replayed segments by segment weight.
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
    /// BTB MPKI (zero when the run skipped BTBs).
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
/// geometry, policy) lane, plus the run's observability. Suite rows
/// ([`crate::SuiteResult::from_grid`]) and sweep points
/// ([`crate::sweep::SweepResult::from_grid`]) are its reshapes.
#[derive(Debug, Clone)]
pub struct RunGrid {
    traces: usize,
    geometries: usize,
    policies: usize,
    /// Trace-major, then geometry, then policy.
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

    /// The per-policy lanes of `trace` at geometry `geometry`, in the
    /// spec's policy order.
    ///
    /// # Panics
    ///
    /// Panics if `trace` or `geometry` is out of range.
    pub(crate) fn lanes(&self, trace: usize, geometry: usize) -> &[LaneMetrics] {
        assert!(trace < self.traces && geometry < self.geometries);
        let lo = (trace * self.geometries + geometry) * self.policies;
        &self.cells[lo..lo + self.policies]
    }
}

impl RunSpec<'_> {
    /// Run the spec on `threads` worker threads (`0` = every available
    /// hardware thread) and return its per-lane grid.
    ///
    /// The task grid is `lane part × trace`. The lane list (geometry
    /// major, then policy) is one part when the traces alone give every
    /// worker a task; with more workers than traces it splits into
    /// contiguous parts so the extra workers still parallelize. Tasks are
    /// part-major, so a worker's consecutive tasks share a part and its
    /// lane arena resets lanes in place instead of rebuilding them.
    /// The grid is bit-identical to a serial run at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a corpus source does not match `specs` (length or
    /// names), if sampling is asked of a streamed source, if a geometry's
    /// block size differs from `base`'s, if an offline policy meets a
    /// sampled plan, if the BTB geometry is invalid, or if a worker
    /// panics.
    pub fn run(&self, threads: usize) -> RunGrid {
        self.source.validate(self.specs);
        let base = self.base;
        let block_bytes = base.icache.block_bytes();
        assert!(
            self.geometries
                .iter()
                .all(|g| g.block_bytes() == block_bytes),
            "fused geometries must share the base block size"
        );
        let plans: Vec<SamplePlan> = match (self.sampling, self.source) {
            (Some(params), SuiteSource::Corpus(corpus)) => (0..corpus.len())
                .map(|s| build_plan(corpus.trace(s), base, &params))
                .collect(),
            (sampling, _) => {
                assert!(sampling.is_none(), "sampled replay needs a corpus source");
                Vec::new()
            }
        };
        let lanes = lane_grid(self.geometries, self.policies);
        let ntraces = self.specs.len();
        let workers = schedule::resolve_threads(threads);
        let nparts = workers
            .div_ceil(ntraces.max(1))
            .clamp(1, lanes.len().max(1));
        let parts: Vec<(usize, usize)> = (0..nparts)
            .map(|p| (p * lanes.len() / nparts, (p + 1) * lanes.len() / nparts))
            .collect();

        let (results, scheduler) = schedule::run_grid(
            nparts * ntraces,
            workers,
            |_| EngineArena::default(),
            |arena, t| {
                let (lo, hi) = parts[t / ntraces];
                let s = t % ntraces;
                let part = &lanes[lo..hi];
                let btb = self.measure_btb;
                match self.source {
                    SuiteSource::Streamed => {
                        let trace = self.specs[s].streamed();
                        let full = [Segment::full(trace.instructions(), base.warmup_cap)];
                        let records = |_: &Segment| trace.replay();
                        // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
                        let results = replay_segments(base, part, btb, &full, records, arena);
                        fold_segments(&full, &results, part.len())
                    }
                    SuiteSource::Corpus(corpus) => {
                        let trace = corpus.trace(s);
                        let full = [Segment::full(trace.instructions(), base.warmup_cap)];
                        let segments = match plans.get(s) {
                            Some(plan) if !plan.exact => &plan.segments[..],
                            _ => &full[..],
                        };
                        let records = |seg: &Segment| trace.cursor_range(seg.rec_lo, seg.rec_hi);
                        // lint:allow(panic-path): arena-build-time BTB geometry validation in build_pair, documented `# Panics`; never on the per-record path
                        let results = replay_segments(base, part, btb, segments, records, arena);
                        fold_segments(segments, &results, part.len())
                    }
                }
            },
        );

        // Parts are contiguous and ascending, so concatenating a trace's
        // parts restores its full lane list.
        let mut cells = Vec::with_capacity(ntraces * lanes.len());
        for s in 0..ntraces {
            for p in 0..nparts {
                cells.extend_from_slice(&results[p * ntraces + s]);
            }
        }
        RunGrid {
            traces: ntraces,
            geometries: self.geometries.len(),
            policies: self.policies.len(),
            cells,
            scheduler,
            sampled: self.sampling.map(|_| SampledInfo::from_plans(&plans)),
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
}
