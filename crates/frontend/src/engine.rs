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
use crate::policy::{
    btb_geometry, try_build_pair, AnyPolicy, BuildError, FrontendPair, PolicyKind,
};
use crate::sampled::{build_plan, SampleParams, SamplePlan, SampledInfo};
use crate::schedule::{self, SchedulerStats};
use crate::simulator::{offline_sequences, RunResult, SimConfig, WrongPathConfig};
use fe_branch::{HashedPerceptron, PredictorStats, ReturnAddressStack, TargetCache};
use fe_btb::{Btb, BtbStats, GhrpBtbPolicy};
use fe_cache::policy::{Drrip, Fifo, Lru, RandomPolicy, Srrip};
use fe_cache::{Cache, CacheConfig, CacheStats, ReplacementPolicy};
use fe_sdbp::{CounterDbpPolicy, SdbpPolicy, ShipPolicy};
use fe_trace::fetch::FetchStream;
use fe_trace::record::{BranchKind, BranchRecord, INSTRUCTION_BYTES};
use fe_trace::synth::program::Program;
use fe_trace::synth::{StreamedTrace, SyntheticTrace, Walker, WorkloadSpec};
use ghrp_core::{GhrpPolicy, SharedGhrp};

/// Re-exported from [`crate::experiment`], where the panicking adapters
/// live; [`RunSpec::run`] is the fallible entry.
pub use crate::experiment::run_lanes;

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
    counts: FrontCounters,
}

/// The shared front end's counters. Every one is a monotone count, so the
/// counts of a measured interval are the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct FrontCounters {
    bp: PredictorStats,
    ras_mispredictions: u64,
    /// (predicted, mispredicted) indirect jumps/calls.
    indirect: (u64, u64),
}

impl FrontCounters {
    /// The counts since the snapshot `base`.
    fn since(&self, base: &FrontCounters) -> FrontCounters {
        FrontCounters {
            bp: PredictorStats {
                predictions: self.bp.predictions - base.bp.predictions,
                mispredictions: self.bp.mispredictions - base.bp.mispredictions,
            },
            ras_mispredictions: self.ras_mispredictions - base.ras_mispredictions,
            indirect: (
                self.indirect.0 - base.indirect.0,
                self.indirect.1 - base.indirect.1,
            ),
        }
    }
}

impl SharedFrontEnd {
    /// Predict and train on one branch record; returns whether the front
    /// end mispredicted it (the trigger for wrong-path injection).
    fn observe(&mut self, branch: &BranchRecord) -> bool {
        let counts = &mut self.counts;
        let mut mispredicted = false;
        match branch.kind {
            BranchKind::CondDirect => {
                let pred = self.bp.predict_and_update(branch.pc, branch.taken);
                let correct = pred == branch.taken;
                counts.bp.record(correct);
                mispredicted = !correct;
            }
            BranchKind::Call => {
                self.ras.push(branch.fall_through());
            }
            BranchKind::IndirectCall => {
                self.ras.push(branch.fall_through());
                counts.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    counts.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Indirect => {
                counts.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    counts.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                if predicted != Some(branch.target) {
                    counts.ras_mispredictions += 1;
                    mispredicted = true;
                }
            }
            BranchKind::UncondDirect => {}
        }
        mispredicted
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

/// Events the replay loop buffers before draining them into the lanes.
///
/// Each lane drains the batch through one monomorphic kernel, so the
/// lane's policy is dispatched once per batch rather than once per cache
/// or BTB callback. The size barely matters once the kernels are
/// monomorphic: on a 2-vCPU host, 16 mixed lanes over two 1M-instruction
/// traces took 0.60 of the unbatched engine's time with 256-event batches
/// and 0.61 with 1024 (same-process alternating runs), and `perfbench
/// report_smoke` medians at 256, 1024 and 2048 events were within the
/// runs' spread. 256 events are 6 KiB per worker.
const LANE_BATCH: usize = 256;

/// One event of the shared front end that a lane acts on, in trace
/// order.
#[derive(Debug, Clone, Copy)]
enum LaneEvent {
    /// A fetch group's I-cache access (§IV.A).
    Group { block_addr: u64, first_pc: u64 },
    /// A branch that is taken (BTB refresh or allocate) or mispredicted
    /// by the shared front end (wrong-path injection). Branches that are
    /// neither change no lane and are not buffered.
    Branch {
        pc: u64,
        target: u64,
        taken: bool,
        mispredicted: bool,
    },
}

/// A lane's I-cache and BTB, unwrapped from [`build_pair`]'s
/// `AnyPolicy` payloads into monomorphic caches for every static policy,
/// so a batch drains through a kernel compiled for that policy. The
/// dueling hybrids and OPT keep the dynamic dispatch.
///
/// [`build_pair`]: crate::policy::build_pair
#[allow(clippy::large_enum_variant)] // a handful of lanes per worker, never moved per event
enum LanePair {
    Lru(Cache<Lru>, Btb<Lru>),
    Fifo(Cache<Fifo>, Btb<Fifo>),
    Random(Cache<RandomPolicy>, Btb<RandomPolicy>),
    Srrip(Cache<Srrip>, Btb<Srrip>),
    Drrip(Cache<Drrip>, Btb<Drrip>),
    Ship(Cache<ShipPolicy>, Btb<ShipPolicy>),
    CounterDbp(Cache<CounterDbpPolicy>, Btb<CounterDbpPolicy>),
    Sdbp(Cache<SdbpPolicy>, Btb<SdbpPolicy>),
    Ghrp(Cache<GhrpPolicy>, Btb<GhrpBtbPolicy>),
    /// `duel(…)`, `phase(…)` and OPT.
    Dyn(Cache<AnyPolicy>, Btb<AnyPolicy>),
}

/// Run `$body` with `$icache` and `$btb` bound to the concrete caches of
/// a [`LanePair`] — the once-per-batch dispatch.
macro_rules! with_pair {
    ($pair:expr, ($icache:ident, $btb:ident) => $body:expr) => {
        match $pair {
            LanePair::Lru($icache, $btb) => $body,
            LanePair::Fifo($icache, $btb) => $body,
            LanePair::Random($icache, $btb) => $body,
            LanePair::Srrip($icache, $btb) => $body,
            LanePair::Drrip($icache, $btb) => $body,
            LanePair::Ship($icache, $btb) => $body,
            LanePair::CounterDbp($icache, $btb) => $body,
            LanePair::Sdbp($icache, $btb) => $body,
            LanePair::Ghrp($icache, $btb) => $body,
            LanePair::Dyn($icache, $btb) => $body,
        }
    };
}

impl LanePair {
    /// Unwrap the policies of a built pair: a matching static pair
    /// becomes its monomorphic variant, anything else stays dynamic.
    fn new(icache: Cache<AnyPolicy>, btb: Btb<AnyPolicy>) -> LanePair {
        let (icache, ipol) = icache.replace_policy(());
        let (btb, bpol) = btb.replace_policy(());
        macro_rules! pair {
            ($variant:ident, $i:expr, $b:expr) => {
                LanePair::$variant(icache.replace_policy($i).0, btb.replace_policy($b).0)
            };
        }
        match (ipol, bpol) {
            (AnyPolicy::Lru(i), AnyPolicy::Lru(b)) => pair!(Lru, i, b),
            (AnyPolicy::Fifo(i), AnyPolicy::Fifo(b)) => pair!(Fifo, i, b),
            (AnyPolicy::Random(i), AnyPolicy::Random(b)) => pair!(Random, i, b),
            (AnyPolicy::Srrip(i), AnyPolicy::Srrip(b)) => pair!(Srrip, i, b),
            (AnyPolicy::Drrip(i), AnyPolicy::Drrip(b)) => pair!(Drrip, i, b),
            (AnyPolicy::Ship(i), AnyPolicy::Ship(b)) => pair!(Ship, i, b),
            (AnyPolicy::CounterDbp(i), AnyPolicy::CounterDbp(b)) => pair!(CounterDbp, i, b),
            (AnyPolicy::Sdbp(i), AnyPolicy::Sdbp(b)) => pair!(Sdbp, i, b),
            (AnyPolicy::Ghrp(i), AnyPolicy::GhrpBtb(b)) => pair!(Ghrp, i, b),
            (i, b) => pair!(Dyn, i, b),
        }
    }
}

impl std::fmt::Debug for LanePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        with_pair!(self, (icache, btb) => f
            .debug_struct("LanePair")
            .field("icache", &icache.config())
            .field("btb", &btb.entries().config())
            .finish())
    }
}

/// A lane's configuration and counters: everything but its caches.
#[derive(Debug)]
struct LaneState {
    measure_btb: bool,
    prefetch_degree: u32,
    block_bytes: u64,
    wrong_path: Option<WrongPathConfig>,
    /// The GHRP predictor shared by the lane's I-cache and BTB, for
    /// commit-time retirement and misprediction recovery.
    ghrp: Option<SharedGhrp>,
    /// Wrong-path pollution, excluded from the figure of merit (wrong-path
    /// fetches do not retire, so they cannot be MPKI events).
    wrong_path_misses: u64,
    wrong_path_accesses: u64,
    /// Fetch groups this lane processed (cross-lane lockstep check).
    groups: u64,
}

impl LaneState {
    /// The lane kernel: apply `events`, in order, to one lane's caches.
    ///
    /// A fetch group is one I-cache access (§IV.A), plus miss-triggered
    /// next-line prefetch and commit-time GHRP history retirement. A
    /// branch refreshes or allocates its BTB entry when taken (skipped
    /// when the lane does not measure its BTB — the GHRP BTB policy only
    /// *reads* the shared predictor, so skipping it leaves every I-cache
    /// counter bit-identical), then injects the wrong path if the shared
    /// front end mispredicted it.
    fn drain<I: ReplacementPolicy, B: ReplacementPolicy>(
        &mut self,
        icache: &mut Cache<I>,
        btb: &mut Btb<B>,
        events: &[LaneEvent],
    ) {
        for event in events {
            match *event {
                LaneEvent::Group {
                    block_addr,
                    first_pc,
                } => {
                    self.groups += 1;
                    let result = icache.access(block_addr, first_pc);
                    if result.is_miss() && self.prefetch_degree > 0 {
                        for i in 1..=u64::from(self.prefetch_degree) {
                            icache.prefetch(block_addr + i * self.block_bytes);
                        }
                    }
                    // Commit-time (right-path) history retirement for
                    // GHRP: in this trace-driven model every fetched group
                    // retires.
                    if let (Some(shared), Some(_wp)) = (&self.ghrp, self.wrong_path) {
                        shared.retire(block_addr);
                    }
                }
                LaneEvent::Branch {
                    pc,
                    target,
                    taken,
                    mispredicted,
                } => {
                    if self.measure_btb && taken {
                        btb.lookup_and_update(pc, target);
                    }
                    if mispredicted {
                        self.wrong_path(icache, pc, target, taken);
                    }
                }
            }
        }
    }

    /// Wrong-path injection after a mispredicted branch: fetch the
    /// direction not taken for the configured number of blocks, then
    /// (optionally) recover the GHRP speculative history.
    fn wrong_path<I: ReplacementPolicy>(
        &mut self,
        icache: &mut Cache<I>,
        pc: u64,
        target: u64,
        taken: bool,
    ) {
        let Some(wp) = self.wrong_path else {
            return;
        };
        let block_bytes = self.block_bytes;
        // The wrong path is the direction not taken.
        let wrong_start = if taken {
            pc + INSTRUCTION_BYTES
        } else {
            target
        };
        let mut block = wrong_start & !(block_bytes - 1);
        for _ in 0..wp.blocks_per_misprediction {
            let r = icache.access(block, block);
            self.wrong_path_accesses += 1;
            if r.is_miss() {
                self.wrong_path_misses += 1;
            }
            block += block_bytes;
        }
        if wp.recover_history {
            if let Some(shared) = &self.ghrp {
                shared.recover();
            }
        }
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
    state: LaneState,
    pair: LanePair,
}

impl Lane {
    /// Build the lane for `spec` through [`try_build_pair`], handing OPT
    /// its precomputed `(blocks, pcs)` sequences.
    fn build(spec: &LaneSpec, offline: Option<&(Vec<u64>, Vec<u64>)>) -> Result<Lane, BuildError> {
        let cfg = &spec.config;
        let FrontendPair { icache, btb, ghrp } = try_build_pair(
            cfg.policy,
            cfg.icache,
            cfg.btb_entries,
            cfg.btb_ways,
            cfg.ghrp,
            cfg.sdbp,
            cfg.seed,
            offline.map(|(blocks, _)| blocks.as_slice()),
            offline.map(|(_, pcs)| pcs.as_slice()),
        )?;
        Ok(Lane {
            policy: cfg.policy,
            state: LaneState {
                measure_btb: spec.measure_btb,
                prefetch_degree: cfg.prefetch_degree,
                block_bytes: cfg.icache.block_bytes(),
                wrong_path: cfg.wrong_path,
                ghrp,
                wrong_path_misses: 0,
                wrong_path_accesses: 0,
                groups: 0,
            },
            pair: LanePair::new(icache, btb),
        })
    }

    /// Apply one batch of events (dispatching the policy once).
    fn drain(&mut self, events: &[LaneEvent]) {
        let state = &mut self.state;
        with_pair!(&mut self.pair, (icache, btb) => state.drain(icache, btb, events));
    }

    /// A snapshot of the lane's counters.
    fn counters(&self) -> LaneCounters {
        let (icache, btb) = with_pair!(&self.pair, (icache, btb) => (icache.stats(), btb.stats()));
        LaneCounters {
            icache,
            btb,
            wrong_path_misses: self.state.wrong_path_misses,
            wrong_path_accesses: self.state.wrong_path_accesses,
        }
    }

    /// Restore the lane to its freshly-built state, reusing every
    /// allocation (cache arrays, BTB tables, predictor tables). Offline
    /// lanes cannot be reused — their policy state is trace-derived.
    fn reset_for_reuse(&mut self) {
        with_pair!(&mut self.pair, (icache, btb) => {
            icache.reset();
            btb.reset();
        });
        // The dueling hybrids keep their PSEL tallies across `reset()`
        // on purpose (production adaptivity); arena reuse must stay
        // bit-identical to a rebuild, so clear the sticky state too.
        if let LanePair::Dyn(icache, btb) = &mut self.pair {
            icache.policy_mut().cold_restart();
            btb.entries_mut().policy_mut().cold_restart();
        }
        let state = &mut self.state;
        // The shared GHRP state is external to both policies; reset it
        // exactly once here, as the pair's owner.
        if let Some(shared) = &state.ghrp {
            shared.reset();
        }
        state.wrong_path_misses = 0;
        state.wrong_path_accesses = 0;
        state.groups = 0;
    }

    /// The lane's result over the interval since the snapshot `base`, in
    /// which the front end counted `fe`.
    fn finish(
        &self,
        base: &LaneCounters,
        measured_instructions: u64,
        fe: &FrontCounters,
    ) -> RunResult {
        let now = self.counters();
        let mut icache_stats = CacheStats {
            accesses: now.icache.accesses - base.icache.accesses,
            hits: now.icache.hits - base.icache.hits,
            misses: now.icache.misses - base.icache.misses,
            bypasses: now.icache.bypasses - base.icache.bypasses,
            evictions: now.icache.evictions - base.icache.evictions,
            prefetch_fills: now.icache.prefetch_fills - base.icache.prefetch_fills,
        };
        let wrong_path_misses = now.wrong_path_misses - base.wrong_path_misses;
        let wrong_path_accesses = now.wrong_path_accesses - base.wrong_path_accesses;
        // Subtract wrong-path pollution from the figure of merit.
        icache_stats.misses -= wrong_path_misses.min(icache_stats.misses);
        icache_stats.accesses -= wrong_path_accesses.min(icache_stats.accesses);
        RunResult {
            policy: self.policy,
            instructions: measured_instructions,
            icache: icache_stats,
            btb_lookups: now.btb.lookups - base.btb.lookups,
            btb_misses: now.btb.misses - base.btb.misses,
            cond_branches: fe.bp.predictions,
            cond_mispredictions: fe.bp.mispredictions,
            ras_mispredictions: fe.ras_mispredictions,
            indirect_branches: fe.indirect.0,
            indirect_mispredictions: fe.indirect.1,
            prefetch_fills: icache_stats.prefetch_fills,
        }
    }
}

/// A lane's counters: its I-cache and BTB statistics and its wrong-path
/// tallies. Every one is a monotone count (see [`FrontCounters`]).
#[derive(Debug, Clone, Copy, Default)]
struct LaneCounters {
    icache: CacheStats,
    btb: BtbStats,
    wrong_path_misses: u64,
    wrong_path_accesses: u64,
}

/// Reusable per-worker lane storage: a worker's consecutive tasks usually
/// share a lane list, so the arena keeps the previous task's lanes and
/// resets them **in place** (same post-construction state, zero
/// allocation) when the list matches, rebuilding on a change. Offline
/// lanes always rebuild: their state is derived from the concrete trace.
/// The event batch and the warm-up snapshots are kept here too, so a
/// task allocates nothing.
#[derive(Debug, Default)]
struct EngineArena {
    /// The lane list the held lanes were built for.
    key: Vec<LaneSpec>,
    lanes: Vec<Lane>,
    batch: Vec<LaneEvent>,
    /// The current segment's snapshots: at its start and after each
    /// chunk that can end its warm-up (see [`Replay`]).
    marks: Vec<Mark>,
    /// Every lane's counters at each mark, mark-major.
    mark_lanes: Vec<LaneCounters>,
    /// Every lane's counters where the current measurement started.
    base_lanes: Vec<LaneCounters>,
}

/// A snapshot taken after a chunk that can end a warm-up.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Instructions of the segment up to and including the chunk.
    instructions: u64,
    /// The shared front end's counters.
    front: FrontCounters,
}

impl EngineArena {
    /// Ready fresh lanes for `lanes`: reset the held lanes in place when
    /// they were built for the same list, else rebuild. Offline lanes
    /// always rebuild, from `offline`, the precomputed access sequences of
    /// the current trace.
    ///
    /// # Errors
    ///
    /// Returns the index (within `lanes`) and error of the first lane
    /// that cannot be built.
    fn prepare(
        &mut self,
        lanes: &[LaneSpec],
        offline: Option<&(Vec<u64>, Vec<u64>)>,
    ) -> Result<(), (usize, BuildError)> {
        if self.key != lanes {
            self.lanes.clear();
            self.key = lanes.to_vec();
        }
        for (i, spec) in lanes.iter().enumerate() {
            let offline_lane = spec.config.policy.is_offline();
            let held = self.lanes.get_mut(i);
            if let Some(lane) = held.filter(|_| !offline_lane) {
                lane.reset_for_reuse();
                continue;
            }
            let lane = match Lane::build(spec, offline.filter(|_| offline_lane)) {
                Ok(lane) => lane,
                Err(e) => {
                    // Half-built: make the next call rebuild from scratch.
                    self.key.clear();
                    self.lanes.clear();
                    return Err((i, e));
                }
            };
            match self.lanes.get_mut(i) {
                Some(held) => *held = lane,
                None => self.lanes.push(lane),
            }
        }
        Ok(())
    }
}

/// Replay `source` in full through one lane per policy of `policies`
/// over `base` — [`crate::experiment::run_lanes`] without the panic.
pub(crate) fn try_run_lanes<S: ReplaySource>(
    base: &SimConfig,
    policies: &[PolicyKind],
    source: &S,
) -> Result<Vec<RunResult>, RunError> {
    let lanes = LaneSpec::grid(base, std::slice::from_ref(&base.icache), policies, true);
    let full = [Segment::full(source.total_instructions(), base.warmup_cap)];
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
    pub(crate) fn full(total_instructions: u64, warmup_cap: u64) -> Segment {
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
/// the best available approximation of a skipped gap); each segment's
/// results cover exactly its measured interval, which starts at its
/// warm-up boundary ([`Replay`]). A segment without warm-up measures from
/// its first record.
///
/// Every lane shares the first lane's I-cache block size: the fetch
/// stream is chunked once at that granularity. Everything else — policy,
/// geometry, BTB, predictor knobs, wrong-path, prefetch — is per lane.
///
/// # Errors
///
/// Returns [`RunError::Lane`] (indexed within `lanes`) if a lane cannot
/// be built.
///
/// # Panics
///
/// Panics if an offline (OPT) lane meets anything but one full segment —
/// its precompute is defined over a full replay.
fn replay_segments<I, F>(
    lanes: &[LaneSpec],
    segments: &[Segment],
    mut records: F,
    arena: &mut EngineArena,
) -> Result<Vec<RunResult>, RunError>
where
    F: FnMut(&Segment) -> I,
    I: Iterator<Item = BranchRecord>,
{
    let Some(first) = lanes.first() else {
        return Ok(Vec::new());
    };
    let block_bytes = first.config.icache.block_bytes();
    // Offline (OPT) lanes need the full access sequences ahead of time:
    // precompute them once per trace and share them across all offline
    // lanes (the block sequence is geometry-independent).
    let offline = has_offline(lanes).then(|| {
        assert!(
            matches!(segments, [s] if s.rec_lo == 0 && s.rec_hi == u64::MAX),
            "offline policies cannot be phase-sampled"
        );
        offline_sequences(records(&segments[0]), block_bytes)
    });
    let mut replay = Replay::new(lanes, block_bytes, offline.as_ref(), arena)?;
    let mut out = Vec::with_capacity(segments.len() * lanes.len());
    for seg in segments {
        let warmup = seg.warmup_instructions;
        replay.segment(records(seg), warmup, warmup);
        replay.close(warmup, &mut out);
    }
    Ok(out)
}

/// The replay loop over one full walk of `spec` through `program` (built
/// from `spec`), walking the program **once**.
///
/// A full run warms on `min(total / 2, warmup_cap)` instructions, but the
/// walk's total is known only once it ends. The walker stops at the first
/// record whose block reaches the budget, so the total lies in
/// `[budget, budget + largest block)`, and the warm-up in a window just
/// as narrow. The loop snapshots every counter at each chunk where the
/// boundary can fall and measures from the right snapshot at the end of
/// the walk. When the cap is at most half the budget, the window is the
/// cap alone. Results equal [`replay_segments`] over
/// [`WorkloadSpec::streamed`], which walks the trace twice.
///
/// # Errors
///
/// As [`replay_segments`].
fn replay_walk(
    lanes: &[LaneSpec],
    spec: &WorkloadSpec,
    program: &Program,
    warmup_cap: u64,
    arena: &mut EngineArena,
) -> Result<Vec<RunResult>, RunError> {
    let Some(first) = lanes.first() else {
        return Ok(Vec::new());
    };
    let block_bytes = first.config.icache.block_bytes();
    let offline = has_offline(lanes).then(|| offline_sequences(spec.walk(program), block_bytes));
    let mut replay = Replay::new(lanes, block_bytes, offline.as_ref(), arena)?;
    let budget = spec.instructions;
    let longest = budget.saturating_add(u64::from(program.largest_block().saturating_sub(1)));
    let (lo, hi) = ((budget / 2).min(warmup_cap), (longest / 2).min(warmup_cap));
    let mut walk = spec.walk(program);
    replay.segment(&mut walk, lo, hi);
    let warmup = (walk.instructions() / 2).min(warmup_cap);
    debug_assert!(
        (lo..=hi).contains(&warmup),
        "warm-up {warmup} outside its window [{lo}, {hi}]"
    );
    let mut out = Vec::with_capacity(lanes.len());
    replay.close(warmup, &mut out);
    Ok(out)
}

/// Whether any lane runs an offline (OPT) policy.
fn has_offline(lanes: &[LaneSpec]) -> bool {
    lanes.iter().any(|l| l.config.policy.is_offline())
}

/// The replay loop's state over one task: the shared front end, driven
/// once, and the lanes of the arena it feeds.
///
/// The shared front end runs ahead of the lanes by up to [`LANE_BATCH`]
/// events: it buffers fetch groups and the branches lanes act on, then
/// each lane drains the batch through its monomorphic kernel.
///
/// Counters are never reset. A segment measures from its warm-up
/// boundary: the first chunk at which the segment's cumulative
/// instructions reach its warm-up (or its start, for a warm-up of 0).
/// [`Replay::segment`] drains the batch and snapshots every counter at
/// each chunk where the boundary can fall, and [`Replay::close`] reports
/// each lane's counts since the boundary's snapshot. All counters are
/// monotone counts, so this equals resetting them at the boundary, and
/// each lane sees exactly the per-event order of a standalone run.
struct Replay<'a> {
    fe: SharedFrontEnd,
    block_bytes: u64,
    arena: &'a mut EngineArena,
    /// The front end's counters where the current measurement started.
    base: FrontCounters,
    /// Instructions of the segment replayed last.
    instructions: u64,
}

impl<'a> Replay<'a> {
    /// Ready `arena`'s lanes for `lanes` (offline lanes from `offline`,
    /// the trace's precomputed access sequences), measuring from the
    /// start.
    fn new(
        lanes: &[LaneSpec],
        block_bytes: u64,
        offline: Option<&(Vec<u64>, Vec<u64>)>,
        arena: &'a mut EngineArena,
    ) -> Result<Replay<'a>, RunError> {
        arena
            .prepare(lanes, offline)
            .map_err(|(lane, error)| RunError::Lane { lane, error })?;
        arena.batch.clear();
        arena.batch.reserve(LANE_BATCH);
        arena.base_lanes.clear();
        arena
            .base_lanes
            .extend(arena.lanes.iter().map(Lane::counters));
        Ok(Replay {
            fe: SharedFrontEnd::default(),
            block_bytes,
            arena,
            base: FrontCounters::default(),
            instructions: 0,
        })
    }

    /// Replay one segment's `records`, snapshotting every counter at the
    /// segment start and after each chunk that can end a warm-up of
    /// `lo..=hi` instructions.
    fn segment(&mut self, records: impl Iterator<Item = BranchRecord>, lo: u64, hi: u64) {
        let EngineArena {
            lanes,
            batch,
            marks,
            mark_lanes,
            ..
        } = &mut *self.arena;
        let fe = &mut self.fe;
        marks.clear();
        mark_lanes.clear();
        // The segment start is the boundary of a warm-up of 0.
        mark(0, fe.counts, lanes, marks, mark_lanes);
        let mut instructions = 0u64;
        for chunk in FetchStream::new(records, self.block_bytes) {
            let before = instructions;
            instructions += u64::from(chunk.n_instr);
            if chunk.starts_group {
                batch.push(LaneEvent::Group {
                    block_addr: chunk.block_addr,
                    first_pc: chunk.first_pc,
                });
            }
            if let Some(branch) = chunk.branch {
                let mispredicted = fe.observe(&branch);
                if branch.taken || mispredicted {
                    batch.push(LaneEvent::Branch {
                        pc: branch.pc,
                        target: branch.target,
                        taken: branch.taken,
                        mispredicted,
                    });
                }
            }
            if instructions >= lo && before < hi {
                // The first chunk to reach some warm-up in `lo..=hi`.
                drain_batch(lanes, batch);
                mark(instructions, fe.counts, lanes, marks, mark_lanes);
            } else if batch.len() + 2 > LANE_BATCH {
                // A chunk adds at most two events: never outgrow the
                // reserved capacity.
                drain_batch(lanes, batch);
            }
        }
        drain_batch(lanes, batch);
        self.instructions = instructions;
    }

    /// Close the segment just replayed, whose warm-up is `warmup`
    /// instructions, appending every lane's result to `out`. Measurement
    /// starts at the first mark at or past the warm-up. A segment that
    /// never finishes its warm-up measures no instructions and keeps the
    /// previous measurement start, as a counter reset at the boundary
    /// would.
    fn close(&mut self, warmup: u64, out: &mut Vec<RunResult>) {
        let EngineArena {
            lanes,
            marks,
            mark_lanes,
            base_lanes,
            ..
        } = &mut *self.arena;
        let n = lanes.len();
        let mut measured = 0;
        if let Some(k) = marks.iter().position(|m| m.instructions >= warmup) {
            self.base = marks[k].front;
            base_lanes.copy_from_slice(&mark_lanes[k * n..(k + 1) * n]);
            measured = self.instructions - marks[k].instructions;
        }
        let fe = self.fe.counts.since(&self.base);
        out.extend(
            lanes
                .iter()
                .zip(base_lanes.iter())
                .map(|(lane, base)| lane.finish(base, measured, &fe)),
        );
        // Every lane consumed the identical event stream.
        debug_assert!(
            lanes
                .windows(2)
                .all(|w| w[0].state.groups == w[1].state.groups),
            "policy lanes diverged: fetch-group counts {:?}",
            lanes.iter().map(|l| l.state.groups).collect::<Vec<_>>()
        );
    }
}

/// Snapshot the front end's `front` counters and every lane's counters
/// after `instructions` of the segment.
fn mark(
    instructions: u64,
    front: FrontCounters,
    lanes: &[Lane],
    marks: &mut Vec<Mark>,
    mark_lanes: &mut Vec<LaneCounters>,
) {
    marks.push(Mark {
        instructions,
        front,
    });
    mark_lanes.extend(lanes.iter().map(Lane::counters));
}

/// Drain `batch` into every lane, lane by lane, and empty it.
fn drain_batch(lanes: &mut [Lane], batch: &mut Vec<LaneEvent>) {
    for lane in lanes.iter_mut() {
        lane.drain(batch);
    }
    batch.clear();
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
    /// Lane `lane` cannot be built, e.g. its BTB geometry is invalid.
    Lane {
        /// Index of the lane in the run's lane list.
        lane: usize,
        /// Why the lane cannot be built.
        error: BuildError,
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
            RunError::Lane { lane, error } => write!(f, "lane {lane}: {error}"),
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
    fn fold(&mut self, weight: f64, r: &RunResult) {
        self.instructions += r.instructions;
        if r.instructions == 0 || weight == 0.0 {
            return;
        }
        self.branch_mpki += weight * r.branch_mpki();
        self.icache_mpki += weight * r.icache_mpki();
        self.btb_mpki += weight * r.btb_mpki();
    }

    /// A full run's figures: its one segment at weight 1.
    fn full(r: &RunResult) -> LaneMetrics {
        let mut m = LaneMetrics::default();
        m.fold(1.0, r);
        m
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
        // Reject a bad BTB geometry here, before any worker starts.
        for (lane, spec) in self.lanes.iter().enumerate() {
            btb_geometry(spec.config.btb_entries, spec.config.btb_ways)
                .map_err(|error| RunError::Lane { lane, error })?;
        }
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
    /// caps, if a lane's BTB geometry is invalid, if sampling is asked of
    /// a streamed source, if an offline lane meets a non-exact sampled
    /// plan, or if a corpus source does not match `specs` (length or
    /// names). Every one is found before any worker starts.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn run(&self, threads: usize) -> Result<RunGrid, RunError> {
        let grid = self.task_grid(threads)?;
        let (results, scheduler) = schedule::run_grid(
            grid.len(),
            grid.workers,
            |_| EngineArena::default(),
            |arena, t| grid.task(arena, t),
        );
        grid.assemble(results, scheduler)
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
        grid.assemble(results, SchedulerStats::default())
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
    /// # Errors
    ///
    /// Returns [`RunError::Lane`] (indexed within the run) if a lane of
    /// the part cannot be built; [`RunSpec::run`] has already ruled that
    /// out.
    fn task(&self, arena: &mut EngineArena, t: usize) -> Result<Vec<LaneMetrics>, RunError> {
        let ntraces = self.spec.specs.len();
        let (lo, hi) = self.parts[t / ntraces];
        let s = t % ntraces;
        let part = &self.spec.lanes[lo..hi];
        let in_run = |e: RunError| match e {
            RunError::Lane { lane, error } => RunError::Lane {
                lane: lo + lane,
                error,
            },
            other => other,
        };
        match self.spec.source {
            SuiteSource::Streamed => {
                let spec = &self.spec.specs[s];
                let program = spec.build_program();
                let results =
                    replay_walk(part, spec, &program, self.warmup_cap, arena).map_err(in_run)?;
                Ok(results.iter().map(LaneMetrics::full).collect())
            }
            SuiteSource::Corpus(corpus) => {
                let trace = corpus.trace(s);
                let full = [Segment::full(trace.instructions(), self.warmup_cap)];
                let segments = match self.plans.get(s) {
                    Some(plan) if !plan.exact => &plan.segments[..],
                    _ => &full[..],
                };
                let records = |seg: &Segment| trace.cursor_range(seg.rec_lo, seg.rec_hi);
                let results = replay_segments(part, segments, records, arena).map_err(in_run)?;
                Ok(fold_segments(segments, &results, part.len()))
            }
        }
    }

    /// The run's grid from its task results (in task order), or the
    /// first task's error.
    fn assemble(
        self,
        results: Vec<Result<Vec<LaneMetrics>, RunError>>,
        scheduler: SchedulerStats,
    ) -> Result<RunGrid, RunError> {
        let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Parts are contiguous and ascending, so concatenating a trace's
        // parts restores its full lane list.
        let ntraces = self.spec.specs.len();
        let mut cells = Vec::with_capacity(ntraces * self.spec.lanes.len());
        for s in 0..ntraces {
            for p in 0..self.parts.len() {
                cells.extend_from_slice(&results[p * ntraces + s]);
            }
        }
        Ok(RunGrid {
            traces: ntraces,
            lanes: self.spec.lanes.len(),
            cells,
            scheduler,
            sampled: self
                .spec
                .sampling
                .map(|_| SampledInfo::from_plans(&self.plans)),
        })
    }
}

/// The weighted-segment fold: merge each lane's per-segment results
/// (segment-major, as [`replay_segments`] returns them) into its
/// [`LaneMetrics`].
fn fold_segments(segments: &[Segment], results: &[RunResult], nlanes: usize) -> Vec<LaneMetrics> {
    let mut metrics = vec![LaneMetrics::default(); nlanes];
    for (seg, seg_results) in segments.iter().zip(results.chunks_exact(nlanes.max(1))) {
        for (m, r) in metrics.iter_mut().zip(seg_results) {
            m.fold(seg.weight, r);
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

    /// The records of `seg` within `records`.
    fn seg_records<'r>(
        records: &'r [BranchRecord],
        seg: &Segment,
    ) -> std::iter::Copied<std::slice::Iter<'r, BranchRecord>> {
        let len = records.len() as u64;
        let lo = usize::try_from(seg.rec_lo.min(len)).expect("fits");
        let hi = usize::try_from(seg.rec_hi.min(len)).expect("fits");
        records[lo..hi].iter().copied()
    }

    /// The replay loop over `segments` of `records`, with fresh lanes.
    fn replay(
        lanes: &[LaneSpec],
        segments: &[Segment],
        records: &[BranchRecord],
    ) -> Vec<RunResult> {
        replay_segments(
            lanes,
            segments,
            |seg| seg_records(records, seg),
            &mut EngineArena::default(),
        )
        .expect("lanes build")
    }

    /// Zero every counter of the front end and the lanes, keeping their
    /// state warm: the warm-up boundary as a counter reset.
    fn reset_counters(fe: &mut SharedFrontEnd, lanes: &mut [Lane]) {
        fe.counts = FrontCounters::default();
        for lane in lanes {
            with_pair!(&mut lane.pair, (icache, btb) => {
                icache.reset_stats();
                btb.reset_stats();
            });
            lane.state.wrong_path_misses = 0;
            lane.state.wrong_path_accesses = 0;
        }
    }

    /// The replay loop's schedule without the batch, and with counters
    /// reset at each warm-up boundary instead of snapshotted: every
    /// chunk's events go to every lane at once, through the same lane
    /// kernels. Results equal to this show the batch never reorders or
    /// drops an event across a warm-up boundary or a segment end, and
    /// that measuring from snapshots equals resetting the counters.
    fn unbatched(
        lanes: &[LaneSpec],
        segments: &[Segment],
        records: &[BranchRecord],
    ) -> Vec<RunResult> {
        let mut arena = EngineArena::default();
        arena.prepare(lanes, None).expect("lanes build");
        let lanes = &mut arena.lanes;
        let block_bytes = lanes[0].state.block_bytes;
        let mut fe = SharedFrontEnd::default();
        let mut out = Vec::new();
        for seg in segments {
            let mut warmed = seg.warmup_instructions == 0;
            if warmed {
                reset_counters(&mut fe, lanes);
            }
            let (mut instructions, mut measured) = (0u64, 0u64);
            for chunk in FetchStream::new(seg_records(records, seg), block_bytes) {
                instructions += u64::from(chunk.n_instr);
                if warmed {
                    measured += u64::from(chunk.n_instr);
                }
                let mut events = Vec::new();
                if chunk.starts_group {
                    events.push(LaneEvent::Group {
                        block_addr: chunk.block_addr,
                        first_pc: chunk.first_pc,
                    });
                }
                if let Some(b) = chunk.branch {
                    let mispredicted = fe.observe(&b);
                    events.push(LaneEvent::Branch {
                        pc: b.pc,
                        target: b.target,
                        taken: b.taken,
                        mispredicted,
                    });
                }
                for lane in lanes.iter_mut() {
                    lane.drain(&events);
                }
                if !warmed && instructions >= seg.warmup_instructions {
                    warmed = true;
                    reset_counters(&mut fe, lanes);
                }
            }
            let zero = LaneCounters::default();
            out.extend(
                lanes
                    .iter()
                    .map(|lane| lane.finish(&zero, measured, &fe.counts)),
            );
        }
        out
    }

    /// Instructions after each chunk of `records` (one segment, block
    /// size `block_bytes`), and the index of the first chunk after which
    /// the replay loop drains a full batch.
    fn first_batch_edge(records: &[BranchRecord], block_bytes: u64) -> (Vec<u64>, usize) {
        let mut fe = SharedFrontEnd::default();
        let (mut instructions, mut pending) = (0u64, 0usize);
        let mut after = Vec::new();
        let mut edge = None;
        for chunk in FetchStream::new(records.iter().copied(), block_bytes) {
            instructions += u64::from(chunk.n_instr);
            after.push(instructions);
            pending += usize::from(chunk.starts_group);
            if let Some(b) = chunk.branch {
                let mispredicted = fe.observe(&b);
                pending += usize::from(b.taken || mispredicted);
            }
            if pending + 2 > LANE_BATCH && edge.is_none() {
                edge = Some(after.len() - 1);
            }
        }
        (after, edge.expect("the trace fills a batch"))
    }

    /// Lanes whose kernels touch every per-event path: wrong-path
    /// injection with GHRP history recovery, prefetch, a plain static
    /// lane, and a dynamically dispatched hybrid.
    fn edge_lanes(warmup_cap: u64) -> Vec<LaneSpec> {
        let mut base = SimConfig::paper_default();
        base.warmup_cap = warmup_cap;
        let mut wrong_path = base.with_policy(PolicyKind::Ghrp);
        wrong_path.wrong_path = Some(WrongPathConfig::default());
        let mut prefetch = base.with_policy(PolicyKind::Srrip);
        prefetch.prefetch_degree = 2;
        let hybrid = base.with_policy(PolicyKind::duel(&[
            crate::policy::BasePolicy::Sdbp,
            crate::policy::BasePolicy::Lru,
        ]));
        [
            wrong_path,
            prefetch,
            base.with_policy(PolicyKind::Lru),
            hybrid,
        ]
        .into_iter()
        .map(|config| LaneSpec {
            config,
            measure_btb: true,
        })
        .collect()
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
        let results = replay(&lanes, &full, &trace.records);
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
            assert!(reused.is_ok(), "seed {seed}");
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

    #[test]
    fn warmup_boundary_at_a_batch_edge_matches_standalone_runs() {
        // Warm-up boundaries on, just before and just after the first
        // full batch: the loop must drain the batch before resetting the
        // counters, wherever the boundary falls.
        let trace = spec(61, 40_000).generate();
        let (after, edge) = first_batch_edge(&trace.records, 64);
        for (chunk, &warmup) in after.iter().enumerate().take(edge + 4).skip(edge - 3) {
            assert!(warmup < trace.instructions / 2, "the cap must bind");
            let lanes = edge_lanes(warmup);
            let full = [Segment::full(trace.instructions, warmup)];
            let results = replay(&lanes, &full, &trace.records);
            for (r, lane) in results.iter().zip(&lanes) {
                let alone = Simulator::new(lane.config).run(&trace.records, trace.instructions);
                assert_eq!(
                    *r, alone,
                    "lane {} with warm-up ending at chunk {chunk} (batch edge {edge})",
                    lane.config.policy
                );
            }
        }
    }

    #[test]
    fn segments_shorter_than_a_batch_match_the_unbatched_schedule() {
        let trace = spec(67, 30_000).generate();
        let lanes = edge_lanes(SimConfig::paper_default().warmup_cap);
        // Tiny segments (a few events each), with and without warm-up,
        // one that never leaves its warm-up, and one past the trace end.
        let segments: Vec<Segment> = [
            (0, 40, 0),
            (40, 45, 0),
            (100, 110, 30),
            (500, 503, 1_000_000),
            (900, 1_200, 200),
            (5_000, u64::MAX, 0),
        ]
        .iter()
        .map(|&(rec_lo, rec_hi, warmup_instructions)| Segment {
            rec_lo,
            rec_hi,
            warmup_instructions,
            weight: 1.0,
        })
        .collect();
        let batched = replay(&lanes, &segments, &trace.records);
        assert_eq!(batched, unbatched(&lanes, &segments, &trace.records));
        assert_eq!(batched[3 * lanes.len()].instructions, 0, "never warmed");
    }

    #[test]
    fn an_empty_trace_replays_through_every_segment() {
        let lanes = edge_lanes(SimConfig::paper_default().warmup_cap);
        let segments = [Segment::full(0, 0), Segment::full(0, 10)];
        let results = replay(&lanes, &segments, &[]);
        assert_eq!(results, unbatched(&lanes, &segments, &[]));
        assert!(results
            .iter()
            .all(|r| r.instructions == 0 && r.icache.accesses == 0));
    }

    #[test]
    fn a_sampled_plan_matches_the_unbatched_schedule() {
        use crate::sampled::build_plan;
        use fe_trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
        let trace = spec(71, 300_000).generate();
        let mut b = CorpusBuilder::new();
        b.push_synthetic(&trace).expect("encodes");
        let corpus =
            SuiteCorpus::from_corpus(&Corpus::from_bytes(b.finish()).expect("fresh corpus parses"));
        let lanes = edge_lanes(SimConfig::paper_default().warmup_cap);
        let plan = build_plan(
            corpus.trace(0),
            &lanes[0].config,
            &SampleParams {
                windows: 16,
                k: 3,
                warmup: 2048,
            },
        );
        assert!(!plan.exact && plan.segments.len() > 1, "a sampled plan");
        let batched = replay(&lanes, &plan.segments, &trace.records);
        assert_eq!(batched, unbatched(&lanes, &plan.segments, &trace.records));
    }

    #[test]
    fn single_candidate_duel_lanes_match_static_lanes_in_one_pass() {
        // `duel(p)` drains through `AnyPolicy` dispatch, `p` through its
        // monomorphic kernel: one pass compares the two paths directly.
        use crate::policy::BasePolicy;
        let trace = spec(73, 60_000).generate();
        let mut base = SimConfig::paper_default();
        base.wrong_path = Some(WrongPathConfig::default());
        let statics = [
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
        let policies: Vec<PolicyKind> = statics
            .iter()
            .flat_map(|&p| [p.as_kind(), PolicyKind::duel(&[p])])
            .collect();
        let lanes = LaneSpec::grid(&base, std::slice::from_ref(&base.icache), &policies, true);
        let mut arena = EngineArena::default();
        let full = [Segment::full(trace.instructions, base.warmup_cap)];
        let results = replay_segments(
            &lanes,
            &full,
            |seg| seg_records(&trace.records, seg),
            &mut arena,
        )
        .expect("lanes build");
        for (pair, lanes) in results.chunks_exact(2).zip(arena.lanes.chunks_exact(2)) {
            assert!(
                !matches!(lanes[0].pair, LanePair::Dyn(..)),
                "{}",
                pair[0].policy
            );
            assert!(
                matches!(lanes[1].pair, LanePair::Dyn(..)),
                "{}",
                pair[1].policy
            );
            let mut hybrid = pair[1];
            hybrid.policy = pair[0].policy;
            assert_eq!(
                hybrid, pair[0],
                "duel({}) vs {}",
                pair[0].policy, pair[0].policy
            );
        }
    }

    #[test]
    fn a_bad_btb_geometry_is_an_error_before_any_worker_starts() {
        let specs = [spec(79, 20_000)];
        let base = SimConfig::paper_default();
        let mut lanes = LaneSpec::grid(
            &base,
            std::slice::from_ref(&base.icache),
            &[PolicyKind::Lru, PolicyKind::Ghrp],
            true,
        );
        lanes[1].config.btb_entries = 1000;
        let err = run_error(RunSpec {
            specs: &specs,
            source: SuiteSource::Streamed,
            lanes: &lanes,
            sampling: None,
            part_width: None,
        });
        assert_eq!(
            err,
            RunError::Lane {
                lane: 1,
                error: BuildError::BtbGeometry {
                    entries: 1000,
                    ways: base.btb_ways
                }
            }
        );
        assert!(
            err.to_string().starts_with("lane 1: invalid BTB geometry"),
            "{err}"
        );
        // The engine itself reports the lane too, within its lane list.
        let full = [Segment::full(20_000, base.warmup_cap)];
        let direct = replay_segments(
            &lanes,
            &full,
            |_| std::iter::empty(),
            &mut EngineArena::default(),
        );
        assert_eq!(direct, Err(err));
    }

    /// Instructions walked after each record of `spec`'s walk.
    fn walk_ends(spec: &WorkloadSpec) -> Vec<u64> {
        let program = spec.build_program();
        let mut walk = spec.walk(&program);
        let mut ends = Vec::new();
        while walk.next().is_some() {
            ends.push(walk.instructions());
        }
        ends
    }

    /// Budgets at the edges of the one-walk warm-up window: 0, 1, one
    /// below the first block, and budgets whose last block overshoots by
    /// 1 and by the largest possible amount (`largest block - 1`).
    fn edge_budgets(seed: u64) -> Vec<u64> {
        let long = spec(seed, 20_000);
        let ends = walk_ends(&long);
        let largest = u64::from(long.build_program().largest_block());
        let block = |k: usize| ends[k] - ends[k - 1];
        let by_one = (1..ends.len())
            .find(|&k| ends[k] > 3_000 && block(k) >= 2)
            .expect("a multi-instruction block");
        let by_max = (1..ends.len())
            .find(|&k| ends[k] > 2_000 && block(k) == largest)
            .expect("the largest block executes");
        assert!(ends[0] >= 2, "the first block spans several instructions");
        vec![0, 1, ends[0] - 1, ends[by_one] - 1, ends[by_max - 1] + 1]
    }

    /// Warm-up caps around a walk of `budget` that executes `total`
    /// instructions: 0, below and at half the budget (the boundary is
    /// known up front), inside the window, at and above half the total,
    /// and the paper default.
    fn edge_caps(budget: u64, total: u64) -> Vec<u64> {
        let mut caps = vec![
            0,
            budget / 4,
            budget / 2,
            budget / 2 + 1,
            total / 2,
            total / 2 + 1,
            SimConfig::paper_default().warmup_cap,
        ];
        caps.sort_unstable();
        caps.dedup();
        caps
    }

    /// [`edge_lanes`] plus an offline lane, whose precompute walks the
    /// trace a second time.
    fn walk_lanes(warmup_cap: u64) -> Vec<LaneSpec> {
        let mut lanes = edge_lanes(warmup_cap);
        let mut opt = lanes[2];
        opt.config.policy = PolicyKind::Opt;
        lanes.push(opt);
        lanes
    }

    #[test]
    fn one_walk_matches_the_counting_walk_and_standalone_runs() {
        for seed in [3, 5] {
            for budget in edge_budgets(seed) {
                let s = spec(seed, budget);
                let trace = s.generate();
                let program = s.build_program();
                let largest = u64::from(program.largest_block());
                assert!(
                    budget == 0 || (budget..budget + largest).contains(&trace.instructions),
                    "budget {budget}: {} instructions",
                    trace.instructions
                );
                for cap in edge_caps(budget, trace.instructions) {
                    let lanes = walk_lanes(cap);
                    let arena = &mut EngineArena::default();
                    let walked =
                        replay_walk(&lanes, &s, &program, cap, arena).expect("lanes build");
                    let streamed = s.streamed();
                    let full = [Segment::full(streamed.instructions(), cap)];
                    let counted = replay_segments(&lanes, &full, |_| streamed.replay(), arena)
                        .expect("lanes build");
                    assert_eq!(walked, counted, "seed {seed}, budget {budget}, cap {cap}");
                    for (r, lane) in walked.iter().zip(&lanes) {
                        let alone =
                            Simulator::new(lane.config).run(&trace.records, trace.instructions);
                        assert_eq!(
                            *r, alone,
                            "seed {seed}, budget {budget}, cap {cap}, lane {}",
                            lane.config.policy
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_runs_match_corpus_runs_at_every_lane_split() {
        use fe_trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
        let specs: Vec<WorkloadSpec> = edge_budgets(7)
            .into_iter()
            .map(|budget| spec(7, budget))
            .collect();
        let mut b = CorpusBuilder::new();
        for s in &specs {
            b.push_synthetic(&s.generate()).expect("encodes");
        }
        let corpus =
            SuiteCorpus::from_corpus(&Corpus::from_bytes(b.finish()).expect("fresh corpus parses"));
        let last = specs.last().expect("five budgets");
        let window = last.instructions / 2 + 1;
        for cap in [last.instructions / 4, window, u64::MAX] {
            let lanes = edge_lanes(cap);
            let run = |source, threads, part_width| {
                RunSpec {
                    specs: &specs,
                    source,
                    lanes: &lanes,
                    sampling: None,
                    part_width,
                }
                .run(threads)
                .expect("valid spec")
                .cells
            };
            let from_corpus = run(SuiteSource::Corpus(&corpus), 1, None);
            for (threads, part_width) in [(1, None), (1, Some(1)), (2, Some(3)), (2, None)] {
                assert_eq!(
                    run(SuiteSource::Streamed, threads, part_width),
                    from_corpus,
                    "cap {cap}, {threads} threads, parts of {part_width:?}"
                );
            }
        }
    }

    #[test]
    fn a_streamed_task_walks_its_trace_once() {
        use fe_trace::synth::walks_started;
        let specs = [spec(83, 5_000), spec(89, 5_000)];
        let base = SimConfig::paper_default();
        let policies = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Opt];
        let lanes = LaneSpec::grid(&base, std::slice::from_ref(&base.icache), &policies, true);
        for part_width in [None, Some(1), Some(2)] {
            let spec = RunSpec {
                specs: &specs,
                source: SuiteSource::Streamed,
                lanes: &lanes,
                sampling: None,
                part_width,
            };
            let grid = spec.task_grid(1).expect("valid spec");
            let mut arena = EngineArena::default();
            for t in 0..grid.len() {
                let (lo, hi) = grid.parts[t / specs.len()];
                // An offline lane's precompute is one more walk.
                let walks = 1 + u64::from(has_offline(&lanes[lo..hi]));
                let before = walks_started();
                grid.task(&mut arena, t).expect("lanes build");
                assert_eq!(
                    walks_started() - before,
                    walks,
                    "task {t}, parts of {part_width:?}"
                );
            }
        }
    }
}
