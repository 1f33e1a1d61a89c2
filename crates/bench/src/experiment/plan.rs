//! The simulation-dedup planner.
//!
//! The `report` driver collects every experiment's [`SimRequest`]s up
//! front, canonicalizes them, and runs each unique simulation exactly
//! once. Before this layer, `--all` re-simulated the default suite about
//! ten times — once per figure that consumes it.
//!
//! Two levels of coalescing pick the unique runs ("runners"):
//!
//! 1. **Exact**: requests with equal [`SimRequest::canonical_key`]s share
//!    one run outright.
//! 2. **Prefix subsumption**: suite-shaped requests that differ only in
//!    suite *size* (equal [`SimRequest::family_key`]s) are served from
//!    the family's largest run by row slicing, which is bit-identical
//!    because workload `i` depends only on `seed + i` and every trace row
//!    is an independent engine pass (`SuiteResult::prefix`).
//!
//! Execution then fuses the runners: every full-replay runner on one
//! workload suite, block size and warm-up cap becomes a set of lanes of
//! **one** engine pass ([`RunSpec`] lanes carry their own
//! configuration), identical lanes simulate once, and each runner's
//! result is sliced back out of the pass's grid — bit-identical to
//! running it alone, because lanes never read each other's state. Each
//! suite's corpus loads once per plan; phase-sampled runners keep their
//! own pass over that corpus.

#![forbid(unsafe_code)]

use fe_cache::ConfigError;
use fe_frontend::engine::{LaneSpec, RunError, RunGrid, RunSpec};
use fe_frontend::experiment::{SuiteResult, SuiteSource};
use fe_frontend::sweep::{sweep_icaches, SweepResult};
use fe_trace::corpus::{Corpus, CorpusBuilder, CorpusCache, EnsureStats, SuiteCorpus};
use fe_trace::synth::WorkloadSpec;
use std::collections::BTreeMap;

use super::request::{SimRequest, SimShape, SuiteSpec};

/// Result of one executed simulation.
#[derive(Debug, Clone)]
pub enum SimOutcome {
    /// A suite run.
    Suite(SuiteResult),
    /// A geometry sweep.
    Sweep(SweepResult),
}

/// Why a plan cannot run. Every one is found before any simulation
/// starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A sweep request names a geometry that is not a valid I-cache.
    SweepGeometry(ConfigError),
    /// An engine pass rejected its spec (see [`RunSpec::run`]).
    Run(RunError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::SweepGeometry(e) => write!(f, "invalid sweep geometry: {e}"),
            PlanError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PlanError {}

/// Deduplicated simulation results, indexed by request identity.
#[derive(Debug, Default)]
pub struct SimStore {
    /// Executed outcomes, one per runner, in execution order.
    entries: Vec<SimOutcome>,
    /// canonical key → (entry index, rows to keep when served as a
    /// prefix of a larger run; `None` = the whole result).
    lookup: BTreeMap<String, (usize, Option<usize>)>,
    /// Unique simulations (runners) after dedup — the dedup denominator.
    pub executions: usize,
    /// Requests collected, duplicates included (the dedup numerator).
    pub requests: usize,
    /// Engine passes ([`RunSpec::run`] calls) that served the runners:
    /// one per fused suite group plus one per sampled runner. An
    /// injected runner ([`SimStore::plan_and_run_with`]) counts one pass
    /// per runner.
    pub passes: usize,
    /// Suite corpora materialized by this plan — read from the corpus
    /// cache, or encoded in memory for sampled replay — at most one per
    /// distinct suite.
    pub corpus_loads: usize,
    /// Workloads generated + encoded into the corpus cache by this plan
    /// (cached path only; zero for the streamed path).
    pub workloads_generated: usize,
    /// Workloads replayed from existing corpus cache files.
    pub workloads_reused: usize,
}

/// The unique runs of a request set and where each request reads its
/// result.
struct Plan {
    /// Unique runs, in execution order.
    runners: Vec<SimRequest>,
    /// canonical key → (runner index, prefix rows).
    lookup: BTreeMap<String, (usize, Option<usize>)>,
    /// Requests collected, duplicates included.
    requests: usize,
}

impl Plan {
    fn new(requests: &[SimRequest]) -> Plan {
        // Exact dedup: first occurrence of each canonical key wins.
        let mut unique: BTreeMap<String, SimRequest> = BTreeMap::new();
        for req in requests {
            unique
                .entry(req.canonical_key())
                .or_insert_with(|| req.clone());
        }

        // Prefix subsumption: within a family of suite-shaped requests,
        // the largest suite serves everyone. Sampled requests opt out:
        // row slicing would still be bit-identical (plans are per-trace),
        // but the aggregate `SampledInfo` would be the larger run's, so a
        // prefix would report the wrong replayed-instruction totals.
        let mut family_best: BTreeMap<String, SimRequest> = BTreeMap::new();
        for req in unique.values() {
            if req.shape != SimShape::Suite || req.effective_sampled().is_some() {
                continue;
            }
            family_best
                .entry(req.family_key())
                .and_modify(|best| {
                    if req.suite.traces > best.suite.traces {
                        *best = req.clone();
                    }
                })
                .or_insert_with(|| req.clone());
        }

        // One runner per distinct runner key (deterministic BTreeMap
        // order); every member key points at its runner.
        let mut plan = Plan {
            runners: Vec::new(),
            lookup: BTreeMap::new(),
            requests: requests.len(),
        };
        let mut runner_of: BTreeMap<String, usize> = BTreeMap::new();
        for (key, req) in &unique {
            let runner_req = match &req.shape {
                SimShape::Suite if req.effective_sampled().is_none() => {
                    &family_best[&req.family_key()]
                }
                _ => req,
            };
            let idx = *runner_of
                .entry(runner_req.canonical_key())
                .or_insert_with(|| {
                    plan.runners.push(runner_req.clone());
                    plan.runners.len() - 1
                });
            let prefix = (req.suite.traces < runner_req.suite.traces).then_some(req.suite.traces);
            plan.lookup.insert(key.clone(), (idx, prefix));
        }
        plan
    }

    /// The store serving this plan's requests from `executed`, one
    /// outcome per runner.
    fn into_store(self, executed: Executed) -> SimStore {
        debug_assert_eq!(executed.outcomes.len(), self.runners.len());
        SimStore {
            entries: executed.outcomes,
            lookup: self.lookup,
            executions: self.runners.len(),
            requests: self.requests,
            passes: executed.passes,
            corpus_loads: executed.corpus_loads,
            workloads_generated: 0,
            workloads_reused: 0,
        }
    }
}

/// What executing a plan's runners produced.
struct Executed {
    /// One outcome per runner, in runner order.
    outcomes: Vec<SimOutcome>,
    /// Engine passes run.
    passes: usize,
    /// Suite corpora materialized.
    corpus_loads: usize,
}

impl SimStore {
    /// A store with no simulations (for experiments with no requests).
    pub fn empty() -> SimStore {
        SimStore::default()
    }

    /// Plan `requests` and run the unique simulations, one fused engine
    /// pass per suite (see the module docs), with `threads` worker
    /// threads per pass. Full replay streams every workload out of its
    /// walker.
    ///
    /// # Panics
    ///
    /// Panics if a request names an invalid sweep geometry or BTB
    /// geometry, if it samples an offline policy, or if a worker panics.
    pub fn plan_and_run(requests: &[SimRequest], threads: usize) -> SimStore {
        let plan = Plan::new(requests);
        let executed =
            run_fused(&plan.runners, threads, |_| None).unwrap_or_else(|e| panic!("{e}"));
        plan.into_store(executed)
    }

    /// [`SimStore::plan_and_run`] replaying every simulation from the
    /// on-disk corpus `cache` instead of re-walking the synthetic
    /// generators: each distinct workload is generated and encoded at
    /// most once (and not at all when a prior run already cached it),
    /// each suite is loaded once, and every scheduler worker replays it
    /// from one shared buffer. Results are bit-identical to the streamed
    /// path. A cache that cannot be written falls back to streamed
    /// replay for that suite, with a note on stderr.
    ///
    /// # Panics
    ///
    /// As [`SimStore::plan_and_run`].
    pub fn plan_and_run_cached(
        requests: &[SimRequest],
        threads: usize,
        cache: &CorpusCache,
    ) -> SimStore {
        Self::try_plan_and_run_cached(requests, threads, cache).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimStore::plan_and_run_cached`] without the panic on a bad
    /// request.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if a request names an invalid sweep or BTB
    /// geometry or samples an offline policy, before any workload is
    /// generated or simulated.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn try_plan_and_run_cached(
        requests: &[SimRequest],
        threads: usize,
        cache: &CorpusCache,
    ) -> Result<SimStore, PlanError> {
        let plan = Plan::new(requests);
        let mut stats = EnsureStats::default();
        let executed = run_fused(&plan.runners, threads, |specs| {
            match cache.ensure_suite(specs) {
                Ok((corpus, ensured)) => {
                    stats.absorb(ensured);
                    Some(corpus)
                }
                Err(e) => {
                    eprintln!(
                        "report: corpus cache {} unavailable ({e}); streaming this suite",
                        cache.dir().display()
                    );
                    None
                }
            }
        })?;
        let mut store = plan.into_store(executed);
        store.workloads_generated = stats.generated;
        store.workloads_reused = stats.reused;
        Ok(store)
    }

    /// [`SimStore::plan_and_run`] with an injected runner, called once
    /// per unique run, so tests can count and stub executions.
    pub fn plan_and_run_with(
        requests: &[SimRequest],
        runner: impl FnMut(&SimRequest) -> SimOutcome,
    ) -> SimStore {
        let plan = Plan::new(requests);
        let outcomes: Vec<SimOutcome> = plan.runners.iter().map(runner).collect();
        let passes = outcomes.len();
        plan.into_store(Executed {
            outcomes,
            passes,
            corpus_loads: 0,
        })
    }

    /// The suite result for `req`.
    ///
    /// # Panics
    ///
    /// Panics if `req` was never planned, or was planned as a sweep —
    /// both are experiment bugs (requirements and render out of sync).
    pub fn suite(&self, req: &SimRequest) -> SuiteResult {
        let (idx, prefix) = self.resolve(req);
        match (&self.entries[idx], prefix) {
            (SimOutcome::Suite(r), None) => r.clone(),
            (SimOutcome::Suite(r), Some(n)) => r.prefix(n),
            (SimOutcome::Sweep(_), _) => {
                panic!("request planned as a sweep was read as a suite")
            }
        }
    }

    /// The sweep result for `req`.
    ///
    /// # Panics
    ///
    /// Panics if `req` was never planned, or was planned as a suite.
    pub fn sweep(&self, req: &SimRequest) -> SweepResult {
        let (idx, _) = self.resolve(req);
        match &self.entries[idx] {
            SimOutcome::Sweep(r) => r.clone(),
            SimOutcome::Suite(_) => panic!("request planned as a suite was read as a sweep"),
        }
    }

    fn resolve(&self, req: &SimRequest) -> (usize, Option<usize>) {
        let key = req.canonical_key();
        *self
            .lookup
            .get(&key)
            .unwrap_or_else(|| panic!("simulation was not declared in requirements(): {key}"))
    }
}

/// Run one request by itself, on its own [`RunSpec`]: full replay
/// streams from the synthetic walkers; a sampled request encodes its
/// suite into an in-memory corpus first (plans need signature sidecars).
/// This is what every runner of a fused plan must equal bit for bit.
///
/// # Panics
///
/// Panics if the request names an invalid sweep or BTB geometry, if it
/// samples an offline policy, or if a worker panics.
pub fn run_alone(req: &SimRequest, threads: usize) -> SimOutcome {
    let specs = req.suite.specs();
    let lanes = request_lanes(req).unwrap_or_else(|e| panic!("{e}"));
    let in_memory = req.effective_sampled().map(|_| encode_in_memory(&specs));
    run_request(req, &lanes, &specs, threads, in_memory.as_ref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Run one request, whose lanes are `lanes`, on its own pass, replaying
/// from `corpus` when given.
fn run_request(
    req: &SimRequest,
    lanes: &[LaneSpec],
    specs: &[WorkloadSpec],
    threads: usize,
    corpus: Option<&SuiteCorpus>,
) -> Result<SimOutcome, PlanError> {
    let spec = RunSpec {
        specs,
        source: corpus.map_or(SuiteSource::Streamed, SuiteSource::Corpus),
        lanes,
        sampling: req.effective_sampled(),
        part_width: None,
    };
    let grid = spec.run(threads).map_err(PlanError::Run)?;
    Ok(reshape(req, specs, grid))
}

/// The lanes of one request: its policies at its I-cache geometry, or at
/// every swept geometry. Figure 7 sweeps consume I-cache means only, so
/// their lanes skip the BTB.
fn request_lanes(req: &SimRequest) -> Result<Vec<LaneSpec>, PlanError> {
    let geometries = match &req.shape {
        SimShape::Suite => vec![req.config.icache],
        SimShape::Sweep(geoms) => {
            sweep_icaches(&req.config, geoms).map_err(PlanError::SweepGeometry)?
        }
    };
    Ok(LaneSpec::grid(
        &req.config,
        &geometries,
        &req.policies,
        req.shape == SimShape::Suite,
    ))
}

/// `req`'s result from the grid of exactly its lanes.
fn reshape(req: &SimRequest, specs: &[WorkloadSpec], grid: RunGrid) -> SimOutcome {
    match &req.shape {
        SimShape::Suite => SimOutcome::Suite(SuiteResult::from_grid(specs, &req.policies, grid)),
        SimShape::Sweep(geoms) => {
            SimOutcome::Sweep(SweepResult::from_grid(geoms, &req.policies, grid))
        }
    }
}

/// One fused engine pass: the deduplicated lanes of every full-replay
/// runner on one suite at one block size and warm-up cap.
struct FusedPass {
    /// (I-cache block bytes, warm-up cap) every lane shares.
    key: (u64, u64),
    /// The pass's lanes; a lane several runners need appears once, and
    /// measures its BTB if any of them does.
    lanes: Vec<LaneSpec>,
    /// Each member runner and the columns of its lanes, in its own lane
    /// order.
    members: Vec<(usize, Vec<usize>)>,
}

impl FusedPass {
    fn add(&mut self, runner: usize, lanes: &[LaneSpec]) {
        let mut columns = Vec::new();
        for &lane in lanes {
            let column = if let Some(c) = self.lanes.iter().position(|l| l.config == lane.config) {
                self.lanes[c].measure_btb |= lane.measure_btb;
                c
            } else {
                self.lanes.push(lane);
                self.lanes.len() - 1
            };
            columns.push(column);
        }
        self.members.push((runner, columns));
    }
}

/// Widest lane part one task of a fused pass replays. A part's lanes
/// all live in one worker's caches at once, while every extra part
/// repeats the shared decode and predictor pass. Measured on a 2-vCPU
/// host over the smoke-scale `report run --all` plan, whose fused pass
/// is 66 lanes over 8 × 200k-instruction traces (12 alternating runs
/// per setting): the plan took a median 909 ms as one 66-lane part,
/// 813 ms with 33-lane parts and 700–745 ms with parts of 8 to 22
/// lanes. Capping at the widest member request instead (a 40-lane
/// sweep, so 33-lane parts) also raised `report_smoke`'s peak RSS from
/// 29.4 to 33.6 MiB, against 25.7 MiB at 16. Only the planner's passes
/// set a part width; every other run keeps the task grid
/// [`RunSpec::run`] picks from its workers.
const FUSED_PART_LANES: usize = 16;

/// Execute `runners` suite by suite: load each suite's corpus once
/// (`load` returns `None` to stream it), run one fused pass per (block
/// size, warm-up cap) group of its full-replay runners and slice each
/// runner's result out of it, then run its sampled runners over the
/// same corpus.
///
/// A fused pass's [`fe_frontend::schedule::SchedulerStats`] go to its
/// first member only; the others carry the default, so summing the
/// stats of every runner counts each drain once.
///
/// # Errors
///
/// Returns a [`PlanError`] if a runner names an invalid sweep geometry
/// (found before any suite loads) or an engine pass rejects its spec.
///
/// # Panics
///
/// Panics if a worker panics.
fn run_fused(
    runners: &[SimRequest],
    threads: usize,
    mut load: impl FnMut(&[WorkloadSpec]) -> Option<SuiteCorpus>,
) -> Result<Executed, PlanError> {
    let lanes: Vec<Vec<LaneSpec>> = runners
        .iter()
        .map(request_lanes)
        .collect::<Result<_, _>>()?;
    let mut outcomes: Vec<Option<SimOutcome>> = vec![None; runners.len()];
    let mut passes = 0;
    let mut corpus_loads = 0;
    let mut suites: Vec<&SuiteSpec> = Vec::new();
    for req in runners {
        if !suites.contains(&&req.suite) {
            suites.push(&req.suite);
        }
    }
    for suite in suites {
        let members: Vec<usize> = (0..runners.len())
            .filter(|&i| runners[i].suite == *suite)
            .collect();
        let specs = suite.specs();
        let mut corpus = load(&specs);
        corpus_loads += usize::from(corpus.is_some());

        let mut groups: Vec<FusedPass> = Vec::new();
        for &i in &members {
            let req = &runners[i];
            if req.effective_sampled().is_some() {
                continue;
            }
            let key = (req.config.icache.block_bytes(), req.config.warmup_cap);
            let g = groups.iter().position(|g| g.key == key).unwrap_or_else(|| {
                groups.push(FusedPass {
                    key,
                    lanes: Vec::new(),
                    members: Vec::new(),
                });
                groups.len() - 1
            });
            groups[g].add(i, &lanes[i]);
        }
        for group in &groups {
            let spec = RunSpec {
                specs: &specs,
                source: corpus
                    .as_ref()
                    .map_or(SuiteSource::Streamed, SuiteSource::Corpus),
                lanes: &group.lanes,
                sampling: None,
                part_width: Some(FUSED_PART_LANES),
            };
            let grid = spec.run(threads).map_err(PlanError::Run)?;
            passes += 1;
            for (k, (i, columns)) in group.members.iter().enumerate() {
                let req = &runners[*i];
                let mut own = grid.select(columns, req.shape == SimShape::Suite);
                if k == 0 {
                    own.scheduler = grid.scheduler.clone();
                }
                outcomes[*i] = Some(reshape(req, &specs, own));
            }
        }

        // Sampled runners keep their own pass; plans need signature
        // sidecars, so a streamed suite is encoded in memory once.
        for &i in &members {
            let req = &runners[i];
            if req.effective_sampled().is_none() {
                continue;
            }
            let corpus = corpus.get_or_insert_with(|| {
                corpus_loads += 1;
                encode_in_memory(&specs)
            });
            outcomes[i] = Some(run_request(req, &lanes[i], &specs, threads, Some(corpus))?);
            passes += 1;
        }
    }
    Ok(Executed {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every runner belongs to one suite"))
            .collect(),
        passes,
        corpus_loads,
    })
}

/// Encode `specs` into a throwaway in-memory corpus (signature sidecars
/// included), for sampled execution on the streamed path.
///
/// # Panics
///
/// Panics if a synthetic workload fails to encode (unreachable: the
/// in-memory writer is infallible for generator output).
fn encode_in_memory(specs: &[WorkloadSpec]) -> SuiteCorpus {
    let mut b = CorpusBuilder::new();
    for s in specs {
        b.push_synthetic(&s.generate())
            .expect("synthetic workloads encode");
    }
    let corpus = Corpus::from_bytes(b.finish()).expect("fresh corpus parses");
    SuiteCorpus::from_corpus(&corpus)
}

#[cfg(test)]
mod tests {
    use super::super::context::RunContext;
    use super::*;
    use fe_frontend::policy::PolicyKind;
    use fe_frontend::schedule::SchedulerStats;

    fn ctx(traces: usize) -> RunContext {
        RunContext {
            traces: Some(traces),
            instr: Some(10_000),
            ..RunContext::default()
        }
    }

    fn stub_suite(req: &SimRequest) -> SimOutcome {
        // One fake row per workload, tagged with the suite size so
        // prefix slicing is observable.
        let rows = (0..req.suite.traces)
            .map(|i| fe_frontend::experiment::TraceRow {
                name: format!("w{i}"),
                category: fe_trace::synth::WorkloadCategory::ShortServer,
                instructions: 1,
                icache_mpki: vec![0.0; req.policies.len()],
                btb_mpki: vec![0.0; req.policies.len()],
                branch_mpki: 0.0,
            })
            .collect();
        SimOutcome::Suite(SuiteResult {
            policies: req.policies.clone(),
            rows,
            scheduler: SchedulerStats::default(),
            sampled: None,
        })
    }

    #[test]
    fn identical_requests_coalesce_to_one_execution() {
        let c = ctx(3);
        let a = SimRequest::suite_run(&c, c.sim(), PolicyKind::PAPER_SET);
        let b = SimRequest::suite_run(&c, c.sim(), PolicyKind::PAPER_SET);
        let store = SimStore::plan_and_run_with(&[a.clone(), b], stub_suite);
        assert_eq!(store.requests, 2);
        assert_eq!(store.executions, 1);
        assert_eq!(store.suite(&a).rows.len(), 3);
    }

    #[test]
    fn distinct_seeds_and_configs_do_not_coalesce() {
        let c = ctx(2);
        let a = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]);
        let mut b = a.clone();
        b.suite.seed = 99;
        let mut d = a.clone();
        d.config.prefetch_degree = 1;
        let store = SimStore::plan_and_run_with(&[a, b, d], stub_suite);
        assert_eq!(store.executions, 3);
    }

    #[test]
    fn smaller_suite_is_served_by_slicing_the_larger_run() {
        let c = ctx(8);
        let large = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]);
        let small = SimRequest::suite_run_capped(&c, c.sim(), &[PolicyKind::Lru], 2);
        let store = SimStore::plan_and_run_with(&[large.clone(), small.clone()], stub_suite);
        assert_eq!(store.executions, 1, "prefix request must not re-run");
        assert_eq!(store.suite(&large).rows.len(), 8);
        assert_eq!(store.suite(&small).rows.len(), 2);
        assert_eq!(store.suite(&small).rows[1].name, "w1");
    }

    #[test]
    fn real_runner_slices_are_bit_identical_to_direct_runs() {
        // End-to-end: prefix subsumption over the real engine.
        let c = ctx(4);
        let large = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru, PolicyKind::Ghrp]);
        let small =
            SimRequest::suite_run_capped(&c, c.sim(), &[PolicyKind::Lru, PolicyKind::Ghrp], 2);
        let store = SimStore::plan_and_run(&[large, small.clone()], 2);
        assert_eq!(store.executions, 1);
        let sliced = store.suite(&small);
        let direct = fe_frontend::experiment::run_suite(
            &small.suite.specs(),
            &small.config,
            &small.policies,
            2,
        );
        assert_eq!(sliced, direct);
    }

    fn stub_any(req: &SimRequest) -> SimOutcome {
        match &req.shape {
            SimShape::Suite => stub_suite(req),
            SimShape::Sweep(geoms) => SimOutcome::Sweep(fe_frontend::sweep::SweepResult {
                policies: req.policies.clone(),
                points: geoms
                    .iter()
                    .map(|&(capacity_bytes, ways)| fe_frontend::sweep::SweepPoint {
                        capacity_bytes,
                        ways,
                        icache_means: vec![0.0; req.policies.len()],
                        btb_means: vec![0.0; req.policies.len()],
                    })
                    .collect(),
                scheduler: SchedulerStats::default(),
            }),
        }
    }

    #[test]
    fn report_all_runs_each_unique_simulation_once() {
        // The acceptance criterion for the dedup planner: collect the
        // requirements of every registered experiment (as `report run
        // --all` does) and count actual executions. The default-suite
        // PAPER_SET request is declared by at least five figures but must
        // execute exactly once.
        let c = ctx(4);
        let mut requests = Vec::new();
        for info in super::super::registry::ALL {
            let exp = super::super::registry::build(info.name).expect("registered");
            requests.extend(exp.requirements(&c));
        }
        let paper = SimRequest::suite_run(&c, c.sim(), PolicyKind::PAPER_SET);
        let declared = requests
            .iter()
            .filter(|r| r.canonical_key() == paper.canonical_key())
            .count();
        assert!(declared >= 5, "paper suite declared {declared} times");

        let store = SimStore::plan_and_run_with(&requests, stub_any);
        assert!(
            store.executions < store.requests,
            "dedup must shrink {} requests",
            store.requests
        );
        let unique: std::collections::BTreeSet<String> =
            requests.iter().map(SimRequest::canonical_key).collect();
        assert!(store.executions <= unique.len());
        // Every declared request must be resolvable from the store.
        for r in &requests {
            match &r.shape {
                SimShape::Suite => {
                    assert_eq!(store.suite(r).rows.len(), r.suite.traces);
                }
                SimShape::Sweep(geoms) => {
                    assert_eq!(store.sweep(r).points.len(), geoms.len());
                }
            }
        }
    }

    #[test]
    fn cached_plan_generates_each_workload_once_and_matches_streamed() {
        // The corpus acceptance criterion in miniature: a `report run
        // --all`-shaped request mix (full suite, capped prefix, sweep)
        // must generate + encode each distinct workload exactly once —
        // the counter equals the cache files on disk — and replaying
        // from the shared buffers must be bit-identical to streaming.
        let dir = std::env::temp_dir().join(format!("fe-plan-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CorpusCache::new(&dir);
        let c = ctx(3);
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
        let full = SimRequest::suite_run(&c, c.sim(), &pols);
        let capped = SimRequest::suite_run_capped(&c, c.sim(), &pols, 2);
        let sweep = SimRequest::sweep_run(&c, c.sim(), &pols, vec![(8 * 1024, 4), (32 * 1024, 8)]);
        let requests = vec![full.clone(), capped.clone(), sweep.clone()];

        let cached = SimStore::plan_and_run_cached(&requests, 2, &cache);
        let files = std::fs::read_dir(&dir).expect("cache dir exists").count();
        assert_eq!(cached.workloads_generated, 3, "one encode per workload");
        assert_eq!(cached.workloads_generated, files, "one file per workload");
        // The suite and the sweep share one fused pass over one load of
        // the suite, so nothing is read back from disk.
        assert_eq!(cached.workloads_reused, 0);
        assert_eq!(cached.corpus_loads, 1);
        assert_eq!(cached.passes, 1);

        // A second plan over a warm cache generates nothing and reads
        // each workload once.
        let warm = SimStore::plan_and_run_cached(&requests, 2, &cache);
        assert_eq!(warm.workloads_generated, 0);
        assert_eq!(warm.workloads_reused, 3);
        assert_eq!(warm.corpus_loads, 1);

        // Bit-identical to the streamed planner, including the sliced
        // prefix request.
        let streamed = SimStore::plan_and_run(&requests, 2);
        assert_eq!(cached.suite(&full), streamed.suite(&full));
        assert_eq!(cached.suite(&capped), streamed.suite(&capped));
        assert_eq!(cached.sweep(&sweep), streamed.sweep(&sweep));
        assert_eq!(warm.suite(&full), streamed.suite(&full));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fused_pass_attaches_its_scheduler_stats_to_one_member() {
        // Two suites and a sweep on one suite fuse into one pass; a
        // sampled request keeps its own. Summing every runner's stats
        // must count each drain once.
        use fe_frontend::sampled::SampleParams;
        let c = ctx(3);
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
        let suite = SimRequest::suite_run(&c, c.sim(), &pols);
        let mut prefetch = c.sim();
        prefetch.prefetch_degree = 1;
        let other = SimRequest::suite_run(&c, prefetch, &[PolicyKind::Srrip]);
        let sweep = SimRequest::sweep_run(&c, c.sim(), &pols, vec![(8 * 1024, 4), (64 * 1024, 8)]);
        let sampled =
            SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]).with_sampled(SampleParams {
                windows: 4,
                k: 2,
                warmup: 1024,
            });
        let requests = [suite.clone(), other.clone(), sweep.clone(), sampled.clone()];
        let store = SimStore::plan_and_run(&requests, 2);
        assert_eq!(store.executions, 4);
        assert_eq!(store.passes, 2, "one fused pass plus the sampled one");
        assert_eq!(
            store.corpus_loads, 1,
            "the sampled pass encodes the suite once"
        );

        let fused = [
            store.suite(&suite).scheduler,
            store.suite(&other).scheduler,
            store.sweep(&sweep).scheduler,
        ];
        let attached: Vec<&SchedulerStats> = fused.iter().filter(|s| s.tasks > 0).collect();
        assert_eq!(attached.len(), 1, "exactly one member carries the drain");
        assert!(fused
            .iter()
            .filter(|s| s.tasks == 0)
            .all(|s| s.workers == 0 && s.wall_ns == 0));
        // 3 traces × 2 workers: one part of the 5 distinct lanes (the
        // 64 KB sweep lanes are the suite's), one task per trace.
        assert_eq!(attached[0].tasks, 3);
        assert_eq!(store.suite(&sampled).scheduler.tasks, 3);
    }

    #[test]
    fn degenerate_sampled_request_is_served_by_the_full_run() {
        use fe_frontend::sampled::SampleParams;
        let c = ctx(3);
        let full = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]);
        let exact = full.clone().with_sampled(SampleParams {
            windows: 4,
            k: 4,
            warmup: 0,
        });
        let genuine = full.clone().with_sampled(SampleParams {
            windows: 8,
            k: 2,
            warmup: 1024,
        });
        let store =
            SimStore::plan_and_run_with(&[full.clone(), exact.clone(), genuine.clone()], stub_any);
        // exact coalesces with full; genuine sampling runs separately.
        assert_eq!(store.executions, 2);
        assert_eq!(store.suite(&exact).rows.len(), 3);
        assert_eq!(store.suite(&genuine).rows.len(), 3);
    }

    #[test]
    fn cached_sampled_run_matches_streamed_sampled_run() {
        use fe_frontend::sampled::SampleParams;
        let dir = std::env::temp_dir().join(format!("fe-plan-sampled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CorpusCache::new(&dir);
        let c = ctx(2);
        let params = SampleParams {
            windows: 4,
            k: 2,
            warmup: 1024,
        };
        let suite_req = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]).with_sampled(params);
        let sweep_req = SimRequest::sweep_run(&c, c.sim(), &[PolicyKind::Lru], vec![(8 * 1024, 4)])
            .with_sampled(params);
        let requests = vec![suite_req.clone(), sweep_req.clone()];
        let cached = SimStore::plan_and_run_cached(&requests, 2, &cache);
        let streamed = SimStore::plan_and_run(&requests, 2);
        assert_eq!(cached.suite(&suite_req), streamed.suite(&suite_req));
        assert_eq!(cached.sweep(&sweep_req), streamed.sweep(&sweep_req));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_sweep_geometry_is_an_error_before_any_workload_is_generated() {
        let dir = std::env::temp_dir().join(format!("fe-plan-bad-geometry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CorpusCache::new(&dir);
        let c = ctx(2);
        let pols = [PolicyKind::Lru];
        let suite = SimRequest::suite_run(&c, c.sim(), &pols);
        // 3 KB of 64 B blocks in 4 ways is 12 sets.
        let bad = SimRequest::sweep_run(&c, c.sim(), &pols, vec![(8 * 1024, 4), (3 * 1024, 4)]);
        let err = SimStore::try_plan_and_run_cached(&[suite, bad], 1, &cache)
            .expect_err("12 sets is not a valid cache");
        assert_eq!(
            err,
            PlanError::SweepGeometry(ConfigError::NotPowerOfTwo {
                field: "sets",
                value: 12
            })
        );
        assert!(
            err.to_string().starts_with("invalid sweep geometry"),
            "{err}"
        );
        let generated = std::fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(generated, 0, "no workload generated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "invalid sweep geometry")]
    fn plan_and_run_panics_on_a_bad_sweep_geometry() {
        let c = ctx(1);
        let bad = SimRequest::sweep_run(&c, c.sim(), &[PolicyKind::Lru], vec![(3 * 1024, 4)]);
        let _ = SimStore::plan_and_run(&[bad], 1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_request_panics() {
        let c = ctx(2);
        let a = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]);
        let store = SimStore::empty();
        let _ = store.suite(&a);
    }
}
