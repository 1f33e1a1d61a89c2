//! The simulation-dedup planner.
//!
//! The `report` driver collects every experiment's [`SimRequest`]s up
//! front, canonicalizes them, and runs each unique simulation exactly
//! once. Before this layer, `--all` re-simulated the default suite about
//! ten times — once per figure that consumes it.
//!
//! Two levels of coalescing:
//!
//! 1. **Exact**: requests with equal [`SimRequest::canonical_key`]s share
//!    one run outright.
//! 2. **Prefix subsumption**: suite-shaped requests that differ only in
//!    suite *size* (equal [`SimRequest::family_key`]s) are served from
//!    the family's largest run by row slicing, which is bit-identical
//!    because workload `i` depends only on `seed + i` and every trace row
//!    is an independent engine pass (`SuiteResult::prefix`).

#![forbid(unsafe_code)]

use fe_frontend::engine::RunSpec;
use fe_frontend::experiment::{SuiteResult, SuiteSource};
use fe_frontend::sweep::{sweep_icaches, SweepResult};
use fe_trace::corpus::{Corpus, CorpusBuilder, CorpusCache, EnsureStats, SuiteCorpus};
use fe_trace::synth::WorkloadSpec;
use std::collections::BTreeMap;

use super::request::{SimRequest, SimShape};

/// Result of one executed simulation.
#[derive(Debug, Clone)]
pub enum SimOutcome {
    /// A suite run.
    Suite(SuiteResult),
    /// A geometry sweep.
    Sweep(SweepResult),
}

/// Deduplicated simulation results, indexed by request identity.
#[derive(Debug, Default)]
pub struct SimStore {
    /// Executed outcomes, in execution order.
    entries: Vec<SimOutcome>,
    /// canonical key → (entry index, rows to keep when served as a
    /// prefix of a larger run; `None` = the whole result).
    lookup: BTreeMap<String, (usize, Option<usize>)>,
    /// Simulations actually executed (the dedup denominator).
    pub executions: usize,
    /// Requests collected, duplicates included (the dedup numerator).
    pub requests: usize,
    /// Workloads generated + encoded into the corpus cache by this plan
    /// (cached path only; zero for the streamed path).
    pub workloads_generated: usize,
    /// Workloads replayed from existing corpus cache files.
    pub workloads_reused: usize,
}

impl SimStore {
    /// A store with no simulations (for experiments with no requests).
    pub fn empty() -> SimStore {
        SimStore::default()
    }

    /// Plan `requests` and run each unique simulation once, with
    /// `threads` worker threads per simulation.
    pub fn plan_and_run(requests: &[SimRequest], threads: usize) -> SimStore {
        SimStore::plan_and_run_with(requests, |req| execute(req, threads, None))
    }

    /// [`SimStore::plan_and_run`] replaying every simulation from the
    /// on-disk corpus `cache` instead of re-walking the synthetic
    /// generators: each distinct workload is generated and encoded at
    /// most once (and not at all when a prior run already cached it),
    /// then every scheduler worker replays it from one shared buffer.
    /// Results are bit-identical to the streamed path. A cache that
    /// cannot be written falls back to streamed replay per simulation,
    /// with a note on stderr.
    pub fn plan_and_run_cached(
        requests: &[SimRequest],
        threads: usize,
        cache: &CorpusCache,
    ) -> SimStore {
        let mut stats = EnsureStats::default();
        let mut store = SimStore::plan_and_run_with(requests, |req| {
            match cache.ensure_suite(&req.suite.specs()) {
                Ok((corpus, ensured)) => {
                    stats.absorb(ensured);
                    execute(req, threads, Some(&corpus))
                }
                Err(e) => {
                    eprintln!(
                        "report: corpus cache {} unavailable ({e}); streaming this run",
                        cache.dir().display()
                    );
                    execute(req, threads, None)
                }
            }
        });
        store.workloads_generated = stats.generated;
        store.workloads_reused = stats.reused;
        store
    }

    /// [`SimStore::plan_and_run`] with an injected runner, so tests can
    /// count and stub executions.
    pub fn plan_and_run_with(
        requests: &[SimRequest],
        mut runner: impl FnMut(&SimRequest) -> SimOutcome,
    ) -> SimStore {
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

        // Execute each runner once (deterministic BTreeMap order) and
        // point every member key at its runner's entry.
        let mut store = SimStore {
            requests: requests.len(),
            ..SimStore::default()
        };
        let mut entry_of: BTreeMap<String, usize> = BTreeMap::new();
        for (key, req) in &unique {
            let runner_req = match &req.shape {
                SimShape::Suite if req.effective_sampled().is_none() => {
                    &family_best[&req.family_key()]
                }
                _ => req,
            };
            let runner_key = runner_req.canonical_key();
            let idx = if let Some(&idx) = entry_of.get(&runner_key) {
                idx
            } else {
                let idx = store.entries.len();
                store.entries.push(runner(runner_req));
                store.executions += 1;
                entry_of.insert(runner_key, idx);
                idx
            };
            let prefix = (req.suite.traces < runner_req.suite.traces).then_some(req.suite.traces);
            store.lookup.insert(key.clone(), (idx, prefix));
        }
        store
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

/// Run one request for real, replaying from `corpus` when given.
///
/// Sampled replay needs signature sidecars, which live in the corpus
/// encoding; without a corpus a sampled request builds one in memory,
/// and a full one streams from the synthetic walkers.
fn execute(req: &SimRequest, threads: usize, corpus: Option<&SuiteCorpus>) -> SimOutcome {
    let specs = req.suite.specs();
    let sampling = req.effective_sampled();
    let in_memory;
    let source = match corpus {
        Some(corpus) => SuiteSource::Corpus(corpus),
        None if sampling.is_some() => {
            in_memory = encode_in_memory(&specs);
            SuiteSource::Corpus(&in_memory)
        }
        None => SuiteSource::Streamed,
    };
    let geometries = match &req.shape {
        SimShape::Suite => vec![req.config.icache],
        SimShape::Sweep(geoms) => sweep_icaches(&req.config, geoms),
    };
    let grid = RunSpec {
        specs: &specs,
        base: &req.config,
        source,
        geometries: &geometries,
        policies: &req.policies,
        // Figure 7 sweeps consume I-cache means only.
        measure_btb: req.shape == SimShape::Suite,
        sampling,
    }
    .run(threads);
    match &req.shape {
        SimShape::Suite => SimOutcome::Suite(SuiteResult::from_grid(&specs, &req.policies, grid)),
        SimShape::Sweep(geoms) => {
            SimOutcome::Sweep(SweepResult::from_grid(geoms, &req.policies, grid))
        }
    }
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
        // The sweep execution replays the same three workloads from disk.
        assert_eq!(cached.workloads_reused, 3);

        // A second plan over a warm cache generates nothing.
        let warm = SimStore::plan_and_run_cached(&requests, 2, &cache);
        assert_eq!(warm.workloads_generated, 0);
        assert_eq!(warm.workloads_reused, 6);

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
    #[should_panic(expected = "not declared")]
    fn undeclared_request_panics() {
        let c = ctx(2);
        let a = SimRequest::suite_run(&c, c.sim(), &[PolicyKind::Lru]);
        let store = SimStore::empty();
        let _ = store.suite(&a);
    }
}
