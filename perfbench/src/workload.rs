//! The four benchmark workloads: their inputs (built by set-up), one
//! timed pass each, and the output checks that count into `failed`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fe_bench::experiment::{
    registry, shape, Experiment, Manifest, RenderCtx, RunContext, SimOutcome, SimRequest, SimShape,
    SimStore,
};
use fe_frontend::experiment::{run_suite, run_suite_from, SuiteResult, SuiteSource};
use fe_frontend::policy::{BasePolicy, PolicyKind};
use fe_frontend::sampled::{run_sweep_sampled, SampleParams};
use fe_frontend::schedule::SchedulerStats;
use fe_frontend::simulator::{RunResult, SimConfig, Simulator};
use fe_frontend::sweep::{paper_geometries, run_sweep_with, SweepResult};
use fe_trace::corpus::{Corpus, CorpusBuilder, CorpusCache, SuiteCorpus};
use fe_trace::synth::{suite, SyntheticTrace, WorkloadSpec};

use crate::spans::{maybe_span, Tracer, SELF_LAYER};
use crate::util::Digest;

/// Traces in the simulation workloads' suite, cycling through the four
/// CBP-5 categories (SHORT/LONG × MOBILE/SERVER).
pub const SUITE_TRACES: usize = 16;
/// Instructions per suite trace: 16 × 1.5 M is the 24 M instructions of
/// one trace per category at the categories' default budgets (4 M short,
/// 8 M long), cut into 16 equal scheduler tasks instead of 4 unequal ones.
pub const SUITE_INSTR: u64 = 1_500_000;

/// BTB sizes crossed with the eight paper I-cache geometries in the
/// sampled sweep (64 front-end geometries).
pub const BTB_POINTS: [u32; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// `report_smoke` runs at the golden smoke manifest's scale.
pub const REPORT_TRACES: usize = 8;
/// Instructions per trace in `report_smoke`.
pub const REPORT_INSTR: u64 = 200_000;
/// Worker threads of `report_smoke` (the golden manifest's setting).
pub const REPORT_THREADS: usize = 2;
/// The seed the golden smoke manifest was recorded at.
pub const GOLDEN_SEED: u64 = 1234;
/// The golden smoke manifest, in the repository this benchmark was built
/// from.
pub const GOLDEN_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../results/golden/MANIFEST-smoke.json"
);
/// Self-timing labs left out of `report_smoke`: their output is host
/// time, which can neither repeat exactly nor be checked.
pub const REPORT_EXCLUDED: [&str; 2] = ["suite_bench", "engine_profile"];

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperSuite,
    SampledSweep,
    LruStream,
    ReportSmoke,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PaperSuite,
        Kind::SampledSweep,
        Kind::LruStream,
        Kind::ReportSmoke,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSuite => "paper_suite",
            Kind::SampledSweep => "sampled_sweep",
            Kind::LruStream => "lru_stream",
            Kind::ReportSmoke => "report_smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The seven paper policies plus the `duel(ghrp,srrip,sdbp)` hybrid.
pub fn paper_lanes() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
        duel_lane(),
    ]
}

/// The set-dueling hybrid lane.
pub fn duel_lane() -> PolicyKind {
    PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp])
}

/// Lanes of the sampled sweep.
pub const SWEEP_LANES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Ghrp];

/// Output checks: every check made counts into `attempted`, every one
/// that did not hold into `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// `report_smoke`'s fixed inputs: the run flags and a pre-warmed corpus
/// cache directory.
#[derive(Debug)]
pub struct ReportInputs {
    pub ctx: RunContext,
    pub cache: CorpusCache,
    /// Every registered experiment except [`REPORT_EXCLUDED`].
    pub names: Vec<&'static str>,
    /// The unique simulations the planner executes for these flags.
    pub executed: Vec<SimRequest>,
}

/// Everything set-up builds before timing starts.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub threads: usize,
    pub base: SimConfig,
    pub specs: Vec<WorkloadSpec>,
    /// The workload's records, materialized (reference checks and the
    /// per-layer replays read them).
    pub traces: Vec<SyntheticTrace>,
    /// Shared in-memory corpus (`paper_suite`, `sampled_sweep`).
    pub corpus: Option<SuiteCorpus>,
    pub report: Option<ReportInputs>,
    /// Simulated instructions × lanes one pass stands for.
    pub work: f64,
}

/// What one pass produced.
pub struct PassOut {
    /// Digest of every simulated statistic the pass returned.
    pub digest: u64,
    /// Scheduler counters, summed over the pass's grid drains.
    pub sched: Vec<SchedulerStats>,
    pub result: PassResult,
}

pub enum PassResult {
    Suite(SuiteResult),
    Sweeps(Vec<SweepResult>),
    Report(Vec<Rendered>),
}

/// One experiment's rendered output inside a `report_smoke` pass.
pub struct Rendered {
    pub name: &'static str,
    pub metrics: BTreeMap<String, f64>,
    /// `(assertion name, pass)` in declaration order.
    pub checks: Vec<(String, bool)>,
    pub stdout: String,
}

/// Encode `traces` into one shared in-memory corpus (signature sidecars
/// included), verified on load.
pub fn encode_corpus(traces: &[SyntheticTrace]) -> (SuiteCorpus, usize) {
    let mut builder = CorpusBuilder::new();
    for t in traces {
        builder
            .push_synthetic(t)
            .expect("synthetic workload names fit the corpus index");
    }
    let bytes = builder.finish();
    let len = bytes.len();
    let corpus = Corpus::from_bytes(bytes).expect("a freshly encoded corpus verifies");
    (SuiteCorpus::from_corpus(&corpus), len)
}

/// The workload's suite of specs.
fn specs_for(kind: Kind, seed: u64) -> Vec<WorkloadSpec> {
    match kind {
        Kind::ReportSmoke => suite(REPORT_TRACES, seed)
            .into_iter()
            .map(|s| s.instructions(REPORT_INSTR))
            .collect(),
        _ => suite(SUITE_TRACES, seed)
            .into_iter()
            .map(|s| s.instructions(SUITE_INSTR))
            .collect(),
    }
}

/// The `report` run flags at the smoke scale for `seed`.
fn report_ctx(seed: u64, out: &Path) -> RunContext {
    RunContext {
        traces: Some(REPORT_TRACES),
        seed: Some(seed),
        threads: Some(REPORT_THREADS),
        instr: Some(REPORT_INSTR),
        reps: None,
        sampled: None,
        out: Some(out.to_path_buf()),
    }
}

/// Every registered experiment `report_smoke` runs.
fn report_names() -> Vec<&'static str> {
    registry::ALL
        .iter()
        .map(|e| e.name)
        .filter(|n| !REPORT_EXCLUDED.contains(n))
        .collect()
}

fn build_experiments(names: &[&'static str]) -> Vec<Box<dyn Experiment>> {
    names
        .iter()
        .map(|n| registry::build(n).expect("registry names are buildable"))
        .collect()
}

/// Every experiment's declared simulations for `ctx`.
fn collect_requests(exps: &[Box<dyn Experiment>], ctx: &RunContext) -> Vec<SimRequest> {
    exps.iter().flat_map(|e| e.requirements(ctx)).collect()
}

/// Plan `requests` without simulating: returns the unique runs the
/// planner would execute, in execution order.
pub fn plan_only(requests: &[SimRequest]) -> Vec<SimRequest> {
    let mut executed = Vec::new();
    SimStore::plan_and_run_with(requests, |req| {
        executed.push(req.clone());
        match &req.shape {
            SimShape::Suite => SimOutcome::Suite(SuiteResult {
                policies: req.policies.clone(),
                rows: Vec::new(),
                scheduler: SchedulerStats::default(),
                sampled: None,
            }),
            SimShape::Sweep(_) => SimOutcome::Sweep(SweepResult {
                policies: req.policies.clone(),
                points: Vec::new(),
                scheduler: SchedulerStats::default(),
            }),
        }
    });
    executed
}

/// Simulated instructions × lanes of one planned run; sampled runs count
/// the full-trace instructions their result stands for.
fn request_work(req: &SimRequest, instructions: &BTreeMap<String, u64>) -> f64 {
    let instr: u64 = req
        .suite
        .specs()
        .iter()
        .map(|s| instructions.get(&s.name).copied().unwrap_or(s.instructions))
        .sum();
    let lanes = match &req.shape {
        SimShape::Suite => req.policies.len(),
        SimShape::Sweep(geoms) => req.policies.len() * geoms.len(),
    };
    instr as f64 * lanes as f64
}

/// Directory for files the benchmark writes while it runs: under the
/// Cargo target directory, so it stays inside the checkout and out of
/// version control.
pub fn run_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("perfbench-run")
}

impl Inputs {
    /// Set-up: generate the workload's traces and build its corpus (or
    /// fill its corpus cache). `slot` names a private cache directory, so
    /// repeated set-ups never reuse each other's files.
    pub fn build(kind: Kind, seed: u64, threads: usize, slot: usize) -> Inputs {
        let base = SimConfig::paper_default();
        let specs = specs_for(kind, seed);
        let traces: Vec<SyntheticTrace> = specs.iter().map(WorkloadSpec::generate).collect();
        let suite_instr: u64 = traces.iter().map(|t| t.instructions).sum();
        let mut inputs = Inputs {
            kind,
            seed,
            threads,
            base,
            specs,
            traces,
            corpus: None,
            report: None,
            work: 0.0,
        };
        match kind {
            Kind::PaperSuite => {
                inputs.corpus = Some(encode_corpus(&inputs.traces).0);
                inputs.work = suite_instr as f64 * paper_lanes().len() as f64;
            }
            Kind::SampledSweep => {
                inputs.corpus = Some(encode_corpus(&inputs.traces).0);
                let lanes = SWEEP_LANES.len() * paper_geometries().len() * BTB_POINTS.len();
                inputs.work = suite_instr as f64 * lanes as f64;
            }
            Kind::LruStream => {
                inputs.work = suite_instr as f64;
            }
            Kind::ReportSmoke => {
                let dir = run_dir().join(format!("corpus-{}-{slot}", std::process::id()));
                // A leftover directory of a killed run would make this
                // set-up a cache hit; start empty.
                let _ = std::fs::remove_dir_all(&dir);
                let ctx = report_ctx(seed, &dir);
                let cache = CorpusCache::new(&dir);
                let names = report_names();
                let exps = build_experiments(&names);
                let requests = collect_requests(&exps, &ctx);
                let executed = plan_only(&requests);
                let instructions = warm_cache(&cache, &requests);
                inputs.work = executed
                    .iter()
                    .map(|r| request_work(r, &instructions))
                    .sum();
                inputs.report = Some(ReportInputs {
                    ctx,
                    cache,
                    names,
                    executed,
                });
            }
        }
        inputs
    }

    /// Remove the files set-up wrote.
    pub fn cleanup(&self) {
        if let Some(r) = &self.report {
            let _ = std::fs::remove_dir_all(r.cache.dir());
        }
    }

    /// Instructions of the whole suite (warm-up included).
    pub fn total_instructions(&self) -> u64 {
        self.traces.iter().map(|t| t.instructions).sum()
    }

    /// One timed pass of the workload; with a tracer, every call into
    /// the workspace gets a span.
    pub fn pass(&self, mut tracer: Option<&mut Tracer>) -> PassOut {
        let t = &mut tracer;
        let mut d = Digest::default();
        match self.kind {
            Kind::PaperSuite => {
                let corpus = self.corpus.as_ref().expect("paper_suite builds a corpus");
                let r = maybe_span(t, "run_suite_from", "fe-frontend", || {
                    run_suite_from(
                        &self.specs,
                        &self.base,
                        &paper_lanes(),
                        self.threads,
                        SuiteSource::Corpus(corpus),
                    )
                });
                digest_suite(&mut d, &r);
                PassOut {
                    digest: d.value(),
                    sched: vec![r.scheduler.clone()],
                    result: PassResult::Suite(r),
                }
            }
            Kind::LruStream => {
                let r = maybe_span(t, "run_suite", "fe-frontend", || {
                    run_suite(&self.specs, &self.base, &[PolicyKind::Lru], self.threads)
                });
                digest_suite(&mut d, &r);
                PassOut {
                    digest: d.value(),
                    sched: vec![r.scheduler.clone()],
                    result: PassResult::Suite(r),
                }
            }
            Kind::SampledSweep => {
                let corpus = self.corpus.as_ref().expect("sampled_sweep builds a corpus");
                let geoms = paper_geometries();
                let params = SampleParams::default();
                let mut sweeps = Vec::with_capacity(BTB_POINTS.len());
                for &entries in &BTB_POINTS {
                    let mut base = self.base;
                    base.btb_entries = entries;
                    let (r, info) = maybe_span(t, "run_sweep_sampled", "fe-frontend", || {
                        run_sweep_sampled(
                            &self.specs,
                            &base,
                            &SWEEP_LANES,
                            &geoms,
                            self.threads,
                            corpus,
                            &params,
                            true,
                        )
                    });
                    digest_sweep(&mut d, &r);
                    d.word(info.replayed_instructions);
                    d.word(info.total_instructions);
                    d.float(info.est_error);
                    sweeps.push(r);
                }
                PassOut {
                    digest: d.value(),
                    sched: sweeps.iter().map(|s| s.scheduler.clone()).collect(),
                    result: PassResult::Sweeps(sweeps),
                }
            }
            Kind::ReportSmoke => {
                let report = self
                    .report
                    .as_ref()
                    .expect("report_smoke has report inputs");
                let (rendered, sched) = report_pass(report, tracer);
                for r in &rendered {
                    digest_rendered(&mut d, r);
                }
                PassOut {
                    digest: d.value(),
                    sched,
                    result: PassResult::Report(rendered),
                }
            }
        }
    }
}

/// Repeat passes until `budget` has elapsed (at least one pass),
/// checking each pass's digest against `reference`. With a tracer, each
/// pass is a root span tagged with its own run id. Returns each pass's
/// host seconds and the last pass's output.
pub fn timed_loop(
    inputs: &Inputs,
    budget: std::time::Duration,
    reference: u64,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, PassOut) {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = std::time::Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_run(u32::try_from(times.len() + 1).unwrap_or(u32::MAX));
                t.span("pass", SELF_LAYER, |t| inputs.pass(Some(t))).0
            }
            None => inputs.pass(None),
        };
        times.push(t0.elapsed().as_secs_f64());
        checks.check(out.digest == reference, || {
            format!(
                "pass {} digest {:016x} differs from the warm-up pass's {reference:016x}",
                times.len(),
                out.digest
            )
        });
        if start.elapsed() >= budget {
            return (times, out);
        }
    }
}

/// Generate and encode every workload the requests name into `cache`;
/// returns each workload's exact instruction total.
pub fn warm_cache(cache: &CorpusCache, requests: &[SimRequest]) -> BTreeMap<String, u64> {
    let mut instructions = BTreeMap::new();
    let mut seen = Vec::new();
    for req in requests {
        if seen.contains(&req.suite) {
            continue;
        }
        seen.push(req.suite.clone());
        let specs = req.suite.specs();
        let (corpus, _) = cache
            .ensure_suite(&specs)
            .expect("the corpus cache directory is writable");
        for t in &corpus {
            instructions.insert(t.name().to_owned(), t.instructions());
        }
    }
    instructions
}

/// Build every experiment `report` runs and collect their declared
/// simulations.
pub fn report_requests(report: &ReportInputs) -> (Vec<Box<dyn Experiment>>, Vec<SimRequest>) {
    let exps = build_experiments(&report.names);
    let requests = collect_requests(&exps, &report.ctx);
    (exps, requests)
}

/// Render every experiment from the planned simulations and evaluate
/// its shape checks, as `report` does before writing its records.
pub fn render_all(
    exps: &[Box<dyn Experiment>],
    ctx: &RunContext,
    store: &SimStore,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Rendered> {
    exps.iter()
        .map(|e| {
            let out = maybe_span(
                &mut tracer,
                &format!("render.{}", e.name()),
                "fe-bench",
                || e.render(&RenderCtx { ctx, sims: store }),
            );
            let checks = shape::eval_all(&out.assertions, &out.metrics)
                .into_iter()
                .map(|c| (c.assertion.name, c.pass))
                .collect();
            Rendered {
                name: e.name(),
                metrics: out.metrics,
                checks,
                stdout: out.stdout,
            }
        })
        .collect()
}

/// What `report run --all` does, minus writing files: collect every
/// experiment's requirements, plan and run them once against the corpus
/// cache, and render each experiment with its shape checks. Returns the
/// rendered experiments and the scheduler counters of every executed
/// simulation.
pub fn report_pass(
    report: &ReportInputs,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Rendered>, Vec<SchedulerStats>) {
    let t = &mut tracer;
    let (exps, requests) = maybe_span(t, "collect_requirements", "fe-bench", || {
        report_requests(report)
    });
    let store = maybe_span(t, "plan_and_run_cached", "fe-bench", || {
        SimStore::plan_and_run_cached(&requests, report.ctx.threads(), &report.cache)
    });
    let rendered = render_all(&exps, &report.ctx, &store, tracer);
    let sched = report
        .executed
        .iter()
        .map(|req| match &req.shape {
            SimShape::Suite => store.suite(req).scheduler,
            SimShape::Sweep(_) => store.sweep(req).scheduler,
        })
        .collect();
    (rendered, sched)
}

fn digest_suite(d: &mut Digest, r: &SuiteResult) {
    for row in &r.rows {
        d.bytes(row.name.as_bytes());
        d.word(row.instructions);
        for &x in row.icache_mpki.iter().chain(&row.btb_mpki) {
            d.float(x);
        }
        d.float(row.branch_mpki);
    }
}

fn digest_sweep(d: &mut Digest, r: &SweepResult) {
    for p in &r.points {
        d.word(p.capacity_bytes);
        d.word(u64::from(p.ways));
        for &x in p.icache_means.iter().chain(&p.btb_means) {
            d.float(x);
        }
    }
}

fn digest_rendered(d: &mut Digest, r: &Rendered) {
    d.bytes(r.name.as_bytes());
    for (k, v) in &r.metrics {
        d.bytes(k.as_bytes());
        d.float(*v);
    }
    for (name, pass) in &r.checks {
        d.bytes(name.as_bytes());
        d.word(u64::from(*pass));
    }
    d.bytes(r.stdout.as_bytes());
}

/// Maximum relative drift of sampled against full suite means, per
/// (geometry, policy) point, with the denominator floored at 1 MPKI (as
/// the `lab_sampled_fidelity` experiment measures it).
fn sweep_drift(full: &[SweepResult], sampled: &[SweepResult]) -> (f64, f64) {
    let mut icache = 0.0f64;
    let mut btb = 0.0f64;
    for (f, s) in full.iter().zip(sampled) {
        for (fp, sp) in f.points.iter().zip(&s.points) {
            for (fm, sm) in fp.icache_means.iter().zip(&sp.icache_means) {
                icache = icache.max((sm - fm).abs() / fm.max(1.0));
            }
            for (fm, sm) in fp.btb_means.iter().zip(&sp.btb_means) {
                btb = btb.max((sm - fm).abs() / fm.max(1.0));
            }
        }
    }
    (icache, btb)
}

/// Reference checks, made once per invocation outside the timed loop:
/// one lane per simulation workload against the standalone
/// [`Simulator::run`] path, and `report_smoke`'s shape checks against the
/// golden manifest. Returns sampled-vs-full drift for `sampled_sweep`.
pub fn verify(inputs: &Inputs, warm: &PassOut, checks: &mut Checks) -> Option<(f64, f64)> {
    let pick = usize::try_from(inputs.seed % inputs.traces.len() as u64)
        .expect("index below the suite size");
    match &warm.result {
        PassResult::Suite(r) => {
            let lanes = if inputs.kind == Kind::PaperSuite {
                vec![PolicyKind::Ghrp, duel_lane()]
            } else {
                vec![PolicyKind::Lru]
            };
            verify_suite_lanes(inputs, r, pick, &lanes, checks);
            None
        }
        PassResult::Sweeps(sampled) => Some(verify_sweep(inputs, sampled, pick, checks)),
        PassResult::Report(rendered) => {
            verify_report(inputs, rendered, checks);
            None
        }
    }
}

/// `lanes` of trace `pick` must equal a standalone [`Simulator::run`].
fn verify_suite_lanes(
    inputs: &Inputs,
    r: &SuiteResult,
    pick: usize,
    lanes: &[PolicyKind],
    checks: &mut Checks,
) {
    let t = &inputs.traces[pick];
    let row = &r.rows[pick];
    for &lane in lanes {
        let col = r
            .policies
            .iter()
            .position(|&p| p == lane)
            .expect("checked lane is part of the pass");
        let reference =
            Simulator::new(inputs.base.with_policy(lane)).run(&t.records, t.instructions);
        checks.check(
            row.icache_mpki[col].to_bits() == reference.icache_mpki().to_bits()
                && row.btb_mpki[col].to_bits() == reference.btb_mpki().to_bits()
                && row.instructions == reference.instructions,
            || {
                format!(
                    "{} lane {lane} on {} differs from Simulator::run",
                    inputs.kind.name(),
                    t.name()
                )
            },
        );
    }
}

/// Replay the full sweep (every BTB size) as the fidelity reference,
/// check one of its GHRP points against [`Simulator::run`], and return
/// the sampled sweep's drift from it.
fn verify_sweep(
    inputs: &Inputs,
    sampled: &[SweepResult],
    pick: usize,
    checks: &mut Checks,
) -> (f64, f64) {
    let corpus = inputs
        .corpus
        .as_ref()
        .expect("sampled_sweep builds a corpus");
    let geoms = paper_geometries();
    // BTB sizes cannot share a replay, so the reference runs one
    // single-threaded sweep per BTB size, the sizes spread over the
    // worker threads.
    let full_at = |entries: u32| {
        let mut base = inputs.base;
        base.btb_entries = entries;
        run_sweep_with(
            &inputs.specs,
            &base,
            &SWEEP_LANES,
            &geoms,
            1,
            SuiteSource::Corpus(corpus),
            true,
        )
    };
    let mut full: Vec<(usize, SweepResult)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..inputs.threads)
            .map(|w| {
                let full_at = &full_at;
                scope.spawn(move || {
                    (w..BTB_POINTS.len())
                        .step_by(inputs.threads)
                        .map(|i| (i, full_at(BTB_POINTS[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("reference sweep worker panicked"))
            .collect()
    });
    full.sort_by_key(|(i, _)| *i);
    let full: Vec<SweepResult> = full.into_iter().map(|(_, r)| r).collect();

    // One (geometry, BTB size) point of the GHRP lane, rebuilt trace by
    // trace on the standalone simulator.
    let b = pick % BTB_POINTS.len();
    let g = usize::try_from(inputs.seed / 7 % geoms.len() as u64).expect("small index");
    let (capacity, ways) = geoms[g];
    let mut cfg = inputs.base.with_policy(PolicyKind::Ghrp).with_icache(
        fe_cache::CacheConfig::with_capacity(capacity, ways, inputs.base.icache.block_bytes())
            .expect("paper geometries are valid"),
    );
    cfg.btb_entries = BTB_POINTS[b];
    let runs: Vec<RunResult> = inputs
        .traces
        .iter()
        .map(|t| Simulator::new(cfg).run(&t.records, t.instructions))
        .collect();
    let icache: Vec<f64> = runs.iter().map(RunResult::icache_mpki).collect();
    let btb: Vec<f64> = runs.iter().map(RunResult::btb_mpki).collect();
    let point = &full[b].points[g];
    let col = SWEEP_LANES
        .iter()
        .position(|&p| p == PolicyKind::Ghrp)
        .expect("GHRP is a sweep lane");
    checks.check(
        point.icache_means[col].to_bits() == fe_frontend::stats::mean(&icache).to_bits()
            && point.btb_means[col].to_bits() == fe_frontend::stats::mean(&btb).to_bits(),
        || {
            format!(
                "full sweep point {capacity}B/{ways}w/{} GHRP differs from Simulator::run",
                BTB_POINTS[b]
            )
        },
    );
    let drift = sweep_drift(&full, sampled);
    checks.check(drift.0.is_finite() && drift.1.is_finite(), || {
        "sampled drift is not finite".to_owned()
    });
    drift
}

/// Every experiment's shape checks at the golden seed must equal the
/// golden smoke manifest's.
fn verify_report(inputs: &Inputs, rendered: &[Rendered], checks: &mut Checks) {
    let report = inputs
        .report
        .as_ref()
        .expect("report_smoke has report inputs");
    let golden_rendered;
    let at_golden: &[Rendered] = if inputs.seed == GOLDEN_SEED {
        rendered
    } else {
        let ctx = report_ctx(GOLDEN_SEED, report.cache.dir());
        let executed = plan_only(&collect_requests(&build_experiments(&report.names), &ctx));
        let golden_inputs = ReportInputs {
            ctx,
            cache: report.cache.clone(),
            names: report.names.clone(),
            executed,
        };
        golden_rendered = report_pass(&golden_inputs, None).0;
        &golden_rendered
    };
    match Manifest::load(Path::new(GOLDEN_MANIFEST)) {
        Ok(golden) => {
            for r in at_golden {
                let want: Option<Vec<(String, bool)>> = golden.experiments.get(r.name).map(|rec| {
                    rec.checks
                        .iter()
                        .map(|c| (c.assertion.name.clone(), c.pass))
                        .collect()
                });
                checks.check(want.as_ref() == Some(&r.checks), || {
                    format!(
                        "{}: shape checks {:?} disagree with the golden manifest's {:?}",
                        r.name, r.checks, want
                    )
                });
            }
        }
        Err(e) => checks.check(false, || format!("cannot read {GOLDEN_MANIFEST}: {e}")),
    }
}
