//! The declarative experiment registry.
//!
//! Every figure, table, ablation, and lab notebook of the reproduction is
//! an [`Experiment`]: it *declares* the simulations it needs
//! ([`Experiment::requirements`]) and *renders* its output from the
//! results ([`Experiment::render`]). The `report` driver collects the
//! requirements of every requested experiment, deduplicates them through
//! the planner ([`plan::SimStore`]), runs each unique simulation exactly
//! once on the shared-cursor scheduler, and then renders each experiment
//! — so `report run --all` simulates the default suite once instead of
//! once per figure.
//!
//! Alongside each experiment's legacy stdout/CSV output the driver writes
//! a schema-versioned JSON record and a markdown table ([`manifest`]),
//! indexed in `results/MANIFEST.json`, and evaluates the experiment's
//! declared [`shape::ShapeAssertion`]s; `report diff <old> <new>`
//! compares two manifests and fails on shape regressions ([`diff`]).
//!
//! `report` is the one front door: `report run <name>` runs any
//! registered experiment.

#![forbid(unsafe_code)]

pub mod context;
pub mod corpus_report;
pub mod diff;
pub mod manifest;
pub mod plan;
pub mod registry;
pub mod request;
pub mod shape;

mod ablate;
mod lab;
mod paper;

pub use context::{parse_args, ParsedArgs, RunContext, UsageError, USAGE};
pub use manifest::{ExperimentRecord, Manifest, RecordArgs, MANIFEST_SCHEMA, RECORD_SCHEMA};
pub use plan::{PlanError, SimOutcome, SimStore};
pub use request::{SimRequest, SimShape, SuiteSpec};
pub use shape::{ShapeAssertion, ShapeCheck};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One registered experiment: a figure, table, ablation, or lab notebook.
pub trait Experiment {
    /// Registry name (`report run <name>`).
    fn name(&self) -> &'static str;
    /// Paper anchor (`"Fig. 7"`, `"Table I"`, `"lab"`, …).
    fn paper_ref(&self) -> &'static str;
    /// The simulations this experiment needs, for the dedup planner.
    /// Experiments that drive the simulator directly (single-trace labs)
    /// return an empty list and work inside `render`.
    fn requirements(&self, ctx: &RunContext) -> Vec<SimRequest>;
    /// Produce the experiment's output from the planned simulations.
    fn render(&self, rctx: &RenderCtx<'_>) -> ExperimentOutput;
}

/// Everything `render` may consult: the run flags and the planned,
/// already-executed simulations.
pub struct RenderCtx<'a> {
    /// The run flags.
    pub ctx: &'a RunContext,
    /// Deduplicated simulation results; reading an undeclared request
    /// panics (requirements and render out of sync).
    pub sims: &'a SimStore,
}

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// The experiment's human-readable output, printed to stdout.
    pub stdout: String,
    /// Legacy artifacts as `(file name, contents)`, written to the out
    /// directory with the historical `[wrote …]` stdout line.
    pub artifacts: Vec<(String, String)>,
    /// Headline measured values for the JSON record, keyed by stable
    /// metric name. Timing values are deliberately excluded — records
    /// must be comparable across machines.
    pub metrics: BTreeMap<String, f64>,
    /// Declared shape claims, evaluated against `metrics` by the driver.
    pub assertions: Vec<ShapeAssertion>,
}

/// Usage text for the `report` driver.
pub const REPORT_USAGE: &str = "usage: report <subcommand> [flags]\n\
  report run <name…> [flags]    run the named experiments\n\
  report run --all [flags]      run every registered experiment\n\
  report list                   list registered experiments\n\
  report corpus <build|info|verify> [flags]  manage the trace corpus cache\n\
  report diff <old> <new>       compare two MANIFEST.json files\n\
  report validate <manifest>    schema-check a MANIFEST.json\n\
  flags: [--traces N] [--seed S] [--threads T] [--instr N] [--out DIR]\n\
         [--sampled[=WINDOWS,K,WARMUP]]  phase-sampled replay for geometry sweeps";

/// Run a set of experiments: plan, simulate once per unique request,
/// render each experiment, and write records + manifest.
///
/// # Errors
///
/// Returns a message for unknown experiment names, a request the planner
/// rejects (see [`SimStore::try_plan_and_run_cached`]) and I/O failures.
pub fn run_experiments(names: &[String], parsed: &ParsedArgs) -> Result<(), String> {
    let mut exps: Vec<Box<dyn Experiment>> = Vec::new();
    for n in names {
        exps.push(
            registry::build(n)
                .ok_or_else(|| format!("unknown experiment `{n}` (see `report list`)"))?,
        );
    }
    let ctx = &parsed.ctx;

    let mut requests: Vec<SimRequest> = Vec::new();
    for e in &exps {
        requests.extend(e.requirements(ctx));
    }
    // `--sampled` accelerates the planner's geometry sweeps (the wide,
    // expensive requests) with phase-sampled replay. Suite-shaped
    // requests stay on full replay — the figures' per-trace MPKI tables
    // are the reproduction's ground truth — as does any request that
    // declared its own sampling parameters explicitly.
    if let Some(params) = ctx.sampled {
        for req in &mut requests {
            if matches!(req.shape, SimShape::Sweep(_)) && req.sampled.is_none() {
                req.sampled = Some(params);
            }
        }
        eprintln!("report: sampled replay ({params}) applied to geometry sweeps");
    }
    let cache = fe_trace::corpus::CorpusCache::new(ctx.corpus_dir());
    let store = SimStore::try_plan_and_run_cached(&requests, ctx.threads(), &cache)
        .map_err(|e| format!("report: {e}"))?;
    eprintln!(
        "report: {} simulation request(s) -> {} unique run(s) -> {} engine pass(es)",
        store.requests, store.executions, store.passes
    );
    eprintln!(
        "report: corpus cache {}: {} suite load(s), {} workload(s) encoded, {} replayed from cache",
        cache.dir().display(),
        store.corpus_loads,
        store.workloads_generated,
        store.workloads_reused
    );

    let out_dir = ctx.out();
    let mut man = Manifest::new();
    for e in &exps {
        let rctx = RenderCtx { ctx, sims: &store };
        let output = e.render(&rctx);
        print!("{}", output.stdout);

        let mut artifact_names: Vec<String> = Vec::new();
        for (name, contents) in &output.artifacts {
            write_file(&out_dir, name, contents)?;
            println!("[wrote {}]", out_dir.join(name).display());
            artifact_names.push(name.clone());
        }

        let checks = shape::eval_all(&output.assertions, &output.metrics);
        let json_name = format!("{}.json", e.name());
        let md_name = format!("{}.md", e.name());
        artifact_names.push(json_name.clone());
        artifact_names.push(md_name.clone());
        let record = ExperimentRecord {
            schema: RECORD_SCHEMA.to_owned(),
            experiment: e.name().to_owned(),
            paper_ref: e.paper_ref().to_owned(),
            git_rev: man.git_rev.clone(),
            args: RecordArgs {
                traces: ctx.traces(),
                seed: ctx.seed(),
                instr: ctx.instr,
                reps: None,
            },
            metrics: output.metrics,
            checks,
            artifacts: artifact_names,
        };
        let mut json =
            serde_json::to_string_pretty(&record).map_err(|e| format!("serialize record: {e}"))?;
        json.push('\n');
        write_file(&out_dir, &json_name, &json)?;
        write_file(&out_dir, &md_name, &record_markdown(&record))?;
        eprintln!("[record {}]", out_dir.join(&json_name).display());
        for c in &record.checks {
            if !c.pass {
                eprintln!(
                    "[check FAIL {}::{} — {}]",
                    record.experiment, c.assertion.name, c.note
                );
            }
        }
        man.insert(record);
    }

    let manifest_path = out_dir.join("MANIFEST.json");
    man.merge_into(&manifest_path)
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    eprintln!("[manifest {}]", manifest_path.display());
    Ok(())
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Render one experiment record as a markdown table (`<name>.md`).
pub fn record_markdown(record: &ExperimentRecord) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# {} ({})\n", record.experiment, record.paper_ref);
    let _ = writeln!(
        md,
        "run: traces={} seed={} instr={:?} rev={}\n",
        record.args.traces, record.args.seed, record.args.instr, record.git_rev
    );
    if !record.metrics.is_empty() {
        let _ = writeln!(md, "| metric | value |");
        let _ = writeln!(md, "|---|---|");
        for (k, v) in &record.metrics {
            let _ = writeln!(md, "| {k} | {v:.4} |");
        }
        md.push('\n');
    }
    if !record.checks.is_empty() {
        let _ = writeln!(md, "| check | result | note |");
        let _ = writeln!(md, "|---|---|---|");
        for c in &record.checks {
            let _ = writeln!(
                md,
                "| {} | {} | {} |",
                c.assertion.name,
                if c.pass { "pass" } else { "FAIL" },
                if c.pass { &c.assertion.desc } else { &c.note }
            );
        }
        md.push('\n');
    }
    md
}

/// The registry listing for `report list`.
pub fn list_text() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:<9} {:<12} summary", "name", "kind", "paper");
    for info in registry::ALL {
        let _ = writeln!(
            out,
            "{:<22} {:<9} {:<12} {}",
            info.name,
            info.kind.as_str(),
            registry::build(info.name).map_or_else(String::new, |e| e.paper_ref().to_owned()),
            info.summary
        );
    }
    out
}

/// Entry point for the `report` driver binary.
pub fn report_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match report_dispatch(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("report: {e}");
            eprintln!("{REPORT_USAGE}");
            ExitCode::from(2)
        }
    }
}

fn report_dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let parsed = parse_args(args).map_err(|e| e.0)?;
    if parsed.help {
        println!("{REPORT_USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let sub = parsed.positionals.first().map(String::as_str);
    match sub {
        Some("run") | None => {
            let mut names: Vec<String> = parsed.positionals.iter().skip(1).cloned().collect();
            if parsed.all {
                names = registry::ALL.iter().map(|i| i.name.to_owned()).collect();
            } else if sub.is_none() {
                return Err("missing subcommand".to_owned());
            } else if names.is_empty() {
                return Err("`report run` needs experiment names or --all".to_owned());
            }
            match run_experiments(&names, &parsed) {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(e) => {
                    eprintln!("report: {e}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        Some("list") => {
            print!("{}", list_text());
            Ok(ExitCode::SUCCESS)
        }
        Some("corpus") => {
            let action = parsed.positionals.get(1).map(String::as_str);
            corpus_report::run(action, &parsed)
        }
        Some("diff") => {
            let [old, new] = &parsed.positionals[1..] else {
                return Err("`report diff` needs exactly two manifest paths".to_owned());
            };
            let old_m = Manifest::load(Path::new(old))?;
            let new_m = Manifest::load(Path::new(new))?;
            let report = diff::diff_manifests(&old_m, &new_m);
            print!("{}", report.render());
            Ok(if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("validate") => {
            let [path] = &parsed.positionals[1..] else {
                return Err("`report validate` needs exactly one manifest path".to_owned());
            };
            let m = Manifest::load(Path::new(path))?;
            println!(
                "ok: {} — schema {}, {} experiment(s)",
                path,
                m.schema,
                m.experiments.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    }
}

/// The out-directory path of a named artifact (test helper).
pub fn artifact_path(ctx: &RunContext, name: &str) -> PathBuf {
    ctx.out().join(name)
}
