//! Shared run context for every experiment: command-line flags, suite
//! construction, and the baseline simulator configuration.
//!
//! This replaces the old per-binary `fe_bench::Args`. Two deliberate
//! changes from that design:
//!
//! * parsing returns a [`UsageError`] instead of panicking, so the
//!   `report` driver (and every thin binary built on it) can exit with a
//!   proper usage message and a nonzero status;
//! * every flag is kept as an `Option`, with the effective default behind
//!   an accessor — experiments that historically used their *own*
//!   defaults (e.g. `analyze_signatures` seeds from 1237, `suite_bench`
//!   times a 4 × 400 k mini-suite) can distinguish "the user asked for
//!   this value" from "nothing was passed".

#![forbid(unsafe_code)]

use fe_frontend::sampled::SampleParams;
use fe_frontend::schedule::resolve_threads;
use fe_frontend::simulator::SimConfig;
use fe_trace::synth::WorkloadSpec;
use std::path::PathBuf;

use super::request::SuiteSpec;

/// One-line flag summary shared by the `report` driver and the thin
/// experiment binaries.
pub const USAGE: &str = "[--traces N] [--seed S] [--threads T] [--instr N] [--reps R] [--out DIR] [--sampled[=WINDOWS,K,WARMUP]]";

/// A malformed command line: unknown flag, missing value, or an
/// unparsable value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parsed experiment flags. Fields record only what the command line
/// actually said; the accessors supply the suite-wide defaults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunContext {
    /// `--traces N` — suite size (default 96; the paper used 662).
    pub traces: Option<usize>,
    /// `--seed S` — suite base seed (default 1234).
    pub seed: Option<u64>,
    /// `--threads T` — worker threads (default and `0`: available
    /// parallelism).
    pub threads: Option<usize>,
    /// `--instr N` — per-trace instruction override (default: per
    /// workload category).
    pub instr: Option<u64>,
    /// `--reps R` — repetitions for the timing experiments (default 3).
    pub reps: Option<usize>,
    /// `--sampled[=WINDOWS,K,WARMUP]` — phase-sampled replay for the
    /// planner's geometry sweeps (default: full replay; bare `--sampled`
    /// uses [`SampleParams::default`]).
    pub sampled: Option<SampleParams>,
    /// `--out DIR` — artifact directory (default `results`).
    pub out: Option<PathBuf>,
}

/// A fully tokenized experiment command line: flags, positional words
/// (subcommands and experiment names for the `report` driver), and the
/// standalone `--all` switch.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// The recognized flags.
    pub ctx: RunContext,
    /// Non-flag words, in order.
    pub positionals: Vec<String>,
    /// Whether `--all` appeared anywhere.
    pub all: bool,
    /// Whether `--help`/`-h` appeared anywhere.
    pub help: bool,
}

impl RunContext {
    /// Default suite size (the reproduction's standard 96 workloads).
    pub const DEFAULT_TRACES: usize = 96;
    /// Default suite base seed.
    pub const DEFAULT_SEED: u64 = 1234;

    /// Effective suite size.
    pub fn traces(&self) -> usize {
        self.traces.unwrap_or(Self::DEFAULT_TRACES)
    }

    /// Effective suite base seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(Self::DEFAULT_SEED)
    }

    /// Effective worker-thread count: `--threads T` as
    /// [`resolve_threads`] reads it, so no flag and `--threads 0` both
    /// mean every available hardware thread (1 when that is unknown).
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads.unwrap_or(0))
    }

    /// Effective artifact directory.
    pub fn out(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from("results"))
    }

    /// The on-disk trace-corpus cache directory (`<out>/corpus`).
    pub fn corpus_dir(&self) -> PathBuf {
        self.out().join("corpus")
    }

    /// The baseline simulator configuration (paper defaults).
    pub fn sim(&self) -> SimConfig {
        SimConfig::paper_default()
    }

    /// The suite identity these flags describe (for [`super::SimRequest`]s).
    pub fn suite_spec(&self) -> SuiteSpec {
        SuiteSpec {
            traces: self.traces(),
            seed: self.seed(),
            instr: self.instr,
        }
    }

    /// Build the workload suite these flags describe.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        self.suite_spec().specs()
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, UsageError> {
    let v = value.ok_or_else(|| UsageError(format!("missing value for {flag}")))?;
    v.parse()
        .map_err(|_| UsageError(format!("invalid value `{v}` for {flag}")))
}

/// Parse the `WINDOWS,K,WARMUP` payload of `--sampled=...`.
fn parse_sampled(spec: &str) -> Result<SampleParams, UsageError> {
    let bad = || {
        UsageError(format!(
            "invalid value `{spec}` for --sampled (want WINDOWS,K,WARMUP)"
        ))
    };
    let parts: Vec<&str> = spec.split(',').collect();
    let [w, k, u] = parts.as_slice() else {
        return Err(bad());
    };
    let params = SampleParams {
        windows: w.trim().parse().map_err(|_| bad())?,
        k: k.trim().parse().map_err(|_| bad())?,
        warmup: u.trim().parse().map_err(|_| bad())?,
    };
    if params.windows == 0 || params.k == 0 {
        return Err(UsageError(format!(
            "invalid value `{spec}` for --sampled (WINDOWS and K must be nonzero)"
        )));
    }
    Ok(params)
}

/// Tokenize an experiment command line (without the program name).
///
/// Words starting with `--` must be recognized flags; everything else is
/// collected as a positional word for the caller (the `report` driver
/// reads subcommands and experiment names from there).
///
/// # Errors
///
/// Returns [`UsageError`] on an unknown flag, a flag missing its value,
/// or an unparsable value. Never panics.
pub fn parse_args<I>(args: I) -> Result<ParsedArgs, UsageError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let mut parsed = ParsedArgs::default();
    let mut it = args.into_iter().map(Into::into);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--traces" => parsed.ctx.traces = Some(parse_value("--traces", it.next())?),
            "--seed" => parsed.ctx.seed = Some(parse_value("--seed", it.next())?),
            "--threads" => parsed.ctx.threads = Some(parse_value("--threads", it.next())?),
            "--instr" => parsed.ctx.instr = Some(parse_value("--instr", it.next())?),
            "--reps" => parsed.ctx.reps = Some(parse_value("--reps", it.next())?),
            "--out" => {
                let v = it
                    .next()
                    .ok_or_else(|| UsageError("missing value for --out".into()))?;
                parsed.ctx.out = Some(PathBuf::from(v));
            }
            "--sampled" => parsed.ctx.sampled = Some(SampleParams::default()),
            "--all" => parsed.all = true,
            "--help" | "-h" => parsed.help = true,
            other if other.starts_with("--sampled=") => {
                let spec = &other["--sampled=".len()..];
                parsed.ctx.sampled = Some(parse_sampled(spec)?);
            }
            other if other.starts_with('-') => {
                return Err(UsageError(format!("unknown flag `{other}`")));
            }
            _ => parsed.positionals.push(a),
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_standard_suite() {
        let ctx = RunContext::default();
        assert_eq!(ctx.traces(), 96);
        assert_eq!(ctx.seed(), 1234);
        assert!(ctx.threads() >= 1);
        assert_eq!(ctx.out(), PathBuf::from("results"));
        assert_eq!(ctx.corpus_dir(), PathBuf::from("results").join("corpus"));
        assert!(ctx.instr.is_none());
    }

    #[test]
    fn threads_follow_the_scheduler_fallback() {
        let hw = resolve_threads(0);
        assert!(hw >= 1);
        assert_eq!(RunContext::default().threads(), hw);
        let zero = RunContext {
            threads: Some(0),
            ..RunContext::default()
        };
        assert_eq!(zero.threads(), hw);
        let three = RunContext {
            threads: Some(3),
            ..RunContext::default()
        };
        assert_eq!(three.threads(), 3);
    }

    #[test]
    fn parse_reads_flags_and_positionals() {
        let p = parse_args([
            "run", "headline", "--traces", "7", "--instr", "500", "--all",
        ])
        .expect("valid args");
        assert_eq!(p.positionals, vec!["run".to_owned(), "headline".to_owned()]);
        assert_eq!(p.ctx.traces, Some(7));
        assert_eq!(p.ctx.instr, Some(500));
        assert!(p.all);
    }

    #[test]
    fn unknown_flag_is_a_usage_error_not_a_panic() {
        let e = parse_args(["--bogus"]).expect_err("must reject");
        assert!(e.0.contains("--bogus"), "{e}");
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let e = parse_args(["--traces"]).expect_err("must reject");
        assert!(e.0.contains("missing value"), "{e}");
    }

    #[test]
    fn unparsable_value_is_a_usage_error() {
        let e = parse_args(["--seed", "twelve"]).expect_err("must reject");
        assert!(e.0.contains("twelve"), "{e}");
    }

    #[test]
    fn sampled_flag_parses_bare_and_valued_forms() {
        let bare = parse_args(["--sampled"]).expect("bare flag");
        assert_eq!(bare.ctx.sampled, Some(SampleParams::default()));

        let valued = parse_args(["--sampled=16,4,2048"]).expect("valued flag");
        assert_eq!(
            valued.ctx.sampled,
            Some(SampleParams {
                windows: 16,
                k: 4,
                warmup: 2048,
            })
        );

        assert!(parse_args(["--sampled=16,4"]).is_err());
        assert!(parse_args(["--sampled=16,4,x"]).is_err());
        assert!(parse_args(["--sampled=0,4,1"]).is_err());
    }

    #[test]
    fn suite_respects_instr_override() {
        let ctx = RunContext {
            traces: Some(4),
            instr: Some(12345),
            ..RunContext::default()
        };
        let specs = ctx.specs();
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.instructions == 12345));
    }
}
