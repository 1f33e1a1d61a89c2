//! The repository benchmark: end-to-end and per-layer performance of the
//! GHRP front-end simulator on four workloads.
//!
//! ```text
//! perfbench --workload <paper_suite|sampled_sweep|lru_stream|report_smoke>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload from its seed (set-up, timed several times),
//! runs one untimed warm-up pass, checks the outputs against reference
//! paths, then repeats timed passes for `--seconds` and reports medians.
//! With `--trace 1` it also runs traced passes and the per-layer replays,
//! writes every span to a JSON file, and reports the per-layer metrics
//! instead of the end-to-end ones. The last line of standard output is
//! the result as one JSON object.

mod ledger;
mod spans;
mod util;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{median, secs, Metric};
use workload::{Checks, Inputs, Kind};

const USAGE: &str = "usage: perfbench --workload <paper_suite|sampled_sweep|lru_stream|report_smoke> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repeats until it has run at least `SETUP_MIN_REPS` times and
/// for at least `SETUP_MIN_SECS` in total (at most `SETUP_MAX_REPS`
/// times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 10;
const SETUP_MIN_SECS: f64 = 1.0;

/// Untimed warm-up passes run for at least this long (and at least one
/// pass), so allocator, page-cache and clock ramp-up settle before
/// timing.
const WARMUP_SECS: f64 = 1.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&args);
    ExitCode::SUCCESS
}

fn run(args: &Args) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let kind = args.kind;
    eprintln!(
        "perfbench: workload {} seed {} for {} s on {threads} worker thread(s){}",
        kind.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    // Set-up, several times; each replaces (and first drops) the last.
    let mut setup_times = Vec::new();
    let mut inputs: Option<Inputs> = None;
    while setup_times.len() < SETUP_MIN_REPS
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_SECS && setup_times.len() < SETUP_MAX_REPS)
    {
        if let Some(old) = inputs.take() {
            old.cleanup();
        }
        let t0 = Instant::now();
        inputs = Some(Inputs::build(kind, args.seed, threads, setup_times.len()));
        setup_times.push(secs(t0.elapsed()));
    }
    let inputs = inputs.expect("set-up ran at least once");
    let setup_s = median(&setup_times);
    eprintln!("perfbench: set-up times {setup_times:.3?}");

    // Warm-up passes: fill lane arenas, page-fault the corpus, and give
    // the digest every timed pass must repeat.
    let t0 = Instant::now();
    let warm = inputs.pass(None);
    let mut checks = Checks::default();
    while secs(t0.elapsed()) < WARMUP_SECS {
        let again = inputs.pass(None);
        checks.check(again.digest == warm.digest, || {
            "warm-up passes disagree on their digest".to_owned()
        });
    }
    eprintln!("perfbench: warm-up {:.3} s", secs(t0.elapsed()));

    let t0 = Instant::now();
    let drift = workload::verify(&inputs, &warm, &mut checks);
    eprintln!("perfbench: reference checks {:.3} s", secs(t0.elapsed()));

    let budget = Duration::from_secs(args.seconds);
    let (times, _) = workload::timed_loop(&inputs, budget, warm.digest, &mut checks, None);
    let run_s = median(&times);
    eprintln!("perfbench: pass times {times:.3?}");
    let peak_rss = util::peak_rss_mib().unwrap_or(0.0);
    let minstr_per_s = inputs.work / run_s / 1e6;

    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("run_s", run_s, "s"),
        Metric::new("minstr_per_s", minstr_per_s, "Minstr/s"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
    ];

    let metrics = if args.trace {
        let layer = ledger::traced(&inputs, &warm, budget, run_s, drift, &mut checks);
        let path = workload::run_dir().join(format!(
            "spans-{}-seed{}-pid{}.json",
            kind.name(),
            args.seed,
            std::process::id()
        ));
        match layer.tracer.write_json(&path, kind.name(), args.seed) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => checks.check(false, || format!("write {}: {e}", path.display())),
        }
        layer.metrics
    } else {
        end_to_end.clone()
    };
    inputs.cleanup();

    // Human-readable summary: every end-to-end metric by name and unit,
    // the output-check tally, and the sampled fidelity beside its speed.
    let failed_frac = util::ratio(checks.failed, checks.attempted);
    println!(
        "workload {} seed {} passes {} threads {threads}",
        kind.name(),
        args.seed,
        times.len()
    );
    for m in &end_to_end {
        println!("  {:<22} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<22} {:>14.6} ratio ({} of {} checks failed)",
        "failed_frac", failed_frac, checks.failed, checks.attempted
    );
    if let Some((icache, btb)) = drift {
        println!("  {:<22} {:>14.6} ratio", "sampled_drift_icache", icache);
        println!("  {:<22} {:>14.6} ratio", "sampled_drift_btb", btb);
    }
    println!(
        "{}",
        util::result_line(
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            &metrics
        )
    );
}
