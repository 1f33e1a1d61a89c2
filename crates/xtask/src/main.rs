//! Repository automation (`cargo xtask <command>`).
//!
//! * `lint` — run the semantic rule passes (the ten rules of
//!   [`xtask::rules::RULES`] plus allow hygiene) over every owned source
//!   file. See [`xtask::rules`] and `DESIGN.md` §"Correctness & static
//!   analysis".
//! * `audit` — recompute the paper's storage budgets from the source
//!   AST and diff them against `budgets.toml`. See [`xtask::audit`].
//!
//! Both exit non-zero on findings, so CI can gate on them.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{audit, json, rules, run_lint, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("audit") => run_audit(&args[1..]),
        Some("--help" | "-h") => {
            usage();
            ExitCode::SUCCESS
        }
        None => {
            // Bare `cargo xtask` is a usage error, not a success.
            usage();
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <command>\n");
    eprintln!("commands:");
    eprintln!("  lint   [--root DIR] [--json] [--rule NAME] [--path PREFIX]");
    eprintln!("                                       run the custom static checks");
    eprintln!("  audit  [--root DIR] [--budgets FILE] verify the paper storage budgets");
    eprintln!("\nlint filters (for focused local runs):");
    eprintln!("  --rule NAME    only report findings for one rule (exit 2 if unknown)");
    eprintln!("  --path PREFIX  only report findings under a workspace-relative prefix");
    eprintln!("\nrules: {}", rules::RULES.join(", "));
}

/// Parse `--flag VALUE` out of a trailing argument list.
fn flag_value(args: &[String], flag: &str) -> Option<PathBuf> {
    flag_str(args, flag).map(PathBuf::from)
}

/// Parse `--flag VALUE` as a plain string.
fn flag_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Rules a `--rule` filter may name: the active set plus the two
/// engine-reserved identifiers.
fn known_rule(name: &str) -> bool {
    rules::RULES.contains(&name) || matches!(name, "parse-error" | "unknown-rule")
}

fn lint(args: &[String]) -> ExitCode {
    let root = flag_value(args, "--root").unwrap_or_else(workspace_root);
    let rule_filter = flag_str(args, "--rule");
    let path_filter = flag_str(args, "--path");
    if let Some(rule) = rule_filter {
        if !known_rule(rule) {
            eprintln!("error: unknown rule `{rule}`\n");
            usage();
            return ExitCode::from(2);
        }
    }
    let mut report = run_lint(&root);
    if report.files_scanned == 0 {
        eprintln!("xtask lint: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }
    if rule_filter.is_some() || path_filter.is_some() {
        report.findings.retain(|f| {
            rule_filter.is_none_or(|r| f.rule == r)
                && path_filter
                    .is_none_or(|p| f.file.to_string_lossy().replace('\\', "/").starts_with(p))
        });
    }
    if args.iter().any(|a| a == "--json") {
        // Machine-readable mode: the full report on stdout, human
        // summary suppressed; the exit code still gates CI.
        print!("{}", json::render(&report));
        return if report.findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let t = report.timings;
    let phases = format!(
        "phases: parse+lower {:.1}ms · file rules {:.1}ms · call graph+effects {:.1}ms · workspace passes {:.1}ms",
        t.parse_ms, t.rules_ms, t.graph_ms, t.passes_ms
    );
    let e = report.effects;
    let summaries = format!(
        "effects: {} fns — {} may_panic, {} may_alloc, {} does_io, {} reads_clock_or_env, {} unordered",
        e.functions, e.may_panic, e.may_alloc, e.does_io, e.reads_clock_or_env, e.unordered_iter_taint
    );
    if report.findings.is_empty() {
        println!(
            "xtask lint: {} files scanned, clean ({} active allow annotation{})",
            report.files_scanned,
            report.active_allows,
            if report.active_allows == 1 { "" } else { "s" }
        );
        println!("  {phases}");
        println!("  {summaries}");
        return ExitCode::SUCCESS;
    }
    for f in &report.findings {
        eprintln!(
            "{}:{}: [{}] {}",
            f.file.display(),
            f.line,
            f.rule,
            f.message
        );
    }
    eprintln!(
        "xtask lint: {} finding(s) in {} files scanned ({} active allow annotations)",
        report.findings.len(),
        report.files_scanned,
        report.active_allows
    );
    eprintln!("  {phases}");
    ExitCode::FAILURE
}

fn run_audit(args: &[String]) -> ExitCode {
    let root = flag_value(args, "--root").unwrap_or_else(workspace_root);
    let budgets = flag_value(args, "--budgets").unwrap_or_else(|| root.join("budgets.toml"));
    let report = match audit::run(&root, &budgets) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let width = report
        .rows
        .iter()
        .map(|r| r.key.len())
        .max()
        .unwrap_or(8)
        .max(8);
    println!(
        "{:<width$}  {:>14}  {:>14}  status",
        "key", "computed", "expected"
    );
    for row in &report.rows {
        let computed = row
            .computed
            .as_ref()
            .map_or_else(|| "—".to_string(), ToString::to_string);
        println!(
            "{:<width$}  {:>14}  {:>14}  {}",
            row.key,
            computed,
            row.expected.to_string(),
            if row.ok { "ok" } else { "DRIFT" }
        );
    }
    if report.ok() {
        println!(
            "xtask audit: {} budget keys verified against the source AST",
            report.rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &report.errors {
            eprintln!("xtask audit: {e}");
        }
        eprintln!("xtask audit: {} problem(s)", report.errors.len());
        ExitCode::FAILURE
    }
}
