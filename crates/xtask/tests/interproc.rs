//! Fixture and acceptance tests for the interprocedural passes
//! (`panic-path`, `render-purity`, `reset-complete`) and the lint CLI
//! filters.
//!
//! Positives are pinned to exact `path:line:rule` keys; negatives ride
//! in the same fixture trees (a debug-guarded panic, a pure render, a
//! helper-delegated reset, a `set_of` *getter* on a config field, a
//! justified sticky-state allow) and are asserted absent by the same
//! exact-match comparison.
//!
//! The two seeded-mutation tests are the issue's acceptance checks:
//! delete one field restore from a byte-for-byte copy of the real LRU
//! policy's `reset()` and the lint must name the field; inject a
//! `SystemTime::now()` into a clean `Experiment::render` and the lint
//! must flag the render. Both bug classes pass every behavioural test
//! in a single-run suite — state leaks only show across reuse, clock
//! reads only break reproducibility — which is why they are caught
//! statically.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/passes")
        .join(name)
}

/// Sorted `path:line:rule` keys for a lint run over `root`.
fn keys(root: &Path) -> Vec<String> {
    let report = xtask::run_lint(root);
    assert!(
        report.files_scanned > 0,
        "fixture root {} has no sources",
        root.display()
    );
    let mut keys: Vec<String> = report.findings.iter().map(xtask::Finding::key).collect();
    keys.sort_unstable();
    keys
}

/// A scratch mini-root that cleans up after itself.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let dir = std::env::temp_dir().join(format!("xtask-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempRoot(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().expect("rel has a parent")).expect("mkdir");
        std::fs::write(path, contents).expect("write fixture file");
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn panic_path_fixture_pins_exact_findings() {
    // The cross-file call to `decode` is flagged at the *call* line with
    // a witness naming the unwrap site; the local `panic!` at its own
    // line. `probe` (total + debug-guarded callees) stays clean.
    assert_eq!(
        keys(&fixture_root("panic_path")),
        [
            "crates/sim/src/cache.rs:15:panic-path",
            "crates/sim/src/cache.rs:9:panic-path",
        ]
    );
}

#[test]
fn panic_path_witness_names_the_unwrap_site() {
    let report = xtask::run_lint(&fixture_root("panic_path"));
    let call_site = report
        .findings
        .iter()
        .find(|f| f.line == 9)
        .expect("call-site finding");
    assert!(
        call_site.message.contains("decode")
            && call_site.message.contains("crates/sim/src/util.rs:8"),
        "witness chain should end at the unwrap: {}",
        call_site.message
    );
}

#[test]
fn render_purity_fixture_pins_exact_findings() {
    // IoExp inherits I/O one call deep, ClockExp a clock read two calls
    // deep; CleanExp stays clean. Findings land on the `fn render` line.
    assert_eq!(
        keys(&fixture_root("render_purity")),
        [
            "crates/bench/src/exp.rs:32:render-purity",
            "crates/bench/src/exp.rs:40:render-purity",
        ]
    );
}

#[test]
fn reset_complete_fixture_pins_exact_findings() {
    // Only Leaky is flagged: Delegating resets through a helper, Mapper
    // exercises the `set_of`-is-a-getter resolution, Sticky carries a
    // justified allow. Config fields (`ways`) are never required.
    let root = fixture_root("reset_complete");
    assert_eq!(keys(&root), ["crates/sim/src/lib.rs:33:reset-complete"]);

    let report = xtask::run_lint(&root);
    assert!(
        report.findings[0].message.contains("`hist`")
            && report.findings[0].message.contains("touch"),
        "finding should name the stale field and its mutator: {}",
        report.findings[0].message
    );
    // The sticky-state escapes are *active* allows, visible in the
    // report with their justification text: the lifetime counter and
    // the sticky set-dueling PSEL selector.
    assert_eq!(report.active_allows, 2);
    assert!(report
        .allow_details
        .iter()
        .all(|a| a.rule == "reset-complete"));
    assert!(
        report
            .allow_details
            .iter()
            .any(|a| a.justification.contains("lifetime counter")),
        "allow summary should carry the Sticky justification: {:?}",
        report.allow_details
    );
    assert!(
        report
            .allow_details
            .iter()
            .any(|a| a.justification.contains("sticky set-dueling PSEL state")),
        "allow summary should carry the StickyPsel justification: {:?}",
        report.allow_details
    );
}

/// Acceptance mutation 1: take the real LRU policy, delete the
/// `self.clock = 0;` restore from `reset()`, and the lint must report
/// `reset-complete` naming `clock`. The unmutated copy is the control.
#[test]
fn seeded_reset_field_deletion_is_caught() {
    let real = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .join("crates/cache/src/policy/lru.rs");
    let clean = std::fs::read_to_string(real).expect("real LRU policy present");
    assert!(
        clean.contains("self.clock = 0;"),
        "LRU reset lost the clock restore the mutation test seeds from"
    );

    let control = TempRoot::new("reset-control");
    control.write("crates/cache/src/policy/lru.rs", &clean);
    assert_eq!(keys(&control.0), [""; 0], "unmutated LRU must be clean");

    let mutated = clean.replace("self.clock = 0;", "");
    let tmp = TempRoot::new("reset-mutant");
    tmp.write("crates/cache/src/policy/lru.rs", &mutated);
    let report = xtask::run_lint(&tmp.0);
    let hits: Vec<&xtask::Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "reset-complete")
        .collect();
    assert!(
        hits.iter().any(|f| {
            f.file == Path::new("crates/cache/src/policy/lru.rs")
                && f.message.contains("`clock`")
                && f.message.contains("Lru")
        }),
        "deleted clock restore escaped reset-complete: {:?}",
        hits.iter().map(|f| &f.message).collect::<Vec<_>>()
    );
}

/// Acceptance mutation 2: inject a `SystemTime::now()` into the clean
/// render fixture and the lint must flag that render as impure.
#[test]
fn seeded_clock_read_in_render_is_caught() {
    let clean =
        std::fs::read_to_string(fixture_root("render_purity").join("crates/bench/src/exp.rs"))
            .expect("render fixture present");
    assert!(
        clean.contains("// seed-site"),
        "render fixture lost the seed marker"
    );
    let mutated = clean.replace("// seed-site", "let _t = std::time::SystemTime::now();");

    let tmp = TempRoot::new("render-mutant");
    tmp.write("crates/bench/src/exp.rs", &mutated);
    let report = xtask::run_lint(&tmp.0);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "render-purity" && f.message.contains("CleanExp")),
        "injected SystemTime::now() escaped render-purity: {:?}",
        report
            .findings
            .iter()
            .map(xtask::Finding::key)
            .collect::<Vec<_>>()
    );
}

/// A method called on a struct literal (`RunSpec { … }.run(…)`) resolves
/// through the literal's type, so a clock read behind it taints the
/// render that makes the call.
#[test]
fn method_on_a_struct_literal_is_resolved() {
    let tmp = TempRoot::new("struct-literal-receiver");
    tmp.write(
        "crates/bench/src/exp.rs",
        "#![forbid(unsafe_code)]

pub struct RunSpec {
    pub lanes: usize,
}

impl RunSpec {
    pub fn run(&self, threads: usize) -> f64 {
        let t0 = std::time::Instant::now();
        t0.elapsed().as_secs_f64() * (self.lanes + threads) as f64
    }
}

pub struct LiteralExp;

impl Experiment for LiteralExp {
    fn render(&self) -> String {
        let ms = RunSpec { lanes: 2 }.run(2);
        format!(\"{ms}\")
    }
}
",
    );
    // The finding lands on the `fn render` line.
    assert_eq!(keys(&tmp.0), ["crates/bench/src/exp.rs:17:render-purity"]);
}

fn lint_cmd(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run xtask binary")
}

#[test]
fn rule_filter_narrows_the_report() {
    let root = fixture_root("panic_path");
    // Both fixture findings are panic-path, so the filter keeps them …
    let out = lint_cmd(&root, &["--json", "--rule", "panic-path"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"panic-path\": 2"), "{stdout}");
    assert_eq!(out.status.code(), Some(1));
    // … and filtering on any other rule empties the report.
    let out = lint_cmd(&root, &["--json", "--rule", "no-panic"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"clean\": true"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_rule_is_a_usage_error() {
    let out = lint_cmd(&fixture_root("panic_path"), &["--rule", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown rule") && stderr.contains("panic-path"),
        "usage text should name the rule catalogue: {stderr}"
    );
}

#[test]
fn path_filter_narrows_the_report() {
    let root = fixture_root("panic_path");
    let out = lint_cmd(&root, &["--json", "--path", "crates/sim/src/util.rs"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Both findings live in cache.rs, so a util.rs filter is clean.
    assert!(stdout.contains("\"clean\": true"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
    let out = lint_cmd(&root, &["--json", "--path", "crates/sim/src/cache.rs"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"panic-path\": 2"), "{stdout}");
    assert_eq!(out.status.code(), Some(1));
}
