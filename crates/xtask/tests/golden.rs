//! Golden-file test: the semantic engine must reproduce the legacy line
//! scanner's findings bit-for-bit on the fixture corpus.
//!
//! `fixtures/golden_findings.txt` was generated by running the original
//! line/regex scanner (deleted in this PR) over `fixtures/corpus/` and
//! recording every `path:line:rule` triple. The corpus exercises the
//! traps that motivated the rewrite — `%` and `.unwrap()` inside
//! strings, chars, line and block comments; lifetimes; cfg(test)
//! scoping; justified and unjustified allow annotations; the index-
//! helper exemption. The new engine must agree on every file the old
//! scanner could see (`crates/*/src`), and its expanded scope must add
//! exactly the known extras.
//!
//! The `crates/frontend/src/schedule.rs` entries were appended when the
//! work-stealing scheduler joined the hot-path set: its fixture locks in
//! that `no-panic` fires on the steal loop and the indexing rules cover
//! range arithmetic, while `#[cfg(test)]` code stays exempt.
//!
//! The `crates/trace/src/corpus.rs` entries were appended when the `SoA`
//! corpus cursors joined the hot-path set: the chunk-decode fixture
//! locks in `no-panic` and `checked-index` on the refill loop, and the
//! dataflow extras pin `alloc-in-hot-loop` on its per-chunk scratch
//! `Vec` while the cold `return Err(String::from(…))` stays exempt.
//!
//! The `crates/trace/src/sample.rs` entries were appended when the
//! sampling pipeline (signatures, k-means, sampled replay) joined the
//! hot-path set: the assignment-loop fixture locks in `no-panic` on its
//! `.expect()` and `checked-index` on the cast centroid index.
//!
//! The `pipeline.rs`/`ioutil.rs` pair was appended with the
//! interprocedural layer: a hot `core/src` function whose callee — in a
//! different file of a different crate — `.expect()`s, pinning that
//! `panic-path` sees through file boundaries on the corpus too.
//!
//! The `crates/cache/src/policy/duel.rs` entries were appended when the
//! set-dueling meta-policy joined the hot-path set: its fixture locks
//! in `pow2-mask` on the leader-index modulo, `no-panic` on the argmin
//! unwrap and `checked-index` on the cast role lookup, while the
//! sticky-PSEL `reset` carries a justified `reset-complete` allow.

#![forbid(unsafe_code)]

use std::path::Path;

fn corpus_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

#[test]
fn semantic_engine_reproduces_legacy_scanner_findings() {
    let report = xtask::run_lint(&corpus_root());
    let golden_text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_findings.txt"),
    )
    .expect("golden file present");
    let mut golden: Vec<&str> = golden_text.lines().filter(|l| !l.is_empty()).collect();
    golden.sort_unstable();

    let keys: Vec<String> = report.findings.iter().map(xtask::Finding::key).collect();
    // The legacy scanner only walked `crates/*/src` and only knew the
    // four legacy rules; the dataflow rules are pinned separately below.
    let mut legacy_scope: Vec<&str> = keys
        .iter()
        .map(String::as_str)
        .filter(|k| {
            let p = k.split(':').next().unwrap_or_default();
            let rule = k.rsplit(':').next().unwrap_or_default();
            p.starts_with("crates/")
                && p.contains("/src/")
                && xtask::rules::LEGACY_RULES.contains(&rule)
        })
        .collect();
    legacy_scope.sort_unstable();
    assert_eq!(
        legacy_scope, golden,
        "semantic engine disagrees with the recorded legacy scanner findings"
    );

    // The expanded scope adds exactly the known extras: `examples/`
    // (which the old scanner never saw) and the dataflow and
    // interprocedural rules.
    let mut extras: Vec<&str> = keys
        .iter()
        .map(String::as_str)
        .filter(|k| !legacy_scope.contains(k))
        .collect();
    extras.sort_unstable();
    assert_eq!(
        extras,
        [
            "crates/core/src/pipeline.rs:9:panic-path",
            "crates/trace/src/corpus.rs:16:alloc-in-hot-loop",
            "examples/ex.rs:1:forbid-unsafe"
        ]
    );
}

#[test]
fn justified_allows_are_counted_and_suppress() {
    let report = xtask::run_lint(&corpus_root());
    // corpus/crates/cache/src/cache.rs, corpus/crates/core/src/tables.rs
    // and corpus/crates/cache/src/policy/duel.rs (the sticky-PSEL reset)
    // each carry one justified annotation.
    assert_eq!(report.active_allows, 3);
    // The suppressed sites must not appear among the findings.
    assert!(report
        .findings
        .iter()
        .all(|f| !(f.file.ends_with("tables.rs") && f.rule == "no-panic" && f.line >= 9)));
}

#[test]
fn integration_tests_are_only_held_to_forbid_unsafe() {
    let report = xtask::run_lint(&corpus_root());
    // corpus/crates/cache/tests/it.rs has unwraps and `% len()` but a
    // forbid header: clean.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.file.starts_with("crates/cache/tests")));
}
