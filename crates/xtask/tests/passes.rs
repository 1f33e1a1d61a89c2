//! Fixture tests for the dataflow passes (`nondet-taint`, `float-order`,
//! `alloc-in-hot-loop`).
//!
//! Each mini-root under `tests/fixtures/passes/` is a workspace-shaped
//! tree whose file paths put it in the right pass scope (`crates/*/src`
//! library, `cache.rs` hot path). Every positive is pinned to an exact
//! `path:line:rule` key and every negative is asserted absent, so a pass
//! that drifts in either direction fails loudly.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

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

#[test]
fn nondet_and_float_order_fixtures_pin_exact_findings() {
    assert_eq!(
        keys(&fixture_root("nondet")),
        [
            "crates/results/src/lib.rs:11:nondet-taint",
            "crates/results/src/lib.rs:41:nondet-taint",
            "crates/results/src/lib.rs:47:nondet-taint",
            "crates/results/src/lib.rs:61:float-order",
            "crates/results/src/lib.rs:68:float-order",
        ]
    );
}

#[test]
fn hotloop_fixture_pins_exact_findings() {
    assert_eq!(
        keys(&fixture_root("hotloop")),
        [
            "crates/sim/src/cache.rs:11:alloc-in-hot-loop",
            "crates/sim/src/cache.rs:12:alloc-in-hot-loop",
            "crates/sim/src/cache.rs:13:alloc-in-hot-loop",
            "crates/sim/src/cache.rs:46:alloc-in-hot-loop",
        ]
    );
}
