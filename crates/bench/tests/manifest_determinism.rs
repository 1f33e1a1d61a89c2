//! The `report diff` workflow compares manifests byte-for-byte-adjacent
//! structures, so the emitter must be deterministic: `Manifest` and
//! every record keyed through `BTreeMap`, struct fields serialized in
//! declaration order, and timing deliberately excluded from metrics.
//! This test locks that in end-to-end — two back-to-back `report run
//! --all` smoke runs must produce byte-identical `MANIFEST.json` files,
//! and neither may write anything outside its `--out` directory.
//! A single `HashMap` iteration leaking storage order into a metric name
//! or artifact list would make this flake immediately (and is also
//! caught statically by `cargo xtask lint`'s `nondet-taint` pass).

#![forbid(unsafe_code)]

use std::path::Path;

use fe_bench::experiment::{parse_args, registry, run_experiments};

fn run_all_into(out: &Path) -> String {
    let parsed = parse_args([
        "--traces",
        "2",
        "--instr",
        "20000",
        "--threads",
        "2",
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ])
    .expect("valid flags");
    let names: Vec<String> = registry::ALL.iter().map(|i| i.name.to_owned()).collect();
    run_experiments(&names, &parsed).expect("smoke run succeeds");
    std::fs::read_to_string(out.join("MANIFEST.json")).expect("manifest written")
}

#[test]
fn back_to_back_smoke_runs_emit_byte_identical_manifests() {
    let base = std::env::temp_dir().join(format!("fe-bench-determinism-{}", std::process::id()));
    let first = run_all_into(&base.join("a"));
    let second = run_all_into(&base.join("b"));
    let mut written: Vec<String> = std::fs::read_dir(&base)
        .expect("base directory exists")
        .map(|entry| {
            entry
                .expect("readable directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    std::fs::remove_dir_all(&base).ok();

    assert_eq!(
        written,
        ["a", "b"],
        "`report run` wrote outside its `--out` directory"
    );

    assert!(
        first.contains("\"schema\": \"ghrp-report-manifest-v1\""),
        "manifest shape drifted"
    );
    assert_eq!(
        first, second,
        "two identical `report run --all` invocations emitted different \
         MANIFEST.json bytes — a map-ordering or timing leak in the emitter"
    );
}
