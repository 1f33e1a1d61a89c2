//! Source discovery and parsing.
//!
//! Collects every `.rs` file the workspace owns — `src/`, `tests/`,
//! `benches/` and `examples/` at the root and under each `crates/*`
//! member — parses each one exactly once with the vendored `syn`, and
//! tags it with a [`FileClass`] so the rule passes can scope themselves
//! (integration tests keep their idiomatic `unwrap()`s; benches and
//! examples are held to the indexing rules but are never hot paths).
//!
//! `vendor/` is deliberately not walked: those crates are offline
//! stand-ins for third-party code and carry their own conventions.
//! Directories named `fixtures` are skipped so lint test corpora are
//! never mistaken for real sources.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use crate::Finding;

/// Which kind of source tree a file came from; decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/` of the root package or a workspace crate — all rules.
    Library,
    /// `tests/` — panicking asserts are idiomatic; only `forbid-unsafe`
    /// applies.
    IntegrationTest,
    /// `benches/` — indexing rules apply, hot-path rules do not.
    Bench,
    /// `examples/` — same scope as benches.
    Example,
}

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the scanned root (stable across machines).
    pub rel: PathBuf,
    /// Rule-scoping class.
    pub class: FileClass,
}

/// A source file parsed into its AST.
#[derive(Debug)]
pub struct ParsedFile {
    /// Discovery metadata.
    pub source: SourceFile,
    /// Raw text (the allow-annotation scanner reads comments, which the
    /// lexer strips).
    pub text: String,
    /// The parsed file.
    pub ast: syn::File,
}

/// Every parsed source of one workspace root, plus per-file read/parse
/// failures as findings.
#[derive(Debug)]
pub struct Workspace {
    /// The scanned root.
    pub root: PathBuf,
    /// Parsed files, sorted by relative path.
    pub files: Vec<ParsedFile>,
    /// Read or parse failures (`parse-error` findings).
    pub errors: Vec<Finding>,
}

impl Workspace {
    /// Discover and parse everything under `root`.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        let mut errors = Vec::new();
        for source in collect_sources(root) {
            match std::fs::read_to_string(&source.path) {
                Ok(text) => match syn::parse_file(&text) {
                    Ok(ast) => files.push(ParsedFile { source, text, ast }),
                    Err(e) => errors.push(Finding {
                        file: source.rel,
                        line: e.span.line.max(1),
                        rule: "parse-error",
                        message: format!("file does not lex as Rust: {}", e.msg),
                    }),
                },
                Err(e) => errors.push(Finding {
                    file: source.rel,
                    line: 0,
                    rule: "parse-error",
                    message: format!("unreadable source file: {e}"),
                }),
            }
        }
        Workspace {
            root: root.to_path_buf(),
            files,
            errors,
        }
    }
}

/// The per-package source directories and the class each one implies.
const SOURCE_DIRS: [(&str, FileClass); 4] = [
    ("src", FileClass::Library),
    ("tests", FileClass::IntegrationTest),
    ("benches", FileClass::Bench),
    ("examples", FileClass::Example),
];

/// All owned `.rs` files under `root`, sorted by relative path.
pub fn collect_sources(root: &Path) -> Vec<SourceFile> {
    let mut out = Vec::new();
    let mut packages = vec![root.to_path_buf()];
    if let Ok(members) = std::fs::read_dir(root.join("crates")) {
        for entry in members.flatten() {
            if entry.path().is_dir() {
                packages.push(entry.path());
            }
        }
    }
    for pkg in packages {
        for (sub, class) in SOURCE_DIRS {
            walk(&pkg.join(sub), class, root, &mut out);
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    out
}

fn walk(dir: &Path, class: FileClass, root: &Path, out: &mut Vec<SourceFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        if p.is_dir() {
            // Lint-test corpora contain deliberate violations.
            if name != "fixtures" {
                walk(&p, class, root, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            out.push(SourceFile {
                path: p,
                rel,
                class,
            });
        }
    }
}

/// Whether the `no-panic` rule applies: the simulator hot paths named in
/// the project conventions.
pub fn is_hot_path(rel: &Path) -> bool {
    let s = normalized(rel);
    s.ends_with("/cache.rs")
        || s.contains("/policy/")
        || s.contains("/core/src/")
        || s.ends_with("/frontend/src/schedule.rs")
        || s.contains("/trace/src/corpus")
        || s.ends_with("/trace/src/signature.rs")
        || s.ends_with("/trace/src/sample.rs")
        || s.ends_with("/frontend/src/sampled.rs")
        || s.ends_with("/frontend/src/engine.rs")
}

/// Whether the file hosts the canonical mask/idx helpers (exempt from
/// `pow2-mask` and `checked-index` — the audited casts live there by
/// design).
pub fn is_index_helper(rel: &Path) -> bool {
    normalized(rel).ends_with("/cache/src/index.rs")
}

/// Relative path with a leading `/` and forward slashes, so suffix,
/// prefix and substring checks behave identically on every platform.
fn normalized(rel: &Path) -> String {
    let mut s = rel.to_string_lossy().replace('\\', "/");
    if !s.starts_with('/') {
        s.insert(0, '/');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_scoping() {
        assert!(is_hot_path(Path::new("crates/cache/src/cache.rs")));
        assert!(is_hot_path(Path::new("crates/cache/src/policy/lru.rs")));
        assert!(is_hot_path(Path::new("crates/core/src/tables.rs")));
        // The scheduler's steal loop is a hot path: a panic there would
        // poison the whole worker pool mid-drain.
        assert!(is_hot_path(Path::new("crates/frontend/src/schedule.rs")));
        // The corpus decode cursors run once per replayed record: the
        // allocation and indexing rules must cover them.
        assert!(is_hot_path(Path::new("crates/trace/src/corpus.rs")));
        // The sampling pipeline runs per replayed window/segment: the
        // signature accumulator, the k-means kernel, and the sampled
        // replay drivers are all inner-loop code.
        assert!(is_hot_path(Path::new("crates/trace/src/signature.rs")));
        assert!(is_hot_path(Path::new("crates/trace/src/sample.rs")));
        assert!(is_hot_path(Path::new("crates/frontend/src/sampled.rs")));
        // The one replay loop and the run driver: every simulated record
        // passes through the engine.
        assert!(is_hot_path(Path::new("crates/frontend/src/engine.rs")));
        assert!(!is_hot_path(Path::new("crates/trace/src/io.rs")));
        assert!(!is_hot_path(Path::new("crates/frontend/src/sweep.rs")));
        assert!(!is_hot_path(Path::new("crates/bench/src/lib.rs")));
        assert!(!is_hot_path(Path::new("src/lib.rs")));
        assert!(is_index_helper(Path::new("crates/cache/src/index.rs")));
        assert!(!is_index_helper(Path::new("crates/cache/src/cache.rs")));
    }
}
