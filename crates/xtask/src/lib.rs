//! Semantic analysis engine for the workspace (`cargo xtask …`).
//!
//! Everything here operates on the typed AST produced by the vendored
//! [`syn`] stand-in — one parse per file, shared by every pass — instead
//! of the line/regex heuristics the original scanner used. Four
//! subsystems (see `DESIGN.md` §"Correctness & static analysis"):
//!
//! * [`rules`] — the project lint rules: the four legacy rules
//!   (`no-panic`, `pow2-mask`, `forbid-unsafe`, `checked-index`) plus
//!   the expression-dataflow rules (`nondet-taint`, `float-order`,
//!   `alloc-in-hot-loop`), all matched on the expression AST so
//!   strings, comments, chars and lifetimes can never confuse them.
//! * [`dataflow`] / [`passes`] — the per-function lowering
//!   ([`dataflow::FnUnit`]), the name-scoped type environment
//!   ([`dataflow::Env`]) and the dataflow passes built on them.
//! * [`callgraph`] / [`effects`] — the interprocedural layer: workspace
//!   symbol table, resolved call graph, per-function effect summaries
//!   propagated to fixpoint, and the three rules on top (`panic-path`,
//!   `render-purity`, `reset-complete`). See DESIGN.md §8.4.
//! * [`audit`] — the paper storage-budget auditor: locates the canonical
//!   parameter constants by their `budget-key:` doc markers,
//!   const-evaluates them, recomputes the paper's Table I storage
//!   arithmetic and diffs it against the checked-in `budgets.toml`.

#![forbid(unsafe_code)]

pub mod allow;
pub mod audit;
pub mod callgraph;
pub mod consteval;
pub mod dataflow;
pub mod effects;
pub mod engine;
pub mod json;
pub mod minitoml;
pub mod passes;
pub mod rules;

use std::path::{Path, PathBuf};

/// One finding from any pass, addressed by workspace-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the scanned root.
    pub file: PathBuf,
    /// 1-based source line (0 when the file could not be read).
    pub line: usize,
    /// Rule identifier (`no-panic`, …, `reset-complete`, `parse-error`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Render as the stable `path:line:rule` key used by the golden
    /// tests and for sorting.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file.display(), self.line, self.rule)
    }
}

/// One justified `allow` annotation in force somewhere in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveAllow {
    /// Path relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line the annotation sits on.
    pub line: usize,
    /// The suppressed rule.
    pub rule: String,
    /// The recorded justification text.
    pub justification: String,
}

/// Wall-clock cost of each lint phase, printed in the human summary so
/// interprocedural additions are accountable for their latency. Never
/// serialized to JSON (timings are nondeterministic; the report must
/// stay diffable).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimings {
    /// Source discovery + parsing + shared function lowering.
    pub parse_ms: f64,
    /// Per-file rule passes (legacy + expression dataflow).
    pub rules_ms: f64,
    /// Call-graph construction + effect fixpoint.
    pub graph_ms: f64,
    /// Workspace passes (the interprocedural rules).
    pub passes_ms: f64,
}

/// Outcome of a full `lint` run over one root.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of justified `allow` annotations in force.
    pub active_allows: usize,
    /// The justified annotations themselves, sorted by (file, line).
    pub allow_details: Vec<ActiveAllow>,
    /// Workspace-wide transitive effect-summary counts.
    pub effects: effects::EffectTotals,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

/// Run every lint pass (per-file rules + allow hygiene + the
/// interprocedural effect rules) over the workspace
/// rooted at `root`. Each file is parsed and lowered exactly once; the
/// same AST feeds the file rules and the call graph.
pub fn run_lint(root: &Path) -> LintReport {
    let ms = |t: std::time::Instant| t.elapsed().as_secs_f64() * 1e3;

    // Phase 1: discovery, parsing, shared lowering.
    let t = std::time::Instant::now();
    let ws = engine::Workspace::load(root);
    let mut lowered: Vec<Vec<dataflow::LoweredFn<'_>>> = Vec::with_capacity(ws.files.len());
    for pf in &ws.files {
        let skip = pf.source.class == engine::FileClass::IntegrationTest
            || dataflow::is_cfg_test_file(&pf.ast);
        lowered.push(if skip {
            Vec::new()
        } else {
            dataflow::lower_fns_ctx(&pf.ast.items)
        });
    }
    let mut allows_by_file = std::collections::BTreeMap::new();
    for pf in &ws.files {
        allows_by_file.insert(pf.source.rel.clone(), allow::scan(&pf.text));
    }
    let parse_ms = ms(t);

    // Phase 2: per-file rules over the shared lowering.
    let t = std::time::Instant::now();
    let mut findings = ws.errors.clone();
    let mut active_allows = 0;
    let mut allow_details = Vec::new();
    for (pf, low) in ws.files.iter().zip(&lowered) {
        let allows = &allows_by_file[&pf.source.rel];
        rules::lint_file(pf, low, allows, &mut findings);
        active_allows += allows.justified_count();
        for ann in allows.annotations.iter().filter(|a| a.active()) {
            allow_details.push(ActiveAllow {
                file: pf.source.rel.clone(),
                line: ann.line,
                rule: ann.rule.clone(),
                justification: ann.justification.clone().unwrap_or_default(),
            });
        }
    }
    let rules_ms = ms(t);

    // Phase 3: workspace call graph + effect fixpoint.
    let t = std::time::Instant::now();
    let graph = callgraph::build(&ws.files, &lowered);
    let eff = effects::compute(&graph, &allows_by_file);
    let graph_ms = ms(t);

    // Phase 4: workspace-level passes. All honor the same justified-
    // annotation escape hatch as the per-file rules.
    let t = std::time::Instant::now();
    let mut ws_findings = Vec::new();
    passes::panic_path::run(&graph, &eff, &mut ws_findings);
    passes::render_purity::run(&graph, &eff, &mut ws_findings);
    passes::reset_complete::run(&graph, &mut ws_findings);
    ws_findings.retain(|f| {
        !allows_by_file
            .get(&f.file)
            .is_some_and(|a| a.suppresses(f.rule, f.line))
    });
    findings.extend(ws_findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    allow_details.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let passes_ms = ms(t);

    LintReport {
        findings,
        files_scanned: ws.files.len() + ws.errors.len(),
        active_allows,
        allow_details,
        effects: effects::totals(&eff),
        timings: PhaseTimings {
            parse_ms,
            rules_ms,
            graph_ms,
            passes_ms,
        },
    }
}

/// Workspace root, derived from this crate's manifest directory
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}
