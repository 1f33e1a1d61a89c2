//! Expression-level dataflow passes.
//!
//! Each pass consumes the per-function [`crate::dataflow::FnUnit`]
//! lowering and appends [`crate::dataflow::Hit`]s; `rules::lint_file`
//! owns scoping (file class, hot-path predicate), allow-filtering and
//! dedup, so passes stay pure analyses:
//!
//! * [`nondet`] — `nondet-taint` + `float-order`: unordered-map
//!   iteration escaping into ordered results or float accumulation.
//! * [`hotloop`] — `alloc-in-hot-loop`: per-iteration heap churn in
//!   simulator hot loops.
//!
//! The interprocedural passes consume the workspace call graph
//! ([`crate::callgraph`]) and effect summaries ([`crate::effects`])
//! instead of a single function, and emit [`crate::Finding`]s directly
//! (they know workspace-relative paths); `run_lint` owns their
//! allow-filtering:
//!
//! * [`panic_path`] — `panic-path`: transitive panic-freedom of hot
//!   paths.
//! * [`render_purity`] — `render-purity`: `Experiment::render` free of
//!   I/O and nondeterministic inputs.
//! * [`reset_complete`] — `reset-complete`: lane-arena `reset()`
//!   restores every constructor-initialized, mutated field.

#![forbid(unsafe_code)]

pub mod hotloop;
pub mod nondet;
pub mod panic_path;
pub mod render_purity;
pub mod reset_complete;
