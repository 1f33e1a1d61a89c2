//! Benchmark harness for the GHRP reproduction.
//!
//! All figures, tables, ablations, and lab notebooks live in the
//! [`experiment`] registry (see `DESIGN.md` §11): each is an
//! [`experiment::Experiment`] that declares the simulations it needs and
//! renders its output from the deduplicated results. The `report` binary
//! is the only binary and drives the registry (`report run <name…> |
//! --all | list | corpus | diff | validate`).
//!
//! Nothing here measures time: the registry's records are deterministic
//! so two runs compare byte for byte. Wall-clock and per-layer costs come
//! from the separate `perfbench/` package (see `perfbench/METRICS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
