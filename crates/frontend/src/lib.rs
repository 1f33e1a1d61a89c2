//! Trace-driven decoupled front-end simulator and experiment harness.
//!
//! This crate glues the substrates together the way the paper's augmented
//! CBP-5 simulator does (§IV):
//!
//! * [`simulator`] — replays a branch trace through an I-cache, BTB and
//!   branch direction predictor, with the paper's warm-up discipline
//!   (first half of the trace, capped) and commit-time GHRP training. It
//!   is *not* cycle accurate; MPKI is the figure of merit.
//! * [`engine`] — the one replay loop and the one run driver. A
//!   [`RunSpec`] (traces, source, a list of [`LaneSpec`]s — each a full
//!   configuration plus its BTB measurement — and optional sampling)
//!   runs through [`RunSpec::run`]: each trace replays once as a list of
//!   segments — a full run is one segment, a sampled run its plan's —
//!   decoding the fetch stream and driving the shared predictors exactly
//!   once while broadcasting every event to lanes whose counters stay
//!   bit-identical to standalone [`Simulator`] runs. The result is a
//!   per-(trace, lane) [`RunGrid`]; unmet preconditions are a
//!   [`RunError`].
//! * [`policy`] — [`PolicyKind`]: runtime selection of the replacement
//!   policy pair (I-cache + BTB) under study.
//! * [`experiment`] — suite results: the per-trace MPKI table reshaped
//!   from a one-geometry run grid, with streaming trace replay so
//!   paper-scale suites never materialize record vectors.
//! * [`schedule`] — the dependency-free shared-cursor scheduler that
//!   drains the run driver's task grid, with per-worker lane arenas
//!   reused across tasks.
//! * [`sweep`] — cache-geometry sweeps (the paper's Figure 7): the
//!   per-geometry means of a many-geometry run grid, so one trace replay
//!   drives the lanes of every geometry at once.
//! * [`sampled`] — SimPoint-style phase-sampled replay: deterministic
//!   clustering of corpus signature intervals into warmup-prefixed
//!   representative segments, cluster-weight-averaged MPKI and an error
//!   estimate — two-orders-of-magnitude-cheaper wide sweeps.
//! * [`stats`] — means, 95% confidence intervals on relative differences
//!   (Figure 8), win/loss counts vs LRU (Figure 9), and S-curve ordering
//!   (Figures 3 and 11).
//!
//! ```no_run
//! use fe_frontend::{experiment, policy::PolicyKind, simulator::SimConfig};
//! use fe_trace::synth::suite;
//!
//! let specs = suite(8, 42);
//! let table = experiment::run_suite(&specs, &SimConfig::paper_default(), PolicyKind::PAPER_SET, 4);
//! println!("{}", table.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod policy;
pub mod sampled;
pub mod schedule;
pub mod simulator;
pub mod stats;
pub mod sweep;

pub use engine::{
    run_lanes, LaneSpec, ReplaySource, RunError, RunGrid, RunSpec, Segment, SliceReplay,
};
pub use experiment::{SuiteResult, SuiteSource, TraceRow};
pub use policy::PolicyKind;
pub use sampled::{
    build_plan, run_suite_sampled, run_sweep_sampled, SampleParams, SamplePlan, SampledInfo,
};
pub use schedule::SchedulerStats;
pub use simulator::{RunResult, SimConfig, Simulator};
