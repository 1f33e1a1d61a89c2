//! Suite experiments: run many workloads across many policies.
//!
//! A suite is a one-geometry [`RunSpec`], one lane per policy: every
//! workload replays **once** for the whole policy set (see
//! [`crate::engine`]), by default streamed straight out of the workload
//! walker so no record vector is ever materialized. [`SuiteResult`] is
//! the per-trace reshape of the run's grid.

#![forbid(unsafe_code)]

use crate::engine::{LaneSpec, RunError, RunGrid, RunSpec};
use crate::policy::PolicyKind;
use crate::sampled::SampleParams;
use crate::schedule::SchedulerStats;
use crate::simulator::SimConfig;
use crate::stats;
use fe_trace::corpus::SuiteCorpus;
use fe_trace::synth::{WorkloadCategory, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-trace results across the policy set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Workload name.
    pub name: String,
    /// Workload category.
    pub category: WorkloadCategory,
    /// Post-warm-up instructions (identical across policies).
    pub instructions: u64,
    /// I-cache MPKI per policy (parallel to `SuiteResult::policies`).
    pub icache_mpki: Vec<f64>,
    /// BTB MPKI per policy.
    pub btb_mpki: Vec<f64>,
    /// Conditional-branch predictor MPKI (policy independent).
    pub branch_mpki: f64,
}

/// Results of a suite run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// One row per workload.
    pub rows: Vec<TraceRow>,
    /// Scheduler observability for the run (worker utilization, steals).
    pub scheduler: SchedulerStats,
    /// Sampling observability when the suite ran phase-sampled
    /// ([`RunSpec::sampling`]); `None` for full replay.
    pub sampled: Option<crate::sampled::SampledInfo>,
}

/// Equality compares the scientific payload only (policies and rows);
/// scheduler counters are run-specific timing observability and must not
/// make two bit-identical simulations compare unequal.
impl PartialEq for SuiteResult {
    fn eq(&self, other: &SuiteResult) -> bool {
        self.policies == other.policies && self.rows == other.rows
    }
}

impl SuiteResult {
    /// Reshape the grid of a run of `specs` × `policies` (one lane per
    /// policy, in order) into per-trace rows.
    pub fn from_grid(
        specs: &[WorkloadSpec],
        policies: &[PolicyKind],
        grid: RunGrid,
    ) -> SuiteResult {
        let rows = specs
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                let lanes = grid.row(s);
                debug_assert_eq!(lanes.len(), policies.len());
                // Every lane consumed the same shared pass, so the
                // policy-independent columns come from the first.
                TraceRow {
                    name: spec.name.clone(),
                    category: spec.category,
                    instructions: lanes.first().map_or(0, |l| l.instructions),
                    icache_mpki: lanes.iter().map(|l| l.icache_mpki).collect(),
                    btb_mpki: lanes.iter().map(|l| l.btb_mpki).collect(),
                    branch_mpki: lanes.first().map_or(0.0, |l| l.branch_mpki),
                }
            })
            .collect();
        SuiteResult {
            policies: policies.to_vec(),
            rows,
            scheduler: grid.scheduler,
            sampled: grid.sampled,
        }
    }

    /// Column of I-cache MPKIs for `policy`, one entry per trace.
    ///
    /// # Panics
    ///
    /// Panics if `policy` was not part of the run.
    pub fn icache_column(&self, policy: PolicyKind) -> Vec<f64> {
        let i = self.policy_index(policy);
        self.rows.iter().map(|r| r.icache_mpki[i]).collect()
    }

    /// Column of BTB MPKIs for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy` was not part of the run.
    pub fn btb_column(&self, policy: PolicyKind) -> Vec<f64> {
        let i = self.policy_index(policy);
        self.rows.iter().map(|r| r.btb_mpki[i]).collect()
    }

    fn policy_index(&self, policy: PolicyKind) -> usize {
        self.policies
            .iter()
            .position(|&p| p == policy)
            .unwrap_or_else(|| panic!("policy {policy} not in this suite"))
    }

    /// Arithmetic-mean I-cache MPKI per policy.
    pub fn icache_means(&self) -> Vec<f64> {
        self.policies
            .iter()
            .map(|&p| stats::mean(&self.icache_column(p)))
            .collect()
    }

    /// Arithmetic-mean BTB MPKI per policy.
    pub fn btb_means(&self) -> Vec<f64> {
        self.policies
            .iter()
            .map(|&p| stats::mean(&self.btb_column(p)))
            .collect()
    }

    /// The subset of traces with at least `min` I-cache MPKI under
    /// `reference` (the paper's "≥ 1 MPKI under LRU" subset).
    #[must_use]
    pub fn filter_min_icache_mpki(&self, reference: PolicyKind, min: f64) -> SuiteResult {
        let i = self.policy_index(reference);
        SuiteResult {
            policies: self.policies.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| r.icache_mpki[i] >= min)
                .cloned()
                .collect(),
            scheduler: self.scheduler.clone(),
            sampled: self.sampled,
        }
    }

    /// The first `n` rows of this result (same policy columns).
    ///
    /// [`fe_trace::synth::suite`] builds workload `i` from
    /// `base_seed + i` alone, so `suite(n, s)` is a prefix of
    /// `suite(m, s)` for `n <= m`; and every [`TraceRow`] is computed
    /// from an independent engine pass over its own workload. Taking the
    /// first `n` rows of a larger run is therefore bit-identical to
    /// re-running the `n`-workload suite — the experiment planner uses
    /// this to serve subset requests (e.g. the paper's Figure 6 uses 16
    /// of the 96 workloads) from one shared simulation.
    #[must_use]
    pub fn prefix(&self, n: usize) -> SuiteResult {
        SuiteResult {
            policies: self.policies.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
            scheduler: self.scheduler.clone(),
            sampled: self.sampled,
        }
    }

    /// Render a per-trace table plus the mean row, in the style of the
    /// paper's figures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<22}", "trace");
        for p in &self.policies {
            let _ = write!(out, "{:>9}", p.to_string());
        }
        out.push('\n');
        for r in &self.rows {
            let _ = write!(out, "{:<22}", r.name);
            for v in &r.icache_mpki {
                let _ = write!(out, "{v:>9.3}");
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<22}", "MEAN");
        for m in self.icache_means() {
            let _ = write!(out, "{m:>9.3}");
        }
        out.push('\n');
        out
    }
}

/// Where a suite or sweep run draws its branch records from.
///
/// Both variants produce bit-identical results; they differ only in
/// replay cost. `Streamed` re-walks the synthetic program inside every
/// task, while `Corpus` replays from an immutable shared buffer that
/// all scheduler workers read concurrently with zero per-worker parsing
/// or cloning.
#[derive(Debug, Clone, Copy)]
pub enum SuiteSource<'a> {
    /// Stream each workload out of its synthetic walker on demand.
    Streamed,
    /// Replay every workload from a shared corpus (one
    /// [`fe_trace::corpus::CorpusTrace`] per suite spec, in order).
    Corpus(&'a fe_trace::corpus::SuiteCorpus),
}

impl SuiteSource<'_> {
    /// Reject a corpus that does not line up with the suite specs —
    /// length and per-index workload names must match exactly, so a
    /// stale cache can never silently replay the wrong workload.
    pub(crate) fn validate(self, specs: &[WorkloadSpec]) -> Result<(), RunError> {
        let SuiteSource::Corpus(corpus) = self else {
            return Ok(());
        };
        if corpus.len() != specs.len() {
            return Err(RunError::CorpusLength {
                corpus: corpus.len(),
                specs: specs.len(),
            });
        }
        for (index, spec) in specs.iter().enumerate() {
            let found = corpus.trace(index).name();
            if found != spec.name {
                return Err(RunError::CorpusName {
                    index,
                    found: found.to_owned(),
                    expected: spec.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Run `spec`, for callers whose documented contract is to panic on a
/// [`RunError`]: the adapters here and the `report` planner, whose
/// specs meet every precondition by construction except an offline
/// policy under a non-exact sampled plan.
///
/// # Panics
///
/// Panics on any [`RunError`], or as [`RunSpec::run`].
pub fn run_or_panic(spec: &RunSpec<'_>, threads: usize) -> RunGrid {
    spec.run(threads).unwrap_or_else(|e| panic!("{e}"))
}

/// Run a whole suite over `threads` OS threads (`0` = every available
/// hardware thread), streaming each workload out of its walker.
///
/// With more threads than workloads the policy set splits into
/// contiguous chunks so the extra threads still parallelize (see
/// [`RunSpec::run`]). Rows come back in suite order with columns in
/// policy order — bit-identical to a serial run, regardless of thread
/// count or scheduling.
///
/// # Panics
///
/// Panics if a worker thread panics (propagated by the thread scope) or
/// if the BTB geometry is invalid.
pub fn run_suite(
    specs: &[WorkloadSpec],
    base: &SimConfig,
    policies: &[PolicyKind],
    threads: usize,
) -> SuiteResult {
    run_suite_from(specs, base, policies, threads, SuiteSource::Streamed)
}

/// [`run_suite`] with an explicit replay source.
///
/// With [`SuiteSource::Corpus`] every task replays its workload from
/// the shared corpus buffer instead of re-walking the synthetic
/// program; results are bit-identical either way.
///
/// # Panics
///
/// Panics if a worker thread panics, if the BTB geometry is invalid, or
/// if a corpus source does not match the suite specs (length or workload
/// names) — the [`RunError`]s of [`RunSpec::run`] this adapter turns
/// into panics.
pub fn run_suite_from(
    specs: &[WorkloadSpec],
    base: &SimConfig,
    policies: &[PolicyKind],
    threads: usize,
    source: SuiteSource<'_>,
) -> SuiteResult {
    let lanes = LaneSpec::grid(base, std::slice::from_ref(&base.icache), policies, true);
    let spec = RunSpec {
        specs,
        source,
        lanes: &lanes,
        sampling: None,
        part_width: None,
    };
    SuiteResult::from_grid(specs, policies, run_or_panic(&spec, threads))
}

/// Phase-sampled counterpart of [`run_suite_from`] over a corpus source:
/// a [`RunSpec`] with sampling on, whose result carries the run's
/// [`crate::sampled::SampledInfo`].
///
/// # Panics
///
/// Panics if the corpus does not match `specs`, if an offline policy
/// meets a non-exact sampled plan, if the BTB geometry is invalid, or if
/// a worker panics.
pub fn run_suite_sampled(
    specs: &[WorkloadSpec],
    base: &SimConfig,
    policies: &[PolicyKind],
    threads: usize,
    corpus: &SuiteCorpus,
    params: &SampleParams,
) -> SuiteResult {
    let lanes = LaneSpec::grid(base, std::slice::from_ref(&base.icache), policies, true);
    let spec = RunSpec {
        specs,
        source: SuiteSource::Corpus(corpus),
        lanes: &lanes,
        sampling: Some(*params),
        part_width: None,
    };
    SuiteResult::from_grid(specs, policies, run_or_panic(&spec, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_trace::synth::suite;

    fn tiny_suite() -> Vec<WorkloadSpec> {
        suite(4, 77)
            .into_iter()
            .map(|s| s.instructions(80_000))
            .collect()
    }

    #[test]
    fn suite_runs_all_rows_in_order() {
        let specs = tiny_suite();
        let result = run_suite(
            &specs,
            &SimConfig::paper_default(),
            &[PolicyKind::Lru, PolicyKind::Ghrp],
            3,
        );
        assert_eq!(result.rows.len(), 4);
        for (row, spec) in result.rows.iter().zip(&specs) {
            assert_eq!(row.name, spec.name);
            assert_eq!(row.icache_mpki.len(), 2);
        }
    }

    #[test]
    fn suite_rows_match_per_policy_simulator_runs() {
        let specs = tiny_suite();
        let cfg = SimConfig::paper_default();
        let pols = [
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Srrip,
            PolicyKind::Sdbp,
            PolicyKind::Ghrp,
        ];
        let suite = run_suite(&specs, &cfg, &pols, 2);
        for (row, spec) in suite.rows.iter().zip(&specs) {
            let trace = spec.generate();
            for (i, &p) in pols.iter().enumerate() {
                let r = crate::Simulator::new(cfg.with_policy(p))
                    .run(&trace.records, trace.instructions);
                assert_eq!(row.instructions, r.instructions, "{}", spec.name);
                assert_eq!(row.branch_mpki.to_bits(), r.branch_mpki().to_bits());
                assert_eq!(row.icache_mpki[i].to_bits(), r.icache_mpki().to_bits());
                assert_eq!(row.btb_mpki[i].to_bits(), r.btb_mpki().to_bits());
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let specs = tiny_suite();
        let cfg = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Srrip];
        let serial = run_suite(&specs, &cfg, &pols, 1);
        let parallel = run_suite(&specs, &cfg, &pols, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_threads_than_workloads_still_parallelizes() {
        // 2 workloads × 7 threads: the flattened grid splits the policy
        // set into chunks instead of silently clamping to 2 threads.
        let specs: Vec<WorkloadSpec> = tiny_suite().into_iter().take(2).collect();
        let cfg = SimConfig::paper_default();
        let pols = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Srrip,
            PolicyKind::Ghrp,
        ];
        let serial = run_suite(&specs, &cfg, &pols, 1);
        let wide = run_suite(&specs, &cfg, &pols, 7);
        assert_eq!(serial, wide);
        assert!(
            wide.scheduler.workers > 2,
            "policy chunking should engage more than one worker per workload: {:?}",
            wide.scheduler
        );
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let specs: Vec<WorkloadSpec> = tiny_suite().into_iter().take(1).collect();
        let cfg = SimConfig::paper_default();
        let auto = run_suite(&specs, &cfg, &[PolicyKind::Lru], 0);
        let serial = run_suite(&specs, &cfg, &[PolicyKind::Lru], 1);
        assert_eq!(auto, serial);
        assert!(auto.scheduler.workers >= 1);
    }

    #[test]
    fn scheduler_stats_account_for_every_task() {
        let specs = tiny_suite();
        let result = run_suite(
            &specs,
            &SimConfig::paper_default(),
            &[PolicyKind::Lru, PolicyKind::Srrip],
            3,
        );
        let s = &result.scheduler;
        assert_eq!(
            s.per_worker.iter().map(|w| w.tasks).sum::<u64>(),
            s.tasks,
            "per-worker task counts must sum to the grid size"
        );
        assert!(s.utilization() > 0.0);
    }

    mod equivalence_props {
        use super::*;
        use crate::sweep::{run_sweep_with, SweepResult};
        use proptest::prelude::*;

        /// Build a suite with `n` workloads; workload `heavy` (if any)
        /// runs 10× longer than the rest — a steal-heavy skew.
        fn skewed_suite(n: usize, seed: u64, heavy: Option<usize>) -> Vec<WorkloadSpec> {
            suite(n, seed)
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let instr = if heavy == Some(i) { 300_000 } else { 30_000 };
                    s.instructions(instr)
                })
                .collect()
        }

        proptest! {
            /// The tentpole determinism claim: any thread count drains
            /// the flattened grid to bit-identical rows, including under
            /// steal-heavy skew (one 10× workload). `skew >= n` means no
            /// skewed workload this case.
            #[test]
            fn suite_bit_identical_across_thread_counts(
                n in 1usize..6,
                seed in 0u64..1000,
                skew in 0usize..12,
                threads in 2usize..=8,
            ) {
                let heavy = (skew < n).then_some(skew);
                let specs = skewed_suite(n, seed, heavy);
                let pols = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ghrp];
                let cfg = SimConfig::paper_default();
                let serial = run_suite(&specs, &cfg, &pols, 1);
                let parallel = run_suite(&specs, &cfg, &pols, threads);
                prop_assert_eq!(serial, parallel);
            }

            /// Sweep grids (geometry-fused, BTB-skipping) are likewise
            /// bit-identical to the serial drain at any thread count.
            #[test]
            fn sweep_bit_identical_across_thread_counts(
                n in 1usize..4,
                seed in 0u64..1000,
                threads in 2usize..=8,
            ) {
                let specs = skewed_suite(n, seed, (n > 1).then_some(0));
                let geoms = [(8 * 1024, 4), (16 * 1024, 4), (32 * 1024, 8)];
                let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
                let cfg = SimConfig::paper_default();
                let sweep = |threads| {
                    run_sweep_with(&specs, &cfg, &pols, &geoms, threads, SuiteSource::Streamed, false)
                };
                let serial: SweepResult = sweep(1);
                let parallel = sweep(threads);
                prop_assert_eq!(serial, parallel);
            }
        }
    }

    #[test]
    fn prefix_of_larger_suite_is_bit_identical_to_smaller_run() {
        // The planner's subsumption rule: a 2-workload suite request can
        // be served by slicing a 4-workload run of the same seed.
        let small: Vec<WorkloadSpec> = suite(2, 77)
            .into_iter()
            .map(|s| s.instructions(60_000))
            .collect();
        let large: Vec<WorkloadSpec> = suite(4, 77)
            .into_iter()
            .map(|s| s.instructions(60_000))
            .collect();
        let cfg = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
        let direct = run_suite(&small, &cfg, &pols, 2);
        let sliced = run_suite(&large, &cfg, &pols, 2).prefix(2);
        assert_eq!(direct, sliced);
    }

    #[test]
    fn columns_and_means_consistent() {
        let specs = tiny_suite();
        let result = run_suite(&specs, &SimConfig::paper_default(), &[PolicyKind::Lru], 2);
        let col = result.icache_column(PolicyKind::Lru);
        assert_eq!(col.len(), 4);
        let means = result.icache_means();
        assert!((means[0] - crate::stats::mean(&col)).abs() < 1e-12);
    }

    #[test]
    fn filter_keeps_high_mpki_traces() {
        let result = SuiteResult {
            policies: vec![PolicyKind::Lru],
            rows: vec![
                TraceRow {
                    name: "low".into(),
                    category: fe_trace::synth::WorkloadCategory::ShortMobile,
                    instructions: 1,
                    icache_mpki: vec![0.2],
                    btb_mpki: vec![0.0],
                    branch_mpki: 0.0,
                },
                TraceRow {
                    name: "high".into(),
                    category: fe_trace::synth::WorkloadCategory::ShortServer,
                    instructions: 1,
                    icache_mpki: vec![4.0],
                    btb_mpki: vec![0.0],
                    branch_mpki: 0.0,
                },
            ],
            scheduler: SchedulerStats::default(),
            sampled: None,
        };
        let f = result.filter_min_icache_mpki(PolicyKind::Lru, 1.0);
        assert_eq!(f.rows.len(), 1);
        assert_eq!(f.rows[0].name, "high");
    }

    #[test]
    fn render_contains_header_and_mean() {
        let specs = tiny_suite();
        let result = run_suite(&specs, &SimConfig::paper_default(), &[PolicyKind::Lru], 2);
        let s = result.render();
        assert!(s.contains("LRU"));
        assert!(s.contains("MEAN"));
    }

    #[test]
    #[should_panic(expected = "not in this suite")]
    fn missing_policy_column_panics() {
        let result = SuiteResult {
            policies: vec![PolicyKind::Lru],
            rows: vec![],
            scheduler: SchedulerStats::default(),
            sampled: None,
        };
        let _ = result.icache_column(PolicyKind::Ghrp);
    }
}
