//! Cache-geometry sweeps (the paper's Figure 7).
//!
//! The sweep is the workspace's heaviest experiment, and its geometries
//! differ only in capacity/associativity — never block size. The
//! policy-independent front end (fetch decode, direction predictor, RAS,
//! indirect target cache) is therefore identical across every geometry,
//! so a sweep is one many-geometry [`RunSpec`]: one trace replay drives
//! the lanes of every geometry at once, and the Figure 7 sweep skips the
//! per-lane BTBs entirely because it consumes only I-cache means. Both
//! leave the reported means bit-identical to one suite per geometry
//! (locked in by tests below and the equivalence property suite).

#![forbid(unsafe_code)]

use crate::engine::{LaneMetrics, LaneSpec, RunGrid, RunSpec};
use crate::experiment::{run_or_panic, SuiteSource};
use crate::policy::PolicyKind;
use crate::sampled::{SampleParams, SampledInfo};
use crate::schedule::SchedulerStats;
use crate::simulator::SimConfig;
use crate::stats;
use fe_cache::CacheConfig;
use fe_trace::corpus::SuiteCorpus;
use fe_trace::synth::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One point of the sweep: a geometry plus per-policy mean MPKIs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// I-cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Mean I-cache MPKI per policy (parallel to `SweepResult::policies`).
    pub icache_means: Vec<f64>,
    /// Mean BTB MPKI per policy — all zeros unless the sweep ran with
    /// BTB measurement on ([`LaneSpec::measure_btb`]).
    pub btb_means: Vec<f64>,
}

/// Result of a full geometry sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// One point per geometry, in the order supplied.
    pub points: Vec<SweepPoint>,
    /// Scheduler observability for the run (worker utilization, steals).
    pub scheduler: SchedulerStats,
}

/// Equality compares the scientific payload only (policies and points);
/// scheduler counters are run-specific timing observability and must not
/// make two bit-identical simulations compare unequal.
impl PartialEq for SweepResult {
    fn eq(&self, other: &SweepResult) -> bool {
        self.policies == other.policies && self.points == other.points
    }
}

impl SweepResult {
    /// Reshape the grid of a run over `geometries` × `policies` (lanes
    /// geometry-major, as [`LaneSpec::grid`] lists them) into
    /// per-geometry means across its traces.
    pub fn from_grid(
        geometries: &[(u64, u32)],
        policies: &[PolicyKind],
        grid: RunGrid,
    ) -> SweepResult {
        let points = geometries
            .iter()
            .enumerate()
            .map(|(g, &(capacity_bytes, ways))| {
                // Per-policy means, accumulated in trace order: the
                // float-summation order of one suite per geometry.
                let means = |metric: fn(&LaneMetrics) -> f64| -> Vec<f64> {
                    (0..policies.len())
                        .map(|p| {
                            let column: Vec<f64> = (0..grid.traces())
                                .map(|s| metric(&grid.row(s)[g * policies.len() + p]))
                                .collect();
                            stats::mean(&column)
                        })
                        .collect()
                };
                SweepPoint {
                    capacity_bytes,
                    ways,
                    icache_means: means(|l| l.icache_mpki),
                    btb_means: means(|l| l.btb_mpki),
                }
            })
            .collect();
        SweepResult {
            policies: policies.to_vec(),
            points,
            scheduler: grid.scheduler,
        }
    }

    /// Render the Figure 7 table: one row per configuration.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<18}", "config");
        for p in &self.policies {
            let _ = write!(out, "{:>9}", p.to_string());
        }
        out.push('\n');
        for pt in &self.points {
            let _ = write!(
                out,
                "{:<18}",
                format!("{}KB {}-way", pt.capacity_bytes / 1024, pt.ways)
            );
            for m in &pt.icache_means {
                let _ = write!(out, "{m:>9.3}");
            }
            out.push('\n');
        }
        out
    }
}

/// The paper's Figure 7 geometries: {8, 16, 32, 64} KB × {4, 8} ways,
/// 64-byte blocks.
pub fn paper_geometries() -> Vec<(u64, u32)> {
    let mut v = Vec::new();
    for cap_kb in [8u64, 16, 32, 64] {
        for ways in [4u32, 8] {
            v.push((cap_kb * 1024, ways));
        }
    }
    v
}

/// The I-cache configurations of `geometries` (capacity, ways) at
/// `base`'s block size.
///
/// # Panics
///
/// Panics if a geometry is invalid (non-power-of-two sets).
pub fn sweep_icaches(base: &SimConfig, geometries: &[(u64, u32)]) -> Vec<CacheConfig> {
    geometries
        .iter()
        .map(|&(capacity, ways)| {
            CacheConfig::with_capacity(capacity, ways, base.icache.block_bytes())
                .expect("valid sweep geometry")
        })
        .collect()
}

/// Sweep the suite over `geometries` (capacity, ways) pairs on `threads`
/// OS threads (`0` = every available hardware thread).
///
/// Geometries fuse into one replay per workload when `threads <=
/// specs.len()`; more threads split the lane grid for extra parallelism
/// (see [`RunSpec::run`]). Per-point means are bit-identical either way.
/// `measure_btb = false` is the classic Figure 7 sweep (per-lane BTBs
/// skipped — cheapest; the GHRP BTB policy never writes the shared
/// predictor, so I-cache means are unaffected). `measure_btb = true`
/// additionally scores each lane's BTB under the swept base
/// configuration and fills [`SweepPoint::btb_means`], which the wide
/// sampled sweeps use to score BTB geometries alongside I-cache ones.
///
/// # Panics
///
/// Panics if a geometry is invalid, on a corpus source that does not
/// match `specs`, or if a worker panics.
pub fn run_sweep_with(
    specs: &[WorkloadSpec],
    base: &SimConfig,
    policies: &[PolicyKind],
    geometries: &[(u64, u32)],
    threads: usize,
    source: SuiteSource<'_>,
    measure_btb: bool,
) -> SweepResult {
    let icaches = sweep_icaches(base, geometries);
    let lanes = LaneSpec::grid(base, &icaches, policies, measure_btb);
    let spec = RunSpec {
        specs,
        source,
        lanes: &lanes,
        sampling: None,
        part_width: None,
    };
    SweepResult::from_grid(geometries, policies, run_or_panic(&spec, threads))
}

/// Phase-sampled counterpart of [`run_sweep_with`] over a corpus source.
/// Returns per-point I-cache and BTB means plus the aggregated
/// [`SampledInfo`].
///
/// # Panics
///
/// Panics if a geometry is invalid, if the corpus does not match
/// `specs`, if an offline policy meets a non-exact sampled plan, or if a
/// worker panics.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_sampled(
    specs: &[WorkloadSpec],
    base: &SimConfig,
    policies: &[PolicyKind],
    geometries: &[(u64, u32)],
    threads: usize,
    corpus: &SuiteCorpus,
    params: &SampleParams,
    measure_btb: bool,
) -> (SweepResult, SampledInfo) {
    let icaches = sweep_icaches(base, geometries);
    let lanes = LaneSpec::grid(base, &icaches, policies, measure_btb);
    let spec = RunSpec {
        specs,
        source: SuiteSource::Corpus(corpus),
        lanes: &lanes,
        sampling: Some(*params),
        part_width: None,
    };
    let grid = run_or_panic(&spec, threads);
    let info = grid.sampled.unwrap_or_default();
    (SweepResult::from_grid(geometries, policies, grid), info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_suite;
    use fe_trace::synth::{suite, WorkloadCategory};

    fn streamed_sweep(
        specs: &[WorkloadSpec],
        base: &SimConfig,
        policies: &[PolicyKind],
        geometries: &[(u64, u32)],
        threads: usize,
    ) -> SweepResult {
        run_sweep_with(
            specs,
            base,
            policies,
            geometries,
            threads,
            SuiteSource::Streamed,
            false,
        )
    }

    #[test]
    fn paper_geometries_are_eight() {
        let g = paper_geometries();
        assert_eq!(g.len(), 8);
        assert!(g.contains(&(64 * 1024, 8)));
        assert!(g.contains(&(8 * 1024, 4)));
    }

    #[test]
    fn smaller_caches_miss_more() {
        let specs: Vec<_> = suite(2, 5)
            .into_iter()
            .filter(|s| s.category == WorkloadCategory::ShortServer)
            .map(|s| s.instructions(120_000))
            .collect();
        let result = streamed_sweep(
            &specs,
            &SimConfig::paper_default(),
            &[PolicyKind::Lru],
            &[(8 * 1024, 4), (64 * 1024, 8)],
            2,
        );
        assert_eq!(result.points.len(), 2);
        let small = result.points[0].icache_means[0];
        let large = result.points[1].icache_means[0];
        assert!(
            small > large,
            "8KB MPKI {small} should exceed 64KB MPKI {large}"
        );
    }

    #[test]
    fn fused_sweep_matches_per_geometry_suites() {
        // The geometry-fused, BTB-skipping sweep must reproduce the
        // means of one full suite per geometry exactly.
        let specs: Vec<_> = suite(3, 21)
            .into_iter()
            .map(|s| s.instructions(60_000))
            .collect();
        let cfg = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Sdbp, PolicyKind::Ghrp];
        let geoms = [(8 * 1024, 4), (16 * 1024, 8), (64 * 1024, 8)];
        let swept = streamed_sweep(&specs, &cfg, &pols, &geoms, 1);
        for (point, &(capacity, ways)) in swept.points.iter().zip(&geoms) {
            let icache = fe_cache::CacheConfig::with_capacity(capacity, ways, 64)
                .expect("valid test geometry");
            let suite_result = run_suite(&specs, &cfg.with_icache(icache), &pols, 1);
            assert_eq!(
                point.icache_means,
                suite_result.icache_means(),
                "{capacity}B {ways}-way diverged from the unfused path"
            );
        }
    }

    #[test]
    fn offline_policy_sweeps_match_serial() {
        // OPT lanes disable arena reuse; the sweep must still agree
        // across thread counts.
        let specs: Vec<_> = suite(2, 9)
            .into_iter()
            .map(|s| s.instructions(40_000))
            .collect();
        let cfg = SimConfig::paper_default();
        let pols = [PolicyKind::Opt, PolicyKind::Lru];
        let geoms = [(8 * 1024, 4), (32 * 1024, 8)];
        let serial = streamed_sweep(&specs, &cfg, &pols, &geoms, 1);
        let parallel = streamed_sweep(&specs, &cfg, &pols, &geoms, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn render_lists_configs() {
        let r = SweepResult {
            policies: vec![PolicyKind::Lru],
            points: vec![SweepPoint {
                capacity_bytes: 8 * 1024,
                ways: 4,
                icache_means: vec![3.25],
                btb_means: vec![0.0],
            }],
            scheduler: SchedulerStats::default(),
        };
        let s = r.render();
        assert!(s.contains("8KB 4-way"));
        assert!(s.contains("3.250"));
    }
}
