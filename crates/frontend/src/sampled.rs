//! SimPoint-style phase-sampled replay.
//!
//! Full replay costs one pass over every trace for every
//! (geometry-group, policy-chunk) task; the paper-scale sweeps we want
//! (hundreds of geometry × policy points) are wall-clock-intractable
//! that way. This module implements the classic phase-sampling recipe
//! over the corpus signature sidecars ([`fe_trace::signature`]):
//!
//! 1. group the trace's base windows into at most `windows` sampling
//!    intervals covering the **measured region** (the same second half
//!    of the trace, capped, that full replay measures — sampling the
//!    warmup half would estimate a different quantity);
//! 2. cluster the intervals' normalized signature vectors with the
//!    deterministic k-means ([`fe_trace::sample::kmeans`]), seeded from
//!    the trace name, and keep one representative interval per cluster;
//! 3. replay only the representatives as the run's [`Segment`]s (the
//!    engine's one replay loop, driven by
//!    [`crate::engine::RunSpec::run`]), each preceded by a `warmup`
//!    instruction prefix of functional warming, and combine per-interval
//!    MPKI into a cluster-weight-averaged estimate with a reported
//!    heterogeneity-based error estimate.
//!
//! When `k` covers every interval (or the trace is too small to
//! sample), the plan is **exact** and the trace replays as one full
//! segment — bit-identical to unsampled replay, which is the anchor the
//! equivalence proptests pin.
//!
//! Everything is deterministic: plans are a pure function of
//! (sidecar bytes, config, params), so repeated sampled runs are
//! byte-identical.

#![forbid(unsafe_code)]

use crate::engine::Segment;
pub use crate::experiment::run_suite_sampled;
use crate::simulator::SimConfig;
pub use crate::sweep::run_sweep_sampled;
use fe_trace::corpus::{fnv1a64, CorpusTrace};
use fe_trace::sample::{kmeans, KMEANS_MAX_ITERATIONS};
use fe_trace::signature::{
    compute_signatures, splitmix64, TraceSignatures, BASE_WINDOW_INSTRUCTIONS, SIGNATURE_DIM,
};
use serde::{Deserialize, Serialize};

/// User-facing sampling knobs (`--sampled=windows,k,warmup`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleParams {
    /// Maximum sampling intervals the measured region is grouped into.
    pub windows: u32,
    /// Clusters (= replayed representatives) per trace.
    pub k: u32,
    /// Functional-warming instructions replayed before each
    /// representative with measurement off.
    pub warmup: u64,
}

impl Default for SampleParams {
    fn default() -> SampleParams {
        SampleParams {
            windows: 32,
            k: 6,
            warmup: 2048,
        }
    }
}

impl std::fmt::Display for SampleParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{},k{},u{}", self.windows, self.k, self.warmup)
    }
}

/// Aggregated sampling observability attached to a sampled
/// [`crate::experiment::SuiteResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SampledInfo {
    /// Instructions actually replayed (warmup + measured) across all
    /// traces.
    pub replayed_instructions: u64,
    /// Full-replay instruction total of the same traces.
    pub total_instructions: u64,
    /// Worst per-trace error estimate (see [`SamplePlan::est_error`]).
    pub est_error: f64,
    /// Whether every trace's plan degenerated to exact full replay.
    pub exact: bool,
}

impl SampledInfo {
    /// Aggregate per-trace plans into the run-level summary.
    pub(crate) fn from_plans(plans: &[SamplePlan]) -> SampledInfo {
        SampledInfo {
            replayed_instructions: plans.iter().map(|p| p.replayed_instructions).sum(),
            total_instructions: plans.iter().map(|p| p.total_instructions).sum(),
            est_error: plans.iter().map(|p| p.est_error).fold(0.0, f64::max),
            exact: plans.iter().all(|p| p.exact),
        }
    }

    /// Full-replay instructions per replayed instruction — the
    /// per-trace work reduction the sampler achieved.
    #[must_use]
    pub fn speedup_proxy(&self) -> f64 {
        if self.replayed_instructions == 0 {
            1.0
        } else {
            self.total_instructions as f64 / self.replayed_instructions as f64
        }
    }
}

/// A per-trace sampling plan: which record ranges to replay and how to
/// weight their measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// `true` when the plan is full replay (small trace, or `k` covers
    /// every interval): the trace replays as one full segment and
    /// results are bit-identical to unsampled replay.
    pub exact: bool,
    /// Replay segments in ascending trace order (empty when `exact`).
    pub segments: Vec<Segment>,
    /// Heuristic error estimate: the cluster-weighted mean L1 distance
    /// between each interval's signature vector and its
    /// representative's, halved (total-variation style, in `[0, 1]`).
    /// Homogeneous phases → near 0; a trace whose intervals scatter far
    /// from their representatives reports a large value.
    pub est_error: f64,
    /// Instructions the plan replays (warmup + measured).
    pub replayed_instructions: u64,
    /// Full-replay instruction total of the trace.
    pub total_instructions: u64,
}

/// Build the sampling plan for one corpus trace.
///
/// Signatures come from the trace's sidecar; a trace without one (or
/// with a malformed one — its checksum is already covered by corpus
/// verification) falls back to recomputing them on the fly, so sampling
/// never hard-fails on an old cache.
#[must_use]
pub fn build_plan(trace: &CorpusTrace, base: &SimConfig, params: &SampleParams) -> SamplePlan {
    let sigs = trace.signatures().unwrap_or_else(|_| {
        compute_signatures(trace.cursor(), BASE_WINDOW_INSTRUCTIONS, SIGNATURE_DIM)
    });
    plan_from_signatures(&sigs, trace.name(), trace.instructions(), base, params)
}

/// Plan construction from already-parsed signatures (unit-testable
/// without a corpus).
#[allow(clippy::too_many_lines)] // one linear pipeline: group -> cluster -> weight -> segment; runs once per trace
fn plan_from_signatures(
    sigs: &TraceSignatures,
    name: &str,
    trace_instructions: u64,
    base: &SimConfig,
    params: &SampleParams,
) -> SamplePlan {
    let total = sigs.total_instructions();
    let exact = |total: u64| SamplePlan {
        exact: true,
        segments: Vec::new(),
        est_error: 0.0,
        replayed_instructions: total,
        total_instructions: total,
    };
    let nwin = sigs.window_count();
    if nwin == 0 {
        return exact(total);
    }
    let wins = sigs.windows();
    // Sample only the measured region: full replay warms on the first
    // half of the trace (capped) and measures the rest, so the sampled
    // estimate must target the same interval population.
    let measure_start = (trace_instructions / 2).min(base.warmup_cap);
    let w0 = wins
        .partition_point(|w| w.instr_start < measure_start)
        .min(nwin - 1);
    let nmeasured = nwin - w0;
    // Group consecutive base windows into at most `windows` intervals.
    let group = nmeasured.div_ceil(params.windows.max(1) as usize).max(1);
    let ngroups = nmeasured.div_ceil(group);
    if params.k as usize >= ngroups {
        // Every interval would be its own representative: sampling wins
        // nothing, and full replay is the exact answer.
        return exact(total);
    }

    // Normalized signature vector per interval (base-window sums).
    let dim = sigs.dim() as usize;
    let instr_at = |b: usize| {
        if b < nwin {
            wins[b].instr_start
        } else {
            total
        }
    };
    let rec_at = |b: usize| {
        if b < nwin {
            wins[b].rec_start
        } else {
            sigs.total_records()
        }
    };
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(ngroups);
    let mut vectors: Vec<f64> = Vec::with_capacity(ngroups * dim);
    let mut sum = vec![0u64; dim];
    for g in 0..ngroups {
        let lo = w0 + g * group;
        let hi = (lo + group).min(nwin);
        sum.fill(0);
        for b in lo..hi {
            for (s, &c) in sum.iter_mut().zip(sigs.counts_of(b)) {
                *s += u64::from(c);
            }
        }
        let mass: u64 = sum.iter().sum();
        let norm = if mass == 0 { 1.0 } else { mass as f64 };
        vectors.extend(sum.iter().map(|&s| s as f64 / norm));
        bounds.push((lo, hi));
    }

    // Deterministic clustering, seeded from the trace name alone.
    let seed = splitmix64(fnv1a64(name.as_bytes()));
    let clustering = kmeans(
        &vectors,
        dim,
        params.k as usize,
        seed,
        KMEANS_MAX_ITERATIONS,
    );
    let k = clustering.k();

    // Cluster weights: measured instructions, not interval counts — the
    // last interval can be shorter than the rest.
    let glen = |g: usize| instr_at(bounds[g].1) - instr_at(bounds[g].0);
    let total_measured: u64 = (0..ngroups).map(glen).sum();
    if total_measured == 0 {
        return exact(total);
    }
    let mut cluster_instr = vec![0u64; k];
    for g in 0..ngroups {
        let c = clustering.assignments[g] as usize;
        cluster_instr[c] += glen(g);
    }

    // Error estimate: weighted mean L1 distance to the representative,
    // halved (the vectors are L1-normalized, so this lives in [0, 1]).
    let mut est_error = 0.0;
    for g in 0..ngroups {
        let c = clustering.assignments[g] as usize;
        let rep = clustering.representatives[c] as usize;
        let l1: f64 = vectors[g * dim..(g + 1) * dim]
            .iter()
            .zip(&vectors[rep * dim..(rep + 1) * dim])
            .map(|(a, b)| (a - b).abs())
            .sum();
        est_error += (glen(g) as f64 / total_measured as f64) * l1 / 2.0;
    }

    // One segment per representative, in ascending trace order, each
    // with up to `warmup` instructions of functional warming walked back
    // in whole base windows (never overlapping the previous segment —
    // replayed regions are disjoint).
    let mut reps: Vec<usize> = clustering
        .representatives
        .iter()
        .map(|&r| r as usize)
        .collect();
    reps.sort_unstable();
    let mut segments = Vec::with_capacity(k);
    let mut replayed = 0u64;
    let mut prev_end_b = 0usize;
    for &g in &reps {
        let (lo_b, hi_b) = bounds[g];
        let m_start = instr_at(lo_b);
        let mut warm_b = lo_b;
        while warm_b > prev_end_b && m_start - instr_at(warm_b) < params.warmup {
            warm_b -= 1;
        }
        let c = clustering.assignments[g] as usize;
        let weight = cluster_instr[c] as f64 / total_measured as f64;
        segments.push(Segment {
            rec_lo: rec_at(warm_b),
            rec_hi: rec_at(hi_b),
            warmup_instructions: m_start - instr_at(warm_b),
            weight,
        });
        replayed += instr_at(hi_b) - instr_at(warm_b);
        prev_end_b = hi_b;
    }

    SamplePlan {
        exact: false,
        segments,
        est_error,
        replayed_instructions: replayed,
        total_instructions: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_suite_from, SuiteSource};
    use crate::policy::PolicyKind;
    use fe_trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
    use fe_trace::synth::{suite, WorkloadSpec};

    fn corpus_for(specs: &[WorkloadSpec]) -> SuiteCorpus {
        let mut b = CorpusBuilder::new();
        for s in specs {
            b.push_synthetic(&s.generate()).unwrap();
        }
        SuiteCorpus::from_corpus(&Corpus::from_bytes(b.finish()).unwrap())
    }

    fn specs(n: usize, instr: u64) -> Vec<WorkloadSpec> {
        suite(n, 42)
            .into_iter()
            .map(|s| s.instructions(instr))
            .collect()
    }

    #[test]
    fn plans_are_deterministic() {
        let specs = specs(2, 150_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let params = SampleParams::default();
        let a: Vec<SamplePlan> = (0..2)
            .map(|s| build_plan(corpus.trace(s), &base, &params))
            .collect();
        let b: Vec<SamplePlan> = (0..2)
            .map(|s| build_plan(corpus.trace(s), &base, &params))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn plan_segments_are_disjoint_ascending_and_weighted() {
        let specs = specs(1, 200_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let params = SampleParams {
            windows: 16,
            k: 4,
            warmup: 2048,
        };
        let plan = build_plan(corpus.trace(0), &base, &params);
        assert!(!plan.exact, "200k instructions should be sampleable");
        assert_eq!(plan.segments.len(), 4);
        for pair in plan.segments.windows(2) {
            assert!(pair[0].rec_hi <= pair[1].rec_lo, "segments overlap");
        }
        let wsum: f64 = plan.segments.iter().map(|s| s.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
        assert!(plan.replayed_instructions < plan.total_instructions);
        assert!(plan.est_error >= 0.0 && plan.est_error <= 1.0);
    }

    #[test]
    fn huge_k_plan_is_exact_and_delegates_bit_identically() {
        let specs = specs(3, 100_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
        let params = SampleParams {
            windows: 8,
            k: 8, // k = windows: every interval its own representative
            warmup: 1024,
        };
        let sampled = run_suite_sampled(&specs, &base, &pols, 2, &corpus, &params);
        let full = run_suite_from(&specs, &base, &pols, 2, SuiteSource::Corpus(&corpus));
        assert_eq!(sampled, full);
        let info = sampled.sampled.unwrap();
        assert!(info.exact);
        assert_eq!(info.replayed_instructions, info.total_instructions);
    }

    #[test]
    fn sampled_suite_is_deterministic_across_threads_and_repeats() {
        let specs = specs(2, 150_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Srrip];
        let params = SampleParams {
            windows: 16,
            k: 3,
            warmup: 2048,
        };
        let serial = run_suite_sampled(&specs, &base, &pols, 1, &corpus, &params);
        let parallel = run_suite_sampled(&specs, &base, &pols, 6, &corpus, &params);
        let again = run_suite_sampled(&specs, &base, &pols, 6, &corpus, &params);
        assert_eq!(serial, parallel);
        assert_eq!(parallel, again);
        let info = serial.sampled.unwrap();
        assert!(!info.exact);
        assert!(info.speedup_proxy() > 1.0);
    }

    #[test]
    fn sampled_sweep_matches_full_when_exact_and_reports_btb() {
        let specs = specs(2, 80_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp];
        let geoms = [(8 * 1024, 4), (32 * 1024, 8)];
        let params = SampleParams {
            windows: 4,
            k: 4,
            warmup: 1024,
        };
        let (sampled, info) =
            run_sweep_sampled(&specs, &base, &pols, &geoms, 2, &corpus, &params, true);
        assert!(info.exact);
        let full = crate::sweep::run_sweep_with(
            &specs,
            &base,
            &pols,
            &geoms,
            2,
            SuiteSource::Corpus(&corpus),
            true,
        );
        assert_eq!(sampled, full);
        assert!(sampled
            .points
            .iter()
            .all(|p| p.btb_means.iter().all(|&m| m > 0.0)));
    }

    #[test]
    fn sampled_mpki_stays_within_calibrated_error_bound() {
        // Seeded accuracy pin at unit-test scale. At 200k instructions
        // the intervals are tiny (a handful of 4k-instruction base
        // windows), so aggressive sampling has real representative and
        // cold-start bias; the pin asserts the reported heterogeneity
        // estimate scales that bias: |sampled - full| stays within
        // C * est_error * (sampled + 1 MPKI) with C calibrated to ~2x
        // margin over the observed seeds. The <1% frontier claim lives
        // in lab_sampled_fidelity's exact corner, not here.
        let specs = specs(2, 200_000);
        let corpus = corpus_for(&specs);
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Lru];
        let params = SampleParams {
            windows: 24,
            k: 6,
            warmup: 4096,
        };
        let sampled = run_suite_sampled(&specs, &base, &pols, 2, &corpus, &params);
        let full = run_suite_from(&specs, &base, &pols, 2, SuiteSource::Corpus(&corpus));
        for (i, (s, f)) in sampled.rows.iter().zip(&full.rows).enumerate() {
            let plan = build_plan(corpus.trace(i), &base, &params);
            let (sm, fm) = (s.icache_mpki[0], f.icache_mpki[0]);
            let bound = 10.0 * plan.est_error * (sm + 1.0);
            assert!(
                (sm - fm).abs() <= bound,
                "{}: sampled {sm} vs full {fm}, |drift| {} exceeds bound {bound}",
                s.name,
                (sm - fm).abs()
            );
        }
    }
}
