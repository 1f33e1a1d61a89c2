//! Property-based equivalence: the single-pass multi-policy engine must be
//! bit-identical to the reference one-`Simulator`-per-policy path on
//! random workloads, random policy subsets, and both replay sources.
//!
//! The engine shares one decoded fetch stream and one set of branch
//! predictors across all lanes, so the property these tests pin down is
//! that the sharing is *observationally invisible*: every per-lane
//! statistic — I-cache, BTB, branch predictor, wrong-path — matches the
//! standalone simulator exactly, not merely within tolerance.

#![forbid(unsafe_code)]

use ghrp_repro::cache::CacheConfig;
use ghrp_repro::frontend::engine::{run_lanes, SliceReplay};
use ghrp_repro::frontend::experiment::{run_suite, run_suite_from, TraceRow};
use ghrp_repro::frontend::policy::BasePolicy;
use ghrp_repro::frontend::simulator::WrongPathConfig;
use ghrp_repro::frontend::stats::mean;
use ghrp_repro::frontend::sweep::run_sweep_with;
use ghrp_repro::frontend::{PolicyKind, RunResult, SimConfig, Simulator, SuiteSource};
use ghrp_repro::trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
use ghrp_repro::trace::synth::{suite, SyntheticTrace, WorkloadCategory, WorkloadSpec};
use proptest::prelude::*;

/// The online policies the engine races in one pass. OPT joins via its own
/// test below (it needs the offline precompute path exercised too).
const ONLINE: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Sdbp,
    PolicyKind::Ghrp,
];

fn arb_category() -> impl Strategy<Value = WorkloadCategory> {
    (0usize..4).prop_map(|i| {
        [
            WorkloadCategory::ShortMobile,
            WorkloadCategory::ShortServer,
            WorkloadCategory::LongMobile,
            WorkloadCategory::LongServer,
        ][i]
    })
}

/// A non-empty subset of the online policies, in declaration order: bit
/// `i` of the mask selects `ONLINE[i]`.
fn arb_policies() -> impl Strategy<Value = Vec<PolicyKind>> {
    (1u8..128).prop_map(|mask| {
        ONLINE
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect()
    })
}

/// Geometries a sweep may cover, at `SimConfig::paper_default`'s 64-byte
/// blocks.
const SWEEP_GEOMETRIES: [(u64, u32); 4] = [
    (8 * 1024, 4),
    (16 * 1024, 8),
    (32 * 1024, 2),
    (64 * 1024, 8),
];

/// Encode `traces` into a shared in-memory corpus.
fn corpus_of(traces: &[SyntheticTrace]) -> SuiteCorpus {
    let mut builder = CorpusBuilder::new();
    for trace in traces {
        builder.push_synthetic(trace).expect("encode");
    }
    SuiteCorpus::from_corpus(&Corpus::from_bytes(builder.finish()).expect("verified corpus"))
}

/// A small but non-trivial workload: long enough to fill the caches and
/// cross the warm-up boundary, short enough that running both engine and
/// legacy paths per case keeps the suite fast.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (arb_category(), any::<u64>(), 8_000u64..24_000)
        .prop_map(|(cat, seed, n)| WorkloadSpec::new(cat, seed).instructions(n))
}

/// Any candidate a hybrid may duel (every online base policy).
fn arb_base() -> impl Strategy<Value = BasePolicy> {
    (0usize..9).prop_map(|i| {
        [
            BasePolicy::Lru,
            BasePolicy::Fifo,
            BasePolicy::Random,
            BasePolicy::Srrip,
            BasePolicy::Drrip,
            BasePolicy::Ship,
            BasePolicy::CounterDbp,
            BasePolicy::Sdbp,
            BasePolicy::Ghrp,
        ][i]
    })
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (any::<bool>(), 0u32..=2).prop_map(|(wrong_path, prefetch)| {
        let mut cfg = SimConfig::paper_default();
        if wrong_path {
            cfg.wrong_path = Some(WrongPathConfig::default());
        }
        cfg.prefetch_degree = prefetch;
        cfg
    })
}

proptest! {
    /// Each engine lane reproduces the standalone simulator exactly —
    /// every statistic, not just MPKI — for a random workload, a random
    /// policy subset, and random wrong-path/prefetch settings.
    #[test]
    fn lanes_are_bit_identical_to_standalone_runs(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let lanes = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        prop_assert_eq!(lanes.len(), policies.len());
        for (lane, &p) in lanes.iter().zip(&policies) {
            let standalone =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            prop_assert_eq!(lane, &standalone);
        }
    }

    /// The streaming replay source (no materialized record vector) yields
    /// the same lanes as replaying a pre-generated slice.
    #[test]
    fn streaming_matches_slice_replay(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let from_slice = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        let from_stream = run_lanes(&base, &policies, &spec.streamed());
        prop_assert_eq!(from_slice, from_stream);
    }

    /// A one-trace suite row equals the row rebuilt from one standalone
    /// `Simulator::run` per policy, for the full seven-policy set.
    #[test]
    fn suite_row_matches_standalone_runs(
        spec in arb_spec(),
        base in arb_config(),
    ) {
        let suite = run_suite(std::slice::from_ref(&spec), &base, &ONLINE, 1);
        let trace = spec.generate();
        let runs: Vec<RunResult> = ONLINE
            .iter()
            .map(|&p| Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions))
            .collect();
        let standalone = TraceRow {
            name: spec.name.clone(),
            category: spec.category,
            instructions: runs[0].instructions,
            icache_mpki: runs.iter().map(RunResult::icache_mpki).collect(),
            btb_mpki: runs.iter().map(RunResult::btb_mpki).collect(),
            branch_mpki: runs[0].branch_mpki(),
        };
        prop_assert_eq!(&suite.rows[0], &standalone);
    }

    /// The run driver against the independent reference loop: every
    /// sweep point's means equal the mean of per-trace `Simulator::run`
    /// MPKIs bit for bit, for random geometry subsets and policy sets, at
    /// any thread count (more threads than traces splits the lane grid),
    /// from either replay source, with BTBs measured or skipped.
    #[test]
    fn sweep_means_match_standalone_runs(
        seed in 0u64..1000,
        ntraces in 1usize..=3,
        instr in 8_000u64..16_000,
        geometry_mask in 1u8..16,
        policies in arb_policies(),
        threads in 1usize..=8,
        from_corpus in any::<bool>(),
        measure_btb in any::<bool>(),
    ) {
        let specs: Vec<WorkloadSpec> = suite(ntraces, seed)
            .into_iter()
            .map(|s| s.instructions(instr))
            .collect();
        let traces: Vec<SyntheticTrace> = specs.iter().map(WorkloadSpec::generate).collect();
        let geometries: Vec<(u64, u32)> = SWEEP_GEOMETRIES
            .iter()
            .enumerate()
            .filter(|&(i, _)| geometry_mask >> i & 1 == 1)
            .map(|(_, &g)| g)
            .collect();
        let corpus = from_corpus.then(|| corpus_of(&traces));
        let source = corpus.as_ref().map_or(SuiteSource::Streamed, SuiteSource::Corpus);
        let base = SimConfig::paper_default();
        let sweep =
            run_sweep_with(&specs, &base, &policies, &geometries, threads, source, measure_btb);
        prop_assert_eq!(sweep.points.len(), geometries.len());
        for (point, &(capacity, ways)) in sweep.points.iter().zip(&geometries) {
            let icache = CacheConfig::with_capacity(capacity, ways, base.icache.block_bytes())
                .expect("valid test geometry");
            for (p, &policy) in policies.iter().enumerate() {
                let runs: Vec<RunResult> = traces
                    .iter()
                    .map(|t| {
                        Simulator::new(base.with_policy(policy).with_icache(icache))
                            .run(&t.records, t.instructions)
                    })
                    .collect();
                let icache_mpki: Vec<f64> = runs.iter().map(RunResult::icache_mpki).collect();
                prop_assert_eq!(point.icache_means[p].to_bits(), mean(&icache_mpki).to_bits());
                let btb_mean = if measure_btb {
                    mean(&runs.iter().map(RunResult::btb_mpki).collect::<Vec<_>>())
                } else {
                    0.0
                };
                prop_assert_eq!(point.btb_means[p].to_bits(), btb_mean.to_bits());
            }
        }
    }

    /// A corpus round-trip is replay-transparent to the engine: encoding
    /// a workload to the columnar format and replaying it through a
    /// shared-buffer cursor yields the same lanes as replaying the
    /// original record slice.
    #[test]
    fn corpus_replay_matches_slice_replay(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let mut builder = CorpusBuilder::new();
        builder.push_synthetic(&trace).expect("corpus encode");
        let corpus = Corpus::from_bytes(builder.finish()).expect("corpus decode");
        let corpus_trace = corpus.get(0).expect("one trace");
        let from_slice = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        let from_corpus = run_lanes(&base, &policies, &corpus_trace);
        prop_assert_eq!(from_slice, from_corpus);
    }

    /// A dueling hybrid with a single candidate is observationally the
    /// static policy: every decision comes from candidate 0 no matter
    /// what the PSEL tallies say, so `duel(p)` and `phase(p)` lanes must
    /// be bit-identical to a static `p` lane — all statistics, both
    /// selection modes, any base policy, random workloads and configs.
    #[test]
    fn single_candidate_hybrid_is_bit_identical_to_static(
        spec in arb_spec(),
        base in arb_config(),
        p in arb_base(),
        window in 64u32..4096,
    ) {
        let trace = spec.generate();
        let statik = p.as_kind();
        for hybrid in [PolicyKind::duel(&[p]), PolicyKind::phase(&[p], window)] {
            let lanes = run_lanes(
                &base,
                &[statik, hybrid],
                &SliceReplay::from_trace(&trace),
            );
            // Identical up to the policy label the lane reports.
            let mut normalized = lanes[1];
            normalized.policy = lanes[0].policy;
            prop_assert_eq!(normalized, lanes[0]);
        }
    }

    /// The offline oracle lane (whose access sequences are precomputed
    /// once and shared) also matches its standalone run alongside online
    /// company.
    #[test]
    fn offline_opt_lane_matches_standalone(spec in arb_spec()) {
        let base = SimConfig::paper_default();
        let policies = [PolicyKind::Opt, PolicyKind::Lru, PolicyKind::Ghrp];
        let trace = spec.generate();
        let lanes = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        for (lane, &p) in lanes.iter().zip(&policies) {
            let standalone =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            prop_assert_eq!(lane, &standalone);
        }
    }
}

/// Suite and sweep runs replaying from a shared corpus must be
/// bit-identical to the streamed-synth path at every thread count: the
/// corpus is one immutable buffer read concurrently by all scheduler
/// workers, so neither sharing nor scheduling may show through in the
/// results.
#[test]
fn corpus_suite_and_sweep_match_streamed_across_threads() {
    let specs: Vec<WorkloadSpec> = suite(3, 33)
        .into_iter()
        .map(|s| s.instructions(20_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    for spec in &specs {
        builder.push_synthetic(&spec.generate()).expect("encode");
    }
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus);

    let cfg = SimConfig::paper_default();
    // Opt exercises the offline precompute pass (a second corpus
    // replay); Ghrp and Lru cover predictor-coupled and plain lanes.
    let pols = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Opt];
    let geoms = [(8 * 1024, 4), (32 * 1024, 8)];

    let suite_ref = run_suite(&specs, &cfg, &pols, 1);
    let sweep_ref = run_sweep_with(&specs, &cfg, &pols, &geoms, 1, SuiteSource::Streamed, false);
    for threads in 1..=8 {
        let from_corpus =
            run_suite_from(&specs, &cfg, &pols, threads, SuiteSource::Corpus(&shared));
        assert_eq!(
            from_corpus, suite_ref,
            "suite diverged from streamed replay at {threads} threads"
        );
        let swept = run_sweep_with(
            &specs,
            &cfg,
            &pols,
            &geoms,
            threads,
            SuiteSource::Corpus(&shared),
            false,
        );
        assert_eq!(
            swept, sweep_ref,
            "sweep diverged from streamed replay at {threads} threads"
        );
    }
}

/// `duel(p)`/`phase(p)` columns must equal static `p` columns for every
/// thread count and both replay sources: the sticky PSEL state a hybrid
/// keeps across `reset()` is cleared by the arena's cold restart, so
/// neither scheduling, arena reuse order, nor the replay source may make
/// the degenerate hybrid drift from its static policy.
#[test]
fn single_candidate_hybrids_match_statics_across_threads_and_sources() {
    let specs: Vec<WorkloadSpec> = suite(3, 41)
        .into_iter()
        .map(|s| s.instructions(20_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    for spec in &specs {
        builder.push_synthetic(&spec.generate()).expect("encode");
    }
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus);

    let cfg = SimConfig::paper_default();
    // GHRP exercises the shared-predictor wiring inside a hybrid; SDBP
    // is the heaviest table-driven candidate.
    let statics = [PolicyKind::Ghrp, PolicyKind::Sdbp];
    let hybrids = [
        PolicyKind::duel(&[BasePolicy::Ghrp]),
        PolicyKind::phase(&[BasePolicy::Sdbp], 2048),
    ];
    let reference = run_suite(&specs, &cfg, &statics, 1);
    for threads in 1..=8 {
        for (label, source) in [
            ("streamed", SuiteSource::Streamed),
            ("corpus", SuiteSource::Corpus(&shared)),
        ] {
            let hybrid = run_suite_from(&specs, &cfg, &hybrids, threads, source);
            assert_eq!(
                hybrid.rows, reference.rows,
                "single-candidate hybrids diverged from statics at \
                 {threads} threads ({label} replay)"
            );
        }
    }
}

/// A corpus that does not match the suite's workloads is rejected up
/// front instead of silently replaying the wrong trace.
#[test]
#[should_panic(expected = "corpus")]
fn mismatched_corpus_is_rejected() {
    let specs: Vec<WorkloadSpec> = suite(2, 5)
        .into_iter()
        .map(|s| s.instructions(10_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    builder
        .push_synthetic(&specs[0].generate())
        .expect("encode");
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus); // one trace, two specs
    let cfg = SimConfig::paper_default();
    let _ = run_suite_from(
        &specs,
        &cfg,
        &[PolicyKind::Lru],
        1,
        SuiteSource::Corpus(&shared),
    );
}
