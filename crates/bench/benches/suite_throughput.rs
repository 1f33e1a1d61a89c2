//! Suite throughput: one `Simulator::run` per policy (the reference
//! path) vs the single-pass multi-policy engine, on a fixed 7-policy
//! mini-suite.
//!
//! This is the benchmark behind the engine's headline claim (see
//! `DESIGN.md` §9): the policy-independent front end — fetch-group
//! decode, hashed-perceptron direction prediction, RAS, indirect target
//! cache — runs once instead of once per policy. Numbers are recorded in
//! `results/suite_throughput.txt`.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fe_frontend::engine::{run_lanes, SliceReplay};
use fe_frontend::{experiment, policy::PolicyKind, simulator::SimConfig, Simulator};
use fe_trace::synth::{suite, WorkloadSpec};

/// The 7-policy headline set (the paper's five plus the extension
/// baselines FIFO and DRRIP).
const SEVEN: &[PolicyKind] = &[
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Sdbp,
    PolicyKind::Ghrp,
];

/// Fixed mini-suite: one workload per category, laptop-scale budgets.
fn mini_suite() -> Vec<WorkloadSpec> {
    suite(4, 1234)
        .into_iter()
        .map(|s| s.instructions(400_000))
        .collect()
}

fn suite_throughput(c: &mut Criterion) {
    let specs = mini_suite();
    let cfg = SimConfig::paper_default();
    let total_instructions: u64 = specs.iter().map(|s| s.instructions).sum();

    let mut group = c.benchmark_group("suite_throughput");
    group.throughput(Throughput::Elements(total_instructions));
    group.sample_size(10);

    // Reference: generate each workload, then one full front-end replay
    // per policy (7 replays/workload).
    group.bench_function(BenchmarkId::new("legacy", "7-policy"), |b| {
        b.iter(|| {
            specs
                .iter()
                .map(|s| {
                    let trace = s.generate();
                    SEVEN
                        .iter()
                        .map(|&p| {
                            Simulator::new(cfg.with_policy(p))
                                .run(&trace.records, trace.instructions)
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
    });

    // Engine: one streaming replay per workload drives all 7 lanes.
    group.bench_function(BenchmarkId::new("engine", "7-policy"), |b| {
        b.iter(|| experiment::run_suite(&specs, &cfg, SEVEN, 1));
    });

    // Engine over pre-materialized traces: isolates the single-pass win
    // from trace-generation cost (no walker in the timed region).
    let traces: Vec<_> = specs.iter().map(WorkloadSpec::generate).collect();
    group.bench_function(BenchmarkId::new("engine-slice", "7-policy"), |b| {
        b.iter(|| {
            traces
                .iter()
                .map(|t| run_lanes(&cfg, SEVEN, &SliceReplay::from_trace(t)))
                .collect::<Vec<_>>()
        });
    });

    group.finish();
}

criterion_group!(benches, suite_throughput);
criterion_main!(benches);
