//! The traced run: timed passes with spans around each call into the
//! workspace, then per-layer replays of the workload's own records
//! through each crate's public API, with counts and ratios read from the
//! stats those calls return.
//!
//! Every ratio is reported beside its base (the count it divides by).
//! Simulated statistics are counted after the warm-up window, as the
//! simulator counts them: the first half of each trace's instructions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fe_bench::experiment::{RunContext, SimRequest, SimShape, SimStore};
use fe_branch::{HashedPerceptron, ReturnAddressStack, TargetCache};
use fe_cache::{CacheConfig, CacheStats};
use fe_frontend::engine::{run_lanes, SliceReplay};
use fe_frontend::experiment::{run_suite_from, SuiteResult, SuiteSource};
use fe_frontend::policy::{build_pair, AnyPolicy, FrontendPair, PolicyKind};
use fe_frontend::sampled::{build_plan, run_suite_sampled, SampleParams};
use fe_frontend::schedule::SchedulerStats;
use fe_frontend::simulator::SimConfig;
use fe_frontend::sweep::paper_geometries;
use fe_trace::corpus::{CorpusCache, SuiteCorpus};
use fe_trace::fetch::FetchStream;
use fe_trace::signature::{compute_signatures, BASE_WINDOW_INSTRUCTIONS, SIGNATURE_DIM};
use fe_trace::synth::SyntheticTrace;
use fe_trace::BranchKind;
use ghrp_core::policy::GhrpPolicyStats;

use crate::spans::{Tracer, LAYERS};
use crate::util::{median, ns_per, ratio, secs, Metric};
use crate::workload::{
    self, paper_lanes, Checks, Inputs, Kind, PassOut, PassResult, BTB_POINTS, SWEEP_LANES,
};

/// The traced run's output: its spans and the per-layer metrics.
pub struct Ledger {
    pub tracer: Tracer,
    pub metrics: Vec<Metric>,
}

/// Short metric name of a benchmark lane's policy.
fn lane_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Lru => "lru",
        PolicyKind::Fifo => "fifo",
        PolicyKind::Random => "random",
        PolicyKind::Srrip => "srrip",
        PolicyKind::Drrip => "drrip",
        PolicyKind::Sdbp => "sdbp",
        PolicyKind::Ghrp => "ghrp",
        PolicyKind::Duel(_) => "duel",
        other => unreachable!("{other} is not a benchmark lane"),
    }
}

/// Metric prefix and crate of a lane's I-cache replay: GHRP and SDBP
/// report under their own crates, the rest under `fe-cache`.
fn cache_prefix(policy: PolicyKind) -> (String, &'static str) {
    match policy {
        PolicyKind::Ghrp => ("ghrp".to_owned(), "ghrp-core"),
        PolicyKind::Sdbp => ("sdbp".to_owned(), "fe-sdbp"),
        p => (format!("cache.{}", lane_name(p)), "fe-cache"),
    }
}

/// The front-end geometry the per-layer replays use: the paper's
/// default for every workload but `sampled_sweep`, whose replays use the
/// sweep's smallest I-cache and BTB so they exercise the miss path the
/// sweep spends most of its lanes on.
fn ledger_config(kind: Kind, base: &SimConfig) -> SimConfig {
    match kind {
        Kind::SampledSweep => {
            let (capacity, ways) = paper_geometries()[0];
            let mut cfg = base.with_icache(
                CacheConfig::with_capacity(capacity, ways, base.icache.block_bytes())
                    .expect("paper geometries are valid"),
            );
            cfg.btb_entries = BTB_POINTS[0];
            cfg
        }
        _ => *base,
    }
}

/// One front-end event in trace order, as the simulator issues it.
#[derive(Clone, Copy)]
enum Event {
    /// An I-cache access for a fetch group: (block address, first PC).
    Access(u64, u64),
    /// A BTB lookup for a taken branch: (PC, target).
    Lookup(u64, u64),
}

/// One trace's front-end event stream, split at the warm-up boundary.
struct EventStream {
    events: Vec<Event>,
    /// Index of the first event after the warm-up window.
    warm_event: usize,
    /// Index of the first record after the warm-up window.
    warm_record: usize,
    accesses: u64,
    lookups: u64,
    branches: u64,
}

fn event_stream(trace: &SyntheticTrace, block_bytes: u64) -> EventStream {
    let warmup = trace.instructions / 2;
    let mut s = EventStream {
        events: Vec::new(),
        warm_event: 0,
        warm_record: 0,
        accesses: 0,
        lookups: 0,
        branches: 0,
    };
    let mut instructions = 0u64;
    let mut warmed = warmup == 0;
    for chunk in FetchStream::new(trace.records.iter().copied(), block_bytes) {
        instructions += u64::from(chunk.n_instr);
        if chunk.starts_group {
            s.events
                .push(Event::Access(chunk.block_addr, chunk.first_pc));
            s.accesses += 1;
        }
        if let Some(b) = chunk.branch {
            s.branches += 1;
            if b.taken {
                s.events.push(Event::Lookup(b.pc, b.target));
                s.lookups += 1;
            }
        }
        if !warmed && instructions >= warmup {
            warmed = true;
            s.warm_event = s.events.len();
            s.warm_record = usize::try_from(s.branches).expect("record count fits usize");
        }
    }
    s
}

fn pair_for(policy: PolicyKind, cfg: &SimConfig) -> FrontendPair {
    build_pair(
        policy,
        cfg.icache,
        cfg.btb_entries,
        cfg.btb_ways,
        cfg.ghrp,
        cfg.sdbp,
        cfg.seed,
        None,
        None,
    )
}

/// Policy-side counters of a GHRP or SDBP I-cache policy.
#[derive(Clone, Copy, Default)]
struct PolicyCounters {
    dead_victims: u64,
    lru_victims: u64,
    bypasses: u64,
    false_dead_hits: u64,
}

impl PolicyCounters {
    fn of(pair: &FrontendPair) -> PolicyCounters {
        match pair.icache.policy() {
            AnyPolicy::Ghrp(p) => {
                let GhrpPolicyStats {
                    dead_victims,
                    lru_victims,
                    bypasses,
                    false_dead_hits,
                    ..
                } = p.stats();
                PolicyCounters {
                    dead_victims,
                    lru_victims,
                    bypasses,
                    false_dead_hits,
                }
            }
            AnyPolicy::Sdbp(p) => {
                let s = p.stats();
                PolicyCounters {
                    dead_victims: s.dead_victims,
                    lru_victims: s.lru_victims,
                    bypasses: s.bypasses,
                    false_dead_hits: 0,
                }
            }
            _ => PolicyCounters::default(),
        }
    }

    fn minus(self, o: PolicyCounters) -> PolicyCounters {
        PolicyCounters {
            dead_victims: self.dead_victims - o.dead_victims,
            lru_victims: self.lru_victims - o.lru_victims,
            bypasses: self.bypasses - o.bypasses,
            false_dead_hits: self.false_dead_hits - o.false_dead_hits,
        }
    }

    fn add(&mut self, o: PolicyCounters) {
        self.dead_victims += o.dead_victims;
        self.lru_victims += o.lru_victims;
        self.bypasses += o.bypasses;
        self.false_dead_hits += o.false_dead_hits;
    }
}

fn add_stats(total: &mut CacheStats, s: CacheStats) {
    total.accesses += s.accesses;
    total.hits += s.hits;
    total.misses += s.misses;
    total.bypasses += s.bypasses;
}

/// Replay only the I-cache accesses of `streams` through a fresh pair
/// per trace. Returns host time of the access loops, post-warm-up cache
/// counters and policy counters.
fn icache_replay(
    policy: PolicyKind,
    cfg: &SimConfig,
    streams: &[EventStream],
) -> (Duration, CacheStats, PolicyCounters) {
    let mut time = Duration::ZERO;
    let mut stats = CacheStats::default();
    let mut counters = PolicyCounters::default();
    for s in streams {
        let mut pair = pair_for(policy, cfg);
        let (warm, measured) = s.events.split_at(s.warm_event);
        let t0 = Instant::now();
        for e in warm {
            if let Event::Access(block, pc) = *e {
                black_box(pair.icache.access(block, pc));
            }
        }
        time += t0.elapsed();
        pair.icache.reset_stats();
        let before = PolicyCounters::of(&pair);
        let t0 = Instant::now();
        for e in measured {
            if let Event::Access(block, pc) = *e {
                black_box(pair.icache.access(block, pc));
            }
        }
        time += t0.elapsed();
        add_stats(&mut stats, pair.icache.stats());
        counters.add(PolicyCounters::of(&pair).minus(before));
    }
    (time, stats, counters)
}

/// Replay I-cache accesses and BTB lookups interleaved in trace order
/// (the GHRP BTB reads the I-cache's block metadata, so the two cannot
/// be replayed apart). Returns host time and post-warm-up BTB counters.
fn coupled_replay(
    policy: PolicyKind,
    cfg: &SimConfig,
    streams: &[EventStream],
) -> (Duration, u64, u64) {
    let mut time = Duration::ZERO;
    let (mut lookups, mut hits) = (0u64, 0u64);
    for s in streams {
        let mut pair = pair_for(policy, cfg);
        let (warm, measured) = s.events.split_at(s.warm_event);
        let mut replay = |events: &[Event], pair: &mut FrontendPair| {
            let t0 = Instant::now();
            for e in events {
                match *e {
                    Event::Access(block, pc) => {
                        black_box(pair.icache.access(block, pc));
                    }
                    Event::Lookup(pc, target) => {
                        black_box(pair.btb.lookup_and_update(pc, target));
                    }
                }
            }
            time += t0.elapsed();
        };
        replay(warm, &mut pair);
        pair.icache.reset_stats();
        pair.btb.reset_stats();
        replay(measured, &mut pair);
        let st = pair.btb.stats();
        lookups += st.lookups;
        hits += st.hits;
    }
    (time, lookups, hits)
}

/// Host time of one engine replay of every trace with `lanes`.
fn engine_replay(cfg: &SimConfig, lanes: &[PolicyKind], traces: &[SyntheticTrace]) -> Duration {
    let t0 = Instant::now();
    for t in traces {
        black_box(run_lanes(cfg, lanes, &SliceReplay::from_trace(t)));
    }
    t0.elapsed()
}

/// Maximum relative drift of sampled against full suite means over the
/// suite's lanes (denominator floored at 1 MPKI).
fn suite_drift(full: &SuiteResult, sampled: &SuiteResult) -> (f64, f64) {
    let drift = |f: Vec<f64>, s: Vec<f64>| {
        f.iter()
            .zip(&s)
            .map(|(f, s)| (s - f).abs() / f.max(1.0))
            .fold(0.0f64, f64::max)
    };
    (
        drift(full.icache_means(), sampled.icache_means()),
        drift(full.btb_means(), sampled.btb_means()),
    )
}

/// The traced run: traced passes for `budget`, then the per-layer
/// replays. `untraced_run_s` is the untraced median, for the tracing
/// overhead; `drift` is the sampled sweep's drift when already measured.
pub fn traced(
    inputs: &Inputs,
    warm: &PassOut,
    budget: Duration,
    untraced_run_s: f64,
    drift: Option<(f64, f64)>,
    checks: &mut Checks,
) -> Ledger {
    let mut t = Tracer::new();
    let mut m: Vec<Metric> = Vec::new();

    // Traced passes: the same passes as the untraced loop, with a span
    // around every call into the workspace.
    let (times, last) = workload::timed_loop(inputs, budget, warm.digest, checks, Some(&mut t));
    let sched = last.sched;
    let traced_run_s = median(&times);
    t.set_run(0);

    let cfg = ledger_config(inputs.kind, &inputs.base);
    let block = cfg.icache.block_bytes();
    let traces = &inputs.traces;
    let corpus = trace_layer(&mut t, &mut m, inputs, block);
    let streams: Vec<EventStream> = traces.iter().map(|tr| event_stream(tr, block)).collect();
    branch_layer(&mut t, &mut m, traces, &streams);
    let icache_time = cache_layer(&mut t, &mut m, &cfg, &streams);
    btb_layer(&mut t, &mut m, &cfg, &streams, &icache_time);
    engine_layer(&mut t, &mut m, &cfg, inputs, &streams);
    schedule_metrics(&mut m, &sched);
    sampled_layer(&mut t, &mut m, inputs, warm, &cfg, &corpus, drift);
    bench_layer(&mut t, &mut m, inputs);

    let by_layer = t.self_ms_by_layer();
    for layer in LAYERS {
        m.push(Metric::new(
            format!("span.{layer}.self_ms"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    m.push(Metric::new("tracing.run_s", traced_run_s, "s"));
    m.push(Metric::new(
        "tracing.overhead_s",
        traced_run_s - untraced_run_s,
        "s",
    ));
    m.push(Metric::new("tracing.spans", t.len() as f64, "count"));
    Ledger {
        tracer: t,
        metrics: m,
    }
}

/// Walker, corpus encode and decode, signatures and fetch
/// reconstruction over the workload's records. Returns the encoded
/// corpus.
fn trace_layer(t: &mut Tracer, m: &mut Vec<Metric>, inputs: &Inputs, block: u64) -> SuiteCorpus {
    let traces = &inputs.traces;
    let mut records = 0u64;
    let (walk, _) = t.span("trace.walk", "fe-trace", |_| {
        let mut d = Duration::ZERO;
        for spec in &inputs.specs {
            let program = spec.build_program();
            let t0 = Instant::now();
            for r in spec.walk(&program) {
                black_box(r);
                records += 1;
            }
            d += t0.elapsed();
        }
        d
    });
    m.push(Metric::new(
        "trace.walk_ns_per_record",
        ns_per(walk, records),
        "ns",
    ));
    m.push(Metric::new("trace.records", records as f64, "count"));

    let ((corpus, bytes), encode) = t.span("trace.corpus_encode", "fe-trace", |_| {
        workload::encode_corpus(traces)
    });
    m.push(Metric::new(
        "trace.corpus_encode_ns_per_record",
        ns_per(encode, records),
        "ns",
    ));
    m.push(Metric::new("trace.corpus_bytes", bytes as f64, "bytes"));

    let (windows, sig) = t.span("trace.signatures", "fe-trace", |_| {
        traces
            .iter()
            .map(|tr| {
                compute_signatures(
                    tr.records.iter().copied(),
                    BASE_WINDOW_INSTRUCTIONS,
                    SIGNATURE_DIM,
                )
                .window_count() as u64
            })
            .sum::<u64>()
    });
    m.push(Metric::new(
        "trace.signature_ns_per_window",
        ns_per(sig, windows),
        "ns",
    ));
    m.push(Metric::new(
        "trace.signature_windows",
        windows as f64,
        "count",
    ));

    let (decoded, decode) = t.span("trace.corpus_decode", "fe-trace", |_| {
        corpus
            .iter()
            .map(|tr| {
                tr.cursor().fold(0u64, |n, r| {
                    black_box(r);
                    n + 1
                })
            })
            .sum::<u64>()
    });
    black_box(decoded);
    m.push(Metric::new(
        "trace.corpus_decode_ns_per_record",
        ns_per(decode, records),
        "ns",
    ));

    let (chunks, fetch) = t.span("trace.fetch", "fe-trace", |_| {
        traces
            .iter()
            .map(|tr| {
                FetchStream::new(tr.records.iter().copied(), block).fold(0u64, |n, c| {
                    black_box(c);
                    n + 1
                })
            })
            .sum::<u64>()
    });
    m.push(Metric::new(
        "trace.fetch_ns_per_record",
        ns_per(fetch, records),
        "ns",
    ));
    m.push(Metric::new("trace.fetch_chunks", chunks as f64, "count"));

    corpus
}

/// `Cache::access` per policy over every fetch group. Returns each
/// policy's I-cache replay time, which the BTB layer subtracts.
fn cache_layer(
    t: &mut Tracer,
    m: &mut Vec<Metric>,
    cfg: &SimConfig,
    streams: &[EventStream],
) -> Vec<(PolicyKind, Duration)> {
    let accesses: u64 = streams.iter().map(|s| s.accesses).sum();
    m.push(Metric::new("cache.accesses", accesses as f64, "count"));
    let mut icache_time = Vec::new();
    for policy in paper_lanes() {
        let (prefix, layer) = cache_prefix(policy);
        let ((time, st, pc), _) = t.span(&format!("{prefix}.access"), layer, |_| {
            icache_replay(policy, cfg, streams)
        });
        icache_time.push((policy, time));
        m.push(Metric::new(
            format!("{prefix}.ns_per_access"),
            ns_per(time, accesses),
            "ns",
        ));
        m.push(Metric::new(
            format!("{prefix}.hit_ratio"),
            ratio(st.hits, st.accesses),
            "ratio",
        ));
        match policy {
            PolicyKind::Ghrp => {
                let victims = pc.dead_victims + pc.lru_victims;
                m.push(Metric::new("ghrp.hits", st.hits as f64, "count"));
                m.push(Metric::new("ghrp.misses", st.misses as f64, "count"));
                m.push(Metric::new("ghrp.victims", victims as f64, "count"));
                m.push(Metric::new(
                    "ghrp.bypass_ratio",
                    ratio(pc.bypasses, st.misses),
                    "ratio",
                ));
                m.push(Metric::new(
                    "ghrp.dead_victim_ratio",
                    ratio(pc.dead_victims, victims),
                    "ratio",
                ));
                m.push(Metric::new(
                    "ghrp.false_dead_hit_ratio",
                    ratio(pc.false_dead_hits, st.hits),
                    "ratio",
                ));
            }
            PolicyKind::Sdbp => {
                m.push(Metric::new("sdbp.misses", st.misses as f64, "count"));
                m.push(Metric::new(
                    "sdbp.bypass_ratio",
                    ratio(pc.bypasses, st.misses),
                    "ratio",
                ));
            }
            _ => {}
        }
    }

    icache_time
}

/// `Btb::lookup_and_update` for LRU and GHRP, coupled to the I-cache.
fn btb_layer(
    t: &mut Tracer,
    m: &mut Vec<Metric>,
    cfg: &SimConfig,
    streams: &[EventStream],
    icache_time: &[(PolicyKind, Duration)],
) {
    let lookups: u64 = streams.iter().map(|s| s.lookups).sum();
    m.push(Metric::new("btb.lookups", lookups as f64, "count"));
    for policy in SWEEP_LANES {
        let prefix = format!("btb.{}", lane_name(policy));
        let ((time, n, hits), _) = t.span(&format!("{prefix}.coupled"), "fe-btb", |_| {
            coupled_replay(policy, cfg, streams)
        });
        let icache_only = icache_time
            .iter()
            .find(|(p, _)| *p == policy)
            .map_or(Duration::ZERO, |(_, d)| *d);
        m.push(Metric::new(
            format!("{prefix}.ns_per_lookup"),
            ns_per(time.saturating_sub(icache_only), lookups),
            "ns",
        ));
        m.push(Metric::new(
            format!("{prefix}.hit_ratio"),
            ratio(hits, n),
            "ratio",
        ));
    }
}

/// Marginal engine cost of each lane and of the shared front end.
fn engine_layer(
    t: &mut Tracer,
    m: &mut Vec<Metric>,
    cfg: &SimConfig,
    inputs: &Inputs,
    streams: &[EventStream],
) {
    let traces = &inputs.traces;
    let instructions = inputs.total_instructions();
    let events: u64 = streams.iter().map(|s| s.accesses + s.branches).sum();
    m.push(Metric::new(
        "engine.instructions",
        instructions as f64,
        "count",
    ));
    m.push(Metric::new("engine.events", events as f64, "count"));
    let (one, _) = t.span("engine.lanes.lru", "fe-frontend", |_| {
        engine_replay(cfg, &[PolicyKind::Lru], traces)
    });
    let (two, _) = t.span("engine.lanes.lru+lru", "fe-frontend", |_| {
        engine_replay(cfg, &[PolicyKind::Lru, PolicyKind::Lru], traces)
    });
    // One LRU lane costs (two − one); the rest of a one-lane replay is
    // the shared front end.
    let lru_lane = two.saturating_sub(one);
    m.push(Metric::new(
        "engine.shared_ns_per_instr",
        ns_per(one.saturating_sub(lru_lane), instructions),
        "ns",
    ));
    for policy in paper_lanes() {
        let name = lane_name(policy);
        let lane = if policy == PolicyKind::Lru {
            lru_lane
        } else {
            let (with, _) = t.span(&format!("engine.lanes.lru+{name}"), "fe-frontend", |_| {
                engine_replay(cfg, &[PolicyKind::Lru, policy], traces)
            });
            with.saturating_sub(one)
        };
        m.push(Metric::new(
            format!("engine.lane_ns_per_event.{name}"),
            ns_per(lane, events),
            "ns",
        ));
    }
}

/// Scheduler counters summed over the grid drains of one traced pass.
fn schedule_metrics(m: &mut Vec<Metric>, sched: &[SchedulerStats]) {
    let workers: u64 = sched.iter().map(|s| s.workers as u64).max().unwrap_or(0);
    let wall_ns: u64 = sched.iter().map(|s| s.wall_ns * s.workers as u64).sum();
    let busy_ns: u64 = sched
        .iter()
        .flat_map(|s| s.per_worker.iter().map(|w| w.busy_ns))
        .sum();
    m.push(Metric::new("schedule.workers", workers as f64, "count"));
    m.push(Metric::new(
        "schedule.utilization",
        ratio(busy_ns, wall_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "schedule.idle_ms",
        wall_ns.saturating_sub(busy_ns) as f64 / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "schedule.tasks",
        sched.iter().map(|s| s.tasks).sum::<u64>() as f64,
        "count",
    ));
    m.push(Metric::new(
        "schedule.steals",
        sched.iter().map(|s| s.steals).sum::<u64>() as f64,
        "count",
    ));
}

/// Shared predictors, each replayed alone over the workload's records.
fn branch_layer(
    t: &mut Tracer,
    m: &mut Vec<Metric>,
    traces: &[SyntheticTrace],
    streams: &[EventStream],
) {
    let ((time, all, cond, wrong), _) = t.span("branch.perceptron", "fe-branch", |_| {
        let (mut time, mut all, mut cond, mut wrong) = (Duration::ZERO, 0u64, 0u64, 0u64);
        for (tr, s) in traces.iter().zip(streams) {
            let mut bp = HashedPerceptron::default();
            let t0 = Instant::now();
            for (i, r) in tr.records.iter().enumerate() {
                if r.kind == BranchKind::CondDirect {
                    let predicted = bp.predict_and_update(r.pc, r.taken);
                    all += 1;
                    if i >= s.warm_record {
                        cond += 1;
                        wrong += u64::from(predicted != r.taken);
                    }
                }
            }
            time += t0.elapsed();
        }
        (time, all, cond, wrong)
    });
    m.push(Metric::new(
        "branch.perceptron_ns_per_branch",
        ns_per(time, all),
        "ns",
    ));
    m.push(Metric::new("branch.cond_branches", cond as f64, "count"));
    m.push(Metric::new(
        "branch.mispredict_ratio",
        ratio(wrong, cond),
        "ratio",
    ));

    let ((time, ops), _) = t.span("branch.ras", "fe-branch", |_| {
        let (mut time, mut ops) = (Duration::ZERO, 0u64);
        for tr in traces {
            let mut ras = ReturnAddressStack::default();
            let t0 = Instant::now();
            for r in &tr.records {
                match r.kind {
                    BranchKind::Call | BranchKind::IndirectCall => {
                        ras.push(r.fall_through());
                        ops += 1;
                    }
                    BranchKind::Return => {
                        black_box(ras.pop() == Some(r.target));
                        ops += 1;
                    }
                    _ => {}
                }
            }
            time += t0.elapsed();
        }
        (time, ops)
    });
    m.push(Metric::new("branch.ras_ns_per_op", ns_per(time, ops), "ns"));
    m.push(Metric::new("branch.ras_ops", ops as f64, "count"));

    let ((time, all, lookups, hits), _) = t.span("branch.target_cache", "fe-branch", |_| {
        let (mut time, mut all, mut lookups, mut hits) = (Duration::ZERO, 0u64, 0u64, 0u64);
        for (tr, s) in traces.iter().zip(streams) {
            let mut itp = TargetCache::default();
            let t0 = Instant::now();
            for (i, r) in tr.records.iter().enumerate() {
                if matches!(r.kind, BranchKind::Indirect | BranchKind::IndirectCall) {
                    let hit = itp.predict(r.pc) == Some(r.target);
                    itp.update(r.pc, r.target);
                    all += 1;
                    if i >= s.warm_record {
                        lookups += 1;
                        hits += u64::from(hit);
                    }
                }
            }
            time += t0.elapsed();
        }
        (time, all, lookups, hits)
    });
    m.push(Metric::new(
        "branch.target_cache_ns_per_lookup",
        ns_per(time, all),
        "ns",
    ));
    m.push(Metric::new(
        "branch.target_cache_lookups",
        lookups as f64,
        "count",
    ));
    m.push(Metric::new(
        "branch.target_cache_hit_ratio",
        ratio(hits, lookups),
        "ratio",
    ));
}

/// Sampling plans and sampled-vs-full drift on the workload's corpus.
fn sampled_layer(
    t: &mut Tracer,
    m: &mut Vec<Metric>,
    inputs: &Inputs,
    warm: &PassOut,
    cfg: &SimConfig,
    corpus: &SuiteCorpus,
    drift: Option<(f64, f64)>,
) {
    let params = SampleParams::default();
    let (plans, plan_time) = t.span("sampled.build_plan", "fe-frontend", |_| {
        corpus
            .iter()
            .map(|tr| build_plan(tr, cfg, &params))
            .collect::<Vec<_>>()
    });
    let replayed: u64 = plans.iter().map(|p| p.replayed_instructions).sum();
    let total: u64 = plans.iter().map(|p| p.total_instructions).sum();
    m.push(Metric::new("sampled.plan_ms", secs(plan_time) * 1e3, "ms"));
    m.push(Metric::new(
        "sampled.total_instructions",
        total as f64,
        "count",
    ));
    m.push(Metric::new(
        "sampled.replayed_frac",
        ratio(replayed, total),
        "ratio",
    ));

    // `sampled_sweep` measured its drift against the full sweep already;
    // every other workload compares its own lanes at its own geometry.
    let (icache, btb) = drift.unwrap_or_else(|| {
        let lanes: Vec<PolicyKind> = match inputs.kind {
            Kind::PaperSuite => paper_lanes(),
            Kind::LruStream => vec![PolicyKind::Lru],
            _ => SWEEP_LANES.to_vec(),
        };
        let full = match &warm.result {
            PassResult::Suite(r) => r.clone(),
            _ => {
                t.span("sampled.full_reference", "fe-frontend", |_| {
                    run_suite_from(
                        &inputs.specs,
                        cfg,
                        &lanes,
                        inputs.threads,
                        SuiteSource::Corpus(corpus),
                    )
                })
                .0
            }
        };
        let (sampled, _) = t.span("sampled.run_suite_sampled", "fe-frontend", |_| {
            run_suite_sampled(&inputs.specs, cfg, &lanes, inputs.threads, corpus, &params)
        });
        suite_drift(&full, &sampled)
    });
    m.push(Metric::new("sampled.drift_icache", icache, "ratio"));
    m.push(Metric::new("sampled.drift_btb", btb, "ratio"));
}

/// The workload pushed through the `report` front door's planner:
/// `report_smoke` plans every experiment; the simulation workloads plan
/// their own run as requests. Planning, simulation against a pre-warmed
/// corpus cache (streamed for `lru_stream`, which has no corpus) and
/// rendering are timed apart.
fn bench_layer(t: &mut Tracer, m: &mut Vec<Metric>, inputs: &Inputs) {
    let ctx = RunContext {
        traces: Some(inputs.specs.len()),
        seed: Some(inputs.seed),
        threads: Some(inputs.threads),
        instr: Some(workload::SUITE_INSTR),
        reps: None,
        sampled: None,
        out: None,
    };
    let workload_requests = || -> Vec<SimRequest> {
        match inputs.kind {
            Kind::PaperSuite => vec![SimRequest::suite_run(&ctx, inputs.base, &paper_lanes())],
            Kind::SampledSweep => BTB_POINTS
                .iter()
                .map(|&entries| {
                    let mut base = inputs.base;
                    base.btb_entries = entries;
                    SimRequest::sweep_run(&ctx, base, &SWEEP_LANES, paper_geometries())
                        .with_sampled(SampleParams::default())
                })
                .collect(),
            _ => vec![SimRequest::suite_run(&ctx, inputs.base, &[PolicyKind::Lru])],
        }
    };

    // `report_smoke` reuses its pre-warmed cache; the simulation
    // workloads warm a private one first (outside the timed steps).
    let own_cache;
    let cache = if let Some(report) = &inputs.report {
        &report.cache
    } else {
        let dir = workload::run_dir().join(format!("ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        own_cache = CorpusCache::new(dir);
        if inputs.kind != Kind::LruStream {
            t.span("bench.warm_cache", "fe-trace", |_| {
                workload::warm_cache(&own_cache, &workload_requests());
            });
        }
        &own_cache
    };

    let ((exps, requests, unique), plan) = t.span("bench.plan", "fe-bench", |_| {
        let (exps, requests) = match &inputs.report {
            Some(report) => workload::report_requests(report),
            None => (Vec::new(), workload_requests()),
        };
        let unique = workload::plan_only(&requests).len();
        (exps, requests, unique)
    });
    let threads = inputs
        .report
        .as_ref()
        .map_or(inputs.threads, |r| r.ctx.threads());
    let (store, simulate) = t.span("bench.simulate", "fe-bench", |_| {
        if inputs.kind == Kind::LruStream {
            SimStore::plan_and_run(&requests, threads)
        } else {
            SimStore::plan_and_run_cached(&requests, threads, cache)
        }
    });
    let ((), render) = t.span("bench.render", "fe-bench", |t| match &inputs.report {
        Some(report) => {
            black_box(workload::render_all(&exps, &report.ctx, &store, Some(t)));
        }
        None => {
            for req in &requests {
                black_box(match req.shape {
                    SimShape::Suite => store.suite(req).render(),
                    SimShape::Sweep(_) => store.sweep(req).render(),
                });
            }
        }
    });
    if inputs.report.is_none() {
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    let lookups = (store.workloads_generated + store.workloads_reused) as u64;
    m.push(Metric::new("bench.plan_ms", secs(plan) * 1e3, "ms"));
    m.push(Metric::new("bench.simulate_ms", secs(simulate) * 1e3, "ms"));
    m.push(Metric::new("bench.render_ms", secs(render) * 1e3, "ms"));
    m.push(Metric::new(
        "bench.requests",
        store.requests as f64,
        "count",
    ));
    m.push(Metric::new("bench.unique_runs", unique as f64, "count"));
    m.push(Metric::new(
        "bench.dedup_ratio",
        ratio(store.requests as u64, unique as u64),
        "ratio",
    ));
    m.push(Metric::new(
        "bench.corpus_cache_lookups",
        lookups as f64,
        "count",
    ));
    m.push(Metric::new(
        "bench.corpus_cache_hit_ratio",
        ratio(store.workloads_reused as u64, lookups),
        "ratio",
    ));
}
