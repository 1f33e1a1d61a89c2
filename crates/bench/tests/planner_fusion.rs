//! The planner's fused execution is bit-identical to running every
//! request alone.
//!
//! `SimStore::plan_and_run` and `plan_and_run_cached` fuse every
//! full-replay request on one suite into one engine pass and slice each
//! request's result back out of its grid. This property draws random
//! request mixes over one small suite — OPT and `duel(…)` lanes,
//! prefetch, wrong-path, GHRP knobs, two BTB sizes, suite and sweep
//! shapes, a sweep geometry equal to a suite lane, a capped prefix and a
//! sampled request — and checks every request's result against
//! `plan_and_run_with(requests, run_alone)` bit for bit, at one and two
//! threads. CI runs it in release with `PROPTEST_CASES=64`.

#![forbid(unsafe_code)]

use fe_bench::experiment::plan::run_alone;
use fe_bench::experiment::{RunContext, SimRequest, SimShape, SimStore};
use fe_frontend::experiment::SuiteResult;
use fe_frontend::policy::PolicyKind;
use fe_frontend::sampled::SampleParams;
use fe_frontend::simulator::{SimConfig, WrongPathConfig};
use fe_frontend::sweep::SweepResult;
use fe_trace::corpus::CorpusCache;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Knobs of one drawn request: (shape, policy set, prefetch degree,
/// wrong-path, GHRP variant, BTB size).
type Draw = (u8, u8, u32, bool, u8, bool);

fn ctx() -> RunContext {
    RunContext {
        traces: Some(3),
        seed: Some(4242),
        // Long enough that the sampled request's plans are not exact.
        instr: Some(24_000),
        ..RunContext::default()
    }
}

fn policies(set: u8) -> Vec<PolicyKind> {
    let duel = PolicyKind::parse("duel(ghrp,srrip,sdbp)").expect("valid hybrid");
    match set % 5 {
        0 => vec![PolicyKind::Lru, PolicyKind::Ghrp],
        1 => vec![PolicyKind::Opt, PolicyKind::Lru],
        2 => vec![duel],
        3 => vec![PolicyKind::Srrip, PolicyKind::Sdbp, PolicyKind::Random],
        _ => vec![PolicyKind::Ghrp, PolicyKind::Drrip],
    }
}

/// The configuration of a request drawn with policy set `set`. OPT's
/// oracle precomputes the demand access stream, which prefetches and
/// wrong-path fetches would break, so the OPT set runs without both.
fn config(set: u8, prefetch: u32, wrong_path: bool, ghrp: u8, small_btb: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    let demand_only = policies(set).iter().any(|p| p.is_offline());
    if !demand_only {
        cfg.prefetch_degree = prefetch;
        cfg.wrong_path = wrong_path.then(WrongPathConfig::default);
    }
    match ghrp % 3 {
        0 => {}
        1 => cfg.ghrp.dead_threshold = 1,
        _ => {
            cfg.ghrp.protect_mru = false;
            cfg.ghrp.btb_enable_bypass = false;
        }
    }
    if small_btb {
        cfg.btb_entries = 1024;
    }
    cfg
}

/// The request mix of one case: an anchor suite with a sweep that
/// shares all its lanes at 64 KB and a capped prefix of it, the drawn
/// extra requests, and one sampled request.
fn requests(anchor: Draw, extra: &[Draw]) -> Vec<SimRequest> {
    let c = ctx();
    let build = |&(shape, set, prefetch, wrong_path, ghrp, small_btb): &Draw| {
        let cfg = config(set, prefetch, wrong_path, ghrp, small_btb);
        let pols = policies(set);
        match shape % 3 {
            0 => SimRequest::suite_run(&c, cfg, &pols),
            1 => SimRequest::sweep_run(&c, cfg, &pols, vec![(8 * 1024, 4), (64 * 1024, 8)]),
            _ => SimRequest::suite_run_capped(&c, cfg, &pols, 2),
        }
    };
    let (_, set, prefetch, wrong_path, ghrp, small_btb) = anchor;
    let cfg = config(set, prefetch, wrong_path, ghrp, small_btb);
    let pols = policies(set);
    // The sweep's policy list extends the suite's, so its canonical key
    // sorts first and the shared 64 KB lanes enter the pass without BTB
    // measurement before the suite asks for it.
    let mut swept = pols.clone();
    swept.push(PolicyKind::Fifo);
    let mut mix = vec![
        SimRequest::suite_run(&c, cfg, &pols),
        SimRequest::sweep_run(&c, cfg, &swept, vec![(16 * 1024, 4), (64 * 1024, 8)]),
        SimRequest::suite_run_capped(&c, cfg, &pols, 2),
    ];
    assert!(
        mix[1].canonical_key() < mix[0].canonical_key(),
        "the anchor sweep must enter the pass before the anchor suite"
    );
    mix.extend(extra.iter().map(build));
    // Offline lanes cannot be phase-sampled: the sampled request runs
    // an online policy set.
    let online = if set % 5 == 1 { 0 } else { set };
    mix.push(
        SimRequest::suite_run(&c, cfg, &policies(online)).with_sampled(SampleParams {
            windows: 4,
            k: 2,
            warmup: 1024,
        }),
    );
    mix
}

fn suite_bits(r: &SuiteResult) -> Vec<u64> {
    let mut bits = Vec::new();
    for row in &r.rows {
        bits.push(row.instructions);
        bits.push(row.branch_mpki.to_bits());
        bits.extend(
            row.icache_mpki
                .iter()
                .chain(&row.btb_mpki)
                .map(|x| x.to_bits()),
        );
    }
    if let Some(info) = r.sampled {
        bits.extend([
            info.replayed_instructions,
            info.total_instructions,
            info.est_error.to_bits(),
            u64::from(info.exact),
        ]);
    }
    bits
}

fn sweep_bits(r: &SweepResult) -> Vec<u64> {
    let mut bits = Vec::new();
    for p in &r.points {
        bits.push(p.capacity_bytes);
        bits.push(u64::from(p.ways));
        bits.extend(
            p.icache_means
                .iter()
                .chain(&p.btb_means)
                .map(|x| x.to_bits()),
        );
    }
    bits
}

/// Every request's result as raw bits, with rows and policy columns.
fn outcome_bits(store: &SimStore, req: &SimRequest) -> (Vec<PolicyKind>, Vec<u64>) {
    match &req.shape {
        SimShape::Suite => {
            let r = store.suite(req);
            (r.policies.clone(), suite_bits(&r))
        }
        SimShape::Sweep(_) => {
            let r = store.sweep(req);
            (r.policies.clone(), sweep_bits(&r))
        }
    }
}

/// Distinct suite sizes the planner's runners replay: a full-replay
/// suite request runs at its family's largest size.
fn runner_suites(mix: &[SimRequest]) -> usize {
    let runs_at = |r: &SimRequest| {
        if r.shape != SimShape::Suite || r.effective_sampled().is_some() {
            return r.suite.traces;
        }
        mix.iter()
            .filter(|o| o.shape == SimShape::Suite && o.family_key() == r.family_key())
            .map(|o| o.suite.traces)
            .max()
            .unwrap_or(r.suite.traces)
    };
    mix.iter().map(runs_at).collect::<BTreeSet<_>>().len()
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #[test]
    fn fused_plan_matches_every_request_run_alone(
        anchor in (0u8..3, 0u8..5, 0u32..3, any::<bool>(), 0u8..3, any::<bool>()),
        extra in prop::collection::vec(
            (0u8..3, 0u8..5, 0u32..3, any::<bool>(), 0u8..3, any::<bool>()),
            0..3,
        ),
    ) {
        let mix = requests(anchor, &extra);
        let alone = SimStore::plan_and_run_with(&mix, |req| run_alone(req, 1));

        let dir = std::env::temp_dir().join(format!(
            "fe-planner-fusion-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CorpusCache::new(&dir);
        for threads in [1, 2] {
            let streamed = SimStore::plan_and_run(&mix, threads);
            let cached = SimStore::plan_and_run_cached(&mix, threads, &cache);
            prop_assert_eq!(streamed.executions, alone.executions);
            prop_assert!(streamed.passes < alone.passes, "the full-replay requests fuse");
            // One corpus load per distinct suite the runners replay: a
            // capped request outside any larger family is its own suite.
            prop_assert_eq!(cached.corpus_loads, runner_suites(&mix));
            for req in &mix {
                let want = outcome_bits(&alone, req);
                prop_assert_eq!(outcome_bits(&streamed, req), want.clone());
                prop_assert_eq!(outcome_bits(&cached, req), want);
                if req.effective_sampled().is_some() {
                    let info = cached.suite(req).sampled;
                    prop_assert!(info.is_some_and(|i| !i.exact), "genuinely sampled");
                }
                if let SimShape::Sweep(_) = req.shape {
                    // The anchor sweep's 64 KB lanes are shared with
                    // the anchor suite, which measures its BTBs.
                    prop_assert!(cached
                        .sweep(req)
                        .points
                        .iter()
                        .all(|p| p.btb_means.iter().all(|&m| m == 0.0)));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
