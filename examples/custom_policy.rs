//! Implementing your own replacement policy.
//!
//! The `fe-cache` framework accepts any type implementing
//! [`ReplacementPolicy`]. This example implements **tree-PLRU** (the
//! binary-tree pseudo-LRU approximation most real L1 caches use) from
//! scratch and races it against true LRU and GHRP on a server workload.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

#![forbid(unsafe_code)]

use ghrp_repro::cache::{AccessContext, Cache, CacheConfig, ReplacementPolicy};
use ghrp_repro::ghrp::{GhrpConfig, GhrpPolicy, SharedGhrp};
use ghrp_repro::trace::fetch::FetchStream;
use ghrp_repro::trace::synth::{WorkloadCategory, WorkloadSpec};

/// Binary-tree pseudo-LRU: `ways - 1` direction bits per set arranged as
/// a complete binary tree. A touch flips the bits along the block's path
/// to point *away* from it; the victim walk follows the bits.
struct TreePlru {
    ways: usize,
    /// `sets × (ways - 1)` tree bits; `false` = left subtree is older.
    bits: Vec<bool>,
}

impl TreePlru {
    fn new(cfg: CacheConfig) -> TreePlru {
        assert!(cfg.ways().is_power_of_two() && cfg.ways() >= 2);
        TreePlru {
            ways: cfg.ways() as usize,
            bits: vec![false; cfg.sets() as usize * (cfg.ways() as usize - 1)],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let base = set * (self.ways - 1);
        let mut node = 0usize; // tree index, root = 0
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            let right = way >= mid;
            // Point away from the touched side.
            self.bits[base + node] = !right;
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.touch(ctx.set, way);
    }

    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        let base = ctx.set * (self.ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            let right = self.bits[base + node];
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn on_evict(&mut self, _way: usize, _victim: u64, _ctx: &AccessContext) {}

    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.touch(ctx.set, way);
    }

    fn reset(&mut self) {
        self.bits.fill(false);
    }

    fn name(&self) -> String {
        "tree-PLRU".to_owned()
    }
}

fn run<P: ReplacementPolicy>(
    mut cache: Cache<P>,
    trace: &[ghrp_repro::trace::BranchRecord],
) -> f64 {
    // Warm over the first half (predictive policies need training time),
    // measure over the second, like the paper's methodology.
    let half = trace.len() / 2;
    let mut stream = FetchStream::new(trace.iter().copied(), 64);
    let mut seen = 0usize;
    let mut measured_start = 0u64;
    while let Some(chunk) = stream.next() {
        if chunk.starts_group {
            cache.access(chunk.block_addr, chunk.first_pc);
        }
        if chunk.branch.is_some() {
            seen += 1;
            if seen == half {
                cache.reset_stats();
                measured_start = stream.instructions();
            }
        }
    }
    cache.stats().misses as f64 * 1000.0 / (stream.instructions() - measured_start) as f64
}

fn main() {
    let trace = WorkloadSpec::new(WorkloadCategory::ShortServer, 7)
        .instructions(2_000_000)
        .generate();
    let cfg = CacheConfig::with_capacity(64 * 1024, 8, 64).expect("paper geometry");

    let lru = run(
        Cache::new(cfg, ghrp_repro::cache::policy::Lru::new(cfg)),
        &trace.records,
    );
    let plru = run(Cache::new(cfg, TreePlru::new(cfg)), &trace.records);
    let shared = SharedGhrp::new(GhrpConfig::default(), cfg);
    let ghrp = run(
        Cache::new(cfg, GhrpPolicy::new(cfg, shared)),
        &trace.records,
    );

    println!(
        "64KB 8-way I-cache on {} ({} instructions):",
        trace.name(),
        trace.instructions
    );
    println!("  true LRU   {lru:.3} MPKI");
    println!("  tree-PLRU  {plru:.3} MPKI  (the cheap hardware approximation)");
    println!("  GHRP       {ghrp:.3} MPKI  (predictive replacement)");
}
