//! A guided tour of the decoupled front end: drive the I-cache, BTB and
//! GHRP by hand (without the `Simulator` convenience wrapper), inspect
//! GHRP's internal diagnostics, and render a cache-efficiency heat map.
//!
//! ```sh
//! cargo run --release --example frontend_tour
//! ```

#![forbid(unsafe_code)]

use ghrp_repro::btb::{btb_config, Btb, GhrpBtbPolicy};
use ghrp_repro::cache::{Cache, CacheConfig};
use ghrp_repro::ghrp::{GhrpConfig, GhrpPolicy, SharedGhrp, StorageReport};
use ghrp_repro::trace::fetch::FetchStream;
use ghrp_repro::trace::synth::{WorkloadCategory, WorkloadSpec};

fn main() {
    let trace = WorkloadSpec::new(WorkloadCategory::LongServer, 3)
        .instructions(1_500_000)
        .generate();

    // One shared GHRP instance serves both structures (§III.E).
    let icache_cfg = CacheConfig::with_capacity(16 * 1024, 8, 64).expect("geometry");
    let btb_cfg = btb_config(1024, 4).expect("geometry");
    let shared = SharedGhrp::new(GhrpConfig::default(), icache_cfg);
    let mut icache = Cache::new(icache_cfg, GhrpPolicy::new(icache_cfg, shared.clone()));
    let mut btb = Btb::new(
        btb_cfg,
        GhrpBtbPolicy::new(btb_cfg, shared.clone(), icache_cfg.block_bytes()),
    );
    icache.enable_efficiency_tracking();

    // Drive the fetch stream by hand: one I-cache access per fetch group,
    // one BTB update per taken branch.
    let mut stream = FetchStream::new(trace.records.iter().copied(), icache_cfg.block_bytes());
    for chunk in stream.by_ref() {
        if chunk.starts_group {
            icache.access(chunk.block_addr, chunk.first_pc);
        }
        if let Some(branch) = chunk.branch {
            if branch.taken {
                btb.lookup_and_update(branch.pc, branch.target);
            }
        }
    }
    let instructions = stream.instructions();

    let ic = icache.stats();
    println!("I-cache ({icache_cfg}):");
    println!(
        "  {} accesses, {} misses ({:.3} MPKI), {} bypassed",
        ic.accesses,
        ic.misses,
        ic.misses as f64 * 1000.0 / instructions as f64,
        ic.bypasses
    );
    let g = icache.policy().stats();
    println!(
        "  GHRP victims: {} by dead prediction, {} by LRU fallback",
        g.dead_victims, g.lru_victims
    );
    println!(
        "  predictor health: {} false-dead hits, {} unpredicted deaths, {:.1}% counters saturated",
        g.false_dead_hits,
        g.unpredicted_deaths,
        shared.table_saturation() * 100.0
    );

    let bs = btb.stats();
    println!("\nBTB (1K entries, 4-way):");
    println!(
        "  {} taken-branch lookups, {} misses ({:.3} MPKI), {} retargets",
        bs.lookups,
        bs.misses,
        bs.misses as f64 * 1000.0 / instructions as f64,
        bs.target_mismatches
    );

    let map = icache.finish_efficiency().expect("tracking enabled");
    println!(
        "\nI-cache efficiency heat map (mean {:.3}; rows = sets, darker = deader):",
        map.mean()
    );
    print!("{}", map.to_ascii());

    let report = StorageReport::new(&shared.config(), icache_cfg, 1024);
    println!(
        "GHRP storage for this configuration: {:.2} KiB",
        report.total_kib()
    );
}
