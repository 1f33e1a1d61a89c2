//! Quickstart: generate a synthetic server workload, run it through the
//! front-end simulator under LRU and GHRP, and compare MPKIs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use ghrp_repro::frontend::{policy::PolicyKind, simulator::SimConfig, Simulator};
use ghrp_repro::trace::synth::{WorkloadCategory, WorkloadSpec};

fn main() {
    // 1. Describe a workload: a SHORT-SERVER trace of two million
    //    instructions, fully determined by its seed.
    let spec = WorkloadSpec::new(WorkloadCategory::ShortServer, 42).instructions(2_000_000);
    let trace = spec.generate();
    println!(
        "workload {}: {} branch records, {} instructions, {} KB of code",
        trace.name(),
        trace.records.len(),
        trace.instructions,
        trace.code_bytes / 1024
    );

    // 2. Simulate the paper's front end: 64 KB 8-way I-cache, 4K-entry
    //    4-way BTB, hashed-perceptron direction predictor.
    let base = SimConfig::paper_default();
    for policy in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ghrp] {
        let sim = Simulator::new(base.with_policy(policy));
        let r = sim.run(&trace.records, trace.instructions);
        println!(
            "{policy:<6} icache {:.3} MPKI | btb {:.3} MPKI | branch predictor {:.2} MPKI",
            r.icache_mpki(),
            r.btb_mpki(),
            r.branch_mpki()
        );
    }
    println!("\nAcross a full suite GHRP gives the lowest average I-cache and BTB MPKI\n(single traces vary; see `cargo run -p fe-bench --bin report -- run headline`).");
}
