//! The experiment registry: every figure, table, ablation, and lab
//! notebook by name.
//!
//! [`ALL`] is the single source of truth for what exists; `report list`,
//! `report run --all`, and the xtask drift pass (registry names versus
//! `EXPERIMENTS.md`) all read it. [`build`] maps a name to its
//! [`Experiment`] implementation; a name in `ALL` without a `build` arm
//! (or vice versa) is caught by the tests below.

#![forbid(unsafe_code)]

use super::{ablate, lab, paper, Experiment};

/// Experiment category, for `report list` grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reproduces a figure or table of the paper.
    Paper,
    /// Ablation or extension beyond the paper's headline claims.
    Ablation,
    /// Lab notebook: calibration, debugging, or timing harness.
    Lab,
}

impl Kind {
    /// Lowercase label for listings.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Ablation => "ablation",
            Kind::Lab => "lab",
        }
    }
}

/// Registry row: name, category, one-line summary.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Registry name (`report run <name>`).
    pub name: &'static str,
    /// Category.
    pub kind: Kind,
    /// One-line summary for `report list`.
    pub summary: &'static str,
}

/// Every registered experiment. Keep sorted within each kind.
pub const ALL: &[ExperimentInfo] = &[
    // -- paper figures & tables ------------------------------------------
    ExperimentInfo {
        name: "headline",
        kind: Kind::Paper,
        summary: "suite-mean icache/BTB MPKI per policy (the paper's core claim)",
    },
    ExperimentInfo {
        name: "fig1_heatmap",
        kind: Kind::Paper,
        summary: "icache set-occupancy efficiency heatmap on one server trace",
    },
    ExperimentInfo {
        name: "fig3_icache_scurve",
        kind: Kind::Paper,
        summary: "per-trace icache MPKI S-curve and regression counts",
    },
    ExperimentInfo {
        name: "fig5_btb_heatmap",
        kind: Kind::Paper,
        summary: "BTB efficiency heatmap at 256 entries plus 4K-entry supplement",
    },
    ExperimentInfo {
        name: "fig6_icache_bars",
        kind: Kind::Paper,
        summary: "per-trace icache MPKI bars on the first 16 workloads",
    },
    ExperimentInfo {
        name: "fig7_config_sweep",
        kind: Kind::Paper,
        summary: "icache MPKI across the 8 paper cache geometries",
    },
    ExperimentInfo {
        name: "fig8_relative_ci",
        kind: Kind::Paper,
        summary: "relative MPKI reduction vs LRU with bootstrap CIs",
    },
    ExperimentInfo {
        name: "fig9_winloss",
        kind: Kind::Paper,
        summary: "per-policy win/loss counts against LRU",
    },
    ExperimentInfo {
        name: "fig10_btb",
        kind: Kind::Paper,
        summary: "BTB MPKI means and per-trace S-curve",
    },
    ExperimentInfo {
        name: "table1_storage",
        kind: Kind::Paper,
        summary: "GHRP storage-overhead accounting (Table I)",
    },
    // -- ablations & extensions ------------------------------------------
    ExperimentInfo {
        name: "ablate_bypass",
        kind: Kind::Ablation,
        summary: "icache/BTB bypass on-off grid",
    },
    ExperimentInfo {
        name: "ablate_history",
        kind: Kind::Ablation,
        summary: "signature history-shape variants",
    },
    ExperimentInfo {
        name: "ablate_prefetch",
        kind: Kind::Ablation,
        summary: "next-line prefetch degree interaction",
    },
    ExperimentInfo {
        name: "ablate_sampler",
        kind: Kind::Ablation,
        summary: "SDBP sampler-rate sensitivity",
    },
    ExperimentInfo {
        name: "ablate_training",
        kind: Kind::Ablation,
        summary: "shadow-training and fresh-victim-prediction variants",
    },
    ExperimentInfo {
        name: "ablate_vote",
        kind: Kind::Ablation,
        summary: "majority-vote versus summed-counter aggregation",
    },
    ExperimentInfo {
        name: "ablate_wrongpath",
        kind: Kind::Ablation,
        summary: "wrong-path fetch pollution variants",
    },
    ExperimentInfo {
        name: "ext_policies",
        kind: Kind::Ablation,
        summary: "the full online policy zoo on the default suite",
    },
    ExperimentInfo {
        name: "opt_bound",
        kind: Kind::Ablation,
        summary: "Belady OPT bound and GHRP gap-closure",
    },
    // -- lab notebooks ---------------------------------------------------
    ExperimentInfo {
        name: "analyze_signatures",
        kind: Kind::Lab,
        summary: "offline signature informativeness analysis",
    },
    ExperimentInfo {
        name: "diag",
        kind: Kind::Lab,
        summary: "per-trace footprints and MPKI diagnostics",
    },
    ExperimentInfo {
        name: "engine_profile",
        kind: Kind::Lab,
        summary: "wall-clock breakdown of the single-pass engine",
    },
    ExperimentInfo {
        name: "ghrp_debug",
        kind: Kind::Lab,
        summary: "GHRP internal counters on one server trace",
    },
    ExperimentInfo {
        name: "headroom",
        kind: Kind::Lab,
        summary: "LRU-vs-OPT headroom per server trace",
    },
    ExperimentInfo {
        name: "lab_dynamic_selection",
        kind: Kind::Lab,
        summary: "set-dueling hybrids vs static policies on phase-shifting workloads",
    },
    ExperimentInfo {
        name: "lab_sampled_fidelity",
        kind: Kind::Lab,
        summary: "phase-sampled replay drift vs full replay across sampling configs",
    },
    ExperimentInfo {
        name: "oracle_policy",
        kind: Kind::Lab,
        summary: "perfect and per-signature dead-block oracle ceilings",
    },
    ExperimentInfo {
        name: "scale_test",
        kind: Kind::Lab,
        summary: "GHRP-vs-LRU gap versus trace length",
    },
    ExperimentInfo {
        name: "suite_bench",
        kind: Kind::Lab,
        summary: "suite/sweep throughput benchmark (BENCH_suite.json)",
    },
    ExperimentInfo {
        name: "tune_ghrp",
        kind: Kind::Lab,
        summary: "GHRP knob tuning sweep on server traces",
    },
];

/// Instantiate the named experiment, or `None` if unregistered.
pub fn build(name: &str) -> Option<Box<dyn Experiment>> {
    Some(match name {
        "headline" => Box::new(paper::Headline),
        "fig1_heatmap" => Box::new(paper::Fig1Heatmap),
        "fig3_icache_scurve" => Box::new(paper::Fig3IcacheScurve),
        "fig5_btb_heatmap" => Box::new(paper::Fig5BtbHeatmap),
        "fig6_icache_bars" => Box::new(paper::Fig6IcacheBars),
        "fig7_config_sweep" => Box::new(paper::Fig7ConfigSweep),
        "fig8_relative_ci" => Box::new(paper::Fig8RelativeCi),
        "fig9_winloss" => Box::new(paper::Fig9Winloss),
        "fig10_btb" => Box::new(paper::Fig10Btb),
        "table1_storage" => Box::new(paper::Table1Storage),
        "ablate_bypass" => Box::new(ablate::AblateBypass),
        "ablate_history" => Box::new(ablate::AblateHistory),
        "ablate_prefetch" => Box::new(ablate::AblatePrefetch),
        "ablate_sampler" => Box::new(ablate::AblateSampler),
        "ablate_training" => Box::new(ablate::AblateTraining),
        "ablate_vote" => Box::new(ablate::AblateVote),
        "ablate_wrongpath" => Box::new(ablate::AblateWrongpath),
        "ext_policies" => Box::new(ablate::ExtPolicies),
        "opt_bound" => Box::new(ablate::OptBound),
        "analyze_signatures" => Box::new(lab::AnalyzeSignatures),
        "diag" => Box::new(lab::Diag),
        "engine_profile" => Box::new(lab::EngineProfile),
        "ghrp_debug" => Box::new(lab::GhrpDebug),
        "headroom" => Box::new(lab::Headroom),
        "lab_dynamic_selection" => Box::new(lab::LabDynamicSelection),
        "lab_sampled_fidelity" => Box::new(lab::LabSampledFidelity),
        "oracle_policy" => Box::new(lab::OraclePolicy),
        "scale_test" => Box::new(lab::ScaleTest),
        "suite_bench" => Box::new(lab::SuiteBench),
        "tune_ghrp" => Box::new(lab::TuneGhrp),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_buildable() {
        let mut seen = HashSet::new();
        for info in ALL {
            assert!(seen.insert(info.name), "duplicate name {}", info.name);
            let exp = build(info.name).expect("every listed experiment builds");
            assert_eq!(exp.name(), info.name, "self-naming mismatch");
        }
    }

    #[test]
    fn unknown_name_does_not_build() {
        assert!(build("no_such_experiment").is_none());
    }

    #[test]
    fn registry_has_all_legacy_binaries() {
        assert_eq!(ALL.len(), 30);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Paper).count(), 10);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Ablation).count(), 9);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Lab).count(), 11);
    }
}
