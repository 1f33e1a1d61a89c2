//! The experiment registry: every figure, table, ablation, and lab
//! notebook by name.
//!
//! [`ALL`] is the single source of truth for what exists: one row per
//! experiment carries its name, category, summary and constructor, so a
//! name cannot exist without an implementation. `report list`, `report
//! run --all` and [`build`] all read it; the tests below check that each
//! experiment names itself as registered and that `EXPERIMENTS.md`
//! documents exactly the registered names.

#![forbid(unsafe_code)]

use super::{ablate, lab, paper, Experiment};

/// Experiment category, for `report list` grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reproduces a figure or table of the paper.
    Paper,
    /// Ablation or extension beyond the paper's headline claims.
    Ablation,
    /// Lab notebook: a calibration or debugging study.
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

/// Registry row: name, category, one-line summary and constructor.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Registry name (`report run <name>`).
    pub name: &'static str,
    /// Category.
    pub kind: Kind,
    /// One-line summary for `report list`.
    pub summary: &'static str,
    /// Instantiates the experiment.
    pub build: fn() -> Box<dyn Experiment>,
}

/// Every registered experiment. Keep sorted within each kind.
pub const ALL: &[ExperimentInfo] = &[
    // -- paper figures & tables ------------------------------------------
    ExperimentInfo {
        name: "headline",
        kind: Kind::Paper,
        summary: "suite-mean icache/BTB MPKI per policy (the paper's core claim)",
        build: || Box::new(paper::Headline),
    },
    ExperimentInfo {
        name: "fig1_heatmap",
        kind: Kind::Paper,
        summary: "icache set-occupancy efficiency heatmap on one server trace",
        build: || Box::new(paper::Fig1Heatmap),
    },
    ExperimentInfo {
        name: "fig3_icache_scurve",
        kind: Kind::Paper,
        summary: "per-trace icache MPKI S-curve and regression counts",
        build: || Box::new(paper::Fig3IcacheScurve),
    },
    ExperimentInfo {
        name: "fig5_btb_heatmap",
        kind: Kind::Paper,
        summary: "BTB efficiency heatmap at 256 entries plus 4K-entry supplement",
        build: || Box::new(paper::Fig5BtbHeatmap),
    },
    ExperimentInfo {
        name: "fig6_icache_bars",
        kind: Kind::Paper,
        summary: "per-trace icache MPKI bars on the first 16 workloads",
        build: || Box::new(paper::Fig6IcacheBars),
    },
    ExperimentInfo {
        name: "fig7_config_sweep",
        kind: Kind::Paper,
        summary: "icache MPKI across the 8 paper cache geometries",
        build: || Box::new(paper::Fig7ConfigSweep),
    },
    ExperimentInfo {
        name: "fig8_relative_ci",
        kind: Kind::Paper,
        summary: "relative MPKI reduction vs LRU with bootstrap CIs",
        build: || Box::new(paper::Fig8RelativeCi),
    },
    ExperimentInfo {
        name: "fig9_winloss",
        kind: Kind::Paper,
        summary: "per-policy win/loss counts against LRU",
        build: || Box::new(paper::Fig9Winloss),
    },
    ExperimentInfo {
        name: "fig10_btb",
        kind: Kind::Paper,
        summary: "BTB MPKI means and per-trace S-curve",
        build: || Box::new(paper::Fig10Btb),
    },
    ExperimentInfo {
        name: "table1_storage",
        kind: Kind::Paper,
        summary: "GHRP storage-overhead accounting (Table I)",
        build: || Box::new(paper::Table1Storage),
    },
    // -- ablations & extensions ------------------------------------------
    ExperimentInfo {
        name: "ablate_bypass",
        kind: Kind::Ablation,
        summary: "icache/BTB bypass on-off grid",
        build: || Box::new(ablate::AblateBypass),
    },
    ExperimentInfo {
        name: "ablate_history",
        kind: Kind::Ablation,
        summary: "signature history-shape variants",
        build: || Box::new(ablate::AblateHistory),
    },
    ExperimentInfo {
        name: "ablate_prefetch",
        kind: Kind::Ablation,
        summary: "next-line prefetch degree interaction",
        build: || Box::new(ablate::AblatePrefetch),
    },
    ExperimentInfo {
        name: "ablate_sampler",
        kind: Kind::Ablation,
        summary: "SDBP sampler-rate sensitivity",
        build: || Box::new(ablate::AblateSampler),
    },
    ExperimentInfo {
        name: "ablate_training",
        kind: Kind::Ablation,
        summary: "shadow-training and fresh-victim-prediction variants",
        build: || Box::new(ablate::AblateTraining),
    },
    ExperimentInfo {
        name: "ablate_vote",
        kind: Kind::Ablation,
        summary: "majority-vote versus summed-counter aggregation",
        build: || Box::new(ablate::AblateVote),
    },
    ExperimentInfo {
        name: "ablate_wrongpath",
        kind: Kind::Ablation,
        summary: "wrong-path fetch pollution variants",
        build: || Box::new(ablate::AblateWrongpath),
    },
    ExperimentInfo {
        name: "ext_policies",
        kind: Kind::Ablation,
        summary: "the full online policy zoo on the default suite",
        build: || Box::new(ablate::ExtPolicies),
    },
    ExperimentInfo {
        name: "opt_bound",
        kind: Kind::Ablation,
        summary: "Belady OPT bound and GHRP gap-closure",
        build: || Box::new(ablate::OptBound),
    },
    // -- lab notebooks ---------------------------------------------------
    ExperimentInfo {
        name: "analyze_signatures",
        kind: Kind::Lab,
        summary: "offline signature informativeness analysis",
        build: || Box::new(lab::AnalyzeSignatures),
    },
    ExperimentInfo {
        name: "diag",
        kind: Kind::Lab,
        summary: "per-trace footprints and MPKI diagnostics",
        build: || Box::new(lab::Diag),
    },
    ExperimentInfo {
        name: "ghrp_debug",
        kind: Kind::Lab,
        summary: "GHRP internal counters on one server trace",
        build: || Box::new(lab::GhrpDebug),
    },
    ExperimentInfo {
        name: "headroom",
        kind: Kind::Lab,
        summary: "LRU-vs-OPT headroom per server trace",
        build: || Box::new(lab::Headroom),
    },
    ExperimentInfo {
        name: "lab_dynamic_selection",
        kind: Kind::Lab,
        summary: "set-dueling hybrids vs static policies on phase-shifting workloads",
        build: || Box::new(lab::LabDynamicSelection),
    },
    ExperimentInfo {
        name: "lab_sampled_fidelity",
        kind: Kind::Lab,
        summary: "phase-sampled replay drift vs full replay across sampling configs",
        build: || Box::new(lab::LabSampledFidelity),
    },
    ExperimentInfo {
        name: "oracle_policy",
        kind: Kind::Lab,
        summary: "perfect and per-signature dead-block oracle ceilings",
        build: || Box::new(lab::OraclePolicy),
    },
    ExperimentInfo {
        name: "scale_test",
        kind: Kind::Lab,
        summary: "GHRP-vs-LRU gap versus trace length",
        build: || Box::new(lab::ScaleTest),
    },
    ExperimentInfo {
        name: "tune_ghrp",
        kind: Kind::Lab,
        summary: "GHRP knob tuning sweep on server traces",
        build: || Box::new(lab::TuneGhrp),
    },
];

/// Instantiate the named experiment, or `None` if unregistered.
pub fn build(name: &str) -> Option<Box<dyn Experiment>> {
    ALL.iter().find(|e| e.name == name).map(|e| (e.build)())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn names_are_unique_and_buildable() {
        let mut seen = HashSet::new();
        for info in ALL {
            assert!(seen.insert(info.name), "duplicate name {}", info.name);
            let exp = build(info.name).expect("every listed experiment builds");
            assert_eq!(exp.name(), info.name, "self-naming mismatch");
        }
    }

    /// `EXPERIMENTS.md` tells readers which `report run <name>` regenerates
    /// which figure: every registered experiment is documented there, and
    /// every documented name is registered.
    #[test]
    fn experiments_md_documents_exactly_the_registry() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let documented: BTreeSet<&str> = doc
            .split("report run ")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            // `report run --all`, `report run <name>` and the like.
            .filter(|word| !word.is_empty())
            .collect();
        let registered: BTreeSet<&str> = ALL.iter().map(|e| e.name).collect();
        let undocumented: Vec<_> = registered.difference(&documented).collect();
        let unregistered: Vec<_> = documented.difference(&registered).collect();
        assert!(
            undocumented.is_empty(),
            "registered but not documented as `report run <name>` in EXPERIMENTS.md: {undocumented:?}"
        );
        assert!(
            unregistered.is_empty(),
            "EXPERIMENTS.md documents `report run <name>` for unregistered names: {unregistered:?}"
        );
    }

    #[test]
    fn unknown_name_does_not_build() {
        assert!(build("no_such_experiment").is_none());
    }

    #[test]
    fn registry_has_all_legacy_binaries() {
        assert_eq!(ALL.len(), 28);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Paper).count(), 10);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Ablation).count(), 9);
        assert_eq!(ALL.iter().filter(|i| i.kind == Kind::Lab).count(), 9);
    }
}
