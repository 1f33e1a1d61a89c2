//! Structured, diffable experiment artifacts.
//!
//! Every experiment run emits a schema-versioned JSON record — the flags
//! it ran under, the git revision, the suite seed, the measured headline
//! metrics, and its evaluated shape checks — alongside whatever legacy
//! CSV/markdown it already produced. Records are indexed in
//! `results/MANIFEST.json` so two runs of the repository can be compared
//! mechanically by `report diff` instead of by eyeballing stdout.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use super::shape::ShapeCheck;

/// Schema tag stamped on every per-experiment record.
pub const RECORD_SCHEMA: &str = "ghrp-experiment-v1";
/// Schema tag stamped on the manifest index.
pub const MANIFEST_SCHEMA: &str = "ghrp-report-manifest-v1";

/// The flags a record was produced under (the reproducibility line).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordArgs {
    /// Suite size.
    pub traces: usize,
    /// Suite base seed.
    pub seed: u64,
    /// Per-trace instruction override, if any.
    pub instr: Option<u64>,
    /// Always `None`: no experiment times anything. Kept so existing
    /// records, which all carry `"reps": null`, keep their shape.
    pub reps: Option<usize>,
}

/// One experiment's structured artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Always [`RECORD_SCHEMA`].
    pub schema: String,
    /// Registry name (`headline`, `fig7`, `ablate_history`, …).
    pub experiment: String,
    /// Paper anchor (`"Fig. 7"`, `"Table 1"`, `"lab"`).
    pub paper_ref: String,
    /// `git rev-parse HEAD` at run time, or `"unknown"`.
    pub git_rev: String,
    /// The flags the run used.
    pub args: RecordArgs,
    /// Headline measured values, keyed by stable metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Evaluated shape assertions.
    pub checks: Vec<ShapeCheck>,
    /// Files this experiment wrote (relative to the out dir).
    pub artifacts: Vec<String>,
}

/// The index over every record a `report` invocation produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Always [`MANIFEST_SCHEMA`].
    pub schema: String,
    /// `git rev-parse HEAD` at run time, or `"unknown"`.
    pub git_rev: String,
    /// Records, keyed by experiment name.
    pub experiments: BTreeMap<String, ExperimentRecord>,
}

impl Manifest {
    /// An empty manifest stamped with the current schema and revision.
    pub fn new() -> Manifest {
        Manifest {
            schema: MANIFEST_SCHEMA.to_owned(),
            git_rev: git_rev(),
            experiments: BTreeMap::new(),
        }
    }

    /// Insert (or replace) one experiment's record.
    pub fn insert(&mut self, record: ExperimentRecord) {
        self.experiments.insert(record.experiment.clone(), record);
    }

    /// Parse a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse error text, or a schema-mismatch message.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let m: Manifest = serde_json::from_str(text).map_err(|e| e.to_string())?;
        m.validate()?;
        Ok(m)
    }

    /// Read and parse `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse error text.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Manifest::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Check schema tags on the index and every record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatched schema tag.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest schema `{}` is not `{MANIFEST_SCHEMA}`",
                self.schema
            ));
        }
        for (name, rec) in &self.experiments {
            if rec.schema != RECORD_SCHEMA {
                return Err(format!(
                    "experiment `{name}` schema `{}` is not `{RECORD_SCHEMA}`",
                    rec.schema
                ));
            }
            if rec.experiment != *name {
                return Err(format!(
                    "experiment `{name}` record names itself `{}`",
                    rec.experiment
                ));
            }
        }
        Ok(())
    }

    /// Merge this run's records into an existing on-disk manifest (so
    /// `report run fig7` refreshes one entry without dropping the rest),
    /// then write the result.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write; a pre-existing unreadable
    /// manifest is replaced rather than propagated.
    pub fn merge_into(&self, path: &Path) -> io::Result<()> {
        let mut merged = match std::fs::read_to_string(path)
            .ok()
            .and_then(|t| Manifest::from_json(&t).ok())
        {
            Some(existing) => existing,
            None => Manifest {
                schema: MANIFEST_SCHEMA.to_owned(),
                git_rev: self.git_rev.clone(),
                experiments: BTreeMap::new(),
            },
        };
        merged.git_rev.clone_from(&self.git_rev);
        for rec in self.experiments.values() {
            merged.insert(rec.clone());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = serde_json::to_string_pretty(&merged)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// `git rev-parse HEAD` for the working directory, or `"unknown"` when
/// git is unavailable (the record stays diffable either way — `report
/// diff` never compares revisions).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::super::shape::ShapeAssertion;
    use super::*;

    fn record(name: &str) -> ExperimentRecord {
        let metrics: BTreeMap<String, f64> =
            [("ghrp".to_owned(), 1.0), ("lru".to_owned(), 2.0)].into();
        ExperimentRecord {
            schema: RECORD_SCHEMA.to_owned(),
            experiment: name.to_owned(),
            paper_ref: "Fig. 0".to_owned(),
            git_rev: "test".to_owned(),
            args: RecordArgs {
                traces: 4,
                seed: 1234,
                instr: Some(10_000),
                reps: None,
            },
            checks: vec![ShapeAssertion::lt("win", "", "ghrp", "lru").eval(&metrics)],
            metrics,
            artifacts: vec![format!("{name}.csv")],
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = Manifest::new();
        m.insert(record("headline"));
        let text = serde_json::to_string_pretty(&m).expect("serializes");
        let back = Manifest::from_json(&text).expect("round-trips");
        assert_eq!(back, m);
        assert!(back.experiments["headline"].checks[0].pass);
    }

    #[test]
    fn validate_rejects_wrong_schemas() {
        let mut m = Manifest::new();
        m.insert(record("headline"));
        m.schema = "bogus".to_owned();
        assert!(m.validate().is_err());

        let mut m = Manifest::new();
        let mut r = record("headline");
        r.schema = "bogus".to_owned();
        m.experiments.insert("headline".to_owned(), r);
        assert!(m.validate().is_err());

        let mut m = Manifest::new();
        m.experiments.insert("other".to_owned(), record("headline"));
        assert!(m.validate().is_err());
    }

    #[test]
    fn merge_preserves_records_from_earlier_runs() {
        let dir = std::env::temp_dir().join(format!("fe-bench-manifest-{}", std::process::id()));
        let path = dir.join("MANIFEST.json");

        let mut first = Manifest::new();
        first.insert(record("headline"));
        first.merge_into(&path).expect("write");

        let mut second = Manifest::new();
        second.insert(record("fig7"));
        second.merge_into(&path).expect("merge");

        let merged = Manifest::load(&path).expect("load");
        assert!(merged.experiments.contains_key("headline"));
        assert!(merged.experiments.contains_key("fig7"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
