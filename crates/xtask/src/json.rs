//! Machine-readable lint output (`cargo xtask lint --json`).
//!
//! CI uploads this as an artifact so rule regressions are diffable
//! across runs without re-parsing human-oriented stderr. The xtask
//! crate is dependency-free by design, so the emitter is hand-rolled:
//! a tiny, deterministic subset of JSON — object keys in fixed order,
//! arrays sorted the way [`crate::run_lint`] sorts them, every string
//! escaped per RFC 8259.
//!
//! Top-level shape (`schema` guards consumers against drift):
//!
//! ```json
//! {
//!   "schema": "xtask-lint/3",
//!   "files_scanned": 120,
//!   "clean": true,
//!   "findings": [ {"file", "line", "rule", "message"} ],
//!   "rule_counts": { "<rule>": <finding count>, … },
//!   "effects": { "functions", "may_panic", "may_alloc", "does_io",
//!                "reads_clock_or_env", "unordered_iter_taint" },
//!   "active_allows": [ {"file", "line", "rule", "justification"} ]
//! }
//! ```
//!
//! `rule_counts` always lists every known rule (zeros included) so a
//! consumer can distinguish "rule ran and found nothing" from "rule
//! does not exist in this revision". Schema `/2` added the three
//! interprocedural rules to `rule_counts` and the `effects` object —
//! workspace-wide counts of functions whose *transitive* summary
//! carries each effect bit. Schema `/3` dropped the `dispatch-drift`,
//! `registry-drift` and `atomics-audit` keys with the passes: a type, an
//! exhaustive `match` or a unit test now holds what they checked.
//! Phase timings are deliberately absent:
//! the report must be byte-diffable across identical revisions.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::RULES;
use crate::LintReport;

/// Render a lint report as deterministic JSON.
pub fn render(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"xtask-lint/3\",");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(
        out,
        "  \"clean\": {},",
        if report.findings.is_empty() {
            "true"
        } else {
            "false"
        }
    );

    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            escape(&f.file.display().to_string()),
            f.line,
            escape(f.rule),
            escape(&f.message)
        );
    }
    out.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    // Every known rule appears, zeros included; `parse-error` and
    // `unknown-rule` only when they actually fired.
    let mut counts: BTreeMap<&str, usize> = RULES.iter().map(|r| (*r, 0)).collect();
    for f in &report.findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    out.push_str("  \"rule_counts\": {\n");
    let last = counts.len().saturating_sub(1);
    for (i, (rule, n)) in counts.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}: {}{}",
            escape(rule),
            n,
            if i == last { "" } else { "," }
        );
    }
    out.push_str("  },\n");

    let e = &report.effects;
    out.push_str("  \"effects\": {\n");
    let _ = writeln!(out, "    \"functions\": {},", e.functions);
    let _ = writeln!(out, "    \"may_panic\": {},", e.may_panic);
    let _ = writeln!(out, "    \"may_alloc\": {},", e.may_alloc);
    let _ = writeln!(out, "    \"does_io\": {},", e.does_io);
    let _ = writeln!(out, "    \"reads_clock_or_env\": {},", e.reads_clock_or_env);
    let _ = writeln!(
        out,
        "    \"unordered_iter_taint\": {}",
        e.unordered_iter_taint
    );
    out.push_str("  },\n");

    out.push_str("  \"active_allows\": [");
    for (i, a) in report.allow_details.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"justification\": {}}}",
            escape(&a.file.display().to_string()),
            a.line,
            escape(&a.rule),
            escape(&a.justification)
        );
    }
    out.push_str(if report.allow_details.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });

    out.push_str("}\n");
    out
}

/// RFC 8259 string escaping (quotes, backslash, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActiveAllow, Finding};
    use std::path::PathBuf;

    #[test]
    fn clean_report_shape() {
        let report = LintReport {
            files_scanned: 3,
            active_allows: 0,
            ..LintReport::default()
        };
        let j = render(&report);
        assert!(j.contains("\"schema\": \"xtask-lint/3\""));
        assert!(j.contains("\"clean\": true"));
        assert!(j.contains("\"findings\": []"));
        // Every rule present with a zero count.
        for rule in RULES {
            assert!(j.contains(&format!("\"{rule}\": 0")), "missing {rule}");
        }
        // Rules retired in schema /3 are gone, not reported as zero.
        for retired in ["dispatch-drift", "registry-drift", "atomics-audit"] {
            assert!(!j.contains(retired), "retired rule {retired} still listed");
        }
        // The effect-summary block is always present.
        assert!(j.contains("\"effects\": {"));
        assert!(j.contains("\"functions\": 0"));
        assert!(j.contains("\"reads_clock_or_env\": 0"));
    }

    #[test]
    fn findings_and_allows_are_rendered_and_escaped() {
        let report = LintReport {
            findings: vec![Finding {
                file: PathBuf::from("crates/a/src/lib.rs"),
                line: 7,
                rule: "no-panic",
                message: "a \"quoted\" reason\nsecond line".into(),
            }],
            files_scanned: 1,
            active_allows: 1,
            allow_details: vec![ActiveAllow {
                file: PathBuf::from("crates/a/src/lib.rs"),
                line: 6,
                rule: "pow2-mask".into(),
                justification: "ring buffer \\ wrap".into(),
            }],
            ..LintReport::default()
        };
        let j = render(&report);
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"no-panic\": 1"));
        assert!(j.contains("a \\\"quoted\\\" reason\\nsecond line"));
        assert!(j.contains("ring buffer \\\\ wrap"));
        assert!(j.contains("\"line\": 7"));
        assert!(j.contains("\"justification\""));
    }
}
