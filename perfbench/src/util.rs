//! Small helpers: order statistics, result digests, process memory, and
//! the benchmark's JSON output line.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN, both bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Seconds in `d`, as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `num / den`, or 0 when the base is empty (the base is always reported
/// beside the ratio, so a 0 with base 0 reads as "no events").
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds per unit of work.
pub fn ns_per(d: Duration, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / units as f64
    }
}

/// FNV-1a-64 over a stream of words: a digest of simulated statistics
/// that must repeat exactly across repetitions of the same pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold a word into the digest.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Fold a float's exact bit pattern into the digest.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Append `s` to `out` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `x` as a JSON number with every significant digit (Rust's
/// shortest round-trip form). Non-finite values become 0, which JSON
/// cannot otherwise carry; no reported metric is non-finite by
/// construction.
pub fn json_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push('0');
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.float(1.0);
        b.float(1.0 + f64::EPSILON);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[Metric::new("run_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
