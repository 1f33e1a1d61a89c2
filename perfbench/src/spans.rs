//! In-memory span recorder for the traced run.
//!
//! Each span covers one call from the benchmark into a workspace crate:
//! its name, the crate (layer) it enters, start and end on one monotonic
//! clock, the span that caused it, and the run it belongs to. Spans stay
//! in memory while the run measures and are written out once at the end.
//! Spans are recorded from the benchmark's side of each call only; the
//! crates themselves carry no tracing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::util::{json_num, json_str};

/// The benchmark itself, as a span layer (root and grouping spans).
pub const SELF_LAYER: &str = "perfbench";

/// The workspace crates a span may enter, in stack order.
pub const LAYERS: [&str; 8] = [
    "fe-trace",
    "fe-branch",
    "fe-cache",
    "ghrp-core",
    "fe-sdbp",
    "fe-btb",
    "fe-frontend",
    "fe-bench",
];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tag every span opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` entering `layer`; spans opened
    /// inside `f` become its children. Returns `f`'s value and the span's
    /// duration.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, Duration::from_nanos(end_ns - start_ns))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the time its direct children cover (children run sequentially on
    /// the recording thread, so their durations do not overlap).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for layer in LAYERS {
            by_layer.insert(layer, 0.0);
        }
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = s.duration_ns().saturating_sub(c);
            *by_layer.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Write every span as one JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating the directory or the file.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str("{\"workload\": ");
        json_str(&mut out, workload);
        let _ = write!(out, ", \"seed\": {seed}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  {{\"id\": {i}, \"name\": ");
            json_str(&mut out, &s.name);
            out.push_str(", \"layer\": ");
            json_str(&mut out, s.layer);
            let _ = write!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"run\": {}}}",
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.run
            );
        }
        out.push_str("\n], \"self_ms_by_layer\": {");
        for (i, (layer, ms)) in self.self_ms_by_layer().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_str(&mut out, layer);
            out.push_str(": ");
            json_num(&mut out, *ms);
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Run `f` inside a span when a tracer is given, plainly otherwise.
pub fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, layer, |_| f()).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", SELF_LAYER, |t| {
            t.span("inner", "fe-cache", |_| {
                std::thread::sleep(Duration::from_millis(5));
            });
        });
        let by = t.self_ms_by_layer();
        assert!(by["fe-cache"] >= 5.0);
        assert!(by[SELF_LAYER] < by["fe-cache"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
