//! Windowed execution signatures for phase-sampled simulation.
//!
//! SimPoint-style sampling slices a trace into fixed-size instruction
//! intervals, summarizes each interval by the control flow it executed,
//! clusters the summaries, and simulates only one representative per
//! cluster. This module provides the summarization half: a single pass
//! over a branch trace that
//!
//! * counts instructions exactly the way the fetch reconstruction does
//!   ([`crate::fetch::FetchStream`]: the sequential run from the previous
//!   branch's successor up to and including the branch PC), so interval
//!   boundaries line up with the engine's instruction counter;
//! * opens a new **base window** every [`BASE_WINDOW_INSTRUCTIONS`]
//!   instructions, aligned to a record boundary, remembering the first
//!   record index and exact instruction offset of each window so a
//!   replayer can seek straight to it;
//! * accumulates, per window, an instruction-weighted frequency histogram
//!   of basic-block leader addresses hashed into a fixed
//!   [`SIGNATURE_DIM`]-dimension vector (a hashed basic-block vector).
//!
//! Histograms are additive, so any coarser windowing (a sampling run that
//! wants, say, 32 windows over the whole trace) is an exact aggregation
//! of consecutive base windows — signatures are computed **once**, at
//! `corpus build` time, and persisted as a checksummed sidecar section of
//! the `.soa` format (see [`crate::corpus`]).
//!
//! Everything here is deterministic: fixed-seed hashing, index-ordered
//! iteration, integer accumulation. Two builds of the same trace produce
//! byte-identical sidecars.

#![forbid(unsafe_code)]

use crate::record::{BranchRecord, INSTRUCTION_BYTES};
use crate::TraceError;

/// Instructions per base window. Small enough that smoke-scale traces
/// (200 K instructions) still yield ~50 windows to cluster; coarser
/// sampling windows aggregate consecutive base windows exactly.
pub const BASE_WINDOW_INSTRUCTIONS: u64 = 4096;

/// Dimension of the hashed basic-block-leader frequency vector.
pub const SIGNATURE_DIM: u32 = 32;

/// Serialized sidecar header: base window, dim, window count, total
/// instructions, total records.
const SIG_HEADER_BYTES: usize = 32;

/// `SplitMix64`: the finalizer used both to hash leader addresses into
/// histogram buckets and to seed the deterministic clustering. Public so
/// every sampling component draws from one audited mixing function.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One base window: where it starts, in records and in instructions.
/// Its histogram lives in the parent's flat `counts` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMeta {
    /// Index of the first branch record of this window.
    pub rec_start: u64,
    /// Exact instruction count at that record boundary (instructions
    /// executed before the window's first record).
    pub instr_start: u64,
}

/// Per-trace windowed signatures: base-window metadata plus one hashed
/// basic-block-leader histogram per window, in a flat row-major array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSignatures {
    base_window: u64,
    dim: u32,
    total_instructions: u64,
    total_records: u64,
    windows: Vec<WindowMeta>,
    /// `windows.len() * dim` bucket counts, window-major.
    counts: Vec<u32>,
}

impl TraceSignatures {
    /// Instructions per base window this trace was windowed with.
    #[must_use]
    pub fn base_window(&self) -> u64 {
        self.base_window
    }

    /// Histogram dimension.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of base windows.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Exact instruction total of the windowed pass (matches
    /// [`crate::fetch::FetchStream::instructions`] over the same records).
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Record total of the windowed pass.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Base-window metadata, in window order.
    #[must_use]
    pub fn windows(&self) -> &[WindowMeta] {
        &self.windows
    }

    /// The histogram row of base window `w` (length [`Self::dim`]).
    #[must_use]
    pub fn counts_of(&self, w: usize) -> &[u32] {
        let dim = self.dim as usize;
        self.counts.get(w * dim..(w + 1) * dim).unwrap_or(&[])
    }

    /// Aggregate consecutive base windows into coarser sampling windows
    /// of `group` base windows each (the last may be shorter), returning
    /// per-window `(rec_start, instr_start, instr_len)` plus an
    /// L1-normalized `f64` vector per window (flat, window-major).
    ///
    /// Histogram addition is exact, so grouping loses nothing relative
    /// to recomputing signatures at the coarser window size.
    #[must_use]
    pub fn grouped(&self, group: usize) -> GroupedWindows {
        let group = group.max(1);
        let dim = self.dim as usize;
        let n = self.windows.len();
        let mut meta = Vec::with_capacity(n.div_ceil(group));
        let mut vectors = Vec::with_capacity(n.div_ceil(group) * dim);
        let mut sum = vec![0u64; dim];
        let mut w = 0usize;
        while w < n {
            let hi = (w + group).min(n);
            let start = self.windows[w];
            let end_instr = if hi < n {
                self.windows[hi].instr_start
            } else {
                self.total_instructions
            };
            let end_rec = if hi < n {
                self.windows[hi].rec_start
            } else {
                self.total_records
            };
            sum.fill(0);
            for bw in w..hi {
                for (s, &c) in sum.iter_mut().zip(self.counts_of(bw)) {
                    *s += u64::from(c);
                }
            }
            let total: u64 = sum.iter().sum();
            let norm = if total == 0 { 1.0 } else { total as f64 };
            vectors.extend(sum.iter().map(|&s| s as f64 / norm));
            meta.push(GroupedWindow {
                rec_start: start.rec_start,
                rec_end: end_rec,
                instr_start: start.instr_start,
                instr_len: end_instr.saturating_sub(start.instr_start),
            });
            w = hi;
        }
        GroupedWindows {
            dim,
            windows: meta,
            vectors,
        }
    }

    /// Serialize to the sidecar byte layout (fixed little-endian header,
    /// window table, flat counts). Deterministic and platform-independent.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(SIG_HEADER_BYTES + self.windows.len() * 16 + self.counts.len() * 4);
        out.extend_from_slice(&self.base_window.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        let nwindows = u32::try_from(self.windows.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&nwindows.to_le_bytes());
        out.extend_from_slice(&self.total_instructions.to_le_bytes());
        out.extend_from_slice(&self.total_records.to_le_bytes());
        for w in &self.windows {
            out.extend_from_slice(&w.rec_start.to_le_bytes());
            out.extend_from_slice(&w.instr_start.to_le_bytes());
        }
        for c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Parse a sidecar blob written by [`TraceSignatures::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptCorpus`] when the blob is truncated
    /// or its window/dimension geometry is inconsistent with its length.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceSignatures, TraceError> {
        let err = |what: &str| TraceError::CorruptCorpus(format!("signature sidecar: {what}"));
        let header = bytes
            .get(..SIG_HEADER_BYTES)
            .ok_or_else(|| err("truncated header"))?;
        let u64_at = |o: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&header[o..o + 8]);
            u64::from_le_bytes(a)
        };
        let base_window = u64_at(0);
        let dim = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let nwin = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let total_instructions = u64_at(16);
        let total_records = u64_at(24);
        if base_window == 0 || dim == 0 {
            return Err(err("zero base window or dimension"));
        }
        let nwin = nwin as usize;
        let table_len = nwin
            .checked_mul(16)
            .ok_or_else(|| err("window table length overflows"))?;
        let counts_len = nwin
            .checked_mul(dim as usize)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| err("counts length overflows"))?;
        let expect = table_len
            .checked_add(counts_len)
            .and_then(|n| n.checked_add(SIG_HEADER_BYTES));
        if expect != Some(bytes.len()) {
            return Err(err("length does not match window geometry"));
        }
        let mut windows = Vec::with_capacity(nwin);
        let table = &bytes[SIG_HEADER_BYTES..SIG_HEADER_BYTES + table_len];
        for row in table.chunks_exact(16) {
            let mut a = [0u8; 8];
            a.copy_from_slice(&row[..8]);
            let rec_start = u64::from_le_bytes(a);
            a.copy_from_slice(&row[8..16]);
            let instr_start = u64::from_le_bytes(a);
            windows.push(WindowMeta {
                rec_start,
                instr_start,
            });
        }
        let counts = bytes[SIG_HEADER_BYTES + table_len..]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(TraceSignatures {
            base_window,
            dim,
            total_instructions,
            total_records,
            windows,
            counts,
        })
    }
}

/// One aggregated sampling window (a run of consecutive base windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedWindow {
    /// First record index of the window.
    pub rec_start: u64,
    /// One past the last record index of the window.
    pub rec_end: u64,
    /// Instruction offset of the window start.
    pub instr_start: u64,
    /// Instructions in the window.
    pub instr_len: u64,
}

/// Aggregated sampling windows plus their L1-normalized signature
/// vectors (flat, window-major, `windows.len() * dim` values).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedWindows {
    /// Vector dimension.
    pub dim: usize,
    /// Window metadata, in trace order.
    pub windows: Vec<GroupedWindow>,
    /// Flat normalized vectors.
    pub vectors: Vec<f64>,
}

/// Compute windowed signatures in one pass over `records`.
///
/// Instruction accounting mirrors [`crate::fetch::FetchStream`] exactly:
/// each record contributes the sequential run from the current fetch PC
/// (the previous record's successor, or the record's own PC after a
/// discontinuity) up to and including its own PC. Each record's whole run
/// is attributed to the window containing the run's first instruction,
/// and its basic-block leader (the run's start address) is hashed into
/// the histogram with the run length as weight.
#[must_use]
pub fn compute_signatures(
    records: impl Iterator<Item = BranchRecord>,
    base_window: u64,
    dim: u32,
) -> TraceSignatures {
    let base_window = base_window.max(1);
    let dim = dim.max(1);
    let mut windows: Vec<WindowMeta> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut pc: Option<u64> = None;
    let mut instructions: u64 = 0;
    let mut records_seen: u64 = 0;
    for rec in records {
        // Open a window at the first record, and a new one whenever the
        // current window has accumulated a full base window.
        let open = match windows.last() {
            None => true,
            Some(w) => instructions - w.instr_start >= base_window,
        };
        if open {
            windows.push(WindowMeta {
                rec_start: records_seen,
                instr_start: instructions,
            });
            counts.resize(windows.len() * dim as usize, 0);
        }
        let start = match pc {
            Some(p) if p <= rec.pc => p,
            _ => rec.pc,
        };
        let run = (rec.pc - start) / INSTRUCTION_BYTES + 1;
        let bucket = usize::try_from(splitmix64(start) % u64::from(dim)).unwrap_or(0);
        let slot = (windows.len() - 1) * dim as usize + bucket;
        if let Some(c) = counts.get_mut(slot) {
            *c = c.saturating_add(u32::try_from(run.min(u64::from(u32::MAX))).unwrap_or(u32::MAX));
        }
        // Saturate: adversarial PCs can make a single run absurdly long;
        // windowing degrades gracefully instead of overflowing.
        instructions = instructions.saturating_add(run);
        pc = Some(rec.successor());
        records_seen += 1;
    }
    TraceSignatures {
        base_window,
        dim,
        total_instructions: instructions,
        total_records: records_seen,
        windows,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::FetchStream;
    use crate::synth::{WorkloadCategory, WorkloadSpec};

    #[test]
    fn instruction_accounting_matches_fetch_stream() {
        for (cat, seed) in [
            (WorkloadCategory::ShortMobile, 3u64),
            (WorkloadCategory::LongServer, 11),
        ] {
            let trace = WorkloadSpec::new(cat, seed).instructions(60_000).generate();
            let sigs = compute_signatures(
                trace.records.iter().copied(),
                BASE_WINDOW_INSTRUCTIONS,
                SIGNATURE_DIM,
            );
            let mut fs = FetchStream::new(trace.records.iter().copied(), 64);
            while fs.next().is_some() {}
            assert_eq!(sigs.total_instructions(), fs.instructions());
            assert_eq!(sigs.total_records(), trace.records.len() as u64);
        }
    }

    #[test]
    fn windows_are_record_aligned_and_ordered() {
        let trace = WorkloadSpec::new(WorkloadCategory::ShortServer, 5)
            .instructions(50_000)
            .generate();
        let sigs = compute_signatures(trace.records.iter().copied(), 4096, 32);
        assert!(sigs.window_count() >= 10, "expected ~12 windows");
        for pair in sigs.windows().windows(2) {
            assert!(pair[0].rec_start < pair[1].rec_start);
            assert!(pair[1].instr_start - pair[0].instr_start >= 4096);
        }
        // Every window's histogram mass equals the instructions between
        // its boundary and the next.
        for (w, meta) in sigs.windows().iter().enumerate() {
            let mass: u64 = sigs.counts_of(w).iter().map(|&c| u64::from(c)).sum();
            let end = sigs
                .windows()
                .get(w + 1)
                .map_or(sigs.total_instructions(), |m| m.instr_start);
            assert_eq!(mass, end - meta.instr_start, "window {w}");
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let trace = WorkloadSpec::new(WorkloadCategory::LongMobile, 7)
            .instructions(30_000)
            .generate();
        let sigs = compute_signatures(trace.records.iter().copied(), 4096, 32);
        let bytes = sigs.to_bytes();
        let back = TraceSignatures::from_bytes(&bytes).unwrap();
        assert_eq!(back, sigs);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncated_or_inconsistent_blob_rejected() {
        let trace = WorkloadSpec::new(WorkloadCategory::ShortMobile, 1)
            .instructions(10_000)
            .generate();
        let bytes = compute_signatures(trace.records.iter().copied(), 4096, 16).to_bytes();
        assert!(TraceSignatures::from_bytes(&bytes[..10]).is_err());
        assert!(TraceSignatures::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(TraceSignatures::from_bytes(&padded).is_err());
    }

    #[test]
    fn lying_counts_are_rejected_without_overflow() {
        // Window and dimension counts whose table plus counts length
        // overflows usize once the header is added: an error, never an
        // arithmetic panic or an allocation sized by the counts.
        for (nwin, dim) in [
            (u32::MAX, 0x4000_0000),
            (u32::MAX, u32::MAX),
            (1 << 31, 1 << 31),
        ] {
            let mut bytes = vec![0u8; SIG_HEADER_BYTES];
            bytes[0] = 1; // base window
            bytes[8..12].copy_from_slice(&dim.to_le_bytes());
            bytes[12..16].copy_from_slice(&nwin.to_le_bytes());
            assert!(
                TraceSignatures::from_bytes(&bytes).is_err(),
                "nwin {nwin} dim {dim}"
            );
        }
    }

    #[test]
    fn grouping_conserves_mass_and_geometry() {
        let trace = WorkloadSpec::new(WorkloadCategory::ShortServer, 9)
            .instructions(80_000)
            .generate();
        let sigs = compute_signatures(trace.records.iter().copied(), 4096, 32);
        for group in [1usize, 2, 3, 7, 1000] {
            let g = sigs.grouped(group);
            assert_eq!(g.windows.len(), sigs.window_count().div_ceil(group));
            // Windows tile the trace: contiguous in records and instructions.
            assert_eq!(g.windows[0].rec_start, 0);
            for pair in g.windows.windows(2) {
                assert_eq!(pair[0].rec_end, pair[1].rec_start);
                assert_eq!(pair[0].instr_start + pair[0].instr_len, pair[1].instr_start);
            }
            let last = g.windows.last().unwrap();
            assert_eq!(last.rec_end, sigs.total_records());
            assert_eq!(last.instr_start + last.instr_len, sigs.total_instructions());
            // Vectors are L1-normalized.
            for w in 0..g.windows.len() {
                let s: f64 = g.vectors[w * g.dim..(w + 1) * g.dim].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "group {group} window {w}: {s}");
            }
        }
    }

    #[test]
    fn empty_trace_yields_no_windows() {
        let sigs = compute_signatures(std::iter::empty(), 4096, 32);
        assert_eq!(sigs.window_count(), 0);
        assert_eq!(sigs.total_instructions(), 0);
        let back = TraceSignatures::from_bytes(&sigs.to_bytes()).unwrap();
        assert_eq!(back, sigs);
    }

    #[test]
    fn splitmix_spreads_buckets() {
        // Not a statistical test — just pin that distinct leaders spread
        // over more than a couple of buckets and hashing is stable.
        let mut used = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            used.insert(splitmix64(0x1000 + i * 4) % 32);
        }
        assert!(used.len() > 16, "only {} buckets used", used.len());
        assert_eq!(splitmix64(0), splitmix64(0));
    }
}
