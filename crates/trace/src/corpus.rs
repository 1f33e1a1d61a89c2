//! Zero-copy structure-of-arrays trace corpus.
//!
//! The per-record formats ([`crate::io`]'s 18-byte `FETR` records, the
//! synthetic walker) hand the simulator one [`BranchRecord`] at a time.
//! That is fine for a single pass, but the engine replays the same trace
//! under many policies, geometries, and thread counts, and the paper's
//! CBP-5 methodology assumes multi-gigabyte trace files shared across
//! many simulations. This module provides the shared representation:
//!
//! * an on-disk **columnar** format (`FESA` magic): fixed-width
//!   little-endian `pc`/`target` u64 columns and `kind`/`taken` u8
//!   columns, a per-column FNV-1a checksum, a versioned header, and a
//!   per-trace index so one file can hold a whole workload suite;
//! * a [`Corpus`] handle that loads a file **once** into a shared
//!   immutable buffer and hands out [`CorpusTrace`]s — cheap handles
//!   that share the buffer. The buffer is the `Vec<u8>` of one file
//!   read (or the bytes a caller passes in), owned as is behind an
//!   `Arc` and never copied; with the optional `mmap` feature it is a
//!   `memmap2` mapping instead;
//! * [`CorpusCursor`]: a zero-allocation, branch-light column-slice
//!   cursor that decodes records in cache-friendly fixed-size chunks
//!   (column bytes stream linearly; the only per-record work is four
//!   loads and a table-free kind conversion);
//! * a [`CorpusCache`]: materialize-to-corpus for
//!   [`WorkloadSpec`]s, keyed by (category, seed, instructions), so
//!   every synthetic workload is generated and encoded exactly once per
//!   cache directory and replayed from the shared buffer thereafter.
//!
//! All decode-side validation (checksums, `kind`/`taken` domains) runs
//! once at load time ([`Corpus::load`] / [`Corpus::verify`]); cursors
//! then decode without per-record checks and without allocating.
//!
//! Encoding and verification hash every column and sidecar in one pass
//! of a private lockstep kernel that advances four FNV-1a chains at
//! once, spread over the columns of several traces. Each sum is
//! bit-identical to [`fnv1a64`] of its region, so the bytes on disk are
//! the same as with one chain per column.
//!
//! Since version 2 each trace also carries a **signature sidecar**: the
//! windowed basic-block-signature vectors of [`crate::signature`],
//! computed once at build time and stored (with their own FNV-1a
//! checksum) after all column data, so phase-sampled replay never
//! re-scans a trace to cluster it.
//!
//! # File layout (version 2)
//!
//! ```text
//! [0..4)    magic  = b"FESA"
//! [4..8)    version: u32 LE = 2
//! [8..16)   trace count: u64 LE
//! [16..24)  index length in bytes: u64 LE
//! [24..24+index)  per-trace index entries, in trace order:
//!     name length: u16 LE, name bytes (UTF-8),
//!     instructions: u64 LE, records: u64 LE,
//!     pc/target/kind/taken column offsets: 4 x u64 LE (absolute),
//!     pc/target/kind/taken column checksums: 4 x u64 LE (FNV-1a),
//!     signature sidecar offset/length: 2 x u64 LE (absolute),
//!     signature sidecar checksum: u64 LE (FNV-1a)
//! [..]      column data, in index order: pc (8n), target (8n),
//!           kind (n), taken (n) bytes per trace
//! [..]      signature sidecars, in index order (see
//!           [`crate::signature::TraceSignatures::to_bytes`])
//! ```
//!
//! # Example
//!
//! ```
//! use fe_trace::corpus::{Corpus, CorpusBuilder};
//! use fe_trace::{BranchKind, BranchRecord};
//!
//! # fn main() -> Result<(), fe_trace::TraceError> {
//! let records = vec![BranchRecord::new(0x100, BranchKind::Call, true, 0x4000)];
//! let mut b = CorpusBuilder::new();
//! b.push_trace("demo", 42, &records)?;
//! let corpus = Corpus::from_bytes(b.finish())?;
//! let trace = corpus.get(0).ok_or_else(|| {
//!     fe_trace::TraceError::CorruptCorpus("missing trace".into())
//! })?;
//! assert_eq!(trace.cursor().collect::<Vec<_>>(), records);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use crate::record::{BranchKind, BranchRecord};
use crate::signature::{compute_signatures, TraceSignatures};
use crate::signature::{BASE_WINDOW_INSTRUCTIONS, SIGNATURE_DIM};
use crate::synth::{SyntheticTrace, WorkloadSpec};
use crate::TraceError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes that begin every corpus file (`FESA`, fetch + `SoA`).
pub const MAGIC: [u8; 4] = *b"FESA";
/// Current corpus format version (2 added the signature sidecar; v1
/// files are rejected as [`TraceError::UnsupportedVersion`] and cache
/// files regenerate in place).
pub const VERSION: u32 = 2;

/// Fixed header size: magic + version + trace count + index length.
const HEADER_BYTES: usize = 24;
/// Fixed per-entry index payload after the name: instructions, records,
/// 4 column offsets, 4 column checksums, sidecar offset/length/checksum.
const ENTRY_FIXED_BYTES: usize = 104;
/// Records decoded per cursor refill. 256 records touch 4.5 KB of
/// column bytes — comfortably inside L1 — and amortize the refill
/// branch to under 0.4% of `next()` calls.
const CHUNK: usize = 256;

/// The column names, in file order (error reporting).
const COLUMNS: [&str; 4] = ["pc", "target", "kind", "taken"];
/// Checksummed regions per trace: the four columns, then the sidecar.
const CHECKSUMMED: usize = 5;

/// FNV-1a-64 offset basis: the checksum of zero bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;
/// Checksum chains [`fnv1a64_each`] advances in lockstep.
const LANES: usize = 4;

/// FNV-1a over a byte slice (64-bit). Dependency-free and deterministic
/// across platforms; collisions are irrelevant here — the checksum
/// guards against torn writes and bit rot, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] of every slice in `cols`, in order, bit-identical to
/// hashing each one alone.
///
/// FNV-1a is one dependent xor-multiply per byte, so a lone chain runs
/// at the multiplier's latency (about 4 cycles a byte). This kernel
/// keeps [`LANES`] independent chains in flight: each lane takes the
/// next unstarted slice as soon as its current one ends, and the lanes
/// advance one byte each per step. A whole-corpus pass spreads the
/// lanes over several traces' columns and runs near the multiplier's
/// throughput instead.
fn fnv1a64_each(cols: &[&[u8]]) -> Vec<u64> {
    let mut sums = vec![FNV_OFFSET; cols.len()];
    // Empty slices keep the offset basis and never occupy a lane.
    let mut unstarted = (0..cols.len()).filter(|&c| !cols[c].is_empty());
    // Busy lanes: (slice index, bytes hashed so far).
    let mut lanes: Vec<(usize, usize)> = Vec::with_capacity(LANES);
    loop {
        while lanes.len() < LANES {
            match unstarted.next() {
                Some(c) => lanes.push((c, 0)),
                None => break,
            }
        }
        // Lockstep up to the end of the shortest busy slice. Once fewer
        // slices than lanes are left, the idle lanes rehash the last
        // busy lane's bytes into states that are thrown away: the step
        // costs the same, and the loop stays one straight-line kernel.
        let Some(step) = lanes.iter().map(|&(c, at)| cols[c].len() - at).min() else {
            return sums;
        };
        let lane = |k: usize| lanes[k.min(lanes.len() - 1)];
        let h = lockstep(
            std::array::from_fn(|k| sums[lane(k).0]),
            std::array::from_fn(|k| {
                let (c, at) = lane(k);
                &cols[c][at..at + step]
            }),
        );
        for (lane, h) in lanes.iter_mut().zip(h) {
            sums[lane.0] = h;
            lane.1 += step;
        }
        lanes.retain(|&(c, at)| at < cols[c].len());
    }
}

/// Advance [`LANES`] FNV-1a chains from states `h` over equally long
/// byte slices, one byte of each per step.
#[inline]
fn lockstep(mut h: [u64; LANES], [a, b, c, d]: [&[u8]; LANES]) -> [u64; LANES] {
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(a)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(c)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(d)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Decode 8 little-endian bytes. Callers guarantee `b.len() >= 8`.
#[inline]
fn read_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// The shared immutable bytes behind a corpus: one buffer, many readers.
#[derive(Clone)]
enum SharedBuf {
    /// The caller's buffer (a file read, or a builder's output), owned
    /// as is: wrapping a `Vec` in an `Arc` moves it without copying.
    Owned(Arc<Vec<u8>>),
    /// Memory-mapped file (the `mmap` feature).
    #[cfg(feature = "mmap")]
    Mapped(Arc<memmap2::Mmap>),
}

impl SharedBuf {
    fn bytes(&self) -> &[u8] {
        match self {
            SharedBuf::Owned(b) => b,
            #[cfg(feature = "mmap")]
            SharedBuf::Mapped(m) => m,
        }
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBuf({} bytes)", self.bytes().len())
    }
}

/// Index entry for one trace: where its columns live in the shared
/// buffer, plus the recorded checksums (a [`CorpusBuilder`] holds its
/// entries with relative offsets until `finish`).
#[derive(Debug, Clone)]
struct TraceMeta {
    name: String,
    instructions: u64,
    /// Record count, pre-converted to `usize` (validated at parse).
    n: usize,
    /// Absolute byte offsets of the pc/target/kind/taken columns.
    offsets: [usize; 4],
    /// Recorded FNV-1a checksums, same order.
    sums: [u64; 4],
    /// Absolute byte offset of the signature sidecar.
    sig_off: usize,
    /// Sidecar length in bytes (0 = no sidecar recorded).
    sig_len: usize,
    /// Recorded FNV-1a checksum of the sidecar bytes.
    sig_sum: u64,
}

impl TraceMeta {
    /// Byte length of column `c` (0/1 are u64 columns, 2/3 are u8).
    fn col_len(&self, c: usize) -> usize {
        if c < 2 {
            self.n * 8
        } else {
            self.n
        }
    }

    /// Column `c`'s bytes (`c < 4`; ranges were validated at parse).
    fn column<'a>(&self, data: &'a [u8], c: usize) -> &'a [u8] {
        &data[self.offsets[c]..self.offsets[c] + self.col_len(c)]
    }

    /// The sidecar's bytes (empty when none is recorded; the range was
    /// validated at parse).
    fn sidecar<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.sig_off..self.sig_off + self.sig_len]
    }

    /// Every checksummed region in file order: the four columns, then
    /// the sidecar ([`CHECKSUMMED`] slices).
    fn checksummed<'a>(&self, data: &'a [u8]) -> [&'a [u8]; CHECKSUMMED] {
        [
            self.column(data, 0),
            self.column(data, 1),
            self.column(data, 2),
            self.column(data, 3),
            self.sidecar(data),
        ]
    }
}

/// Incremental corpus encoder: push traces, then [`finish`] into the
/// on-disk byte layout.
///
/// The builder holds the corpus once, in file order (see
/// [`finish`]).
///
/// [`finish`]: CorpusBuilder::finish
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    /// Index entries: offsets relative to `columns`/`sidecars`, no sums.
    traces: Vec<TraceMeta>,
    /// Every trace's pc/target/kind/taken columns, back to back.
    columns: Vec<u8>,
    /// Every trace's signature sidecar, computed at push time.
    sidecars: Vec<u8>,
}

impl CorpusBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Number of traces pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no traces were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Append one trace: its name, exact instruction total, and records
    /// in program order. The column buffer grows by exactly 18 bytes a
    /// record, filled in one walk over the records.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptCorpus`] when `name` exceeds the
    /// index's u16 length field.
    pub fn push_trace(
        &mut self,
        name: &str,
        instructions: u64,
        records: &[BranchRecord],
    ) -> Result<(), TraceError> {
        if u16::try_from(name.len()).is_err() {
            return Err(TraceError::CorruptCorpus(format!(
                "trace name too long for the index ({} bytes)",
                name.len()
            )));
        }
        let n = records.len();
        let start = self.columns.len();
        self.columns.reserve_exact(n * 18);
        self.columns.resize(start + n * 18, 0);
        let (pc, rest) = self.columns[start..].split_at_mut(n * 8);
        let (target, rest) = rest.split_at_mut(n * 8);
        let (kind, taken) = rest.split_at_mut(n);
        for ((((r, pc), target), kind), taken) in records
            .iter()
            .zip(pc.chunks_exact_mut(8))
            .zip(target.chunks_exact_mut(8))
            .zip(kind)
            .zip(taken)
        {
            pc.copy_from_slice(&r.pc.to_le_bytes());
            target.copy_from_slice(&r.target.to_le_bytes());
            *kind = r.kind as u8;
            *taken = u8::from(r.taken);
        }
        let sig = compute_signatures(
            records.iter().copied(),
            BASE_WINDOW_INSTRUCTIONS,
            SIGNATURE_DIM,
        )
        .to_bytes();
        self.traces.push(TraceMeta {
            name: name.into(),
            instructions,
            n,
            offsets: [start, start + n * 8, start + n * 16, start + n * 17],
            sums: [0; 4],
            sig_off: self.sidecars.len(),
            sig_len: sig.len(),
            sig_sum: 0,
        });
        self.sidecars.extend_from_slice(&sig);
        Ok(())
    }

    /// Append a materialized synthetic trace under its workload name.
    ///
    /// # Errors
    ///
    /// Propagates [`CorpusBuilder::push_trace`] errors.
    pub fn push_synthetic(&mut self, trace: &SyntheticTrace) -> Result<(), TraceError> {
        self.push_trace(trace.name(), trace.instructions, &trace.records)
    }

    /// Assemble the on-disk byte layout (header, index, columns,
    /// signature sidecars).
    ///
    /// The column buffer becomes the output: its bytes shift up once to
    /// make room for the header and index, the sidecars follow, and
    /// every region is hashed where it lies in one lockstep kernel
    /// pass. No second corpus-sized buffer ever exists; freeing
    /// per-trace buffers as they are copied is not enough, since glibc
    /// raises its mmap threshold after its first large free and freed
    /// heap blocks stay resident.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let CorpusBuilder {
            mut traces,
            columns: mut out,
            sidecars,
        } = self;
        let index_bytes: usize = traces
            .iter()
            .map(|t| 2 + t.name.len() + ENTRY_FIXED_BYTES)
            .sum();
        let head = HEADER_BYTES + index_bytes;
        let data_bytes = out.len();
        out.reserve_exact(head + sidecars.len());
        out.resize(head + data_bytes, 0);
        out.copy_within(..data_bytes, head);
        out.extend_from_slice(&sidecars);
        for t in &mut traces {
            t.offsets = t.offsets.map(|o| o + head);
            t.sig_off += head + data_bytes;
        }
        let regions: Vec<&[u8]> = traces.iter().flat_map(|t| t.checksummed(&out)).collect();
        let sums = fnv1a64_each(&regions);

        let mut index = Vec::with_capacity(head);
        index.extend_from_slice(&MAGIC);
        index.extend_from_slice(&VERSION.to_le_bytes());
        index.extend_from_slice(&(traces.len() as u64).to_le_bytes());
        index.extend_from_slice(&(index_bytes as u64).to_le_bytes());
        for (t, sums) in traces.iter().zip(sums.chunks_exact(CHECKSUMMED)) {
            // The low two bytes: the length fits a u16 (checked at push).
            index.extend_from_slice(&t.name.len().to_le_bytes()[..2]);
            index.extend_from_slice(t.name.as_bytes());
            index.extend_from_slice(&t.instructions.to_le_bytes());
            index.extend_from_slice(&(t.n as u64).to_le_bytes());
            for off in t.offsets {
                index.extend_from_slice(&(off as u64).to_le_bytes());
            }
            for sum in &sums[..4] {
                index.extend_from_slice(&sum.to_le_bytes());
            }
            index.extend_from_slice(&(t.sig_off as u64).to_le_bytes());
            index.extend_from_slice(&(t.sig_len as u64).to_le_bytes());
            index.extend_from_slice(&sums[4].to_le_bytes());
        }
        out[..head].copy_from_slice(&index);
        out
    }
}

/// A loaded corpus: the shared file buffer plus its parsed index.
///
/// Cloning a `Corpus` (or taking traces from it) never copies column
/// data — every handle shares one immutable buffer.
#[derive(Debug, Clone)]
pub struct Corpus {
    data: SharedBuf,
    metas: Vec<TraceMeta>,
}

impl Corpus {
    /// Parse a corpus from bytes and verify every column checksum and
    /// record domain (the normal constructor — cursors rely on it).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on a malformed header or index, a
    /// checksum mismatch, or an out-of-domain `kind`/`taken` byte.
    pub fn from_bytes(data: impl Into<Vec<u8>>) -> Result<Corpus, TraceError> {
        let c = Corpus::open_bytes(data)?;
        c.verify()?;
        Ok(c)
    }

    /// Parse a corpus from bytes **without** verifying checksums or
    /// record domains. Structurally validated only; see
    /// [`Corpus::verify`]. Decoding an unverified corpus is memory-safe
    /// but may yield garbage records (invalid kinds decode as
    /// conditional branches).
    ///
    /// The corpus takes ownership of the buffer: a `Vec<u8>` is shared
    /// as is, never copied.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on a malformed header or index.
    pub fn open_bytes(data: impl Into<Vec<u8>>) -> Result<Corpus, TraceError> {
        let data: Vec<u8> = data.into();
        let metas = parse_index(&data)?;
        Ok(Corpus {
            data: SharedBuf::Owned(Arc::new(data)),
            metas,
        })
    }

    /// Load a corpus file with **one** read into a shared buffer, then
    /// verify it (checksums + record domains).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on I/O failure or any corruption.
    pub fn load(path: &Path) -> Result<Corpus, TraceError> {
        let bytes = std::fs::read(path)?;
        Corpus::from_bytes(bytes)
    }

    /// Load a corpus file without verifying data integrity (structural
    /// parse only) — `report corpus info` uses this to report checksum
    /// status per trace instead of failing on the first bad column.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on I/O failure or a malformed header
    /// or index.
    pub fn open(path: &Path) -> Result<Corpus, TraceError> {
        let bytes = std::fs::read(path)?;
        Corpus::open_bytes(bytes)
    }

    /// Memory-map a corpus file instead of reading it (requires the
    /// `mmap` feature), then verify it. The mapping is shared by every
    /// trace handle, so page cache is the only copy of the column data.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on I/O failure or any corruption.
    #[cfg(feature = "mmap")]
    pub fn load_mmap(path: &Path) -> Result<Corpus, TraceError> {
        let file = std::fs::File::open(path)?;
        let map = memmap2::Mmap::map(&file)?;
        let metas = parse_index(&map)?;
        let c = Corpus {
            data: SharedBuf::Mapped(Arc::new(map)),
            metas,
        };
        c.verify()?;
        Ok(c)
    }

    /// Number of traces in the corpus.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the corpus holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total size of the underlying buffer in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> usize {
        self.data.bytes().len()
    }

    /// The `i`-th trace as a shared-buffer handle, or `None` past the
    /// end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<CorpusTrace> {
        self.metas.get(i).map(|meta| CorpusTrace {
            data: self.data.clone(),
            meta: meta.clone(),
        })
    }

    /// All traces as shared-buffer handles, in index order.
    #[must_use]
    pub fn traces(&self) -> Vec<CorpusTrace> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }

    /// Re-verify every column checksum and every record's `kind`/
    /// `taken` domain.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ChecksumMismatch`] for the first bad
    /// column, or [`TraceError::CorruptRecord`] for the first
    /// out-of-domain byte.
    pub fn verify(&self) -> Result<(), TraceError> {
        self.verify_each().into_iter().collect()
    }

    /// Per-trace verification outcomes, one per trace, without stopping
    /// at the first failure (for `report corpus info`).
    ///
    /// Every trace's columns and sidecar are hashed in one lockstep
    /// kernel pass; the recorded sums are then checked trace by trace
    /// in file order.
    #[must_use]
    pub fn verify_each(&self) -> Vec<Result<(), TraceError>> {
        let data = self.data.bytes();
        let regions: Vec<&[u8]> = self
            .metas
            .iter()
            .flat_map(|m| m.checksummed(data))
            .collect();
        let sums = fnv1a64_each(&regions);
        self.metas
            .iter()
            .zip(sums.chunks_exact(CHECKSUMMED))
            .map(|(m, sums)| verify_trace(data, m, sums))
            .collect()
    }
}

/// Checksum + domain validation for one trace's columns and sidecar,
/// given the hashes of its [`TraceMeta::checksummed`] regions.
fn verify_trace(data: &[u8], meta: &TraceMeta, sums: &[u64]) -> Result<(), TraceError> {
    for ((got, want), column) in sums.iter().zip(meta.sums).zip(COLUMNS) {
        if *got != want {
            return Err(TraceError::ChecksumMismatch {
                trace: meta.name.clone(),
                column,
            });
        }
    }
    if meta.sig_len > 0 && sums[4] != meta.sig_sum {
        return Err(TraceError::ChecksumMismatch {
            trace: meta.name.clone(),
            column: "signature",
        });
    }
    let kind = meta.column(data, 2);
    if let Some(i) = kind.iter().position(|&k| BranchKind::from_u8(k).is_none()) {
        return Err(TraceError::CorruptRecord {
            index: i as u64,
            reason: format!("invalid branch kind {} in trace `{}`", kind[i], meta.name),
        });
    }
    let taken = meta.column(data, 3);
    if let Some(i) = taken.iter().position(|&t| t > 1) {
        return Err(TraceError::CorruptRecord {
            index: i as u64,
            reason: format!("invalid taken flag {} in trace `{}`", taken[i], meta.name),
        });
    }
    Ok(())
}

/// Structural parse of the header and index: magic, version, entry
/// geometry, and the canonical layout of the regions behind the index.
fn parse_index(data: &[u8]) -> Result<Vec<TraceMeta>, TraceError> {
    if data.len() < HEADER_BYTES {
        return Err(TraceError::CorruptCorpus(format!(
            "file too short for a corpus header ({} bytes)",
            data.len()
        )));
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&data[0..4]);
    if magic != MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let n_traces = usize::try_from(read_u64(&data[8..16]))
        .map_err(|_| TraceError::CorruptCorpus("trace count overflows usize".into()))?;
    let index_bytes = usize::try_from(read_u64(&data[16..24]))
        .map_err(|_| TraceError::CorruptCorpus("index length overflows usize".into()))?;
    let index_end = HEADER_BYTES
        .checked_add(index_bytes)
        .filter(|&e| e <= data.len())
        .ok_or_else(|| TraceError::CorruptCorpus("index extends past end of file".into()))?;

    // Each entry needs at least its fixed payload; cap the preallocation
    // by what the index region could physically hold.
    let mut metas = Vec::with_capacity(n_traces.min(index_bytes / (2 + ENTRY_FIXED_BYTES) + 1));
    let mut at = HEADER_BYTES;
    while metas.len() < n_traces {
        let meta = parse_entry(data, &mut at, index_end)?;
        metas.push(meta);
    }
    if at != index_end {
        return Err(TraceError::CorruptCorpus(format!(
            "index has {} trailing bytes",
            index_end - at
        )));
    }
    check_layout(&metas, index_end, data.len())?;
    Ok(metas)
}

/// Check the one layout the builder writes: from the end of the index,
/// every trace's four columns back to back in trace order, then every
/// sidecar, then the end of the file — so regions never overlap and
/// every byte after the index is in exactly one checksummed region.
fn check_layout(metas: &[TraceMeta], index_end: usize, file_len: usize) -> Result<(), TraceError> {
    let columns = metas
        .iter()
        .flat_map(|m| (0..4).map(move |c| (m.offsets[c], m.col_len(c))));
    let sidecars = metas.iter().map(|m| (m.sig_off, m.sig_len));
    let end = columns
        .chain(sidecars)
        .try_fold(index_end, |at, (off, len)| {
            (off == at).then(|| at.checked_add(len)).flatten()
        });
    if end != Some(file_len) {
        return Err(TraceError::CorruptCorpus(
            "index regions do not tile the data after the index".into(),
        ));
    }
    Ok(())
}

/// Parse one index entry at `*at`, bounds-checked against `index_end`
/// (its regions are placed by [`check_layout`]).
fn parse_entry(data: &[u8], at: &mut usize, index_end: usize) -> Result<TraceMeta, TraceError> {
    let err = |what: &str| TraceError::CorruptCorpus(format!("index entry: {what}"));
    let mut pos = *at;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], TraceError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= index_end)
            .ok_or_else(|| err("truncated index entry"))?;
        let s = &data[*pos..end];
        *pos = end;
        Ok(s)
    };
    let name_len = {
        let b = take(&mut pos, 2)?;
        usize::from(u16::from_le_bytes([b[0], b[1]]))
    };
    let name = String::from_utf8_lossy(take(&mut pos, name_len)?).into_owned();
    let instructions = read_u64(take(&mut pos, 8)?);
    let records = read_u64(take(&mut pos, 8)?);
    // `TraceMeta::col_len` multiplies by 8 unchecked.
    let n = usize::try_from(records)
        .ok()
        .filter(|n| n.checked_mul(8).is_some())
        .ok_or_else(|| err("record count overflows usize"))?;
    let mut offsets = [0usize; 4];
    for slot in &mut offsets {
        *slot = usize::try_from(read_u64(take(&mut pos, 8)?))
            .map_err(|_| err("column offset overflows usize"))?;
    }
    let mut sums = [0u64; 4];
    for slot in &mut sums {
        *slot = read_u64(take(&mut pos, 8)?);
    }
    let sig_off = usize::try_from(read_u64(take(&mut pos, 8)?))
        .map_err(|_| err("sidecar offset overflows usize"))?;
    let sig_len = usize::try_from(read_u64(take(&mut pos, 8)?))
        .map_err(|_| err("sidecar length overflows usize"))?;
    let sig_sum = read_u64(take(&mut pos, 8)?);
    *at = pos;
    Ok(TraceMeta {
        name,
        instructions,
        n,
        offsets,
        sums,
        sig_off,
        sig_len,
        sig_sum,
    })
}

/// One trace of a corpus: a cheap handle sharing the corpus buffer.
///
/// Cloning copies the `Arc` and the index entry, never the columns.
#[derive(Debug, Clone)]
pub struct CorpusTrace {
    data: SharedBuf,
    meta: TraceMeta,
}

impl CorpusTrace {
    /// Workload name recorded in the index.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Number of branch records.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.meta.n as u64
    }

    /// Exact instruction total recorded in the index.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.meta.instructions
    }

    /// Column footprint of this trace in bytes (18 per record).
    #[must_use]
    pub fn column_bytes(&self) -> usize {
        self.meta.n * 18
    }

    /// Size of the signature sidecar in bytes (0 when absent).
    #[must_use]
    pub fn sidecar_bytes(&self) -> usize {
        self.meta.sig_len
    }

    /// Parse this trace's windowed signatures from the sidecar.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptCorpus`] when the sidecar is absent
    /// or malformed (its checksum is covered by [`Corpus::verify`]).
    pub fn signatures(&self) -> Result<TraceSignatures, TraceError> {
        if self.meta.sig_len == 0 {
            return Err(TraceError::CorruptCorpus(format!(
                "trace `{}` has no signature sidecar",
                self.meta.name
            )));
        }
        TraceSignatures::from_bytes(self.meta.sidecar(self.data.bytes()))
    }

    /// Start a zero-allocation chunked decode pass over the records.
    #[must_use]
    pub fn cursor(&self) -> CorpusCursor<'_> {
        self.cursor_range(0, self.meta.n as u64)
    }

    /// A cursor over the record range `[lo, hi)` (clamped to the trace),
    /// for replaying one sampled segment without decoding its prefix.
    #[must_use]
    pub fn cursor_range(&self, lo: u64, hi: u64) -> CorpusCursor<'_> {
        let n = self.meta.n;
        let lo = usize::try_from(lo).unwrap_or(n).min(n);
        let hi = usize::try_from(hi).unwrap_or(n).clamp(lo, n);
        let len = hi - lo;
        let data = self.data.bytes();
        let m = &self.meta;
        CorpusCursor {
            pc: &data[m.offsets[0] + lo * 8..m.offsets[0] + hi * 8],
            target: &data[m.offsets[1] + lo * 8..m.offsets[1] + hi * 8],
            kind: &data[m.offsets[2] + lo..m.offsets[2] + hi],
            taken: &data[m.offsets[3] + lo..m.offsets[3] + hi],
            remaining: len,
            buf: [EMPTY_RECORD; CHUNK],
            filled: 0,
            pos: 0,
        }
    }
}

const EMPTY_RECORD: BranchRecord = BranchRecord {
    pc: 0,
    kind: BranchKind::CondDirect,
    taken: false,
    target: 0,
};

/// Chunked column-slice decoder over one corpus trace.
///
/// Each refill decodes [`CHUNK`] records from the four column slices
/// into an inline buffer — the columns stream linearly through cache,
/// and `next()` is a bounds check plus a copy for 255 of every 256
/// calls. The cursor allocates nothing; the corpus is validated at
/// load, so decode needs no per-record checks (an out-of-domain kind
/// byte in an unverified corpus falls back to a conditional branch).
#[derive(Debug)]
pub struct CorpusCursor<'a> {
    pc: &'a [u8],
    target: &'a [u8],
    kind: &'a [u8],
    taken: &'a [u8],
    remaining: usize,
    buf: [BranchRecord; CHUNK],
    filled: usize,
    pos: usize,
}

impl CorpusCursor<'_> {
    /// Decode the next chunk of records into the inline buffer.
    fn refill(&mut self) {
        let n = self.remaining.min(CHUNK);
        self.pos = 0;
        self.filled = n;
        if n == 0 {
            return;
        }
        let (pc_bytes, pc_rest) = self.pc.split_at(n * 8);
        let (tg_bytes, tg_rest) = self.target.split_at(n * 8);
        let (kind_bytes, kind_rest) = self.kind.split_at(n);
        let (taken_bytes, taken_rest) = self.taken.split_at(n);
        let cols = pc_bytes
            .chunks_exact(8)
            .zip(tg_bytes.chunks_exact(8))
            .zip(kind_bytes.iter())
            .zip(taken_bytes.iter());
        for (slot, (((pcb, tgb), &kb), &tkb)) in self.buf.iter_mut().zip(cols) {
            *slot = BranchRecord {
                pc: read_u64(pcb),
                kind: BranchKind::from_u8(kb).unwrap_or(BranchKind::CondDirect),
                taken: tkb != 0,
                target: read_u64(tgb),
            };
        }
        self.pc = pc_rest;
        self.target = tg_rest;
        self.kind = kind_rest;
        self.taken = taken_rest;
        self.remaining -= n;
    }
}

impl Iterator for CorpusCursor<'_> {
    type Item = BranchRecord;

    #[inline]
    fn next(&mut self) -> Option<BranchRecord> {
        if self.pos == self.filled {
            self.refill();
            if self.filled == 0 {
                return None;
            }
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining + (self.filled - self.pos);
        (left, Some(left))
    }

    /// Chunk-free internal iteration: `fold` (and everything built on
    /// it — `for_each`, `count`, `sum`) drains any records already in
    /// the inline buffer, then decodes straight off the column slices,
    /// skipping the buffer and its per-record position check entirely.
    #[inline]
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, BranchRecord) -> B,
    {
        let mut acc = init;
        while self.pos < self.filled {
            let r = self.buf[self.pos];
            self.pos += 1;
            acc = f(acc, r);
        }
        let cols = self
            .pc
            .chunks_exact(8)
            .zip(self.target.chunks_exact(8))
            .zip(self.kind.iter())
            .zip(self.taken.iter());
        for (((pcb, tgb), &kb), &tkb) in cols {
            acc = f(
                acc,
                BranchRecord {
                    pc: read_u64(pcb),
                    kind: BranchKind::from_u8(kb).unwrap_or(BranchKind::CondDirect),
                    taken: tkb != 0,
                    target: read_u64(tgb),
                },
            );
        }
        acc
    }
}

impl ExactSizeIterator for CorpusCursor<'_> {}

/// A suite's worth of corpus traces, in workload order — possibly drawn
/// from several cache files, all sharing their underlying buffers.
///
/// This is the handle every scheduler worker shares during a suite or
/// sweep run: workers index into it by workload and open cursors on the
/// shared buffers, with zero per-worker parsing or cloning.
#[derive(Debug, Clone, Default)]
pub struct SuiteCorpus {
    traces: Vec<CorpusTrace>,
}

impl SuiteCorpus {
    /// A suite view over every trace of one corpus file, in index order.
    #[must_use]
    pub fn from_corpus(corpus: &Corpus) -> SuiteCorpus {
        SuiteCorpus {
            traces: corpus.traces(),
        }
    }

    /// Append one trace (cache assembly).
    pub fn push(&mut self, trace: CorpusTrace) {
        self.traces.push(trace);
    }

    /// Number of traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the suite view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The trace for workload `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (suite/corpus length mismatches
    /// are rejected up front by the replay entry points).
    #[must_use]
    pub fn trace(&self, i: usize) -> &CorpusTrace {
        &self.traces[i]
    }

    /// All traces, in workload order.
    pub fn iter(&self) -> std::slice::Iter<'_, CorpusTrace> {
        self.traces.iter()
    }

    /// Total records across all traces.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.traces.iter().map(CorpusTrace::records).sum()
    }

    /// Total column bytes across all traces.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.traces.iter().map(CorpusTrace::column_bytes).sum()
    }
}

impl<'a> IntoIterator for &'a SuiteCorpus {
    type Item = &'a CorpusTrace;
    type IntoIter = std::slice::Iter<'a, CorpusTrace>;
    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnsureStats {
    /// Workloads generated, encoded and written this call.
    pub generated: usize,
    /// Workloads served from existing cache files.
    pub reused: usize,
}

impl EnsureStats {
    /// Merge another call's counters into this one.
    pub fn absorb(&mut self, other: EnsureStats) {
        self.generated += other.generated;
        self.reused += other.reused;
    }
}

/// On-disk materialize-to-corpus cache for synthetic workloads.
///
/// One single-trace corpus file per (category, seed, instructions) key
/// — exactly the inputs [`WorkloadSpec::generate`] is deterministic in
/// — so a workload shared by many experiments (or many suite sizes with
/// a common prefix) is generated and encoded once per cache directory.
/// Files are written via a temp file + rename, and a file that fails to
/// load (torn write, stale version) is regenerated in place.
#[derive(Debug, Clone)]
pub struct CorpusCache {
    dir: PathBuf,
}

impl CorpusCache {
    /// A cache rooted at `dir` (created lazily on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> CorpusCache {
        CorpusCache { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache file name for a workload key.
    #[must_use]
    pub fn file_name(spec: &WorkloadSpec) -> String {
        format!("{}-{}-i{}.soa", spec.category, spec.seed, spec.instructions)
    }

    /// Cache file path for a workload key.
    #[must_use]
    pub fn path_for(&self, spec: &WorkloadSpec) -> PathBuf {
        self.dir.join(CorpusCache::file_name(spec))
    }

    /// The cached trace for `spec`, generating, encoding and writing it
    /// on a miss. Returns the shared-buffer handle and whether this
    /// call generated it.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on I/O failure while writing a fresh
    /// cache file (a corrupt *existing* file is regenerated, not an
    /// error).
    pub fn ensure_trace(&self, spec: &WorkloadSpec) -> Result<(CorpusTrace, bool), TraceError> {
        let path = self.path_for(spec);
        if let Ok(corpus) = Corpus::load(&path) {
            if let Some(trace) = corpus.get(0) {
                if corpus.len() == 1
                    && trace.name() == spec.name
                    && trace.instructions() >= spec.instructions
                {
                    return Ok((trace, false));
                }
            }
        }
        let trace = spec.generate();
        let mut builder = CorpusBuilder::new();
        builder.push_synthetic(&trace)?;
        let bytes = builder.finish();
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            "{}.tmp.{}",
            CorpusCache::file_name(spec),
            std::process::id()
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        // The bytes were just encoded; structural parse only (checksums
        // are definitionally fresh).
        let corpus = Corpus::open_bytes(bytes)?;
        corpus
            .get(0)
            .map(|t| (t, true))
            .ok_or_else(|| TraceError::CorruptCorpus("freshly built corpus is empty".into()))
    }

    /// Materialize a whole suite: one cached trace per spec, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CorpusCache::ensure_trace`] failure.
    pub fn ensure_suite(
        &self,
        specs: &[WorkloadSpec],
    ) -> Result<(SuiteCorpus, EnsureStats), TraceError> {
        let mut suite = SuiteCorpus::default();
        let mut stats = EnsureStats::default();
        for spec in specs {
            let (trace, generated) = self.ensure_trace(spec)?;
            if generated {
                stats.generated += 1;
            } else {
                stats.reused += 1;
            }
            suite.push(trace);
        }
        Ok((suite, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::WorkloadCategory;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    0x1000 + (i as u64) * 4,
                    BranchKind::ALL[i % 6],
                    i % 3 != 0,
                    0x8000 + (i as u64) * 8,
                )
            })
            .collect()
    }

    fn build(traces: &[(&str, u64, Vec<BranchRecord>)]) -> Vec<u8> {
        let mut b = CorpusBuilder::new();
        for (name, instr, records) in traces {
            b.push_trace(name, *instr, records).unwrap();
        }
        b.finish()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "fe-corpus-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn fold_fast_path_matches_external_iteration() {
        // `fold`/`for_each` bypass the inline chunk buffer; they must
        // yield the same records as `next()`, including when iteration
        // starts mid-buffer after a few external `next()` calls.
        let records = sample(CHUNK * 2 + 19);
        let bytes = build(&[("t0", 7, records.clone())]);
        let corpus = Corpus::from_bytes(bytes).unwrap();
        let t = corpus.get(0).unwrap();

        let mut folded = Vec::new();
        t.cursor().for_each(|r| folded.push(r));
        assert_eq!(folded, records);
        assert_eq!(t.cursor().count(), records.len());

        let mut mixed = t.cursor();
        let mut head = Vec::new();
        for _ in 0..3 {
            head.push(mixed.next().unwrap());
        }
        let tail = mixed.fold(Vec::new(), |mut acc, r| {
            acc.push(r);
            acc
        });
        assert_eq!(head, records[..3]);
        assert_eq!(tail, records[3..]);
    }

    #[test]
    fn roundtrip_single_trace() {
        let records = sample(1000);
        let bytes = build(&[("t0", 12345, records.clone())]);
        let corpus = Corpus::from_bytes(bytes).unwrap();
        assert_eq!(corpus.len(), 1);
        let t = corpus.get(0).unwrap();
        assert_eq!(t.name(), "t0");
        assert_eq!(t.instructions(), 12345);
        assert_eq!(t.records(), 1000);
        assert_eq!(t.cursor().collect::<Vec<_>>(), records);
    }

    #[test]
    fn roundtrip_multi_trace_index() {
        let a = sample(10);
        let b = sample(CHUNK * 3 + 17); // spans several decode chunks
        let c: Vec<BranchRecord> = Vec::new();
        let bytes = build(&[
            ("alpha", 1, a.clone()),
            ("beta", 2, b.clone()),
            ("gamma", 3, c.clone()),
        ]);
        let corpus = Corpus::from_bytes(bytes).unwrap();
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.get(0).unwrap().cursor().collect::<Vec<_>>(), a);
        assert_eq!(corpus.get(1).unwrap().cursor().collect::<Vec<_>>(), b);
        assert_eq!(corpus.get(2).unwrap().cursor().collect::<Vec<_>>(), c);
        assert!(corpus.get(3).is_none());
    }

    #[test]
    fn cursor_is_exact_size_and_restartable() {
        let records = sample(CHUNK + 5);
        let corpus = Corpus::from_bytes(build(&[("t", 0, records.clone())])).unwrap();
        let t = corpus.get(0).unwrap();
        let cur = t.cursor();
        assert_eq!(cur.len(), records.len());
        assert_eq!(cur.collect::<Vec<_>>(), records);
        // A second cursor replays from the start, bit-identically.
        assert_eq!(t.cursor().collect::<Vec<_>>(), records);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = build(&[("t", 0, sample(4))]);
        bytes[0] = b'X';
        match Corpus::from_bytes(bytes) {
            Err(TraceError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = build(&[("t", 0, sample(4))]);
        bytes[4] = 9;
        match Corpus::from_bytes(bytes) {
            Err(TraceError::UnsupportedVersion(9)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = build(&[("t", 0, sample(100))]);
        for cut in [3, HEADER_BYTES - 1, HEADER_BYTES + 10, bytes.len() - 1] {
            let short = bytes[..cut].to_vec();
            assert!(
                Corpus::from_bytes(short).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn flipped_column_byte_fails_checksum() {
        let bytes = build(&[("t", 0, sample(100))]);
        let last = bytes.len() - 1; // inside the taken column
        let mut bad = bytes.clone();
        bad[last] ^= 0x40;
        match Corpus::from_bytes(bad) {
            Err(TraceError::ChecksumMismatch { .. } | TraceError::CorruptRecord { .. }) => {}
            other => panic!("expected checksum/record error, got {other:?}"),
        }
        // The pc column too.
        let mut bad = bytes;
        let pc_byte = HEADER_BYTES + 2 + 1 + ENTRY_FIXED_BYTES; // first data byte
        bad[pc_byte] ^= 0x01;
        match Corpus::from_bytes(bad) {
            Err(TraceError::ChecksumMismatch { trace, column }) => {
                assert_eq!(trace, "t");
                assert_eq!(column, "pc");
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_each_reports_per_trace_status() {
        let bytes = build(&[("good", 0, sample(8)), ("bad", 0, sample(8))]);
        let mut bad = bytes;
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let corpus = Corpus::open_bytes(bad).unwrap();
        let statuses = corpus.verify_each();
        assert!(statuses[0].is_ok());
        assert!(statuses[1].is_err());
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let corpus = Corpus::from_bytes(CorpusBuilder::new().finish()).unwrap();
        assert!(corpus.is_empty());
        assert!(corpus.verify().is_ok());
    }

    #[test]
    fn synthetic_trace_roundtrips_bit_identically() {
        let spec = WorkloadSpec::new(WorkloadCategory::ShortServer, 7).instructions(30_000);
        let trace = spec.generate();
        let mut b = CorpusBuilder::new();
        b.push_synthetic(&trace).unwrap();
        let corpus = Corpus::from_bytes(b.finish()).unwrap();
        let t = corpus.get(0).unwrap();
        assert_eq!(t.name(), spec.name);
        assert_eq!(t.instructions(), trace.instructions);
        assert_eq!(t.cursor().collect::<Vec<_>>(), trace.records);
    }

    #[test]
    fn cache_generates_once_then_reuses() {
        let dir = temp_dir("cache");
        let cache = CorpusCache::new(&dir);
        let specs: Vec<WorkloadSpec> = crate::synth::suite(3, 42)
            .into_iter()
            .map(|s| s.instructions(5_000))
            .collect();
        let (suite, stats) = cache.ensure_suite(&specs).unwrap();
        assert_eq!(
            stats,
            EnsureStats {
                generated: 3,
                reused: 0
            }
        );
        assert_eq!(suite.len(), 3);
        for (t, s) in suite.iter().zip(&specs) {
            assert_eq!(t.name(), s.name);
            assert_eq!(t.cursor().collect::<Vec<_>>(), s.generate().records);
        }
        let (again, stats) = cache.ensure_suite(&specs).unwrap();
        assert_eq!(
            stats,
            EnsureStats {
                generated: 0,
                reused: 3
            }
        );
        assert_eq!(
            again.trace(0).cursor().collect::<Vec<_>>(),
            suite.trace(0).cursor().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_heals_a_corrupt_file() {
        let dir = temp_dir("heal");
        let cache = CorpusCache::new(&dir);
        let spec = WorkloadSpec::new(WorkloadCategory::ShortMobile, 9).instructions(4_000);
        let (_, generated) = cache.ensure_trace(&spec).unwrap();
        assert!(generated);
        // Corrupt the cached file in place.
        let path = cache.path_for(&spec);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (trace, regenerated) = cache.ensure_trace(&spec).unwrap();
        assert!(regenerated, "corrupt cache file must be regenerated");
        assert_eq!(trace.cursor().collect::<Vec<_>>(), spec.generate().records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_key_distinguishes_instructions() {
        let dir = temp_dir("key");
        let cache = CorpusCache::new(&dir);
        let a = WorkloadSpec::new(WorkloadCategory::ShortMobile, 1).instructions(4_000);
        let b = WorkloadSpec::new(WorkloadCategory::ShortMobile, 1).instructions(8_000);
        assert_ne!(cache.path_for(&a), cache.path_for(&b));
        cache.ensure_trace(&a).unwrap();
        let (_, generated) = cache.ensure_trace(&b).unwrap();
        assert!(generated, "different budget is a different cache key");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_roundtrips_and_matches_recompute() {
        let spec = WorkloadSpec::new(WorkloadCategory::LongServer, 3).instructions(40_000);
        let trace = spec.generate();
        let mut b = CorpusBuilder::new();
        b.push_synthetic(&trace).unwrap();
        let corpus = Corpus::from_bytes(b.finish()).unwrap();
        let t = corpus.get(0).unwrap();
        assert!(t.sidecar_bytes() > 0);
        let sigs = t.signatures().unwrap();
        let expect = compute_signatures(
            trace.records.iter().copied(),
            BASE_WINDOW_INSTRUCTIONS,
            SIGNATURE_DIM,
        );
        assert_eq!(sigs, expect);
        assert_eq!(sigs.total_records(), t.records());
    }

    #[test]
    fn corrupt_sidecar_fails_verification_with_signature_column() {
        let bytes = build(&[("t", 0, sample(64))]);
        let mut bad = bytes;
        // The sidecar is the last region of the file.
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        match Corpus::from_bytes(bad) {
            Err(TraceError::ChecksumMismatch { trace, column }) => {
                assert_eq!(trace, "t");
                assert_eq!(column, "signature");
            }
            other => panic!("expected signature ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn cursor_range_slices_and_clamps() {
        let records = sample(CHUNK + 50);
        let corpus = Corpus::from_bytes(build(&[("t", 0, records.clone())])).unwrap();
        let t = corpus.get(0).unwrap();
        let n = records.len() as u64;
        assert_eq!(
            t.cursor_range(10, 20).collect::<Vec<_>>(),
            records[10..20].to_vec()
        );
        assert_eq!(t.cursor_range(0, n).collect::<Vec<_>>(), records);
        // Clamped: hi past the end, lo past the end, inverted range.
        assert_eq!(
            t.cursor_range(n - 5, n + 100).collect::<Vec<_>>(),
            records[records.len() - 5..].to_vec()
        );
        assert_eq!(t.cursor_range(n + 10, n + 20).count(), 0);
        assert_eq!(t.cursor_range(20, 10).count(), 0);
        // ExactSizeIterator holds on ranges too.
        assert_eq!(t.cursor_range(3, 103).len(), 100);
    }

    #[test]
    fn overlong_name_is_rejected() {
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        let mut b = CorpusBuilder::new();
        assert!(b.push_trace(&long, 0, &[]).is_err());
    }

    proptest::proptest! {
        /// The lockstep kernel equals `fnv1a64` slice by slice: any
        /// number of slices (fewer or more than the lanes), empty ones,
        /// unequal lengths and lengths that are not multiples of 8.
        #[test]
        fn lockstep_kernel_matches_fnv1a64_per_slice(
            cols in proptest::collection::vec(
                proptest::collection::vec(proptest::any::<u8>(), 0..300),
                0..12,
            ),
        ) {
            let slices: Vec<&[u8]> = cols.iter().map(Vec::as_slice).collect();
            let want: Vec<u64> = slices.iter().map(|c| fnv1a64(c)).collect();
            proptest::prop_assert_eq!(fnv1a64_each(&slices), want);
        }
    }

    #[test]
    fn lockstep_kernel_matches_fnv1a64_on_column_shapes() {
        // One trace's regions (8n, 8n, n, n, sidecar) and two traces'
        // worth, so lanes finish at different steps and pick up the
        // next slice mid-pass.
        let bytes: Vec<u8> = (0..4000u32).map(|i| (i * 131).to_le_bytes()[0]).collect();
        for shape in [
            vec![800, 800, 100, 100, 37],
            vec![8, 8, 1, 1, 0, 0, 0, 0, 0, 0, 1608, 1608, 201, 201, 44],
            vec![0, 0, 0],
            vec![3],
        ] {
            let slices: Vec<&[u8]> = shape.iter().map(|&n| &bytes[..n]).collect();
            let want: Vec<u64> = slices.iter().map(|c| fnv1a64(c)).collect();
            assert_eq!(fnv1a64_each(&slices), want, "shape {shape:?}");
        }
    }

    #[test]
    fn verify_reports_the_first_bad_region_in_file_order() {
        let bytes = build(&[("a", 0, sample(40)), ("b", 0, sample(40))]);
        let corpus = Corpus::open_bytes(bytes.clone()).unwrap();
        let region = |t: usize, c: usize| {
            let m = &corpus.metas[t];
            if c < 4 {
                m.offsets[c]
            } else {
                m.sig_off
            }
        };
        // (flips as (trace, region), expected trace and column).
        let cases = [
            (vec![(0, 1), (0, 2)], "a", "target"),
            (vec![(1, 0), (0, 3)], "a", "taken"),
            (vec![(0, 4), (1, 0)], "a", "signature"),
            (vec![(1, 4), (1, 2)], "b", "kind"),
        ];
        for (flips, trace, column) in cases {
            let mut bad = bytes.clone();
            for (t, c) in flips {
                bad[region(t, c)] ^= 0x80;
            }
            match Corpus::from_bytes(bad) {
                Err(TraceError::ChecksumMismatch {
                    trace: t,
                    column: c,
                }) => {
                    assert_eq!((t.as_str(), c), (trace, column));
                }
                other => panic!("expected ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn owned_buffer_is_shared_without_a_copy() {
        let bytes = build(&[("t", 0, sample(10))]);
        let ptr = bytes.as_ptr();
        let corpus = Corpus::from_bytes(bytes).unwrap();
        assert_eq!(corpus.data.bytes().as_ptr(), ptr);
        let trace = corpus.get(0).unwrap();
        assert_eq!(trace.data.bytes().as_ptr(), ptr);
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mmap_load_matches_read_load() {
        let dir = temp_dir("mmap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.soa");
        let records = sample(500);
        std::fs::write(&path, build(&[("t", 1, records.clone())])).unwrap();
        let mapped = Corpus::load_mmap(&path).unwrap();
        assert_eq!(mapped.get(0).unwrap().cursor().collect::<Vec<_>>(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
