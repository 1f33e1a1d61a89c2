//! Property-based equivalence between the two on-disk trace formats:
//! the per-record `FETR` stream and the columnar `FESA` corpus must
//! round-trip any record sequence bit-identically — to the original
//! records and therefore to each other. The corpus encoder must also
//! write exactly the bytes of a plain one-`fnv1a64`-per-column encoder,
//! so every corpus file written before the lockstep checksum kernel
//! still loads — through `push_trace`, through `push_synthetic` on
//! realistic workloads, and in the files `CorpusCache` writes.

#![forbid(unsafe_code)]

use fe_trace::corpus::{fnv1a64, Corpus, CorpusBuilder, CorpusCache, MAGIC, VERSION};
use fe_trace::io::{read_binary, write_binary};
use fe_trace::signature::{compute_signatures, BASE_WINDOW_INSTRUCTIONS, SIGNATURE_DIM};
use fe_trace::synth::{suite, SyntheticTrace, WorkloadCategory};
use fe_trace::{BranchKind, BranchRecord};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (any::<u64>(), 0u8..6, any::<bool>(), any::<u64>()).prop_map(|(pc, k, taken, target)| {
        let kind = BranchKind::from_u8(k).expect("0..6 covers every kind");
        BranchRecord::new(pc, kind, taken, target)
    })
}

/// One trace of a suite: name, instruction total, records.
type SuiteTrace = (String, u64, Vec<BranchRecord>);

/// A trace name of 0 to 40 characters, some of them multi-byte.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..30, 0..40).prop_map(|cs| {
        cs.into_iter()
            .map(|c| match c {
                26 => 'é',
                27 => '→',
                28 => '-',
                29 => '_',
                _ => char::from(b'a' + c),
            })
            .collect()
    })
}

/// A suite of 0 to 5 traces. Each trace is empty, a single record, or
/// up to 300 records, with about equal odds.
fn arb_suite() -> impl Strategy<Value = Vec<SuiteTrace>> {
    let trace = (
        arb_name(),
        any::<u64>(),
        0u8..3,
        proptest::collection::vec(arb_record(), 1..300),
    )
        .prop_map(|(name, instructions, shape, mut records)| {
            records.truncate(match shape {
                0 => 0,
                1 => 1,
                _ => records.len(),
            });
            (name, instructions, records)
        });
    proptest::collection::vec(trace, 0..6)
}

/// The corpus encoder as it stood before the lockstep checksum kernel:
/// per-column `fnv1a64`, every region copied in file order. A test
/// oracle for the production [`CorpusBuilder::finish`].
fn reference_encode(traces: &[SuiteTrace]) -> Vec<u8> {
    let columns: Vec<[Vec<u8>; 4]> = traces
        .iter()
        .map(|(_, _, records)| {
            let mut cols: [Vec<u8>; 4] = Default::default();
            for r in records {
                cols[0].extend_from_slice(&r.pc.to_le_bytes());
                cols[1].extend_from_slice(&r.target.to_le_bytes());
                cols[2].push(r.kind as u8);
                cols[3].push(u8::from(r.taken));
            }
            cols
        })
        .collect();
    let sigs: Vec<Vec<u8>> = traces
        .iter()
        .map(|(_, _, records)| {
            compute_signatures(
                records.iter().copied(),
                BASE_WINDOW_INSTRUCTIONS,
                SIGNATURE_DIM,
            )
            .to_bytes()
        })
        .collect();
    let index_bytes: usize = traces.iter().map(|(name, _, _)| 2 + name.len() + 104).sum();
    let data_bytes: usize = columns.iter().flatten().map(Vec::len).sum();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(traces.len() as u64).to_le_bytes());
    out.extend_from_slice(&(index_bytes as u64).to_le_bytes());
    let mut off = 24 + index_bytes;
    let mut sig_off = off + data_bytes;
    for (((name, instructions, records), cols), sig) in traces.iter().zip(&columns).zip(&sigs) {
        let name_len = u16::try_from(name.len()).expect("test names are short");
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&instructions.to_le_bytes());
        out.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for col in cols {
            out.extend_from_slice(&(off as u64).to_le_bytes());
            off += col.len();
        }
        for col in cols {
            out.extend_from_slice(&fnv1a64(col).to_le_bytes());
        }
        out.extend_from_slice(&(sig_off as u64).to_le_bytes());
        out.extend_from_slice(&(sig.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(sig).to_le_bytes());
        sig_off += sig.len();
    }
    for col in columns.iter().flatten() {
        out.extend_from_slice(col);
    }
    for sig in &sigs {
        out.extend_from_slice(sig);
    }
    out
}

/// A synthetic trace as the reference encoder's input.
fn suite_trace(t: &SyntheticTrace) -> SuiteTrace {
    (t.name().to_owned(), t.instructions, t.records.clone())
}

/// One workload of each category at 30 k instructions (seeds from
/// `base_seed`).
fn four_categories(base_seed: u64) -> Vec<SyntheticTrace> {
    let traces: Vec<SyntheticTrace> = suite(4, base_seed)
        .into_iter()
        .map(|s| s.instructions(30_000).generate())
        .collect();
    let mut categories: Vec<WorkloadCategory> = traces.iter().map(|t| t.spec.category).collect();
    categories.dedup();
    assert_eq!(categories.len(), 4, "one trace per category");
    traces
}

/// `push_synthetic` on realistic workloads — every category, sidecars
/// of many windows, an empty trace and a multi-byte UTF-8 name — writes
/// exactly the reference encoder's bytes.
#[test]
fn synthetic_suite_matches_the_reference_encoder() {
    let mut traces = four_categories(11);
    let mut empty = traces[0].clone();
    empty.spec.name = "vide-é".into();
    empty.instructions = 0;
    empty.records.clear();
    traces[1].spec.name = format!("{}→λ", traces[1].spec.name);
    traces.insert(2, empty);
    let mut builder = CorpusBuilder::new();
    for t in &traces {
        builder.push_synthetic(t).expect("push");
    }
    let bytes = builder.finish();
    let reference: Vec<SuiteTrace> = traces.iter().map(suite_trace).collect();
    assert_eq!(bytes, reference_encode(&reference));
    let corpus = Corpus::from_bytes(bytes).expect("the encoded suite verifies");
    assert_eq!(corpus.len(), traces.len());
}

/// Every file `CorpusCache::ensure_trace` writes is the reference
/// encoding of its workload, as a one-trace corpus.
#[test]
fn cache_files_match_the_reference_encoder() {
    let dir = std::env::temp_dir().join(format!("fe-corpus-reference-{}", std::process::id()));
    let cache = CorpusCache::new(&dir);
    for trace in four_categories(23) {
        let (_, generated) = cache.ensure_trace(&trace.spec).expect("cache write");
        assert!(generated, "a fresh directory generates {}", trace.name());
        let file = std::fs::read(cache.path_for(&trace.spec)).expect("cache read");
        assert_eq!(
            file,
            reference_encode(&[suite_trace(&trace)]),
            "{}",
            trace.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// `CorpusBuilder::finish` writes exactly the reference encoder's
    /// bytes — same index, same checksums, same layout — for suites with
    /// empty traces, single-record traces and names of every length,
    /// and the result loads and verifies.
    #[test]
    fn builder_matches_the_per_column_reference_encoder(suite in arb_suite()) {
        let mut builder = CorpusBuilder::new();
        for (name, instructions, records) in &suite {
            builder.push_trace(name, *instructions, records).expect("push");
        }
        let bytes = builder.finish();
        prop_assert_eq!(&bytes, &reference_encode(&suite));
        let corpus = Corpus::from_bytes(bytes).expect("the encoded suite verifies");
        prop_assert_eq!(corpus.len(), suite.len());
        for (trace, (name, instructions, records)) in corpus.traces().iter().zip(&suite) {
            prop_assert_eq!(trace.name(), name.as_str());
            prop_assert_eq!(trace.instructions(), *instructions);
            prop_assert_eq!(&trace.cursor().collect::<Vec<_>>(), records);
        }
    }

    /// FETR encode→decode and SoA encode→decode both reproduce the
    /// input records exactly, across chunk boundaries (the cursor
    /// refills every 256 records; sizes up to 2000 span several).
    #[test]
    fn fetr_and_soa_roundtrip_bit_identically(
        records in proptest::collection::vec(arb_record(), 0..2000),
    ) {
        let mut fetr = Vec::new();
        write_binary(&mut fetr, &records).expect("FETR encode");
        let via_fetr = read_binary(fetr.as_slice()).expect("FETR decode");

        let mut builder = CorpusBuilder::new();
        builder.push_trace("prop", 0, &records).expect("SoA encode");
        let corpus = Corpus::from_bytes(builder.finish()).expect("SoA decode");
        let via_soa: Vec<BranchRecord> =
            corpus.get(0).expect("one trace").cursor().collect();

        prop_assert_eq!(&via_fetr, &records);
        prop_assert_eq!(&via_soa, &records);
        prop_assert_eq!(via_fetr, via_soa);
    }

    /// Multi-trace corpora keep every trace independent: concatenating
    /// two record sets into one corpus and reading them back yields the
    /// original split, and checksums hold per column per trace.
    #[test]
    fn multi_trace_corpus_keeps_traces_independent(
        a in proptest::collection::vec(arb_record(), 0..600),
        b in proptest::collection::vec(arb_record(), 0..600),
    ) {
        let mut builder = CorpusBuilder::new();
        builder.push_trace("a", 1, &a).expect("push a");
        builder.push_trace("b", 2, &b).expect("push b");
        let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
        prop_assert_eq!(corpus.len(), 2);
        let got_a: Vec<BranchRecord> = corpus.get(0).expect("trace a").cursor().collect();
        let got_b: Vec<BranchRecord> = corpus.get(1).expect("trace b").cursor().collect();
        prop_assert_eq!(got_a, a);
        prop_assert_eq!(got_b, b);
    }
}
