//! Several processes filling one `CorpusCache` entry at the same time.
//!
//! The parent test re-invokes this test binary as child processes that
//! run only the env-gated, ignored helper below. Each child blocks on
//! its standard input until the parent closes every child's pipe at
//! once (the start barrier), then ensures the same small workload in one
//! cache directory and prints a digest of the records it got back. Every
//! child must succeed with the same records, the final cache file must
//! load and verify, and no temporary file may be left behind.

#![forbid(unsafe_code)]

use fe_trace::corpus::{fnv1a64, Corpus, CorpusCache, CorpusTrace};
use fe_trace::synth::{WorkloadCategory, WorkloadSpec};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Set to the shared directory in a child process; unset, the helper
/// test does nothing.
const DIR_ENV: &str = "FE_CORPUS_RACE_DIR";
/// The helper test each child runs.
const CHILD_TEST: &str = "race_child_ensures_the_shared_spec";
/// Marker of the line a child prints its result on.
const MARK: &str = "RACE-RESULT";
/// Concurrent child processes.
const CHILDREN: usize = 3;

fn spec() -> WorkloadSpec {
    WorkloadSpec::new(WorkloadCategory::ShortServer, 11).instructions(20_000)
}

/// FNV-1a over every record's encoded fields, with the record count.
fn digest(records: impl Iterator<Item = fe_trace::BranchRecord>) -> String {
    let mut bytes = Vec::new();
    let mut n = 0u64;
    for r in records {
        bytes.extend_from_slice(&r.pc.to_le_bytes());
        bytes.extend_from_slice(&r.target.to_le_bytes());
        bytes.push(r.kind as u8);
        bytes.push(u8::from(r.taken));
        n += 1;
    }
    format!("{:016x}/{n}", fnv1a64(&bytes))
}

fn trace_digest(trace: &CorpusTrace) -> String {
    digest(trace.cursor())
}

#[test]
#[ignore = "child process of concurrent_processes_fill_one_cache_entry"]
fn race_child_ensures_the_shared_spec() {
    let Some(dir) = std::env::var_os(DIR_ENV).map(PathBuf::from) else {
        return;
    };
    // The start barrier: the parent closes this pipe once every child
    // is running.
    std::io::stdin()
        .read_to_end(&mut Vec::new())
        .expect("read the start pipe");
    let cache = CorpusCache::new(dir.join("cache"));
    let (trace, _) = cache.ensure_trace(&spec()).expect("ensure_trace");
    println!("{MARK} {}", trace_digest(&trace));
}

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("fe-corpus-race-{}", std::process::id()))
}

fn leftover_temp_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("cache directory exists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.contains(".tmp."))
        .collect()
}

#[test]
fn concurrent_processes_fill_one_cache_entry() {
    let dir = temp_dir();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the shared directory");
    let exe = std::env::current_exe().expect("the test binary's path");
    let mut children: Vec<_> = (0..CHILDREN)
        .map(|_| {
            Command::new(&exe)
                .args([CHILD_TEST, "--exact", "--ignored", "--nocapture"])
                .args(["--test-threads", "1"])
                .env(DIR_ENV, &dir)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn a child test process")
        })
        .collect();
    for child in &mut children {
        drop(child.stdin.take());
    }

    let want = digest(spec().generate().records.into_iter());
    for child in children {
        let out = child.wait_with_output().expect("child exits");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child failed: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = stdout
            .lines()
            .find_map(|l| Some(l.split_once(MARK)?.1))
            .unwrap_or_else(|| panic!("child printed no result: {stdout}"));
        assert_eq!(got.trim(), want);
    }

    let cache = CorpusCache::new(dir.join("cache"));
    let corpus = Corpus::load(&cache.path_for(&spec())).expect("the final file verifies");
    assert_eq!(corpus.len(), 1);
    assert_eq!(trace_digest(&corpus.get(0).expect("one trace")), want);
    assert_eq!(leftover_temp_files(cache.dir()), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}
