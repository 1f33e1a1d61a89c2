//! GHRP hot-path microbenchmarks: signature hashing, table lookup/vote,
//! training, and a raw cache access loop under the GHRP policy.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fe_cache::{Cache, CacheConfig};
use ghrp_core::signature::{compute_indices, signature, table_index};
use ghrp_core::{GhrpConfig, GhrpPolicy, PredictionTables, SharedGhrp};
use std::hint::black_box;

fn micro(c: &mut Criterion) {
    c.bench_function("signature", |b| {
        b.iter(|| signature(black_box(0xBEEF), black_box(0x1_0040), 16));
    });
    c.bench_function("table_index_x3", |b| {
        b.iter(|| {
            (
                table_index(black_box(0x1234), 0, 12),
                table_index(black_box(0x1234), 1, 12),
                table_index(black_box(0x1234), 2, 12),
            )
        });
    });
    c.bench_function("compute_indices", |b| {
        b.iter(|| compute_indices(black_box(0x4321), 3, 12));
    });

    let cfg = GhrpConfig::default();
    let mut tables = PredictionTables::new(&cfg);
    c.bench_function("tables_predict", |b| {
        b.iter(|| tables.predict(black_box(0x77), 1));
    });
    c.bench_function("tables_update", |b| {
        let mut s = 0u16;
        b.iter(|| {
            s = s.wrapping_add(1);
            tables.update(black_box(s), s.is_multiple_of(3));
        });
    });

    // Steady-state cache access loop (hit-dominated, like real fetch).
    let cache_cfg = CacheConfig::with_capacity(64 * 1024, 8, 64).unwrap();
    let shared = SharedGhrp::new(cfg, cache_cfg);
    let mut cache = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared));
    let blocks: Vec<u64> = (0..512u64).map(|i| 0x10000 + i * 64).collect();
    for &b in &blocks {
        cache.access(b, b);
    }
    let mut group = c.benchmark_group("ghrp_cache_access");
    group.throughput(Throughput::Elements(blocks.len() as u64));
    group.bench_function("hit_loop_512", |b| {
        b.iter(|| {
            for &blk in &blocks {
                black_box(cache.access(blk, blk));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
