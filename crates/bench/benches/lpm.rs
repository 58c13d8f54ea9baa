//! Microbenchmark: longest-prefix-match FIB lookups.
//!
//! The simulator forwards every prefix's demand through the trie every
//! epoch; routers in production do this per packet. The arena
//! [`CompressedTrie`] (path-compressed, one `Vec`) is measured for lookup
//! and insertion, plus the batched `from_sorted` build path against
//! incremental insertion.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ef_net_types::{CompressedTrie, Prefix};

fn keyset(n: u32) -> Vec<(Prefix, u32)> {
    (0..n)
        .map(|i| {
            // Spread across the v4 space; mix of /16 and /24.
            let addr = i.wrapping_mul(2_654_435_761);
            let len = if i % 3 == 0 { 16 } else { 24 };
            (Prefix::v4(std::net::Ipv4Addr::from(addr), len), i)
        })
        .collect()
}

fn build_ctrie(n: u32) -> CompressedTrie<u32> {
    let mut trie = CompressedTrie::new();
    for (prefix, i) in keyset(n) {
        trie.insert(prefix, i);
    }
    trie
}

fn bench_lpm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpm");
    for n in [1_000u32, 10_000, 100_000] {
        let ctrie = build_ctrie(n);
        let keys: Vec<Prefix> = (0..1024u32)
            .map(|i| Prefix::v4(std::net::Ipv4Addr::from(i.wrapping_mul(2_654_435_761)), 24))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("compressed/longest_match", n),
            &ctrie,
            |b, ctrie| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % keys.len();
                    black_box(ctrie.longest_match(keys[i]))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("compressed/insert", n), &n, |b, _| {
            b.iter_with_large_drop(|| build_ctrie(1_000))
        });
        group.bench_with_input(BenchmarkId::new("compressed/from_sorted", n), &n, |b, _| {
            b.iter_with_large_drop(|| CompressedTrie::from_sorted(keyset(1_000)))
        });
    }
    // The batched build's payoff grows with table size; measure it at full
    // scale against incremental insertion into the same layout.
    for n in [100_000u32, 500_000] {
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("build/incremental", n), &n, |b, &n| {
            b.iter_with_large_drop(|| build_ctrie(n))
        });
        group.bench_with_input(BenchmarkId::new("build/from_sorted", n), &n, |b, &n| {
            b.iter_with_large_drop(|| CompressedTrie::from_sorted(keyset(n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lpm);
criterion_main!(benches);
