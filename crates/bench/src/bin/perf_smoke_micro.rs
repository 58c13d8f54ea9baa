//! Microbenchmark regression gates for the perf-smoke CI job: FIB
//! longest-prefix match, the BGP decision ladder and the warm projection.
//!
//! The criterion benches (`benches/lpm.rs`, `benches/decision.rs`) produce
//! the detailed curves; this binary distills the hot-path numbers into
//! a committed baseline and a pass/fail gate, the same shape as
//! `exp_perf_scaling --smoke`:
//!
//! * default — measure and write `results/BENCH_micro.json`;
//! * `--check` — measure and exit nonzero if any metric regressed more
//!   than 2x against the committed baseline (headroom for machine-to-
//!   machine variance, as in the epoch gate).
//!
//! Timings are min-of-reps over fixed iteration counts — the standard
//! steady-state estimator under one-sided noise — except the projection
//! row, which is the median of single calls (each one allocates its
//! result, so the typical call is the honest number).

use std::time::Instant;

use edge_fabric::collector::RouteCollector;
use edge_fabric::projection::{project_cached, ProjectionCache};
use edge_fabric::state::TrafficTable;
use ef_bench::{results_dir, write_json};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrStore, RouteRec};
use ef_bgp::bmp::{BmpMessage, BmpPeerHeader};
use ef_bgp::decision::{best_rec, rank_recs_into};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, RouteSource};
use ef_net_types::{Asn, CompressedTrie, Prefix};
use serde::{Deserialize, Serialize};

const TRIE_N: u32 = 100_000;
const LOOKUP_ITERS: u32 = 200_000;
const DECISION_ITERS: u32 = 500_000;
const BUILD_REPS: usize = 5;
const PROJECT_N: u32 = 60_000;
const PROJECT_CALLS: usize = 31;
const REPS: usize = 7;
const REGRESSION_HEADROOM: f64 = 2.0;

#[derive(Serialize, Deserialize)]
struct MicroReport {
    trie_n: u32,
    /// CompressedTrie longest-match, ns per lookup.
    lpm_ns: f64,
    /// CompressedTrie::from_sorted batched build, ms for `trie_n` keys.
    trie_build_ms: f64,
    /// best_rec over 8 candidates, ns per call.
    decision_best_ns: f64,
    /// rank_recs_into over 8 candidates, ns per call.
    decision_rank_ns: f64,
    /// `project_cached` over a 60 000-entry `TrafficTable` with an
    /// all-clean memo, ns per prefix. A per-epoch collect, sort or rehash
    /// of the table shows here as roughly 10x.
    project_warm_ns_per_prefix: f64,
}

fn keyset(n: u32) -> Vec<(Prefix, u32)> {
    (0..n)
        .map(|i| {
            let addr = i.wrapping_mul(2_654_435_761);
            let len = if i % 3 == 0 { 16 } else { 24 };
            (Prefix::v4(std::net::Ipv4Addr::from(addr), len), i)
        })
        .collect()
}

fn rec_candidates(n: usize) -> Vec<RouteRec> {
    let mut store = AttrStore::new();
    (0..n)
        .map(|i| {
            let attrs = PathAttributes {
                local_pref: Some(200 + ((i * 200) % 800) as u32),
                as_path: AsPath::sequence((0..(i % 4 + 1)).map(|k| Asn(65000 + k as u32))),
                med: Some((i * 7 % 100) as u32),
                ..Default::default()
            };
            let source = RouteSource {
                peer: PeerId(i as u64),
                peer_asn: Asn(65000 + i as u32),
                kind: if i % 3 == 0 {
                    PeerKind::Transit
                } else {
                    PeerKind::PrivatePeer
                },
            };
            store.make_rec(&attrs, source, EgressId(i as u32))
        })
        .collect()
}

/// The full-table projection world: `PROJECT_N` prefixes, each with a
/// private-peer and a transit route, and a demand entry per prefix.
fn projection_world() -> (RouteCollector, TrafficTable) {
    let peers = [
        (PeerId(1), Asn(65001), PeerKind::PrivatePeer),
        (PeerId(2), Asn(65010), PeerKind::Transit),
    ];
    let mut collector = RouteCollector::new(
        peers
            .iter()
            .map(|(peer, _, _)| (*peer, EgressId(peer.0 as u32)))
            .collect(),
    );
    let prefix = |i: u32| Prefix::V4 {
        addr: 0x1400_0000 + i * 256,
        len: 24,
    };
    for (peer, asn, kind) in peers {
        let mut attrs = PathAttributes {
            local_pref: Some(kind.default_local_pref()),
            as_path: AsPath::sequence([asn]),
            ..Default::default()
        };
        attrs.add_community(kind.tag_community());
        collector.ingest((0..PROJECT_N).map(|i| BmpMessage::RouteMonitoring {
            peer: BmpPeerHeader {
                peer,
                peer_asn: asn,
                peer_bgp_id: "10.0.0.1".parse().expect("literal address"),
                timestamp_ms: 0,
            },
            update: UpdateMessage::announce(prefix(i), attrs.clone()),
        }));
    }
    let mut traffic = TrafficTable::new();
    traffic.refill((0..PROJECT_N).map(|i| (prefix(i), 1.0 + f64::from(i % 17))));
    (collector, traffic)
}

/// Median wall time of one warm `project_cached` call, seconds.
fn warm_projection_secs() -> f64 {
    let (collector, traffic) = projection_world();
    let mut cache = ProjectionCache::new();
    // The first call fills the memo; every later one finds it all clean.
    std::hint::black_box(project_cached(&mut cache, &collector, &traffic));
    let mut calls: Vec<f64> = (0..PROJECT_CALLS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(project_cached(
                &mut cache,
                std::hint::black_box(&collector),
                std::hint::black_box(&traffic),
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    calls.sort_by(f64::total_cmp);
    calls[calls.len() / 2]
}

/// Min-of-reps wall time of `f`, seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn measure() -> MicroReport {
    let trie = CompressedTrie::from_sorted(keyset(TRIE_N));
    let keys: Vec<Prefix> = (0..1024u32)
        .map(|i| Prefix::v4(std::net::Ipv4Addr::from(i.wrapping_mul(2_654_435_761)), 24))
        .collect();

    let lpm = timed(REPS, || {
        let mut hits = 0usize;
        for i in 0..LOOKUP_ITERS {
            let key = keys[(i as usize) % keys.len()];
            if std::hint::black_box(trie.longest_match(key)).is_some() {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
    });

    let build = timed(BUILD_REPS, || {
        std::hint::black_box(CompressedTrie::from_sorted(keyset(TRIE_N)));
    });

    let recs = rec_candidates(8);
    let best = timed(REPS, || {
        for _ in 0..DECISION_ITERS {
            std::hint::black_box(best_rec(std::hint::black_box(&recs)));
        }
    });
    let mut out = Vec::with_capacity(recs.len());
    let rank = timed(REPS, || {
        for _ in 0..DECISION_ITERS {
            rank_recs_into(std::hint::black_box(&recs), &mut out);
            std::hint::black_box(out.len());
        }
    });

    let project = warm_projection_secs();

    let report = MicroReport {
        trie_n: TRIE_N,
        lpm_ns: lpm * 1e9 / f64::from(LOOKUP_ITERS),
        trie_build_ms: build * 1e3,
        decision_best_ns: best * 1e9 / f64::from(DECISION_ITERS),
        decision_rank_ns: rank * 1e9 / f64::from(DECISION_ITERS),
        project_warm_ns_per_prefix: project * 1e9 / f64::from(PROJECT_N),
    };
    println!(
        "micro: lpm {:.1} ns, build({}) {:.1} ms, best_rec {:.1} ns, rank {:.1} ns, \
         warm project({}) {:.1} ns/prefix",
        report.lpm_ns,
        report.trie_n,
        report.trie_build_ms,
        report.decision_best_ns,
        report.decision_rank_ns,
        PROJECT_N,
        report.project_warm_ns_per_prefix
    );
    report
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let report = measure();
    if !check {
        write_json("BENCH_micro", &report);
        return;
    }
    let path = results_dir().join("BENCH_micro.json");
    let committed: Option<MicroReport> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let Some(committed) = committed else {
        eprintln!("[micro] no committed baseline at {path:?}; check passes vacuously");
        return;
    };
    let gates = [
        ("lpm_ns", report.lpm_ns, committed.lpm_ns),
        (
            "trie_build_ms",
            report.trie_build_ms,
            committed.trie_build_ms,
        ),
        (
            "decision_best_ns",
            report.decision_best_ns,
            committed.decision_best_ns,
        ),
        (
            "decision_rank_ns",
            report.decision_rank_ns,
            committed.decision_rank_ns,
        ),
        (
            "project_warm_ns_per_prefix",
            report.project_warm_ns_per_prefix,
            committed.project_warm_ns_per_prefix,
        ),
    ];
    let mut failed = false;
    for (name, measured, baseline) in gates {
        let limit = baseline * REGRESSION_HEADROOM;
        let verdict = if measured > limit { "FAIL" } else { "ok" };
        println!("micro gate {name}: measured {measured:.1}, baseline {baseline:.1}, limit {limit:.1} [{verdict}]");
        failed |= measured > limit;
    }
    if failed {
        eprintln!("[micro] FAIL: hot-path microbenchmark regressed more than 2x vs baseline");
        std::process::exit(1);
    }
}
