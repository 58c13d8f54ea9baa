//! Microbenchmark regression gates for the perf-smoke CI job: FIB
//! longest-prefix match, the BGP decision ladder, the warm projection, the
//! override audit, the allocator on one hot interface and the batched
//! full-table load.
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
//! steady-state estimator under one-sided noise — except the projection,
//! audit and allocation rows, which are the median of single calls (each
//! one allocates its result, so the typical call is the honest number).

use std::net::Ipv4Addr;
use std::time::Instant;

use edge_fabric::allocator::allocate;
use edge_fabric::collector::RouteCollector;
use edge_fabric::projection::{project_cached, ProjectionCache};
use edge_fabric::{
    ControllerConfig, Injector, InterfaceInfo, InterfaceMap, Override, OverrideReason, OverrideSet,
    TrafficTable,
};
use ef_bench::{results_dir, write_json};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrId, AttrStore, RouteRec};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::Policy;
use ef_bgp::route::{EgressId, RouteSource};
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::{best_rec, rank_recs_into, BmpMessage, BmpPeerHeader, EgressSpec};
use ef_net_types::{Asn, CompressedTrie, Prefix};
use ef_telemetry::audit_overrides;
use serde::{Deserialize, Serialize};

const TRIE_N: u32 = 100_000;
const LOOKUP_ITERS: u32 = 200_000;
const DECISION_ITERS: u32 = 500_000;
const BUILD_REPS: usize = 5;
/// Prefixes in the full-table-shaped worlds of the projection, audit and
/// allocation rows.
const TABLE_N: u32 = 60_000;
/// Organic peers announcing every prefix in the audit row's router.
const AUDIT_PEERS: u32 = 6;
/// Overrides the audit row's controller has injected.
const AUDIT_OVERRIDES: u32 = 300;
/// Units the allocation row's hot interface needs detoured.
const HOT_TRIED: usize = 300;
const CALLS: usize = 31;
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
    /// `audit_overrides` on a clean router holding 60 000 prefixes x 6
    /// organic candidates and 300 overrides, us per call. The leak scan
    /// reads the controller's Adj-RIB-In; walking the table instead shows
    /// here as roughly 20x.
    audit_us: f64,
    /// `allocate` with one hot interface holding 20 000 victims, relieved
    /// after 300 detours, us per call. Keying and sorting every victim
    /// dominate it, so ranking every victim and grouping every routed
    /// prefix again read only about 1.3x.
    allocate_hot_us: f64,
    /// `PeerStub::announce_table` of 60 000 prefixes from each of 6 peers
    /// into a fresh router, three routes per attribute set, ns per route.
    /// Announcing route by route over the session reads about 3x.
    table_load_ns_per_route: f64,
}

fn table_prefix(i: u32) -> Prefix {
    Prefix::V4 {
        addr: 0x1400_0000 + i * 256,
        len: 24,
    }
}

/// One BMP route-monitoring message announcing `prefixes` from `peer`.
fn bmp_announce(
    peer: PeerId,
    asn: Asn,
    attrs: PathAttributes,
    prefixes: Vec<Prefix>,
) -> BmpMessage {
    BmpMessage::RouteMonitoring {
        peer: BmpPeerHeader {
            peer,
            peer_asn: asn,
            peer_bgp_id: "10.0.0.1".parse().expect("literal address"),
            timestamp_ms: 0,
        },
        update: UpdateMessage {
            withdrawn: Vec::new(),
            attrs,
            announced: prefixes,
        },
    }
}

/// Post-policy-shaped attributes for a route of `kind` from `asn`, as the
/// collector receives them over BMP.
fn tagged_attrs(kind: PeerKind, asn: Asn) -> PathAttributes {
    let mut attrs = PathAttributes {
        local_pref: Some(kind.default_local_pref()),
        as_path: AsPath::sequence([asn]),
        ..Default::default()
    };
    attrs.add_community(kind.tag_community());
    attrs
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

fn demand(i: u32) -> f64 {
    1.0 + f64::from(i % 17)
}

/// The full-table projection world: `TABLE_N` prefixes, each with a
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
    for (peer, asn, kind) in peers {
        let attrs = tagged_attrs(kind, asn);
        collector.ingest(
            (0..TABLE_N).map(|i| bmp_announce(peer, asn, attrs.clone(), vec![table_prefix(i)])),
        );
    }
    let mut traffic = TrafficTable::new();
    traffic.refill((0..TABLE_N).map(|i| (table_prefix(i), demand(i))));
    (collector, traffic)
}

/// Median wall time of one call of `f`, seconds.
fn median_call_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut calls: Vec<f64> = (0..CALLS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    calls.sort_by(f64::total_cmp);
    calls[calls.len() / 2]
}

/// Median wall time of one warm `project_cached` call, seconds.
fn warm_projection_secs() -> f64 {
    let (collector, traffic) = projection_world();
    let mut cache = ProjectionCache::new();
    // The first call fills the memo; every later one finds it all clean.
    std::hint::black_box(project_cached(&mut cache, &collector, &traffic));
    median_call_secs(|| {
        project_cached(
            &mut cache,
            std::hint::black_box(&collector),
            std::hint::black_box(&traffic),
        )
    })
}

/// A full-table-shaped peering router: `TABLE_N` prefixes announced by
/// each of `AUDIT_PEERS` organic peers, and `AUDIT_OVERRIDES` overrides
/// injected over the controller session. Returns the router and the
/// injector's claims.
fn audit_world() -> (BgpRouter, Vec<(Prefix, EgressId)>) {
    let mut router = BgpRouter::new(RouterConfig {
        name: "micro-pr".into(),
        asn: Asn::LOCAL,
        router_id: Ipv4Addr::new(10, 0, 0, 1),
    });
    let prefixes: Vec<Prefix> = (0..TABLE_N).map(table_prefix).collect();
    for i in 1..=AUDIT_PEERS {
        let kind = [
            PeerKind::PrivatePeer,
            PeerKind::PublicPeer,
            PeerKind::Transit,
        ][i as usize % 3];
        let (peer, asn) = (PeerId(u64::from(i)), Asn(65000 + i));
        router.add_peer(PeerAttachment {
            peer,
            peer_asn: asn,
            kind,
            egress: EgressId(i),
            policy: Policy::default_import(Asn::LOCAL, kind),
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(peer, asn, Ipv4Addr::new(10, 9, 0, i as u8));
        stub.pump(&mut router, 0);
        let attrs = PathAttributes {
            as_path: AsPath::sequence([asn]),
            next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
            ..Default::default()
        };
        // 500 /24s per UPDATE stays under the 4 096-byte message limit.
        for chunk in prefixes.chunks(500) {
            let update = UpdateMessage {
                withdrawn: Vec::new(),
                attrs: attrs.clone(),
                announced: chunk.to_vec(),
            };
            stub.send_update(&mut router, update, 0);
        }
        router.drain_bmp();
    }
    let mut injector = Injector::attach(&mut router, PeerId(1000), 0);
    let mut overrides = OverrideSet::new();
    for i in (0..TABLE_N).step_by((TABLE_N / AUDIT_OVERRIDES) as usize) {
        overrides.insert(Override {
            prefix: table_prefix(i),
            target: EgressId(AUDIT_PEERS),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Capacity,
            moved_mbps: demand(i),
        });
    }
    injector.apply(&mut router, &overrides, 0);
    router.drain_bmp();
    let claims = injector
        .announced()
        .iter_sorted()
        .into_iter()
        .map(|o| (o.prefix, o.target))
        .collect();
    (router, claims)
}

/// Median wall time of one clean `audit_overrides` call, seconds.
fn audit_secs() -> f64 {
    let (router, claims) = audit_world();
    let outcome = audit_overrides(&router, &claims, &[]);
    assert!(
        outcome.clean() && outcome.checked == AUDIT_OVERRIDES as usize,
        "the audit row's world must audit clean: {outcome:?}"
    );
    median_call_secs(|| audit_overrides(std::hint::black_box(&router), &claims, &[]))
}

/// One hot interface: `TABLE_N` prefixes, every third one preferred over
/// a PNI (`TABLE_N / 3` victims), every one also reachable over a
/// settlement-free peer and a transit. The PNI's limit sits `HOT_TRIED`
/// of its largest prefixes (17 Mbps each, tried first) below its load.
fn hot_interface_world() -> (RouteCollector, InterfaceMap, TrafficTable) {
    let pni = EgressSpec::pni(1, 65001);
    let public = EgressSpec::settlement_free(2, 65002);
    let transit = EgressSpec::transit(3, 65010);
    let peer = |spec: EgressSpec| PeerId(u64::from(spec.egress.0));
    let mut collector = RouteCollector::new(
        [pni, public, transit]
            .iter()
            .map(|s| (peer(*s), s.egress))
            .collect(),
    );
    for (spec, every) in [(pni, 3), (public, 1), (transit, 1)] {
        let announced = (0..TABLE_N).step_by(every).map(table_prefix).collect();
        collector.ingest([bmp_announce(
            peer(spec),
            spec.asn,
            tagged_attrs(spec.kind(), spec.asn),
            announced,
        )]);
    }
    let mut traffic = TrafficTable::new();
    traffic.refill((0..TABLE_N).map(|i| (table_prefix(i), demand(i))));
    let pni_load: f64 = (0..TABLE_N).step_by(3).map(demand).sum();
    let pni_limit = pni_load - demand(16) * HOT_TRIED as f64;
    let interfaces = [
        (pni, pni_limit / ControllerConfig::default().util_limit),
        (public, pni_load * 10.0),
        (transit, pni_load * 10.0),
    ]
    .iter()
    .map(|(s, cap)| (s.egress, InterfaceInfo::with_policy(*cap, s.policy())))
    .collect();
    (collector, interfaces, traffic)
}

/// Median wall time of one `allocate` call relieving the hot interface,
/// seconds.
fn allocate_hot_secs() -> f64 {
    let (collector, interfaces, traffic) = hot_interface_world();
    let projection = project_cached(&mut ProjectionCache::new(), &collector, &traffic);
    let cfg = ControllerConfig::default();
    let none = OverrideSet::new();
    let run = || {
        allocate(
            &cfg,
            &interfaces,
            &collector,
            &traffic,
            &projection,
            &none,
            &none,
        )
    };
    let outcome = run();
    assert!(
        outcome.residual_overloaded.is_empty()
            && (HOT_TRIED..=HOT_TRIED + 1).contains(&outcome.overrides.len()),
        "the allocation row must relieve its hot interface after ~{HOT_TRIED} detours, made {}",
        outcome.overrides.len()
    );
    median_call_secs(run)
}

/// Peer `i` of the table-load row: `(id, ASN, kind)`, the kinds
/// alternating private and transit.
fn table_load_peer(i: u32) -> (PeerId, Asn, PeerKind) {
    let kind = [PeerKind::PrivatePeer, PeerKind::Transit][i as usize % 2];
    (PeerId(u64::from(i)), Asn(65000 + i), kind)
}

/// A fresh router with the table-load row's `AUDIT_PEERS` sessions up,
/// and their stubs.
fn table_load_router() -> (BgpRouter, Vec<PeerStub>) {
    let mut router = BgpRouter::new(RouterConfig {
        name: "micro-pr".into(),
        asn: Asn::LOCAL,
        router_id: Ipv4Addr::new(10, 0, 0, 1),
    });
    let stubs = (1..=AUDIT_PEERS)
        .map(|i| {
            let (peer, asn, kind) = table_load_peer(i);
            router.add_peer(PeerAttachment {
                peer,
                peer_asn: asn,
                kind,
                egress: EgressId(i),
                policy: Policy::default_import(Asn::LOCAL, kind),
                max_prefixes: 0,
            });
            let mut stub = PeerStub::new(peer, asn, Ipv4Addr::new(10, 9, 0, i as u8));
            stub.pump(&mut router, 0);
            stub
        })
        .collect();
    (router, stubs)
}

/// Min-of-reps wall time of loading every peer's full table into a fresh
/// router (set-up excluded), seconds. A peer announces every `TABLE_N`
/// prefix, each sharing one attribute set with its two neighbours (about
/// the generated worlds' sharing).
fn table_load_secs() -> f64 {
    let mut table = AttrStore::new();
    let feeds: Vec<Vec<(Prefix, AttrId)>> = (1..=AUDIT_PEERS)
        .map(|i| {
            let (_, asn, _) = table_load_peer(i);
            (0..TABLE_N)
                .map(|p| {
                    let attrs = PathAttributes {
                        as_path: AsPath::sequence([asn, Asn(40_000 + p / 3)]),
                        ..Default::default()
                    };
                    (table_prefix(p), table.intern(&attrs))
                })
                .collect()
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..BUILD_REPS {
        let (mut router, mut stubs) = table_load_router();
        let start = Instant::now();
        for (stub, feed) in stubs.iter_mut().zip(&feeds) {
            stub.announce_table(&mut router, &table, feed.iter().copied(), 0);
            std::hint::black_box(router.drain_bmp());
        }
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            router.rib_route_count(),
            (TABLE_N * AUDIT_PEERS) as usize,
            "every route loads"
        );
    }
    best
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
    let audit = audit_secs();
    let allocate_hot = allocate_hot_secs();
    let table_load = table_load_secs();

    let report = MicroReport {
        trie_n: TRIE_N,
        lpm_ns: lpm * 1e9 / f64::from(LOOKUP_ITERS),
        trie_build_ms: build * 1e3,
        decision_best_ns: best * 1e9 / f64::from(DECISION_ITERS),
        decision_rank_ns: rank * 1e9 / f64::from(DECISION_ITERS),
        project_warm_ns_per_prefix: project * 1e9 / f64::from(TABLE_N),
        audit_us: audit * 1e6,
        allocate_hot_us: allocate_hot * 1e6,
        table_load_ns_per_route: table_load * 1e9 / f64::from(TABLE_N * AUDIT_PEERS),
    };
    println!(
        "micro: lpm {:.1} ns, build({}) {:.1} ms, best_rec {:.1} ns, rank {:.1} ns, \
         warm project({}) {:.1} ns/prefix, audit {:.1} us, allocate (one hot) {:.1} us, \
         table load {:.0} ns/route",
        report.lpm_ns,
        report.trie_n,
        report.trie_build_ms,
        report.decision_best_ns,
        report.decision_rank_ns,
        TABLE_N,
        report.project_warm_ns_per_prefix,
        report.audit_us,
        report.allocate_hot_us,
        report.table_load_ns_per_route
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
        ("audit_us", report.audit_us, committed.audit_us),
        (
            "allocate_hot_us",
            report.allocate_hot_us,
            committed.allocate_hot_us,
        ),
        (
            "table_load_ns_per_route",
            report.table_load_ns_per_route,
            committed.table_load_ns_per_route,
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
