//! Property-based equivalence of the incremental projection path: after any
//! interleaving of organic announce/withdraw churn, peer failures, override
//! (controller-route) churn, and controller crash-resyncs, `project_cached`
//! over a long-lived cache must produce exactly what it does over a fresh
//! one — same loads, same assignment, same totals, bit for bit. A fresh
//! cache recomputes every prefix, and the test build asserts each call
//! bit-identical to the stateless recompute, so this pins the warm memo to
//! it too. The memo is fenced by the collector's per-prefix generation
//! stamps, so this exercises precisely the dirtying rules those stamps
//! encode. The preference-gap column the allocator keys victims by rides
//! in the same memo rows, so it is checked the same way, and against a
//! gap read straight off the candidates.

use std::collections::HashMap;

use proptest::prelude::*;

use edge_fabric::collector::RouteCollector;
use edge_fabric::projection::{project_cached, PrefGap, Projection, ProjectionCache};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::EgressId;
use ef_bgp::{BmpMessage, BmpPeerHeader};
use ef_net_types::{Asn, Prefix};

const N_PEERS: usize = 3;
const N_PREFIXES: usize = 8;
/// Controller pseudo-peer, distinct from every organic peer.
const CONTROLLER: u64 = 100;

/// Mixed kinds so the BGP decision process has real tiers to rank.
fn peer_kind(peer: usize) -> PeerKind {
    match peer {
        0 => PeerKind::PrivatePeer,
        1 => PeerKind::PublicPeer,
        _ => PeerKind::Transit,
    }
}

fn peer_asn(peer: usize) -> u32 {
    65000 + peer as u32
}

fn prefix(i: usize) -> Prefix {
    Prefix::V4 {
        addr: 0x1400_0000 + (i as u32) * 256,
        len: 24,
    }
}

fn header(peer: u64, asn: u32) -> BmpPeerHeader {
    BmpPeerHeader {
        peer: PeerId(peer),
        peer_asn: Asn(asn),
        peer_bgp_id: "10.0.0.1".parse().unwrap(),
        timestamp_ms: 0,
    }
}

/// Attributes are a pure function of (peer, path_len) so a crash-resync
/// replay reconstructs byte-identical routes.
fn organic_announce(peer: usize, pfx: usize, path_len: usize) -> BmpMessage {
    organic_announce_with_pref(peer, pfx, path_len, peer_kind(peer).default_local_pref())
}

/// [`organic_announce`] with an explicit LOCAL_PREF in place of the kind's.
fn organic_announce_with_pref(peer: usize, pfx: usize, path_len: usize, pref: u32) -> BmpMessage {
    let kind = peer_kind(peer);
    let mut attrs = PathAttributes {
        local_pref: Some(pref),
        as_path: AsPath::sequence((0..path_len).map(|hop| Asn(peer_asn(peer) + hop as u32 * 100))),
        ..Default::default()
    };
    attrs.add_community(kind.tag_community());
    BmpMessage::RouteMonitoring {
        peer: header(peer as u64, peer_asn(peer)),
        update: UpdateMessage::announce(prefix(pfx), attrs),
    }
}

fn override_announce(pfx: usize, egress: u32) -> BmpMessage {
    let mut attrs = PathAttributes {
        local_pref: Some(PeerKind::Controller.default_local_pref()),
        as_path: AsPath::sequence([]),
        ..Default::default()
    };
    attrs.add_community(PeerKind::Controller.tag_community());
    attrs.next_hop = Some(EgressId(egress).to_next_hop().unwrap());
    BmpMessage::RouteMonitoring {
        peer: header(CONTROLLER, 32934),
        update: UpdateMessage::announce(prefix(pfx), attrs),
    }
}

fn withdraw_msg(peer: u64, asn: u32, pfx: usize) -> BmpMessage {
    BmpMessage::RouteMonitoring {
        peer: header(peer, asn),
        update: UpdateMessage::withdraw([prefix(pfx)]),
    }
}

fn fresh_collector() -> RouteCollector {
    RouteCollector::new(
        (0..N_PEERS)
            .map(|i| (PeerId(i as u64), EgressId(10 + i as u32)))
            .collect(),
    )
}

/// One step of route churn as seen by the collector.
#[derive(Debug, Clone, Copy)]
enum Op {
    Announce {
        peer: usize,
        pfx: usize,
        path_len: usize,
    },
    Withdraw {
        peer: usize,
        pfx: usize,
    },
    PeerDown {
        peer: usize,
    },
    OverrideAnnounce {
        pfx: usize,
        egress: u32,
    },
    OverrideWithdraw {
        pfx: usize,
    },
    /// Controller crash: the replacement starts from a fresh collector and
    /// an empty cache, resynced from a BMP snapshot of the live routes
    /// (including any standing overrides still in the routers).
    CrashResync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..N_PEERS, 0usize..N_PREFIXES, 1usize..4).prop_map(|(peer, pfx, path_len)| {
            Op::Announce {
                peer,
                pfx,
                path_len,
            }
        }),
        (0usize..N_PEERS, 0usize..N_PREFIXES).prop_map(|(peer, pfx)| Op::Withdraw { peer, pfx }),
        (0usize..N_PEERS).prop_map(|peer| Op::PeerDown { peer }),
        (0usize..N_PREFIXES, 0u32..N_PEERS as u32).prop_map(|(pfx, e)| Op::OverrideAnnounce {
            pfx,
            egress: 10 + e,
        }),
        (0usize..N_PREFIXES).prop_map(|pfx| Op::OverrideWithdraw { pfx }),
        Just(Op::CrashResync),
    ]
}

/// Every observable field must agree exactly — the contract is
/// byte-identical output, not approximate equality.
fn assert_projections_match(cached: &Projection, fresh: &Projection) {
    assert_eq!(cached.routed, fresh.routed, "routed assignment diverged");
    assert_eq!(cached.egress, fresh.egress, "egress column diverged");
    assert_eq!(cached.gap, fresh.gap, "gap column diverged");
    assert_eq!(
        cached.load_mbps.len(),
        fresh.load_mbps.len(),
        "load map shape diverged"
    );
    for (egress, load) in &fresh.load_mbps {
        let got = cached.load_mbps.get(egress);
        assert_eq!(got, Some(load), "load diverged on {egress:?}");
    }
    assert_eq!(
        cached.unrouted_mbps.to_bits(),
        fresh.unrouted_mbps.to_bits(),
        "unrouted diverged"
    );
}

/// Each routed prefix's gap read straight off its candidates: the top
/// organic LOCAL_PREF minus the top organic one off the assigned egress.
fn gaps_from_candidates(collector: &RouteCollector, projection: &Projection) -> Vec<PrefGap> {
    (projection.routed.iter().zip(&projection.egress))
        .map(|((prefix, _), egress)| {
            let organic = || {
                collector
                    .candidates(prefix)
                    .iter()
                    .filter(|r| !r.is_override())
            };
            let best = organic().map(|r| r.effective_local_pref()).max();
            let alt = organic()
                .filter(|r| r.egress != *egress)
                .map(|r| r.effective_local_pref())
                .max();
            PrefGap::between(best.expect("a routed prefix has an organic route"), alt)
        })
        .collect()
}

/// Projects one-prefix `traffic` through the warm `cache` and returns its
/// egress and gap, after checking both against a fresh cache's.
fn warm_gap(
    cache: &mut ProjectionCache,
    collector: &RouteCollector,
    traffic: &HashMap<Prefix, f64>,
) -> (EgressId, PrefGap) {
    let fresh = project_cached(&mut ProjectionCache::new(), collector, traffic);
    let cached = project_cached(cache, collector, traffic);
    assert_projections_match(&cached, &fresh);
    assert_eq!(cached.gap, gaps_from_candidates(collector, &cached));
    (cached.egress[0], cached.gap[0])
}

/// A re-announce that lowers only an alternate's LOCAL_PREF keeps the best
/// egress and moves the gap: the memoized row must not survive it.
#[test]
fn lowering_an_alternates_pref_moves_the_gap() {
    let mut collector = fresh_collector();
    let mut cache = ProjectionCache::new();
    let traffic = HashMap::from([(prefix(0), 50.0)]);
    collector.ingest([organic_announce(0, 0, 1), organic_announce(1, 0, 1)]);
    let private = peer_kind(0).default_local_pref();
    let public = peer_kind(1).default_local_pref();
    assert_eq!(
        warm_gap(&mut cache, &collector, &traffic),
        (EgressId(10), PrefGap::between(private, Some(public)))
    );
    collector.ingest([organic_announce_with_pref(1, 0, 1, public - 150)]);
    assert_eq!(
        warm_gap(&mut cache, &collector, &traffic),
        (EgressId(10), PrefGap::between(private, Some(public - 150)))
    );
}

/// Withdrawing the last organic alternate on another egress leaves the
/// prefix where it was with no alternate: the gap becomes "none", even
/// with an override still standing on that egress.
#[test]
fn withdrawing_the_last_alternate_makes_the_gap_none() {
    let mut collector = fresh_collector();
    let mut cache = ProjectionCache::new();
    let traffic = HashMap::from([(prefix(0), 50.0)]);
    collector.ingest([
        organic_announce(0, 0, 1),
        organic_announce(2, 0, 1),
        override_announce(0, 12),
    ]);
    let private = peer_kind(0).default_local_pref();
    let transit = peer_kind(2).default_local_pref();
    assert_eq!(
        warm_gap(&mut cache, &collector, &traffic),
        (EgressId(10), PrefGap::between(private, Some(transit)))
    );
    collector.ingest([withdraw_msg(2, peer_asn(2), 0)]);
    assert_eq!(
        warm_gap(&mut cache, &collector, &traffic),
        (EgressId(10), PrefGap::NONE)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_projection_matches_from_scratch(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut collector = fresh_collector();
        let mut cache = ProjectionCache::new();
        // Live-route mirror standing in for the routers' tables: what a BMP
        // snapshot would replay to a freshly restarted controller.
        let mut organic: HashMap<(usize, usize), usize> = HashMap::new();
        let mut overrides: HashMap<usize, u32> = HashMap::new();
        let traffic: HashMap<Prefix, f64> = (0..N_PREFIXES)
            .map(|i| (prefix(i), (i + 1) as f64 * 10.0))
            .collect();

        for op in ops {
            match op {
                Op::Announce { peer, pfx, path_len } => {
                    collector.ingest([organic_announce(peer, pfx, path_len)]);
                    organic.insert((peer, pfx), path_len);
                }
                Op::Withdraw { peer, pfx } => {
                    collector.ingest([withdraw_msg(peer as u64, peer_asn(peer), pfx)]);
                    organic.remove(&(peer, pfx));
                }
                Op::PeerDown { peer } => {
                    collector.ingest([BmpMessage::PeerDown {
                        peer: header(peer as u64, peer_asn(peer)),
                        reason: 1,
                    }]);
                    organic.retain(|(p, _), _| *p != peer);
                }
                Op::OverrideAnnounce { pfx, egress } => {
                    collector.ingest([override_announce(pfx, egress)]);
                    overrides.insert(pfx, egress);
                }
                Op::OverrideWithdraw { pfx } => {
                    collector.ingest([withdraw_msg(CONTROLLER, 32934, pfx)]);
                    overrides.remove(&pfx);
                }
                Op::CrashResync => {
                    collector = fresh_collector();
                    cache = ProjectionCache::new();
                    let mut live: Vec<_> = organic.iter().collect();
                    live.sort();
                    for (&(peer, pfx), &path_len) in live {
                        collector.ingest([organic_announce(peer, pfx, path_len)]);
                    }
                    let mut standing: Vec<_> = overrides.iter().collect();
                    standing.sort();
                    for (&pfx, &egress) in standing {
                        collector.ingest([override_announce(pfx, egress)]);
                    }
                }
            }
            let fresh = project_cached(&mut ProjectionCache::new(), &collector, &traffic);
            let cached = project_cached(&mut cache, &collector, &traffic);
            assert_projections_match(&cached, &fresh);
            assert_eq!(cached.gap, gaps_from_candidates(&collector, &cached));
        }
    }
}
