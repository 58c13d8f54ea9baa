//! A peer's full feed loaded as one batch (`PeerStub::announce_table`) is
//! the same as announcing it route by route over the session
//! (`PeerStub::announce`): the batch only skips encoding frames the stub
//! built for the router to decode. Two routers take the same peers'
//! feeds, peer after peer, one each way. The feeds mix IPv4 and IPv6,
//! carry routes import policy rejects (over-specific, default from a
//! peer, AS loop), re-announce prefixes, and give transit sessions to one
//! AS different MEDs, so the decision ladder's result depends on
//! candidate order. Afterwards, for every prefix, the two routers must
//! agree on the candidates in order, the best route and the FIB entry;
//! their `bmp_snapshot`s must match message for message; a collector fed
//! each router's BMP stream must hold the same candidates; and each
//! peer's ROUTE-REFRESH answer, its table replayed, must reach its router
//! identically.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use proptest::prelude::*;

use edge_fabric::collector::RouteCollector;
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrId, AttrStore, RouteRec};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::Policy;
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, FibEntry, PeerAttachment, PeerStub, RouterConfig};
use ef_net_types::{Asn, Prefix};

const LOCAL_AS: Asn = Asn(32934);
/// Prefixes in the pool; see [`prefix`].
const POOL: u8 = 12;

/// `(peer id, ASN, kind)`. Peers 1 and 2 are two sessions to one transit
/// AS, so MED decides between them and is incomparable with peer 3.
const PEERS: [(u64, u32, PeerKind); 5] = [
    (1, 3356, PeerKind::Transit),
    (2, 3356, PeerKind::Transit),
    (3, 1299, PeerKind::Transit),
    (4, 65001, PeerKind::PrivatePeer),
    (5, 65002, PeerKind::PublicPeer),
];

/// Prefix `i` of the pool: v4 /24s, a v4 /25 (over-specific), v6 /48s, a
/// v6 /49 (over-specific) and the v4 default route (accepted from transit
/// only).
fn prefix(i: u8) -> Prefix {
    match i {
        0..=4 => Prefix::v4(Ipv4Addr::new(198, 18, i, 0), 24),
        5 => Prefix::v4(Ipv4Addr::new(198, 18, 5, 128), 25),
        6..=9 => format!("2001:db8:{i}::/48").parse().unwrap(),
        10 => "2001:db8:a:8000::/49".parse().unwrap(),
        _ => Prefix::v4(Ipv4Addr::UNSPECIFIED, 0),
    }
}

/// One announcement: pool prefix, path variant, MED variant, and whether
/// it carries its own next hop (otherwise the stub fills one in for IPv4).
type Announcement = (u8, u8, u8, bool);

fn attrs(asn: u32, (_, path, med, own_next_hop): Announcement) -> PathAttributes {
    let path = match path {
        0 => vec![Asn(asn), Asn(64999)],
        1 => vec![Asn(asn), Asn(64998), Asn(64999)],
        2 => vec![Asn(asn)],
        // Our own ASN: import policy rejects the loop.
        _ => vec![Asn(asn), LOCAL_AS, Asn(64999)],
    };
    PathAttributes {
        as_path: AsPath::sequence(path),
        med: [None, Some(0), Some(5), Some(10)][usize::from(med % 4)],
        next_hop: own_next_hop.then(|| Ipv4Addr::new(192, 0, 2, 9)),
        ..Default::default()
    }
}

fn router() -> BgpRouter {
    BgpRouter::new(RouterConfig {
        name: "pr".into(),
        asn: LOCAL_AS,
        router_id: Ipv4Addr::new(10, 0, 0, 1),
    })
}

/// Attaches every peer to `router` and brings its session up.
fn connect(router: &mut BgpRouter) -> Vec<PeerStub> {
    PEERS
        .iter()
        .map(|&(id, asn, kind)| {
            router.add_peer(PeerAttachment {
                peer: PeerId(id),
                peer_asn: Asn(asn),
                kind,
                egress: EgressId(id as u32),
                policy: Policy::default_import(LOCAL_AS, kind),
                max_prefixes: 0,
            });
            let mut stub = PeerStub::new(PeerId(id), Asn(asn), Ipv4Addr::new(10, 9, 0, id as u8));
            stub.pump(router, 0);
            assert!(stub.is_established());
            stub
        })
        .collect()
}

/// The collector's candidates per pool prefix after ingesting `router`'s
/// BMP backlog, and its generation counter.
fn collected(router: &mut BgpRouter) -> (Vec<Vec<RouteRec>>, u64) {
    let peer_egress: HashMap<PeerId, EgressId> = PEERS
        .iter()
        .map(|&(id, _, _)| (PeerId(id), EgressId(id as u32)))
        .collect();
    let mut collector = RouteCollector::new(peer_egress);
    collector.ingest(router.drain_bmp());
    let view = (0..POOL)
        .map(|i| collector.candidates(&prefix(i)).to_vec())
        .collect();
    (view, collector.generation())
}

/// Per pool prefix: candidates in order, best route and FIB entry (the
/// FIB holds pool prefixes only, so equal views mean equal FIBs). The
/// attributes are compared through `bmp_snapshot`.
fn routing_view(router: &BgpRouter) -> Vec<(Vec<RouteRec>, Option<RouteRec>, Option<FibEntry>)> {
    (0..POOL)
        .map(|i| {
            let p = prefix(i);
            (
                router.candidates(&p).to_vec(),
                router.best(&p).copied(),
                router.fib_entry(&p).copied(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_load_equals_per_route_announcements(
        feeds in proptest::collection::vec(
            proptest::collection::vec((0..POOL, 0..4u8, 0..4u8, any::<bool>()), 0..24),
            PEERS.len(),
        ),
        chunk in 1..16usize,
    ) {
        // Route by route, over the wire.
        let mut wire = router();
        let mut wire_stubs = connect(&mut wire);
        for ((&(_, asn, _), stub), feed) in PEERS.iter().zip(&mut wire_stubs).zip(&feeds) {
            for &a in feed {
                stub.announce(&mut wire, prefix(a.0), attrs(asn, a), 1);
            }
        }

        // Each peer's feed as batches of `chunk` routes.
        let mut batch = router();
        let mut batch_stubs = connect(&mut batch);
        let mut table = AttrStore::new();
        // Each peer's table: the last route it announced per prefix.
        let mut tables: Vec<BTreeMap<Prefix, AttrId>> = Vec::new();
        for ((&(_, asn, _), stub), feed) in PEERS.iter().zip(&mut batch_stubs).zip(&feeds) {
            let routes: Vec<_> = feed
                .iter()
                .map(|&a| (prefix(a.0), table.intern(&attrs(asn, a))))
                .collect();
            for part in routes.chunks(chunk) {
                stub.announce_table(&mut batch, &table, part.iter().copied(), 1);
            }
            tables.push(routes.into_iter().collect());
        }

        prop_assert_eq!(routing_view(&batch), routing_view(&wire));
        prop_assert_eq!(batch.bmp_snapshot(2), wire.bmp_snapshot(2));
        prop_assert_eq!(collected(&mut batch), collected(&mut wire));

        // Each peer's table, as its ROUTE-REFRESH answer reaches the
        // router: BoRR, every route of the table, EoRR and the sweep.
        for (i, &(id, _, _)) in PEERS.iter().enumerate() {
            let replay = tables[i].iter().map(|(p, a)| (*p, *a));
            batch.request_refresh(PeerId(id)).unwrap();
            prop_assert!(batch_stubs[i].pump(&mut batch, 3));
            batch_stubs[i].answer_refresh(&mut batch, &table, replay.clone(), 3);
            wire.request_refresh(PeerId(id)).unwrap();
            prop_assert!(wire_stubs[i].pump(&mut wire, 3));
            wire_stubs[i].answer_refresh(&mut wire, &table, replay, 3);
            prop_assert_eq!(batch.drain_bmp(), wire.drain_bmp(), "peer {}'s replay", id);
            prop_assert!(batch_stubs[i].is_established() && wire_stubs[i].is_established());
        }
        prop_assert_eq!(routing_view(&batch), routing_view(&wire));
    }
}
