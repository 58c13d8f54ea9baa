//! The router's Adj-RIB-In is a per-peer map from prefix to a handle on
//! the post-policy attributes in the router's one store, and each route's
//! decision record is the peer's Loc-RIB candidate. This suite keeps a
//! plain model — per-peer `HashMap<Prefix, AttrId>` over its own store,
//! computed straight from import policy — as an oracle, and drives several
//! peers through announce, withdraw, policy reject, max-prefix cut-off,
//! enhanced-refresh sweep, session down and re-provisioning. After every
//! step the router's `bmp_snapshot` must equal the snapshot built from the
//! oracle, message for message, and the router's store must hold exactly
//! the oracle's distinct post-policy sets; once every peer is removed it
//! must hold none.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use proptest::prelude::*;

use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrId, AttrStore};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::{Policy, PolicyVerdict};
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::{BmpMessage, BmpPeerHeader};
use ef_net_types::{Asn, Prefix};

const LOCAL_AS: Asn = Asn(32934);
const ROUTER_ID: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Peer 3's max-prefix limit; the prefix pool is larger, so it trips.
const MAX_PREFIXES: usize = 2;

/// The routes received from one peer, post-import-policy: a handle per
/// prefix into the oracle's store, which all peers share as the router's
/// Adj-RIBs-In share its store.
type AdjRibIn = HashMap<Prefix, AttrId>;

fn install(store: &mut AttrStore, adj: &mut AdjRibIn, prefix: Prefix, attrs: &PathAttributes) {
    if let Some(prev) = adj.insert(prefix, store.intern(attrs)) {
        store.release(prev);
    }
}

fn withdraw(store: &mut AttrStore, adj: &mut AdjRibIn, prefix: &Prefix) {
    if let Some(prev) = adj.remove(prefix) {
        store.release(prev);
    }
}

/// Drops a whole Adj-RIB-In (session down, cut-off, replaced by a replay).
fn release(store: &mut AttrStore, adj: Option<AdjRibIn>) {
    for id in adj.into_iter().flat_map(HashMap::into_values) {
        store.release(id);
    }
}

struct Peer {
    id: PeerId,
    asn: Asn,
    kind: PeerKind,
    max_prefixes: usize,
}

fn peers() -> [Peer; 3] {
    [
        Peer {
            id: PeerId(1),
            asn: Asn(65001),
            kind: PeerKind::PrivatePeer,
            max_prefixes: 0,
        },
        Peer {
            id: PeerId(2),
            asn: Asn(65002),
            kind: PeerKind::PublicPeer,
            max_prefixes: 0,
        },
        Peer {
            id: PeerId(3),
            asn: Asn(65003),
            kind: PeerKind::Transit,
            max_prefixes: MAX_PREFIXES,
        },
    ]
}

impl Peer {
    fn attachment(&self) -> PeerAttachment {
        PeerAttachment {
            peer: self.id,
            peer_asn: self.asn,
            kind: self.kind,
            egress: EgressId(self.id.0 as u32),
            policy: Policy::default_import(LOCAL_AS, self.kind),
            max_prefixes: self.max_prefixes,
        }
    }

    /// Attribute variant `v`; variant 2 carries our own ASN, which import
    /// policy rejects as a loop.
    fn attrs(&self, v: u8) -> PathAttributes {
        let path = match v {
            0 => vec![self.asn],
            1 => vec![self.asn, Asn(64999)],
            _ => vec![self.asn, LOCAL_AS],
        };
        PathAttributes {
            as_path: AsPath::sequence(path),
            // What `PeerStub::announce` fills in, so a raw frame and a stub
            // announcement of the same variant carry the same set.
            next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
            ..Default::default()
        }
    }
}

/// Prefix `i` of the pool; every fourth is a /25, which import policy
/// rejects as over-specific.
fn prefix(i: u8) -> Prefix {
    let len = if i % 4 == 3 { 25 } else { 24 };
    Prefix::v4(Ipv4Addr::new(198, 18, i, 0), len)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// The stub announces (and the side records it in the peer's table).
    Announce {
        peer: usize,
        prefix: u8,
        variant: u8,
    },
    /// The stub withdraws.
    Withdraw { peer: usize, prefix: u8 },
    /// A raw UPDATE the stub never recorded: stale until a refresh sweeps
    /// it.
    Ghost {
        peer: usize,
        prefix: u8,
        variant: u8,
    },
    /// The router asks for an enhanced route refresh.
    Refresh { peer: usize },
    /// The stub tears its session down.
    Down { peer: usize },
    /// Deprovision and re-provision the peer with a fresh session.
    Reprovision { peer: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, 0..8u8, 0..3u8).prop_map(|(peer, prefix, variant)| Op::Announce {
            peer,
            prefix,
            variant
        }),
        (0..3usize, 0..8u8, 0..3u8).prop_map(|(peer, prefix, variant)| Op::Announce {
            peer,
            prefix,
            variant
        }),
        (0..3usize, 0..8u8).prop_map(|(peer, prefix)| Op::Withdraw { peer, prefix }),
        (0..3usize, 0..8u8, 0..2u8).prop_map(|(peer, prefix, variant)| Op::Ghost {
            peer,
            prefix,
            variant
        }),
        (0..3usize).prop_map(|peer| Op::Refresh { peer }),
        (0..3usize).prop_map(|peer| Op::Down { peer }),
        (0..3usize).prop_map(|peer| Op::Reprovision { peer }),
    ]
}

/// One peer's side of the world: its stub, the peer's table (what it
/// advertises, which a refresh answer replays), and the oracle's view of
/// the router's Adj-RIB-In (`None` while down).
struct Side {
    stub: PeerStub,
    advertised: BTreeMap<Prefix, PathAttributes>,
    adj_in: Option<AdjRibIn>,
}

fn connect(router: &mut BgpRouter, peer: &Peer) -> Side {
    router.add_peer(peer.attachment());
    let mut stub = PeerStub::new(peer.id, peer.asn, Ipv4Addr::new(10, 9, 0, peer.id.0 as u8));
    stub.pump(router, 0);
    assert!(stub.is_established());
    Side {
        stub,
        advertised: BTreeMap::new(),
        adj_in: Some(AdjRibIn::default()),
    }
}

/// The oracle's half of an accepted-or-rejected announcement; returns
/// false when max-prefix cut the session.
fn oracle_announce(
    peer: &Peer,
    store: &mut AttrStore,
    adj: &mut AdjRibIn,
    prefix: Prefix,
    attrs: &PathAttributes,
) -> bool {
    let mut attrs = attrs.clone();
    match peer.attachment().policy.apply(&prefix, &mut attrs) {
        PolicyVerdict::Accept => install(store, adj, prefix, &attrs),
        PolicyVerdict::Reject => withdraw(store, adj, &prefix),
    }
    peer.max_prefixes == 0 || adj.len() <= peer.max_prefixes
}

fn oracle_snapshot(peers: &[Peer], sides: &[Side], store: &AttrStore) -> Vec<BmpMessage> {
    let mut out = vec![BmpMessage::Initiation {
        sys_name: "pr".into(),
    }];
    for (peer, side) in peers.iter().zip(sides) {
        let Some(adj) = &side.adj_in else {
            continue;
        };
        let header = BmpPeerHeader {
            peer: peer.id,
            peer_asn: peer.asn,
            peer_bgp_id: ROUTER_ID,
            timestamp_ms: 0,
        };
        out.push(BmpMessage::PeerUp(header));
        let mut routes: Vec<(&Prefix, &AttrId)> = adj.iter().collect();
        routes.sort_by_key(|(p, _)| **p);
        for (prefix, id) in routes {
            out.push(BmpMessage::RouteMonitoring {
                peer: header,
                update: UpdateMessage::announce(*prefix, store.attrs(*id).clone()),
            });
        }
    }
    out
}

fn apply(
    router: &mut BgpRouter,
    peers: &[Peer],
    sides: &mut [Side],
    store: &mut AttrStore,
    op: Op,
) {
    match op {
        Op::Announce {
            peer,
            prefix: i,
            variant,
        } => {
            let (p, side) = (&peers[peer], &mut sides[peer]);
            let Some(adj) = side.adj_in.as_mut() else {
                return;
            };
            let attrs = p.attrs(variant);
            side.stub.announce(router, prefix(i), attrs.clone(), 1);
            side.advertised.insert(prefix(i), attrs.clone());
            if !oracle_announce(p, store, adj, prefix(i), &attrs) {
                release(store, side.adj_in.take());
            }
        }
        Op::Withdraw { peer, prefix: i } => {
            let side = &mut sides[peer];
            let Some(adj) = side.adj_in.as_mut() else {
                return;
            };
            side.stub
                .try_send_update(router, UpdateMessage::withdraw([prefix(i)]), 1)
                .unwrap();
            side.advertised.remove(&prefix(i));
            withdraw(store, adj, &prefix(i));
        }
        Op::Ghost {
            peer,
            prefix: i,
            variant,
        } => {
            let (p, side) = (&peers[peer], &mut sides[peer]);
            let Some(adj) = side.adj_in.as_mut() else {
                return;
            };
            let attrs = p.attrs(variant);
            let update = UpdateMessage::announce(prefix(i), attrs.clone());
            let raw = ef_bgp::wire::encode_message(&BgpMessage::Update(update)).unwrap();
            router.deliver(p.id, &raw, 1);
            if !oracle_announce(p, store, adj, prefix(i), &attrs) {
                release(store, side.adj_in.take());
                // The router's NOTIFICATION reaches the stub.
                side.stub.pump(router, 1);
            }
        }
        Op::Refresh { peer } => {
            let (p, side) = (&peers[peer], &mut sides[peer]);
            if side.adj_in.is_none() {
                return;
            }
            router.request_refresh(p.id).unwrap();
            assert!(side.stub.pump(router, 1), "the request reached the stub");
            // The replay re-announces the peer's table; the EoRR sweep
            // withdraws whatever it did not.
            let mut table = AttrStore::new();
            let routes: Vec<(Prefix, AttrId)> = (side.advertised.iter())
                .map(|(prefix, attrs)| (*prefix, table.intern(attrs)))
                .collect();
            side.stub.answer_refresh(router, &table, routes, 1);
            let mut fresh = AdjRibIn::default();
            let mut up = true;
            for (prefix, attrs) in &side.advertised {
                up &= oracle_announce(p, store, &mut fresh, *prefix, attrs);
            }
            release(store, side.adj_in.take());
            if up {
                side.adj_in = Some(fresh);
            } else {
                release(store, Some(fresh));
            }
        }
        Op::Down { peer } => {
            let side = &mut sides[peer];
            side.stub.shutdown(router, 1);
            release(store, side.adj_in.take());
        }
        Op::Reprovision { peer } => {
            router.remove_peer(peers[peer].id, 1);
            release(store, sides[peer].adj_in.take());
            sides[peer] = connect(router, &peers[peer]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bmp_snapshot_matches_adj_rib_in_oracle(ops in proptest::collection::vec(op(), 1..60)) {
        let peers = peers();
        let mut router = BgpRouter::new(RouterConfig {
            name: "pr".into(),
            asn: LOCAL_AS,
            router_id: ROUTER_ID,
        });
        let mut sides: Vec<Side> = peers.iter().map(|p| connect(&mut router, p)).collect();
        let mut store = AttrStore::new();
        for op in ops {
            apply(&mut router, &peers, &mut sides, &mut store, op);
            for (p, side) in peers.iter().zip(&sides) {
                let up = side.adj_in.is_some();
                prop_assert_eq!(router.peer_up(p.id), up, "{:?} after {:?}", p.id, op);
            }
            let want = oracle_snapshot(&peers, &sides, &store);
            prop_assert_eq!(router.bmp_snapshot(0), want, "after {:?}", op);
            prop_assert_eq!(
                router.rib_distinct_attrs(),
                store.distinct(),
                "distinct post-policy sets after {:?}",
                op
            );
        }
        for p in &peers {
            router.remove_peer(p.id, 2);
        }
        prop_assert_eq!(router.rib_distinct_attrs(), 0, "attribute references leaked");
    }
}
