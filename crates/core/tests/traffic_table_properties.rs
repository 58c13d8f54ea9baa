//! Property-based equivalence of the controller's two traffic inputs: a
//! prefix-sorted `TrafficTable` (what the sim runtime hands the controller)
//! and a `HashMap<Prefix, f64>` (the input adapter tests, examples and the
//! benchmark's traced replay use). Over random mixed v4/v6 prefix sets,
//! demands with zeros, negatives and prefixes the RIB has never heard of,
//! and collector churn between epochs, both views must drive the one
//! projection and the one allocator to exactly the same answer — every
//! float compared by its bits.

use std::collections::HashMap;

use proptest::prelude::*;

use edge_fabric::allocator::{allocate, AllocationOutcome};
use edge_fabric::collector::RouteCollector;
use edge_fabric::overrides::{Override, OverrideReason, OverrideSet};
use edge_fabric::projection::{project_cached, Projection, ProjectionCache};
use edge_fabric::{ControllerConfig, InterfaceInfo, InterfaceMap, TrafficTable, TrafficView};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::EgressId;
use ef_bgp::{BmpMessage, BmpPeerHeader};
use ef_net_types::{Asn, Prefix};

const N_PEERS: usize = 3;
/// Prefix pool: even slots are v6 /48s, odd slots v4 /24s with descending
/// addresses, so pool order, family order and `Prefix` order all differ.
const N_PREFIXES: usize = 14;
/// Pool slots at or past this index are never announced by any peer.
const N_ROUTABLE: usize = 10;

fn peer_kind(peer: usize) -> PeerKind {
    match peer {
        0 => PeerKind::PrivatePeer,
        1 => PeerKind::PublicPeer,
        _ => PeerKind::Transit,
    }
}

fn prefix(slot: usize) -> Prefix {
    if slot.is_multiple_of(2) {
        Prefix::V6 {
            addr: (0x2001_0db8_u128 << 96) | ((slot as u128) << 80),
            len: 48,
        }
    } else {
        Prefix::V4 {
            addr: 0x1400_0000 + (100 - slot as u32) * 256,
            len: 24,
        }
    }
}

fn header(peer: usize) -> BmpPeerHeader {
    BmpPeerHeader {
        peer: PeerId(peer as u64),
        peer_asn: Asn(65000 + peer as u32),
        peer_bgp_id: "10.0.0.1".parse().unwrap(),
        timestamp_ms: 0,
    }
}

fn announce(peer: usize, slot: usize, path_len: usize) -> BmpMessage {
    let kind = peer_kind(peer);
    let mut attrs = PathAttributes {
        local_pref: Some(kind.default_local_pref()),
        as_path: AsPath::sequence((0..path_len).map(|hop| Asn(65000 + (peer + hop * 100) as u32))),
        ..Default::default()
    };
    attrs.add_community(kind.tag_community());
    BmpMessage::RouteMonitoring {
        peer: header(peer),
        update: UpdateMessage::announce(prefix(slot), attrs),
    }
}

fn withdraw(peer: usize, slot: usize) -> BmpMessage {
    BmpMessage::RouteMonitoring {
        peer: header(peer),
        update: UpdateMessage::withdraw([prefix(slot)]),
    }
}

/// Collector churn applied before an epoch.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Announce {
        peer: usize,
        slot: usize,
        path_len: usize,
    },
    Withdraw {
        peer: usize,
        slot: usize,
    },
    PeerDown {
        peer: usize,
    },
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    let announce = || {
        (0..N_PEERS, 0..N_ROUTABLE, 1usize..4).prop_map(|(peer, slot, path_len)| Churn::Announce {
            peer,
            slot,
            path_len,
        })
    };
    // Announce-heavy, so most epochs have routes to project onto.
    prop_oneof![
        announce(),
        announce(),
        announce(),
        (0..N_PEERS, 0..N_ROUTABLE).prop_map(|(peer, slot)| Churn::Withdraw { peer, slot }),
        (0..N_PEERS).prop_map(|peer| Churn::PeerDown { peer }),
    ]
}

/// One epoch's demand per pool slot: absent, zero, negative or positive.
fn demand_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    let positive = || (0.1f64..120.0).prop_map(Some);
    let rate = prop_oneof![
        Just(None),
        Just(Some(0.0)),
        (-50.0f64..0.0).prop_map(Some),
        positive(),
        positive(),
        positive(),
        positive(),
    ];
    proptest::collection::vec(rate, N_PREFIXES)
}

/// One epoch: churn, then a demand snapshot.
fn epoch_strategy() -> impl Strategy<Value = (Vec<Churn>, Vec<Option<f64>>)> {
    (
        proptest::collection::vec(churn_strategy(), 0..6),
        demand_strategy(),
    )
}

/// The same demand as both views.
fn views(demand: &[Option<f64>]) -> (TrafficTable, HashMap<Prefix, f64>) {
    let map: HashMap<Prefix, f64> = demand
        .iter()
        .enumerate()
        .filter_map(|(slot, mbps)| mbps.map(|m| (prefix(slot), m)))
        .collect();
    let mut sorted: Vec<(Prefix, f64)> = map.iter().map(|(p, m)| (*p, *m)).collect();
    sorted.sort_by_key(|(p, _)| *p);
    let mut table = TrafficTable::new();
    table.refill(sorted);
    (table, map)
}

fn interfaces() -> InterfaceMap {
    (0..N_PEERS)
        .map(|peer| {
            let capacity = [60.0, 90.0, 10_000.0][peer];
            (
                EgressId(10 + peer as u32),
                InterfaceInfo::new(capacity, peer_kind(peer)),
            )
        })
        .collect()
}

fn assert_projections_identical(table: &Projection, map: &Projection) {
    assert_eq!(table.routed.len(), map.routed.len());
    for (a, b) in table.routed.iter().zip(&map.routed) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
    }
    assert_eq!(table.egress, map.egress);
    assert_eq!(table.gap, map.gap);
    assert_loads_identical(&table.load_mbps, &map.load_mbps);
    assert_eq!(table.unrouted_mbps.to_bits(), map.unrouted_mbps.to_bits());
}

fn assert_loads_identical(a: &HashMap<EgressId, f64>, b: &HashMap<EgressId, f64>) {
    assert_eq!(a.len(), b.len(), "load map shape diverged");
    for (egress, load) in a {
        assert_eq!(
            b.get(egress).map(|l| l.to_bits()),
            Some(load.to_bits()),
            "load diverged on {egress:?}"
        );
    }
}

fn assert_outcomes_identical(table: &AllocationOutcome, map: &AllocationOutcome) {
    assert_eq!(table.overrides, map.overrides);
    assert_eq!(table.explains, map.explains);
    assert_eq!(table.overloaded_before, map.overloaded_before);
    assert_eq!(table.residual_overloaded, map.residual_overloaded);
    assert_loads_identical(&table.post_load, &map.post_load);
    assert_eq!(
        table.capacity_detoured_mbps.to_bits(),
        map.capacity_detoured_mbps.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_and_map_views_are_interchangeable(
        epochs in proptest::collection::vec(epoch_strategy(), 1..8),
        perf_slots in proptest::collection::vec(0..N_PREFIXES, 0..3),
    ) {
        let mut collector = RouteCollector::new(
            (0..N_PEERS)
                .map(|peer| (PeerId(peer as u64), EgressId(10 + peer as u32)))
                .collect(),
        );
        let interfaces = interfaces();
        // Hysteresis on, so the allocator probes single prefixes for both
        // the performance overrides and the standing capacity overrides.
        let cfg = ControllerConfig {
            withdraw_hysteresis: 0.2,
            ..Default::default()
        };
        let mut perf = OverrideSet::new();
        for slot in perf_slots {
            perf.insert(Override {
                prefix: prefix(slot),
                target: EgressId(12),
                target_kind: PeerKind::Transit,
                reason: OverrideReason::Performance,
                moved_mbps: 0.0,
            });
        }
        // One memo per view: each must stay valid across the churn.
        let mut table_cache = ProjectionCache::new();
        let mut map_cache = ProjectionCache::new();
        let mut previous = OverrideSet::new();

        for (churn, demand) in epochs {
            for op in churn {
                collector.ingest([match op {
                    Churn::Announce { peer, slot, path_len } => announce(peer, slot, path_len),
                    Churn::Withdraw { peer, slot } => withdraw(peer, slot),
                    Churn::PeerDown { peer } => BmpMessage::PeerDown {
                        peer: header(peer),
                        reason: 1,
                    },
                }]);
            }
            let (table, map) = views(&demand);

            for slot in 0..N_PREFIXES {
                let key = prefix(slot);
                prop_assert_eq!(
                    table.demand_of(&key).map(f64::to_bits),
                    map.get(&key).map(|m| m.to_bits())
                );
            }

            let via_table = project_cached(&mut table_cache, &collector, &table);
            let via_map = project_cached(&mut map_cache, &collector, &map);
            assert_projections_identical(&via_table, &via_map);

            let out_table =
                allocate(&cfg, &interfaces, &collector, &table, &via_table, &perf, &previous);
            let out_map = allocate(&cfg, &interfaces, &collector, &map, &via_map, &perf, &previous);
            assert_outcomes_identical(&out_table, &out_map);
            previous = out_table.overrides;
        }
    }
}
