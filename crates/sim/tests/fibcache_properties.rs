//! Property-based exactness of the journal-invalidated forwarding cache:
//! after any interleaving of organic announce/withdraw, less-specific
//! covering routes, controller overrides on whole prefixes and on their
//! halves, peer flush + re-establishment and forced journal overflow,
//! every lookup unit's cached answer must equal a fresh
//! `BgpRouter::fib_lookup` of that unit. The router and its sessions are
//! real; only the cache's two fallbacks (journal overflow, large delta) and
//! its covered-range invalidation decide which entries survive a step.

use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;

use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::{Policy, OVERRIDE_MARKER};
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_net_types::{Asn, Prefix};
use ef_sim::{FibCache, Hop, NOT_A_POP_INTERFACE};

const LOCAL_AS: Asn = Asn(32934);
const N_PEERS: usize = 3;
/// Controller pseudo-peer, distinct from every organic peer.
const CONTROLLER: u64 = 100;
/// The PoP's interfaces, in slot order: one per organic peer.
const INTERFACES: [EgressId; N_PEERS] = [EgressId(10), EgressId(11), EgressId(12)];
/// Override targets: the interfaces plus an egress the PoP does not have.
const OVERRIDE_EGRESSES: [EgressId; 4] = [EgressId(10), EgressId(11), EgressId(12), EgressId(77)];
/// Steerable /24s; they tile 20.0.0.0/20 exactly.
const N_SLASH24: usize = 16;

fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
    Prefix::v4(Ipv4Addr::new(a, b, c, d), len)
}

/// The universe forwarding looks up: sixteen adjacent /24s, two IPv6 /48s
/// and a host address — no halves, so always one unit, and the import
/// policy drops a /32, so it only ever resolves through a covering route.
fn universe() -> Vec<Prefix> {
    let mut prefixes: Vec<Prefix> = (0..N_SLASH24).map(|i| v4(20, 0, i as u8, 0, 24)).collect();
    prefixes.push(Prefix::v6(
        Ipv6Addr::new(0x2001, 0xdb8, 1, 0, 0, 0, 0, 0),
        48,
    ));
    prefixes.push(Prefix::v6(
        Ipv6Addr::new(0x2001, 0xdb8, 2, 0, 0, 0, 0, 0),
        48,
    ));
    prefixes.push(v4(20, 0, 200, 1, 32));
    prefixes
}

/// Less-specific routes covering all, some or one of the universe.
fn covers() -> Vec<Prefix> {
    vec![
        v4(0, 0, 0, 0, 0),
        v4(20, 0, 0, 0, 16),
        v4(20, 0, 0, 0, 20),
        v4(20, 0, 0, 0, 22),
        v4(20, 0, 2, 0, 23),
        v4(20, 0, 200, 0, 24),
        Prefix::v6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0), 32),
    ]
}

fn peer_kind(peer: usize) -> PeerKind {
    match peer {
        0 => PeerKind::PrivatePeer,
        1 => PeerKind::PublicPeer,
        _ => PeerKind::Transit,
    }
}

fn peer_asn(peer: usize) -> Asn {
    Asn(65000 + peer as u32)
}

/// (Re-)provisions organic peer `peer` and brings its session up.
fn wire_peer(router: &mut BgpRouter, peer: usize, now: u64) -> PeerStub {
    router.add_peer(PeerAttachment {
        peer: PeerId(peer as u64),
        peer_asn: peer_asn(peer),
        kind: peer_kind(peer),
        egress: INTERFACES[peer],
        policy: Policy::default_import(LOCAL_AS, peer_kind(peer)),
        max_prefixes: 0,
    });
    let mut stub = PeerStub::new(
        PeerId(peer as u64),
        peer_asn(peer),
        Ipv4Addr::new(10, 210, 0, peer as u8 + 1),
    );
    stub.pump(router, now);
    assert!(stub.is_established());
    stub
}

fn organic_attrs(peer: usize, path_len: usize) -> PathAttributes {
    PathAttributes {
        as_path: AsPath::sequence(
            (0..path_len).map(|hop| Asn(peer_asn(peer).0 + hop as u32 * 100)),
        ),
        ..Default::default()
    }
}

fn override_attrs(egress: EgressId) -> PathAttributes {
    let mut attrs = PathAttributes {
        next_hop: Some(egress.to_next_hop().expect("small egress id")),
        ..Default::default()
    };
    attrs.add_community(OVERRIDE_MARKER);
    attrs
}

/// One routing event. `target` indexes universe ++ covers; `pfx` indexes
/// the steerable /24s; `part` is 0 = whole prefix, 1 / 2 = low / high half.
#[derive(Debug, Clone, Copy)]
enum Op {
    Announce {
        peer: usize,
        target: usize,
        path_len: usize,
    },
    Withdraw {
        peer: usize,
        target: usize,
    },
    Override {
        pfx: usize,
        part: usize,
        egress: usize,
    },
    OverrideWithdraw {
        pfx: usize,
        part: usize,
    },
    /// Session teardown flushes the peer's routes; the peer is then
    /// re-provisioned with an empty table.
    PeerFlap {
        peer: usize,
    },
    /// One real change, then filler churn outside the universe until the
    /// router's journal no longer reaches back to the cached version.
    Overflow {
        peer: usize,
        target: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let targets = universe().len() + covers().len();
    // `prop_oneof!` is uniform: Announce and Override are listed twice so
    // the table stays populated and overrides stay frequent.
    prop_oneof![
        (0..N_PEERS, 0..targets, 1usize..4).prop_map(|(peer, target, path_len)| Op::Announce {
            peer,
            target,
            path_len,
        }),
        (0..N_PEERS, 0..targets, 1usize..4).prop_map(|(peer, target, path_len)| Op::Announce {
            peer,
            target,
            path_len,
        }),
        (0..N_PEERS, 0..targets).prop_map(|(peer, target)| Op::Withdraw { peer, target }),
        (0..N_SLASH24, 0usize..3, 0..OVERRIDE_EGRESSES.len())
            .prop_map(|(pfx, part, egress)| Op::Override { pfx, part, egress }),
        (0..N_SLASH24, 0usize..3, 0..OVERRIDE_EGRESSES.len())
            .prop_map(|(pfx, part, egress)| Op::Override { pfx, part, egress }),
        (0..N_SLASH24, 0usize..3).prop_map(|(pfx, part)| Op::OverrideWithdraw { pfx, part }),
        (0..N_PEERS).prop_map(|peer| Op::PeerFlap { peer }),
        // Overflow costs thousands of FIB writes; keep it to one op in ~24.
        (0..N_PEERS, 0..targets, 0usize..3).prop_map(|(peer, target, coin)| match coin {
            0 => Op::Overflow { peer, target },
            _ => Op::Withdraw { peer, target },
        }),
    ]
}

fn part_of(prefix: Prefix, part: usize) -> Prefix {
    let (lo, hi) = prefix.halves().expect("a /24 has halves");
    [prefix, lo, hi][part]
}

/// What forwarding must see for `unit` right now, straight from the trie.
fn fresh(router: &BgpRouter, unit: Prefix) -> Option<Hop> {
    router.fib_lookup(unit).map(|(_, entry)| Hop {
        slot: INTERFACES
            .iter()
            .position(|e| *e == entry.egress)
            .map_or(NOT_A_POP_INTERFACE, |slot| slot as u32),
        is_override: entry.is_override,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_answers_equal_fresh_lookups(
        split in any::<bool>(),
        steps in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..4),
            1..40,
        ),
    ) {
        let mut router = BgpRouter::new(RouterConfig {
            name: "pop0-pr0".into(),
            asn: LOCAL_AS,
            router_id: Ipv4Addr::new(10, 100, 0, 1),
        });
        let mut now = 0u64;
        let mut stubs: Vec<PeerStub> =
            (0..N_PEERS).map(|peer| wire_peer(&mut router, peer, now)).collect();
        router.add_peer(PeerAttachment {
            peer: PeerId(CONTROLLER),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(),
            max_prefixes: 0,
        });
        let mut controller =
            PeerStub::new(PeerId(CONTROLLER), LOCAL_AS, Ipv4Addr::new(10, 210, 0, 100));
        controller.pump(&mut router, now);
        prop_assert!(controller.is_established());

        let universe = universe();
        let targets: Vec<Prefix> = universe.iter().copied().chain(covers()).collect();
        let filler: Vec<Prefix> = (0..512u32)
            .map(|i| Prefix::V4 { addr: 0x1E00_0000 + i * 256, len: 24 })
            .collect();
        // A table to start from, so early withdrawals and overrides bite.
        for (i, prefix) in universe.iter().enumerate() {
            stubs[i % N_PEERS].announce(&mut router, *prefix, organic_attrs(i % N_PEERS, 2), now);
        }
        let installed = universe.iter().filter(|p| router.fib_entry(p).is_some()).count();
        prop_assert_eq!(installed, universe.len() - 1, "all but the /32 install");
        let mut cache = FibCache::new(&universe, split, INTERFACES, &router);

        for step in steps {
            for op in step {
                now += 1;
                match op {
                    Op::Announce { peer, target, path_len } => stubs[peer].announce(
                        &mut router,
                        targets[target],
                        organic_attrs(peer, path_len),
                        now,
                    ),
                    Op::Withdraw { peer, target } => {
                        stubs[peer].withdraw(&mut router, [targets[target]], now)
                    }
                    Op::Override { pfx, part, egress } => {
                        let target = part_of(universe[pfx], part);
                        let egress = OVERRIDE_EGRESSES[egress];
                        controller.announce(&mut router, target, override_attrs(egress), now);
                        let installed = router.fib_entry(&target).expect("override installed");
                        prop_assert!(installed.is_override && installed.egress == egress);
                    }
                    Op::OverrideWithdraw { pfx, part } => {
                        controller.withdraw(&mut router, [part_of(universe[pfx], part)], now)
                    }
                    Op::PeerFlap { peer } => {
                        stubs[peer].shutdown(&mut router, now);
                        prop_assert!(!router.peer_up(PeerId(peer as u64)));
                        stubs[peer] = wire_peer(&mut router, peer, now);
                    }
                    Op::Overflow { peer, target } => {
                        let before = router.fib_version();
                        stubs[peer].announce(
                            &mut router,
                            targets[target],
                            organic_attrs(peer, 1),
                            now,
                        );
                        let mut rounds = 0;
                        while router.fib_changes_since(before).is_some() {
                            rounds += 1;
                            prop_assert!(rounds <= 64, "the journal is bounded");
                            let mut update = ef_bgp::message::UpdateMessage::announce(
                                filler[0],
                                organic_attrs(peer, 1),
                            );
                            update.attrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
                            update.announced = filler.clone();
                            stubs[peer].send_update(&mut router, update, now);
                            stubs[peer].withdraw(&mut router, filler.iter().copied(), now);
                        }
                    }
                }
                // Nothing consumes the monitoring feed here.
                router.drain_bmp();
            }

            cache.sync(&router);
            for (idx, prefix) in universe.iter().enumerate() {
                let units = match prefix.halves() {
                    Some((lo, hi)) if split => vec![lo, hi],
                    _ => vec![*prefix],
                };
                prop_assert_eq!(cache.is_split(idx), units.len() == 2);
                for (half, unit) in units.into_iter().enumerate() {
                    prop_assert_eq!(
                        cache.resolve(&router, idx, half),
                        fresh(&router, unit),
                        "unit {} (prefix {} half {}) is stale",
                        unit,
                        idx,
                        half
                    );
                }
            }
        }
        for stub in stubs.iter().chain([&controller]) {
            prop_assert_eq!(stub.send_errors(), 0, "every update reached the router");
        }
    }
}
