//! The override auditor's leak scan reads its candidates from the Adj-RIB-In
//! of the router's controller peers instead of walking the whole Loc-RIB.
//! This property drives a real router, two controller sessions (the
//! controller's injector and a standby whose routes the controller never
//! claims) and three organic peers through override churn, lossy injection,
//! injector session loss and replay, organic peer flaps, an enhanced-refresh
//! stale sweep, stray controller routes and reconciliation. After every
//! step the indexed findings must equal the full walk's.

use std::collections::BTreeSet;

use proptest::prelude::*;

use edge_fabric::{Injector, Override, OverrideReason, OverrideSet};
use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::{Policy, OVERRIDE_MARKER};
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::wire::encode_message;
use ef_net_types::{Asn, Prefix};
use ef_telemetry::{audit_overrides, AuditFinding};

const PREFIXES: usize = 8;
const INJECTOR: PeerId = PeerId(1000);
const STANDBY: PeerId = PeerId(1001);
/// Organic peers: (peer, ASN, kind, egress).
const ORGANIC: [(u64, u32, PeerKind, u32); 3] = [
    (1, 65001, PeerKind::PrivatePeer, 1),
    (2, 65002, PeerKind::PublicPeer, 2),
    (3, 65010, PeerKind::Transit, 3),
];

fn prefix(i: usize) -> Prefix {
    Prefix::V4 {
        addr: 0x1400_0000 + (i as u32 % PREFIXES as u32) * 256,
        len: 24,
    }
}

/// Attaches organic peer `i`, establishes its session and announces every
/// prefix from it.
fn connect(router: &mut BgpRouter, i: usize, now: u64) -> PeerStub {
    let (id, asn, kind, egress) = ORGANIC[i];
    router.add_peer(PeerAttachment {
        peer: PeerId(id),
        peer_asn: Asn(asn),
        kind,
        egress: EgressId(egress),
        policy: Policy::default_import(Asn::LOCAL, kind),
        max_prefixes: 0,
    });
    let mut stub = PeerStub::new(PeerId(id), Asn(asn), "10.9.0.1".parse().unwrap());
    stub.pump(router, now);
    for p in 0..PREFIXES {
        let attrs = PathAttributes {
            as_path: AsPath::sequence([Asn(asn)]),
            ..Default::default()
        };
        stub.announce(router, prefix(p), attrs, now);
    }
    stub
}

/// Overrides for the prefixes whose bit is set in `mask`, each toward one
/// of the organic egresses.
fn desired(mask: u8, target: usize) -> OverrideSet {
    let mut set = OverrideSet::new();
    for p in (0..PREFIXES).filter(|p| mask & (1 << p) != 0) {
        let (_, _, kind, egress) = ORGANIC[(p + target) % ORGANIC.len()];
        set.insert(Override {
            prefix: prefix(p),
            target: EgressId(egress),
            target_kind: kind,
            reason: OverrideReason::Capacity,
            moved_mbps: 1.0,
        });
    }
    set
}

/// An UPDATE delivered straight onto the injector's session, behind the
/// injector's back: a stray controller route, or a lost one.
fn deliver_behind_injector(router: &mut BgpRouter, update: UpdateMessage, now: u64) {
    let bytes = encode_message(&BgpMessage::Update(update)).unwrap();
    router.deliver(INJECTOR, &bytes, now);
}

fn stray(prefix: Prefix, egress: u32) -> UpdateMessage {
    let mut attrs = PathAttributes {
        origin: Origin::Igp,
        next_hop: Some(EgressId(egress).to_next_hop().unwrap()),
        ..Default::default()
    };
    attrs.add_community(OVERRIDE_MARKER);
    UpdateMessage::announce(prefix, attrs)
}

/// The leak scan as it was before the index: every Loc-RIB candidate list
/// walked, the first controller route of each unclaimed prefix reported.
fn leaks_by_full_walk(router: &BgpRouter, expected: &[(Prefix, EgressId)]) -> Vec<AuditFinding> {
    let claimed: BTreeSet<Prefix> = expected.iter().map(|(p, _)| *p).collect();
    let mut leaked: Vec<AuditFinding> = router
        .iter_candidates()
        .filter(|(prefix, _)| !claimed.contains(prefix))
        .filter_map(|(prefix, candidates)| {
            let route = candidates.iter().find(|r| r.is_override())?;
            Some(AuditFinding {
                prefix: *prefix,
                expected_egress: None,
                found_egress: Some(route.egress.0),
                detail: "controller route present for unclaimed prefix".to_string(),
            })
        })
        .collect();
    leaked.sort_by_cached_key(|f| f.prefix.to_string());
    leaked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_leak_scan_equals_the_full_walk(
        steps in proptest::collection::vec((0u8..11, any::<u8>(), 0usize..PREFIXES), 1..40),
    ) {
        let mut router = BgpRouter::new(RouterConfig {
            name: "pop0-pr0".into(),
            asn: Asn::LOCAL,
            router_id: "10.0.0.1".parse().unwrap(),
        });
        let mut organic: Vec<PeerStub> =
            (0..ORGANIC.len()).map(|i| connect(&mut router, i, 0)).collect();
        let mut injector = Injector::try_attach(&mut router, INJECTOR, 0).unwrap();
        let mut standby = Injector::try_attach(&mut router, STANDBY, 0).unwrap();

        for (step, (op, arg, k)) in steps.into_iter().enumerate() {
            let now = 1_000 * (step as u64 + 1);
            match op {
                // Override churn: the injector moves to a new desired set.
                0 | 1 => {
                    injector.apply(&mut router, &desired(arg, k), now);
                }
                // The standby announces overrides nobody claims.
                2 => {
                    standby.apply(&mut router, &desired(arg, k), now);
                }
                // Lossy injection switches on or off.
                3 => injector.set_loss(if arg % 2 == 0 { 0.5 } else { 0.0 }, u64::from(arg)),
                // Injector session loss; the next reattach replays.
                4 => {
                    router.remove_peer(INJECTOR, now);
                    injector.session_lost();
                }
                5 => {
                    if !injector.session_up() {
                        if let Ok(fresh) = Injector::try_attach(&mut router, INJECTOR, now) {
                            injector = fresh;
                        }
                    }
                }
                // Divergence behind the injector's back.
                6 => deliver_behind_injector(&mut router, stray(prefix(k), 1 + u32::from(arg) % 3), now),
                7 => deliver_behind_injector(&mut router, UpdateMessage::withdraw([prefix(k)]), now),
                // An organic peer flaps and comes back with its full table.
                8 => {
                    let i = k % ORGANIC.len();
                    organic[i].shutdown(&mut router, now);
                    router.remove_peer(PeerId(ORGANIC[i].0), now);
                    organic[i] = connect(&mut router, i, now);
                }
                // Enhanced refresh: the EoRR sweep drops whatever the
                // injector did not replay.
                9 => {
                    injector.resync_via_refresh(&mut router, now);
                }
                // The controller's own repair pass.
                _ => {
                    let audit = audit_overrides(&router, &injector.announced().claims(), &[]);
                    let prefixes = |findings: &[AuditFinding]| -> Vec<Prefix> {
                        findings.iter().map(|f| f.prefix).collect()
                    };
                    injector.reconcile(&mut router, &prefixes(&audit.not_installed), &prefixes(&audit.leaked), now);
                }
            }
            router.drain_bmp();
            check(&router, &injector, step);
        }

        // Not a vacuous pass: once the standby holds a route for every
        // prefix, each one the injector does not claim is a leak.
        standby.apply(&mut router, &desired(u8::MAX, 0), 1_000_000);
        let leaked = check(&router, &injector, usize::MAX);
        prop_assert_eq!(leaked, PREFIXES - injector.announced().claims().len());
    }
}

/// Asserts the indexed audit's leak findings equal the full walk's, and the
/// index equals the set of prefixes holding a controller route; returns the
/// number of leaks.
fn check(router: &BgpRouter, injector: &Injector, step: usize) -> usize {
    let expected = injector.announced().claims();
    let audit = audit_overrides(router, &expected, &[]);
    let walked = leaks_by_full_walk(router, &expected);
    assert_eq!(
        audit.leaked, walked,
        "leak findings diverge after step {step}"
    );

    let indexed: BTreeSet<Prefix> = router
        .adj_rib_in_of_kind(PeerKind::Controller)
        .copied()
        .collect();
    let with_override: BTreeSet<Prefix> = router
        .iter_candidates()
        .filter(|(_, candidates)| candidates.iter().any(|r| r.is_override()))
        .map(|(p, _)| *p)
        .collect();
    assert_eq!(indexed, with_override, "index diverges after step {step}");
    walked.len()
}
