//! The router's override state follows the injector's ledger with no
//! repair pass: the injector records only what it actually sent, so
//! `override_divergence` finds nothing after any step a run can produce.
//! This property drives a real router, the controller's injector and three
//! organic peers through override churn, lossy injection, injector session
//! loss and reattach replay, organic peer flaps and the enhanced-refresh
//! stale sweep, checking after every step. A second property shows the
//! check is not vacuous: a withdraw or a stray announce delivered behind
//! the injector's back is reported.

use proptest::prelude::*;

use edge_fabric::{override_divergence, Injector, Override, OverrideReason, OverrideSet};
use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
use ef_bgp::attrstore::{AttrId, AttrStore};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::{Policy, OVERRIDE_MARKER};
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::wire::encode_message;
use ef_net_types::{Asn, Prefix};

const PREFIXES: usize = 8;
const INJECTOR: PeerId = PeerId(1000);
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

/// Organic peer `i`'s table: every prefix, over a one-hop path, as
/// handles into one store.
fn table(i: usize) -> (AttrStore, Vec<(Prefix, AttrId)>) {
    let mut store = AttrStore::new();
    let id = store.intern(&PathAttributes {
        as_path: AsPath::sequence([Asn(ORGANIC[i].1)]),
        ..Default::default()
    });
    (store, (0..PREFIXES).map(|p| (prefix(p), id)).collect())
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
    let (store, table) = table(i);
    for (prefix, id) in table {
        stub.announce(router, prefix, store.attrs(id).clone(), now);
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

/// A router, its organic peers and an attached injector.
fn rig() -> (BgpRouter, Vec<PeerStub>, Injector) {
    let mut router = BgpRouter::new(RouterConfig {
        name: "pop0-pr0".into(),
        asn: Asn::LOCAL,
        router_id: "10.0.0.1".parse().unwrap(),
    });
    let organic = (0..ORGANIC.len())
        .map(|i| connect(&mut router, i, 0))
        .collect();
    let injector = Injector::try_attach(&mut router, INJECTOR, 0).unwrap();
    (router, organic, injector)
}

/// One step a run can produce; returns the prefixes withdrawn by it.
fn step(
    router: &mut BgpRouter,
    organic: &mut [PeerStub],
    injector: &mut Injector,
    (op, arg, k): (u8, u8, usize),
    now: u64,
) -> Vec<Prefix> {
    match op {
        // Override churn: the injector moves to a new desired set. While
        // its session is down the controller skips the epoch instead.
        0..=2 => {
            if injector.session_up() {
                return injector.apply(router, &desired(arg, k), now).sent.withdraw;
            }
        }
        // Lossy injection switches on or off.
        3 => injector.set_loss(if arg % 2 == 0 { 0.5 } else { 0.0 }, u64::from(arg)),
        // Injector session loss; the next reattach starts from an empty
        // ledger and the next churn step replays.
        4 => {
            router.remove_peer(INJECTOR, now);
            injector.session_lost();
        }
        5 => {
            if !injector.session_up() {
                if let Ok(fresh) = Injector::try_attach(router, INJECTOR, now) {
                    *injector = fresh;
                }
            }
        }
        // An organic peer flaps and comes back with its full table.
        6 => {
            let i = k % ORGANIC.len();
            organic[i].shutdown(router, now);
            router.remove_peer(PeerId(ORGANIC[i].0), now);
            organic[i] = connect(router, i, now);
        }
        // An organic peer answers a ROUTE-REFRESH with its full table.
        _ => {
            let i = k % ORGANIC.len();
            if router.request_refresh(PeerId(ORGANIC[i].0)).is_ok() && organic[i].pump(router, now)
            {
                let (store, table) = table(i);
                organic[i].answer_refresh(router, &store, table, now);
            }
        }
    }
    Vec::new()
}

/// An UPDATE delivered straight onto the injector's session, behind the
/// injector's back.
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

fn run_steps() -> impl Strategy<Value = Vec<(u8, u8, usize)>> {
    proptest::collection::vec((0u8..8, any::<u8>(), 0usize..PREFIXES), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_run_step_diverges_from_the_ledger(steps in run_steps()) {
        let schedule = steps.clone();
        let (mut router, mut organic, mut injector) = rig();
        for (i, s) in steps.into_iter().enumerate() {
            let now = 1_000 * (i as u64 + 1);
            let withdrawn = step(&mut router, &mut organic, &mut injector, s, now);
            router.drain_bmp();
            let found = override_divergence(&router, injector.announced(), &withdrawn);
            prop_assert!(found.is_empty(), "after step {i} {s:?} of {schedule:?}: {found:?}");
        }
    }

    #[test]
    fn divergence_behind_the_injectors_back_is_reported(
        steps in run_steps(),
        k in 0usize..PREFIXES,
        egress in 1u32..=3,
    ) {
        let (mut router, mut organic, mut injector) = rig();
        for (i, s) in steps.into_iter().enumerate() {
            step(&mut router, &mut organic, &mut injector, s, 1_000 * (i as u64 + 1));
        }
        if !injector.session_up() {
            injector = Injector::try_attach(&mut router, INJECTOR, 100_000).unwrap();
        }
        let target = prefix(k);
        let claimed = injector.announced().iter_sorted().iter().any(|o| o.prefix == target);
        let update = if claimed {
            UpdateMessage::withdraw([target])
        } else {
            stray(target, egress)
        };
        deliver_behind_injector(&mut router, update, 200_000);
        router.drain_bmp();
        let found = override_divergence(&router, injector.announced(), &[]);
        prop_assert_eq!(found.len(), 1, "{:?}", found);
        prop_assert!(found[0].starts_with(&format!("{target}: ")), "{:?}", found);
    }
}
