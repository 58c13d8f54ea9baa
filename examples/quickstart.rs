//! Quickstart: the Edge Fabric mechanism on one hand-built PoP.
//!
//! Builds a router with one under-provisioned private interconnect and one
//! big transit, drives demand past the PNI's capacity, and shows the
//! controller detecting the overload, injecting a BGP override, and
//! reverting it when the peak passes.
//!
//! Run with: `cargo run --release --example quickstart`

use std::collections::HashMap;

use edge_fabric::{ControllerConfig, EpochInputs, InterfaceInfo, OverrideSet, PopController};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::policy::Policy;
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_net_types::{Asn, Prefix};

fn main() {
    // --- A PoP with two interconnects --------------------------------------
    // egress 1: private peering with AS65001, 100 Mbps (the preferred path)
    // egress 2: transit via AS65010, effectively unlimited
    let mut router = BgpRouter::new(RouterConfig {
        name: "demo-pop-pr0".into(),
        asn: Asn::LOCAL,
        router_id: "10.0.0.1".parse().unwrap(),
    });
    for (id, asn, kind, egress) in [
        (1u64, 65001u32, PeerKind::PrivatePeer, 1u32),
        (2, 65010, PeerKind::Transit, 2),
    ] {
        router.add_peer(PeerAttachment {
            peer: PeerId(id),
            peer_asn: Asn(asn),
            kind,
            egress: EgressId(egress),
            policy: Policy::default_import(Asn::LOCAL, kind),
            max_prefixes: 0,
        });
    }
    let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
    let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
    peer.pump(&mut router, 0);
    transit.pump(&mut router, 0);

    // AS65001 originates two /24s; transit also reaches them (longer path).
    let prefixes: Vec<Prefix> = ["203.0.113.0/24", "198.51.100.0/24"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    for prefix in &prefixes {
        peer.announce(
            &mut router,
            *prefix,
            PathAttributes {
                as_path: AsPath::sequence([Asn(65001)]),
                ..Default::default()
            },
            0,
        );
        transit.announce(
            &mut router,
            *prefix,
            PathAttributes {
                as_path: AsPath::sequence([Asn(65010), Asn(65001)]),
                ..Default::default()
            },
            0,
        );
    }

    // --- Attach the controller ---------------------------------------------
    let interfaces = HashMap::from([
        (
            EgressId(1),
            InterfaceInfo::new(100.0, PeerKind::PrivatePeer),
        ),
        (
            EgressId(2),
            InterfaceInfo::new(100_000.0, PeerKind::Transit),
        ),
    ]);
    let mut controller =
        PopController::new(0, ControllerConfig::default(), interfaces, &mut router)
            .expect("default config is valid and the session establishes");
    controller.ingest_bmp(router.drain_bmp(), 0);
    // Every epoch below runs on fresh inputs, with no performance intents.
    let (fresh, no_perf) = (EpochInputs::fresh(), OverrideSet::new());

    let show_fib = |router: &BgpRouter, label: &str| {
        println!("  FIB ({label}):");
        for prefix in &prefixes {
            let entry = router.fib_entry(prefix).expect("route installed");
            println!(
                "    {prefix} -> if{}{}",
                entry.egress.0,
                if entry.is_override {
                    "  [controller override]"
                } else {
                    ""
                }
            );
        }
    };

    println!("== Edge Fabric quickstart ==\n");
    println!("Both prefixes prefer the 100 Mbps private interconnect (BGP tiering):");
    show_fib(&router, "initial");

    // --- Off-peak: everything fits ------------------------------------------
    let off_peak = HashMap::from([(prefixes[0], 40.0), (prefixes[1], 30.0)]);
    let report = controller
        .run_epoch(&off_peak, &mut router, 30_000, fresh, &no_perf)
        .expect("injector session up");
    println!("\nEpoch 1 (off-peak, 70 Mbps offered):");
    println!(
        "  overloaded interfaces: {}, overrides active: {}",
        report.overloaded_before.len(),
        report.overrides_active
    );

    // --- Peak: 150 Mbps cannot fit the preferred 100 Mbps link ---------------
    let peak = HashMap::from([(prefixes[0], 80.0), (prefixes[1], 70.0)]);
    let report = controller
        .run_epoch(&peak, &mut router, 60_000, fresh, &no_perf)
        .expect("injector session up");
    println!("\nEpoch 2 (evening peak, 150 Mbps offered):");
    println!(
        "  projected overload on if1: {:.0}% of capacity",
        report
            .overloaded_before
            .first()
            .map(|(_, u)| u * 100.0)
            .unwrap_or(0.0)
    );
    println!(
        "  controller injected {} override(s), detouring {:.0} Mbps to transit",
        report.churn_announced, report.detoured_mbps
    );
    show_fib(&router, "under override");

    // --- Peak passes: the stateless recompute withdraws -----------------------
    let report = controller
        .run_epoch(&off_peak, &mut router, 90_000, fresh, &no_perf)
        .expect("injector session up");
    println!("\nEpoch 3 (demand falls back to 70 Mbps):");
    println!(
        "  withdrawals sent: {}, overrides active: {}",
        report.churn_withdrawn, report.overrides_active
    );
    show_fib(&router, "reverted");

    println!("\nEvery override travelled as a real BGP UPDATE (wire-encoded and");
    println!("re-decoded by the router) and won the standard decision process via");
    println!("LOCAL_PREF — withdraw the announcement and plain BGP is back.");
}
