//! The override mechanism end to end through the public `edge-fabric`
//! API: overload detection → BGP-injected override → FIB change, plus the
//! graceful-degradation guards (staleness hold-or-shrink, fail-open, and
//! injector-session loss).

use std::collections::HashMap;

use edge_fabric::{
    override_divergence, ControllerConfig, EpochError, EpochInputs, EpochReport, InterfaceInfo,
    OverrideSet, PopController,
};
use ef_bgp::peer::PeerId;
use ef_bgp::policy::Policy;
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::EgressSpec;
use ef_net_types::{Asn, Prefix};

/// The v4 prefix [`rig`] announces.
const V4: &str = "203.0.113.0/24";

/// One router with a 100 Mbps private peer and a transit, both announcing
/// `prefix`, plus a controller watching both interfaces.
fn rig() -> (BgpRouter, PopController, Prefix) {
    rig_for(V4.parse().unwrap())
}

fn rig_for(prefix: Prefix) -> (BgpRouter, PopController, Prefix) {
    let mut router = BgpRouter::new(RouterConfig {
        name: "pop0-pr0".into(),
        asn: Asn::LOCAL,
        router_id: "10.0.0.1".parse().unwrap(),
    });
    let specs = [EgressSpec::pni(1, 65001), EgressSpec::transit(2, 65010)];
    for spec in specs {
        router.add_peer(PeerAttachment {
            peer: PeerId(spec.egress.0 as u64),
            peer_asn: spec.asn,
            kind: spec.kind(),
            egress: spec.egress,
            policy: Policy::default_import(Asn::LOCAL, spec.kind()),
            max_prefixes: 0,
        });
    }
    let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
    let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
    peer.pump(&mut router, 0);
    transit.pump(&mut router, 0);

    peer.announce(&mut router, prefix, Default::default(), 0);
    transit.announce(&mut router, prefix, Default::default(), 0);

    let interfaces = HashMap::from([
        (
            specs[0].egress,
            InterfaceInfo::with_policy(100.0, specs[0].policy()),
        ),
        (
            specs[1].egress,
            InterfaceInfo::with_policy(10_000.0, specs[1].policy()),
        ),
    ]);
    let cfg = ControllerConfig {
        stale_input_secs: 60,
        fail_open_secs: 240,
        ..Default::default()
    };
    let mut ctl = PopController::new(0, cfg, interfaces, &mut router).unwrap();
    ctl.ingest_bmp(router.drain_bmp(), 0);
    (router, ctl, prefix)
}

/// One epoch at `now_ms` offering `demand`, with the given input ages and
/// no performance intents.
fn epoch(
    ctl: &mut PopController,
    router: &mut BgpRouter,
    demand: &[(Prefix, f64)],
    now_ms: u64,
    inputs: EpochInputs,
) -> Result<EpochReport, EpochError> {
    let traffic: HashMap<Prefix, f64> = demand.iter().copied().collect();
    ctl.run_epoch(&traffic, router, now_ms, inputs, &OverrideSet::new())
}

/// Once on a v4 /24 and once on a v6 /48: the overload detours through an
/// injected override, the FIB installs it, dropping the overload reverts
/// it, and after each epoch the router's override state matches the
/// injector's ledger: nothing missing, nothing leaked.
#[test]
fn overload_becomes_a_fib_override() {
    for prefix in [V4, "2001:db8:100::/48"] {
        let (mut router, mut ctl, prefix) = rig_for(prefix.parse().unwrap());
        let fresh = EpochInputs::fresh();
        let report = epoch(&mut ctl, &mut router, &[(prefix, 150.0)], 30_000, fresh).unwrap();
        assert_eq!(report.overrides_active, 1, "{prefix} detours");
        assert!(report.detoured_mbps > 0.0, "{prefix} detours");
        let found = override_divergence(&router, ctl.active_overrides(), &[]);
        assert!(found.is_empty(), "{prefix}: {found:?}");
        assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(2));
        // Dropping the overload reverts the detour (stateless recompute).
        let report = epoch(&mut ctl, &mut router, &[(prefix, 10.0)], 60_000, fresh).unwrap();
        assert_eq!(report.overrides_active, 0, "{prefix} reverts");
        assert_eq!(report.churn_withdrawn, 1, "{prefix} withdraws");
        let found = override_divergence(&router, ctl.active_overrides(), &[prefix]);
        assert!(found.is_empty(), "{prefix}: {found:?}");
        assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(1));
    }
}

#[test]
fn stale_inputs_hold_but_never_enlarge() {
    let (mut router, mut ctl, prefix) = rig();
    let traffic = [(prefix, 150.0)];
    let fresh = EpochInputs::fresh();
    epoch(&mut ctl, &mut router, &traffic, 30_000, fresh).unwrap();
    assert_eq!(ctl.active_overrides().len(), 1);

    // Degraded inputs: the standing override is held...
    let stale = EpochInputs {
        bmp_age_ms: 90_000,
        traffic_age_ms: 90_000,
    };
    let report = epoch(&mut ctl, &mut router, &traffic, 60_000, stale).unwrap();
    assert!(report.degraded);
    assert_eq!(report.overrides_active, 1);

    // ...but new overload cannot grow the set while inputs are stale.
    let second: Prefix = "203.0.114.0/24".parse().unwrap();
    // (the collector has no routes for it anyway under a stalled feed;
    // use the same prefix universe and just raise demand)
    let surge = [(prefix, 150.0), (second, 500.0)];
    let report = epoch(&mut ctl, &mut router, &surge, 90_000, stale).unwrap();
    assert!(report.degraded);
    assert!(
        report.overrides_active <= 1,
        "degraded epoch enlarged the set"
    );
}

#[test]
fn fail_open_horizon_withdraws_everything() {
    let (mut router, mut ctl, prefix) = rig();
    let traffic = [(prefix, 150.0)];
    let fresh = EpochInputs::fresh();
    epoch(&mut ctl, &mut router, &traffic, 30_000, fresh).unwrap();
    assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(2));

    let ancient = EpochInputs {
        bmp_age_ms: 300_000,
        traffic_age_ms: 300_000,
    };
    let report = epoch(&mut ctl, &mut router, &traffic, 60_000, ancient).unwrap();
    assert!(report.fail_open);
    assert_eq!(report.overrides_active, 0);
    // Traffic falls back to what BGP alone would do.
    assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(1));
}

#[test]
fn injector_loss_fails_open_until_reattach() {
    let (mut router, mut ctl, prefix) = rig();
    let traffic = [(prefix, 150.0)];
    let fresh = EpochInputs::fresh();
    epoch(&mut ctl, &mut router, &traffic, 30_000, fresh).unwrap();
    assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(2));

    // The router drops the controller's pseudo-session: BGP reverts the
    // override on its own, and epochs refuse to run.
    router.remove_peer(ctl.injector_peer_id(), 60_000);
    ctl.injector_session_lost(60_000);
    assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(1));
    let err = epoch(&mut ctl, &mut router, &traffic, 90_000, fresh).unwrap_err();
    assert_eq!(err, EpochError::InjectorDown);
    assert!(ctl.active_overrides().is_empty());

    // Reattach once the backoff has passed: the next epoch re-steers.
    assert!(ctl.try_reattach_injector(&mut router, 150_000));
    let report = epoch(&mut ctl, &mut router, &traffic, 180_000, fresh).unwrap();
    assert_eq!(report.overrides_active, 1);
    assert_eq!(router.fib_entry(&prefix).unwrap().egress, EgressId(2));
}
