//! Property-based tests of the allocator's safety invariants over random
//! worlds: whatever the demand and capacity mix, the allocator must never
//! overload a detour target, never invent routes, and never steer a prefix
//! that has no alternative.

use std::collections::HashMap;

use proptest::prelude::*;

use edge_fabric::allocator::{allocate, DetourStrategy, SteerUnit, VictimQueue};
use edge_fabric::collector::RouteCollector;
use edge_fabric::overrides::OverrideSet;
use edge_fabric::projection::{project_cached, PrefGap, ProjectionCache};
use edge_fabric::{ControllerConfig, InterfaceInfo, InterfaceMap, Projection, TrafficView};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::EgressId;
use ef_bgp::{BmpMessage, BmpPeerHeader, EgressPolicy, PeeringClass};
use ef_net_types::{Asn, Prefix};
use ef_telemetry::RejectReason;

/// A randomly generated single-PoP world.
#[derive(Debug, Clone)]
struct World {
    /// Per interface: (peering class, capacity, whether its peer is the
    /// neighbour AS every such interface shares).
    interfaces: Vec<(PeeringClass, f64, bool)>,
    prefixes: Vec<PrefixSpec>,
}

/// One prefix of a world: its demand, the interfaces announcing it with
/// each route's MED, and the target of a standing override echoed back
/// from the router, if any.
type PrefixSpec = (f64, Vec<(usize, u32)>, Option<usize>);

/// The neighbour AS shared by every interface generated with the flag set.
/// Two such interfaces of one class carry routes of equal LOCAL_PREF whose
/// MEDs compare, while either one's MED is ignored against a third
/// interface of the class: the decision ladder is then not a total order.
const SHARED_NEIGHBOUR_AS: u32 = 64999;

fn world_strategy() -> impl Strategy<Value = World> {
    // 2..8 interfaces with mixed classes, capacities, (for transit) prices
    // — the price spread is what the cost tiebreak acts on — and neighbour
    // ASes that may be shared. Each world draws its classes from 1..=4 of
    // the four (a random rotation picks which), so several interfaces of
    // one class, the case a shared neighbour AS matters for, are common.
    let interfaces = (1usize..=4, 0usize..4).prop_flat_map(|(classes, rotation)| {
        let iface = (0..classes, 20.0f64..500.0, 0.1f64..4.0, any::<bool>()).prop_map(
            move |(k, cap, price, shared_as)| {
                let class = match (k + rotation) % 4 {
                    0 => PeeringClass::Pni { port_cost: 2500.0 },
                    1 => PeeringClass::SettlementFree,
                    2 => PeeringClass::IxpRouteServer {
                        shared_fabric_mbps: 0.0,
                    },
                    _ => PeeringClass::Transit {
                        usd_per_mbps: price,
                    },
                };
                (class, cap, shared_as)
            },
        );
        proptest::collection::vec(iface, 2..8)
    });
    interfaces.prop_flat_map(|interfaces| {
        let n = interfaces.len();
        let prefix = (
            1.0f64..80.0,
            proptest::collection::vec((0..n, 0u32..3), 1..=n),
            proptest::option::of(0..n),
        );
        (Just(interfaces), proptest::collection::vec(prefix, 1..25)).prop_map(
            |(interfaces, prefixes)| World {
                interfaces,
                prefixes: prefixes
                    .into_iter()
                    .map(|(d, mut vias, standing)| {
                        vias.sort_unstable_by_key(|(via, _)| *via);
                        vias.dedup_by_key(|(via, _)| *via);
                        (d, vias, standing)
                    })
                    .collect(),
            },
        )
    })
}

/// Builds the collector / interface map / traffic for a world.
fn materialize(world: &World) -> (RouteCollector, InterfaceMap, HashMap<Prefix, f64>) {
    let peer_egress: HashMap<PeerId, EgressId> = (0..world.interfaces.len())
        .map(|i| (PeerId(i as u64), EgressId(i as u32)))
        .collect();
    let mut collector = RouteCollector::new(peer_egress);
    let mut traffic = HashMap::new();
    let route = |peer: PeerId, asn: Asn, prefix: Prefix, attrs: PathAttributes| {
        BmpMessage::RouteMonitoring {
            peer: BmpPeerHeader {
                peer,
                peer_asn: asn,
                peer_bgp_id: "10.0.0.1".parse().unwrap(),
                timestamp_ms: 0,
            },
            update: UpdateMessage::announce(prefix, attrs),
        }
    };
    for (pi, (demand, vias, standing)) in world.prefixes.iter().enumerate() {
        let prefix = Prefix::V4 {
            addr: 0x1400_0000 + (pi as u32) * 256,
            len: 24,
        };
        for &(via, med) in vias {
            let (class, _, shared_as) = world.interfaces[via];
            let kind = class.kind();
            let asn = Asn(if shared_as {
                SHARED_NEIGHBOUR_AS
            } else {
                65000 + via as u32
            });
            let mut attrs = PathAttributes {
                local_pref: Some(kind.default_local_pref()),
                as_path: AsPath::sequence([asn]),
                med: Some(med),
                ..Default::default()
            };
            attrs.add_community(kind.tag_community());
            collector.ingest([route(PeerId(via as u64), asn, prefix, attrs)]);
        }
        // A standing override, as the controller sees its own route echoed
        // back: the allocator must look past it to the organic routes.
        if let Some(target) = standing {
            let kind = PeerKind::Controller;
            let mut attrs = PathAttributes {
                local_pref: Some(kind.default_local_pref()),
                next_hop: Some(EgressId(*target as u32).to_next_hop().unwrap()),
                ..Default::default()
            };
            attrs.add_community(kind.tag_community());
            collector.ingest([route(PeerId(1000), Asn::LOCAL, prefix, attrs)]);
        }
        traffic.insert(prefix, *demand);
    }
    let interfaces: InterfaceMap = world
        .interfaces
        .iter()
        .enumerate()
        .map(|(i, (class, cap, _))| {
            (
                EgressId(i as u32),
                InterfaceInfo {
                    capacity_mbps: *cap,
                    policy: EgressPolicy::new(*class),
                },
            )
        })
        .collect();
    (collector, interfaces, traffic)
}

/// Projects through the controller's memoized path with a fresh cache,
/// which the test build asserts bit-identical to the stateless recompute.
fn project<T: TrafficView + ?Sized>(collector: &RouteCollector, traffic: &T) -> Projection {
    project_cached(&mut ProjectionCache::new(), collector, traffic)
}

/// Victims with distinct prefixes whose gaps and demands come from small
/// pools, so ties in gap, in demand and in both are common; one draw in
/// four has no alternate.
fn victims_strategy() -> impl Strategy<Value = Vec<(Prefix, f64, PrefGap)>> {
    let gap = (0u32..4).prop_map(|g| match g {
        3 => PrefGap::NONE,
        g => PrefGap::between(800, Some(800 - 200 * g)),
    });
    let demand = prop_oneof![Just(5.0), Just(12.5), Just(40.0), 1.0f64..80.0];
    proptest::collection::vec((gap, demand), 0..40).prop_map(|draws| {
        draws
            .into_iter()
            .enumerate()
            // Descending addresses, so prefix order is not draw order.
            .map(|(i, (gap, demand))| {
                let addr = 0x1400_0000 + (1000 - i as u32) * 256;
                (Prefix::V4 { addr, len: 24 }, demand, gap)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazy victim order is the full sort it replaces: draining the
    /// queue yields exactly `sort_by` under the strategy's total key, and
    /// halves pushed mid-drain come out after every victim, first in
    /// first out.
    #[test]
    fn victim_queue_drains_in_sorted_order_then_halves(
        victims in victims_strategy(),
        largest: bool,
        halves_after in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let strategy = if largest { DetourStrategy::LargestFirst } else { DetourStrategy::BestAlternativeFirst };
        let depth = 1;
        let mut sorted = victims.clone();
        match strategy {
            DetourStrategy::LargestFirst => {
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            }
            DetourStrategy::BestAlternativeFirst => {
                sorted.sort_by(|a, b| a.2.cmp(&b.2).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0)));
            }
        }
        let mut expected: Vec<SteerUnit> =
            sorted.iter().map(|&(p, mbps, _)| (p, mbps, p, depth)).collect();

        let mut queue = VictimQueue::new(strategy, victims, depth);
        let mut drained: Vec<SteerUnit> = Vec::new();
        let mut halves: Vec<SteerUnit> = Vec::new();
        loop {
            // Queue a half after the `n`th pop, as a split does mid-drain.
            for (k, _) in halves_after.iter().enumerate().filter(|(_, n)| **n == drained.len()) {
                let parent = Prefix::V4 { addr: 0x0a00_0000, len: 24 };
                let (lo, hi) = parent.halves().unwrap();
                let half = (if k % 2 == 0 { lo } else { hi }, k as f64, parent, 0);
                queue.push_half(half);
                halves.push(half);
            }
            let Some(unit) = queue.pop() else { break };
            drained.push(unit);
        }
        // Every queued half drains, after the last victim, in push order.
        expected.extend(halves);
        prop_assert_eq!(drained, expected);
    }

    /// Core safety invariant: no detour target ends above the limit, and
    /// every interface that was fine stays fine — under both detour
    /// strategies and at utilization limits on either side of the default.
    #[test]
    fn allocator_never_overloads_a_target(
        world in world_strategy(),
        largest: bool,
        util_limit in prop_oneof![Just(0.90), Just(0.95), Just(0.99)],
    ) {
        let (collector, interfaces, traffic) = materialize(&world);
        let cfg = ControllerConfig {
            strategy: if largest { DetourStrategy::LargestFirst } else { DetourStrategy::BestAlternativeFirst },
            util_limit,
            ..Default::default()
        };
        let projection = project(&collector, &traffic);
        let out = allocate(&cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());

        let overloaded_before: std::collections::HashSet<u32> = out
            .overloaded_before
            .iter()
            .map(|(e, _)| e.0)
            .collect();
        for (egress, util) in &out.overloaded_before {
            prop_assert!(*util > cfg.util_limit, "{egress:?} listed hot at {util}");
        }
        for (egress, info) in &interfaces {
            let post = out.post_load.get(egress).copied().unwrap_or(0.0);
            let post_util = post / info.capacity_mbps;
            if !overloaded_before.contains(&egress.0) {
                // Was fine → must stay fine.
                prop_assert!(
                    post_util <= cfg.util_limit + 1e-9,
                    "{egress:?} newly overloaded: {post_util}"
                );
            }
        }
        // Residual overload is only ever reported on originally hot
        // interfaces, and only above the limit.
        for (egress, util) in &out.residual_overloaded {
            prop_assert!(
                overloaded_before.contains(&egress.0) && *util > cfg.util_limit,
                "{egress:?} residual at {util}"
            );
        }
    }

    /// Overrides only use routes that exist, and never target the interface
    /// the prefix was already on.
    #[test]
    fn overrides_reference_real_alternates(world in world_strategy()) {
        let (collector, interfaces, traffic) = materialize(&world);
        let cfg = ControllerConfig::default();
        let projection = project(&collector, &traffic);
        let out = allocate(&cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());

        for o in out.overrides.iter_sorted() {
            let candidates = collector.candidates(&o.prefix);
            prop_assert!(
                candidates.iter().any(|r| !r.is_override() && r.egress == o.target),
                "override to nonexistent route"
            );
            let preferred = projection.assigned_egress(&o.prefix);
            prop_assert_ne!(Some(o.target), preferred, "detour must move the prefix");
        }
    }

    /// Load conservation: total post-allocation load equals total projected
    /// load (detouring moves traffic, never creates or destroys it).
    #[test]
    fn load_is_conserved(world in world_strategy()) {
        let (collector, interfaces, traffic) = materialize(&world);
        let cfg = ControllerConfig::default();
        let projection = project(&collector, &traffic);
        let out = allocate(&cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());
        let before: f64 = projection.load_mbps.values().sum();
        let after: f64 = out.post_load.values().sum();
        prop_assert!((before - after).abs() < 1e-6, "{before} vs {after}");
    }

    /// Cost-aware allocation obeys the same capacity invariant as the
    /// cost-blind path (the tiebreak never relaxes the feasibility check),
    /// and every alternate rejected as "costlier" sits in the same
    /// preference band at a strictly higher marginal price — cost never
    /// overrides a capacity or preference constraint.
    #[test]
    fn cost_tiebreak_is_capacity_safe_and_band_confined(world in world_strategy()) {
        let (collector, interfaces, traffic) = materialize(&world);
        let cfg = ControllerConfig {
            cost_aware: true,
            ..Default::default()
        };
        let projection = project(&collector, &traffic);
        let out = allocate(&cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());

        let overloaded_before: std::collections::HashSet<u32> =
            out.overloaded_before.iter().map(|(e, _)| e.0).collect();
        for (egress, info) in &interfaces {
            let post_util = out.post_load.get(egress).copied().unwrap_or(0.0) / info.capacity_mbps;
            if !overloaded_before.contains(&egress.0) {
                prop_assert!(
                    post_util <= cfg.util_limit + 1e-9,
                    "cost-aware newly overloaded {egress:?}: {post_util}"
                );
            }
        }
        for rec in &out.explains {
            let Some(chosen) = rec.chosen_egress else { continue };
            let chosen_info = &interfaces[&chosen];
            for alt in &rec.rejected {
                if let RejectReason::CostlierAlternate { usd_per_mbps, chosen_usd_per_mbps } = alt.reason {
                    prop_assert!(usd_per_mbps > chosen_usd_per_mbps, "cost rejection with no saving");
                    let rejected_info = &interfaces[&alt.egress.unwrap()];
                    prop_assert_eq!(
                        rejected_info.policy.kind().default_local_pref(),
                        chosen_info.policy.kind().default_local_pref(),
                        "cost rejection crossed a preference band"
                    );
                }
            }
        }
    }

    /// With every transit priced identically, cost-aware allocation is
    /// byte-identical to cost-blind — the tiebreak acts only on real
    /// price asymmetry.
    #[test]
    fn cost_aware_is_noop_under_uniform_prices(world in world_strategy()) {
        let mut world = world;
        for (class, ..) in &mut world.interfaces {
            if let PeeringClass::Transit { usd_per_mbps } = class {
                *usd_per_mbps = 1.0;
            }
        }
        let (collector, interfaces, traffic) = materialize(&world);
        let projection = project(&collector, &traffic);
        let blind = allocate(&ControllerConfig::default(), &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());
        let aware_cfg = ControllerConfig { cost_aware: true, ..Default::default() };
        let aware = allocate(&aware_cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new());
        prop_assert_eq!(blind.overrides, aware.overrides);
        prop_assert_eq!(blind.post_load, aware.post_load);
        prop_assert_eq!(blind.capacity_detoured_mbps, aware.capacity_detoured_mbps);
    }

    /// Determinism: identical inputs produce identical outcomes, even when
    /// they arrive in maps built separately (fresh maps draw fresh hash
    /// seeds, so nothing may come out in hash order).
    #[test]
    fn allocation_is_deterministic(world in world_strategy()) {
        let cfg = ControllerConfig::default();
        let run = || {
            let (collector, interfaces, traffic) = materialize(&world);
            let projection = project(&collector, &traffic);
            allocate(&cfg, &interfaces, &collector, &traffic, &projection, &OverrideSet::new(), &OverrideSet::new())
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.overrides, b.overrides);
        prop_assert_eq!(a.capacity_detoured_mbps, b.capacity_detoured_mbps);
        prop_assert_eq!(a.overloaded_before, b.overloaded_before);
        prop_assert_eq!(a.residual_overloaded, b.residual_overloaded);
    }
}
