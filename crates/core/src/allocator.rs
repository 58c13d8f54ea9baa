//! The detour allocator (paper §4.2, steps 2–3).
//!
//! Given the unmitigated projection, finds interfaces whose utilization
//! would exceed the limit and computes the minimal-ish set of prefix
//! detours that brings every interface under it, subject to:
//!
//! * a detour target must be a real alternate route for the prefix (the
//!   controller can only pick among BGP-learned paths);
//! * a detour must not push its target over the limit (checked against the
//!   running post-detour load, so a cascade of detours cannot overload a
//!   target);
//! * prefixes already owned by a performance override are not touched.
//!
//! Two prefix-selection strategies are provided for the ablation the paper
//! invites: *best-alternative-first* (the paper's preference: detour
//! prefixes whose next-best route is closest in preference, minimizing
//! performance impact) and *largest-first* (fewest overrides).

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use ef_bgp::attrstore::RouteRec;
use ef_bgp::route::EgressId;
use ef_net_types::Prefix;
use ef_telemetry::{ExplainRecord, ExplainVerdict, RejectReason, RejectedAlternative};

use crate::collector::RouteCollector;
use crate::config::ControllerConfig;
use crate::overrides::{Override, OverrideReason, OverrideSet};
use crate::projection::{PrefGap, Projection};
use crate::state::{limit_mbps, InterfaceMap, TrafficView};

/// Prefix-selection order when shedding load from a hot interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetourStrategy {
    /// Prefer prefixes whose best feasible alternate is closest in BGP
    /// preference to the current route; break ties by larger demand.
    BestAlternativeFirst,
    /// Prefer the largest prefixes (fewest overrides to relieve overload).
    LargestFirst,
}

/// What the allocator did in one epoch.
#[derive(Debug, Clone, Default)]
pub struct AllocationOutcome {
    /// The desired override set (performance overrides passed in, plus the
    /// capacity detours computed this epoch).
    pub overrides: OverrideSet,
    /// Interfaces that were projected over the limit, with their projected
    /// utilization, sorted worst-first (ties by egress id).
    pub overloaded_before: Vec<(EgressId, f64)>,
    /// Interfaces still over the limit after allocation (shed everything
    /// movable and it wasn't enough), with residual utilization, sorted
    /// worst-first (ties by egress id) like `overloaded_before`.
    pub residual_overloaded: Vec<(EgressId, f64)>,
    /// Post-allocation predicted load per interface, Mbps.
    pub post_load: HashMap<EgressId, f64>,
    /// Demand detoured for capacity this epoch, Mbps.
    pub capacity_detoured_mbps: f64,
    /// Decision provenance: one record per steering decision considered,
    /// in the deterministic order the allocator made them. The controller
    /// amends verdicts when its guards later drop a decision.
    pub explains: Vec<ExplainRecord>,
}

/// Runs the allocator.
///
/// `perf_overrides` are pre-existing intents (paper §6) that the capacity
/// pass must honor: their demand is charged to their targets before
/// overload detection, and their prefixes are not re-steered.
///
/// `previous` is the override set currently announced. With the default
/// config it is ignored (fully stateless recompute, as in the paper); when
/// [`ControllerConfig::withdraw_hysteresis`] is positive, standing capacity
/// overrides are retained while their source interface still projects
/// above `util_limit − hysteresis`, damping flaps when demand hovers at
/// the limit.
pub fn allocate<T: TrafficView + ?Sized>(
    cfg: &ControllerConfig,
    interfaces: &InterfaceMap,
    routes: &RouteCollector,
    traffic: &T,
    projection: &Projection,
    perf_overrides: &OverrideSet,
    previous: &OverrideSet,
) -> AllocationOutcome {
    let mut load = projection.load_mbps.clone();
    let mut overrides = OverrideSet::new();
    let mut explains: Vec<ExplainRecord> = Vec::new();

    let limit_of = |egress: EgressId| limit_mbps(interfaces, egress, cfg.util_limit);
    let util_of = |egress: EgressId, load: &HashMap<EgressId, f64>| -> f64 {
        let cap = interfaces
            .get(&egress)
            .map(|i| i.capacity_mbps)
            .unwrap_or(f64::INFINITY);
        load.get(&egress).copied().unwrap_or(0.0) / cap
    };
    let cost_of = |egress: EgressId| -> f64 {
        interfaces
            .get(&egress)
            .map(|i| i.marginal_usd_per_mbps())
            .unwrap_or(0.0)
    };

    // Charge performance overrides to their targets first.
    for o in perf_overrides.iter_sorted() {
        let demand = traffic.demand_of(&o.prefix).unwrap_or(0.0);
        let src = projection.assigned_egress(&o.prefix);
        if let Some(src) = src {
            if src != o.target {
                *load.entry(src).or_default() -= demand;
                *load.entry(o.target).or_default() += demand;
            }
        }
        explains.push(ExplainRecord {
            prefix: o.prefix,
            trigger: "performance".into(),
            hot_egress: src,
            hot_util: src.map(|e| util_of(e, &load)).unwrap_or(0.0),
            demand_mbps: demand,
            chosen_egress: Some(o.target),
            chosen_kind: Some(o.target_kind.label().to_string()),
            chosen_usd_per_mbps: Some(cost_of(o.target)),
            rejected: Vec::new(),
            verdict: ExplainVerdict::Emitted,
        });
        overrides.insert(Override {
            moved_mbps: demand,
            ..*o
        });
    }

    // Withdraw hysteresis: retain standing capacity overrides while the
    // interface they relieve still projects inside the hysteresis band.
    if cfg.withdraw_hysteresis > 0.0 {
        let keep_above = cfg.util_limit - cfg.withdraw_hysteresis;
        for o in previous.iter_sorted() {
            if o.reason != OverrideReason::Capacity || overrides.contains(&o.prefix) {
                continue;
            }
            let demand = traffic.demand_of(&o.prefix).unwrap_or(0.0);
            if demand <= 0.0 {
                continue;
            }
            let Some(src) = projection.assigned_egress(&o.prefix) else {
                continue;
            };
            if src == o.target {
                continue;
            }
            // The detour target must still be a live organic route with room.
            let Some(route) = routes
                .candidates(&o.prefix)
                .iter()
                .find(|r| !r.is_override() && r.egress == o.target)
            else {
                continue;
            };
            let src_util = util_of(src, &load);
            let room = load.get(&o.target).copied().unwrap_or(0.0) + demand <= limit_of(o.target);
            if src_util > keep_above && room {
                *load.entry(src).or_default() -= demand;
                *load.entry(o.target).or_default() += demand;
                explains.push(ExplainRecord {
                    prefix: o.prefix,
                    trigger: "hysteresis".into(),
                    hot_egress: Some(src),
                    hot_util: src_util,
                    demand_mbps: demand,
                    chosen_egress: Some(o.target),
                    chosen_kind: Some(route.source.kind.label().to_string()),
                    chosen_usd_per_mbps: Some(cost_of(o.target)),
                    rejected: Vec::new(),
                    verdict: ExplainVerdict::Emitted,
                });
                overrides.insert(Override {
                    moved_mbps: demand,
                    target_kind: route.source.kind,
                    ..*o
                });
            }
        }
    }

    // Interfaces over the limit with their utilization, worst first (ties
    // by egress id), so the order never depends on the map's hash seed.
    let overloaded_worst_first = |load: &HashMap<EgressId, f64>| {
        let mut over: Vec<(EgressId, f64)> = interfaces
            .keys()
            .filter_map(|e| {
                let u = util_of(*e, load);
                (u > cfg.util_limit).then_some((*e, u))
            })
            .collect();
        over.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        over
    };
    let overloaded = overloaded_worst_first(&load);
    let overloaded_before = overloaded.clone();

    let mut capacity_detoured = 0.0f64;

    // Victims of the overloaded interfaces only, slot `i` for
    // `overloaded[i]`, found in one scan of the projection's egress column
    // and keyed by its memoized preference gaps: no RIB read, no map of
    // every routed prefix. The override-ownership filter runs as each
    // victim pops: the set grows as earlier hot interfaces shed, and a
    // pass tries only a few victims before its interface is relieved.
    let mut victims_by_hot: Vec<Vec<(Prefix, f64, PrefGap)>> = vec![Vec::new(); overloaded.len()];
    if !overloaded.is_empty() {
        for (i, egress) in projection.egress.iter().enumerate() {
            if let Some(slot) = overloaded.iter().position(|(hot, _)| hot == egress) {
                let (prefix, demand) = projection.routed[i];
                victims_by_hot[slot].push((prefix, demand, projection.gap[i]));
            }
        }
    }

    // Ranked-candidate scratch reused across every unit the worklist tries:
    // ranking writes pooled records into this buffer instead of allocating
    // a fresh `Vec` per call.
    let mut ranked_scratch: Vec<RouteRec> = Vec::new();

    for ((hot, _), victims) in overloaded.iter().zip(victims_by_hot) {
        // The projection memo keys victims by the best route's egress,
        // which is the hot interface here.
        for (prefix, _, gap) in &victims {
            debug_assert_eq!(
                *gap,
                ranked_gap(routes, prefix, *hot, &mut ranked_scratch),
                "memoized preference gap of {prefix} disagrees with the ranked one"
            );
        }
        let mut worklist = VictimQueue::new(cfg.strategy, victims, cfg.split_depth);
        while let Some((unit, mbps, lookup, depth)) = worklist.pop() {
            if load.get(hot).copied().unwrap_or(0.0) <= limit_of(*hot) {
                break; // interface relieved
            }
            // A victim already steered by a performance or hysteresis
            // override, or by an earlier hot interface's split. (Only a
            // victim is its own lookup prefix; halves are never skipped.)
            if unit == lookup && overrides.contains(&unit) {
                continue;
            }
            let hot_util = util_of(*hot, &load);
            let explain = |rejected, chosen: Option<&RouteRec>, verdict| ExplainRecord {
                prefix: unit,
                trigger: "capacity".into(),
                hot_egress: Some(*hot),
                hot_util,
                demand_mbps: mbps,
                chosen_egress: chosen.map(|r| r.egress),
                chosen_kind: chosen.map(|r| r.source.kind.label().to_string()),
                chosen_usd_per_mbps: chosen.map(|r| cost_of(r.egress)),
                rejected,
                verdict,
            };
            // Find the most-preferred feasible alternate, keeping the
            // rejection trail for provenance. With cost-aware steering on,
            // the scan continues through the winning preference band and
            // takes its cheapest feasible member — strictly a tiebreak:
            // it never crosses into a lower band (BGP preference is never
            // degraded) and never relaxes the capacity check.
            let mut rejected: Vec<RejectedAlternative> = Vec::new();
            let mut target: Option<RouteRec> = None;
            routes.ranked_into(&lookup, &mut ranked_scratch);
            for r in ranked_scratch
                .iter()
                .filter(|r| !r.is_override() && r.egress != *hot)
            {
                if let Some(t) = target {
                    // Cost-aware band scan past the first feasible hit.
                    if r.effective_local_pref() != t.effective_local_pref() {
                        break;
                    }
                    let projected = load.get(&r.egress).copied().unwrap_or(0.0) + mbps;
                    if projected > limit_of(r.egress) {
                        continue; // infeasible band member: never a candidate
                    }
                    let (rc, tc) = (cost_of(r.egress), cost_of(t.egress));
                    if rc < tc {
                        rejected.push(RejectedAlternative {
                            egress: Some(t.egress),
                            kind: Some(t.source.kind.label().to_string()),
                            reason: RejectReason::CostlierAlternate {
                                usd_per_mbps: tc,
                                chosen_usd_per_mbps: rc,
                            },
                        });
                        target = Some(*r);
                    } else if rc > tc {
                        rejected.push(RejectedAlternative {
                            egress: Some(r.egress),
                            kind: Some(r.source.kind.label().to_string()),
                            reason: RejectReason::CostlierAlternate {
                                usd_per_mbps: rc,
                                chosen_usd_per_mbps: tc,
                            },
                        });
                    }
                    // Equal cost: the earlier-ranked holder stands, so the
                    // cost-blind and cost-aware paths pick identically.
                    continue;
                }
                let projected = load.get(&r.egress).copied().unwrap_or(0.0) + mbps;
                let limit = limit_of(r.egress);
                if projected <= limit {
                    target = Some(*r);
                    if !cfg.cost_aware {
                        break;
                    }
                    continue;
                }
                rejected.push(RejectedAlternative {
                    egress: Some(r.egress),
                    kind: Some(r.source.kind.label().to_string()),
                    reason: RejectReason::NoSpareCapacity {
                        projected_mbps: projected,
                        limit_mbps: limit,
                    },
                });
            }
            let Some(target) = target else {
                if rejected.is_empty() {
                    rejected.push(RejectedAlternative {
                        egress: None,
                        kind: None,
                        reason: RejectReason::NoRoute,
                    });
                }
                explains.push(explain(rejected, None, ExplainVerdict::NoFeasibleAlternate));
                // Nowhere to put the whole unit: try its halves.
                if depth > 0 {
                    if let Some((lo, hi)) = unit.halves() {
                        worklist.push_half((lo, mbps / 2.0, lookup, depth - 1));
                        worklist.push_half((hi, mbps / 2.0, lookup, depth - 1));
                    }
                }
                continue;
            };
            explains.push(explain(rejected, Some(&target), ExplainVerdict::Emitted));
            *load.entry(*hot).or_default() -= mbps;
            *load.entry(target.egress).or_default() += mbps;
            capacity_detoured += mbps;
            overrides.insert(Override {
                prefix: unit,
                target: target.egress,
                target_kind: target.source.kind,
                reason: OverrideReason::Capacity,
                moved_mbps: mbps,
            });
        }
    }

    let residual_overloaded = overloaded_worst_first(&load);

    AllocationOutcome {
        overrides,
        overloaded_before,
        residual_overloaded,
        post_load: load,
        capacity_detoured_mbps: capacity_detoured,
        explains,
    }
}

/// One unit the allocator tries to detour: `(steer-unit prefix, demand
/// Mbps, route-lookup prefix, remaining split depth)`. A victim is its own
/// lookup prefix; a split half (paper §7 future work) is a more-specific
/// unit whose alternates come from the *parent's* route set.
pub type SteerUnit = (Prefix, f64, Prefix, u8);

/// One victim's place in the strategy order: preference gap ascending,
/// then demand descending, then prefix ascending. A total order, so the
/// heap pops exactly what a full sort under this key would list.
#[derive(Debug)]
struct VictimKey {
    gap: PrefGap,
    mbps: f64,
    prefix: Prefix,
}

impl Ord for VictimKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gap
            .cmp(&other.gap)
            .then(other.mbps.total_cmp(&self.mbps))
            .then(self.prefix.cmp(&other.prefix))
    }
}

impl PartialOrd for VictimKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for VictimKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for VictimKey {}

/// A hot interface's worklist: its victims in strategy order, popped
/// lazily from a heap (a pass stops once the interface is relieved, after
/// a few of them), then the split halves in the order they were queued.
///
/// Best-alternative-first orders victims by [`PrefGap`] ascending, larger
/// demand first among equal gaps; largest-first by demand alone. Prefix
/// order breaks the remaining ties.
#[derive(Debug)]
pub struct VictimQueue {
    victims: BinaryHeap<Reverse<VictimKey>>,
    /// Split depth every victim starts with.
    depth: u8,
    halves: VecDeque<SteerUnit>,
}

impl VictimQueue {
    /// Queues `(prefix, demand_mbps, gap)` victims (distinct prefixes) for
    /// `strategy`, each allowed `split_depth` halvings.
    pub fn new(
        strategy: DetourStrategy,
        victims: Vec<(Prefix, f64, PrefGap)>,
        split_depth: u8,
    ) -> Self {
        let keys = victims.into_iter().map(|(prefix, mbps, gap)| {
            let gap = match strategy {
                DetourStrategy::BestAlternativeFirst => gap,
                DetourStrategy::LargestFirst => PrefGap::NONE,
            };
            Reverse(VictimKey { gap, mbps, prefix })
        });
        VictimQueue {
            victims: keys.collect(),
            depth: split_depth,
            halves: VecDeque::new(),
        }
    }

    /// Queues a split half behind every victim and every earlier half.
    pub fn push_half(&mut self, half: SteerUnit) {
        self.halves.push_back(half);
    }

    /// The next unit to try: the first victim left in strategy order, or
    /// once none is left, the oldest queued half.
    pub fn pop(&mut self) -> Option<SteerUnit> {
        match self.victims.pop() {
            Some(Reverse(v)) => Some((v.prefix, v.mbps, v.prefix, self.depth)),
            None => self.halves.pop_front(),
        }
    }
}

/// `prefix`'s preference gap read from the ranked candidates: the debug
/// build's reference for the memoized gap [`allocate`] keys victims by.
fn ranked_gap(
    routes: &RouteCollector,
    prefix: &Prefix,
    hot: EgressId,
    scratch: &mut Vec<RouteRec>,
) -> PrefGap {
    routes.ranked_into(prefix, scratch);
    match scratch.iter().find(|r| !r.is_override()) {
        Some(best) => PrefGap::between(
            best.effective_local_pref(),
            (scratch.iter())
                .find(|r| !r.is_override() && r.egress != hot)
                .map(|r| r.effective_local_pref()),
        ),
        None => PrefGap::NONE,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::projection::project;
    use crate::state::InterfaceInfo;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::message::UpdateMessage;
    use ef_bgp::peer::{PeerId, PeerKind};
    use ef_bgp::{BmpMessage, BmpPeerHeader, EgressSpec};
    use ef_net_types::Asn;

    pub(crate) fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Builds a collector over typed egress specs (peer id = egress id, the
    /// tuple sites' old convention).
    pub(crate) fn collector(specs: &[EgressSpec]) -> RouteCollector {
        RouteCollector::new(
            specs
                .iter()
                .map(|s| (PeerId(s.egress.0 as u64), s.egress))
                .collect(),
        )
    }

    /// Announces `prefix` from the spec's peer with the derived kind's
    /// LOCAL_PREF band and tag community — the typed replacement for the
    /// old `(peer, asn, kind)` tuple announce helper.
    pub(crate) fn announce(c: &mut RouteCollector, spec: EgressSpec, prefix: &str) {
        announce_with_pref(c, spec, prefix, spec.kind().default_local_pref());
    }

    /// [`announce`] with an explicit LOCAL_PREF in place of the kind's band.
    fn announce_with_pref(c: &mut RouteCollector, spec: EgressSpec, prefix: &str, pref: u32) {
        let mut attrs = PathAttributes {
            local_pref: Some(pref),
            as_path: AsPath::sequence([spec.asn]),
            ..Default::default()
        };
        attrs.add_community(spec.kind().tag_community());
        ingest(c, PeerId(spec.egress.0 as u64), spec.asn, attrs, prefix);
    }

    /// Ingests the controller's own echo of an override onto `target`, as
    /// the router's BMP feed reports an injected route.
    pub(crate) fn announce_override(c: &mut RouteCollector, target: EgressId, prefix: &str) {
        let kind = PeerKind::Controller;
        let mut attrs = PathAttributes {
            local_pref: Some(kind.default_local_pref()),
            next_hop: Some(target.to_next_hop().unwrap()),
            ..Default::default()
        };
        attrs.add_community(kind.tag_community());
        ingest(c, PeerId(100), Asn::LOCAL, attrs, prefix);
    }

    fn ingest(c: &mut RouteCollector, peer: PeerId, asn: Asn, attrs: PathAttributes, prefix: &str) {
        c.ingest([BmpMessage::RouteMonitoring {
            peer: BmpPeerHeader {
                peer,
                peer_asn: asn,
                peer_bgp_id: "10.0.0.1".parse().unwrap(),
                timestamp_ms: 0,
            },
            update: UpdateMessage::announce(p(prefix), attrs),
        }]);
    }

    pub(crate) fn interface_map(entries: &[(EgressSpec, f64)]) -> InterfaceMap {
        entries
            .iter()
            .map(|(spec, cap)| {
                (
                    spec.egress,
                    InterfaceInfo {
                        capacity_mbps: *cap,
                        policy: spec.policy(),
                    },
                )
            })
            .collect()
    }

    /// Builds a collector with a private peer (egress 1), a public peer
    /// (egress 2), and a transit (egress 3), all announcing `prefixes`.
    fn standard_world(prefixes: &[&str]) -> (RouteCollector, InterfaceMap) {
        let specs = [
            EgressSpec::pni(1, 65001),
            EgressSpec::settlement_free(2, 65002),
            EgressSpec::transit(3, 65010),
        ];
        let mut c = collector(&specs);
        for prefix in prefixes {
            for spec in specs {
                announce(&mut c, spec, prefix);
            }
        }
        let interfaces =
            interface_map(&[(specs[0], 100.0), (specs[1], 100.0), (specs[2], 100_000.0)]);
        (c, interfaces)
    }

    fn run(
        cfg: &ControllerConfig,
        c: &RouteCollector,
        interfaces: &InterfaceMap,
        traffic: &HashMap<Prefix, f64>,
    ) -> AllocationOutcome {
        let proj = project(c, traffic);
        allocate(
            cfg,
            interfaces,
            c,
            traffic,
            &proj,
            &OverrideSet::new(),
            &OverrideSet::new(),
        )
    }

    #[test]
    fn no_overload_no_overrides() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0)]);
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        assert!(out.overrides.is_empty());
        assert!(out.overloaded_before.is_empty());
        assert!(out.residual_overloaded.is_empty());
        assert_eq!(out.capacity_detoured_mbps, 0.0);
    }

    #[test]
    fn overload_is_relieved_to_next_preferred() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        // Both prefer egress 1 (private, 100 Mbps): 80 + 60 = 140 Mbps.
        let traffic = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 60.0)]);
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        assert_eq!(out.overloaded_before.len(), 1);
        assert_eq!(out.overloaded_before[0].0, EgressId(1));
        assert_eq!(out.overrides.len(), 1, "one detour suffices");
        let o = out.overrides.iter_sorted()[0];
        // Next-preferred is the public peer (egress 2), which fits.
        assert_eq!(o.target, EgressId(2));
        assert_eq!(o.target_kind, PeerKind::PublicPeer);
        assert!(out.residual_overloaded.is_empty());
        // Post-load respects the limit on every interface.
        for (e, info) in &ifaces {
            let u = out.post_load.get(e).copied().unwrap_or(0.0) / info.capacity_mbps;
            assert!(u <= 0.95 + 1e-9, "{e} at {u} (cap {})", info.capacity_mbps);
        }
    }

    #[test]
    fn detour_skips_full_intermediate_and_lands_on_transit() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"]);
        // 1.0/2.0 fill private (egress 1); 3.0 pins public (egress 2) near
        // its limit so the detour must skip to transit.
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 90.0),
            (p("2.0.0.0/24"), 60.0),
            (p("3.0.0.0/24"), 90.0),
        ]);
        // 3.0.0.0/24 prefers private too... need it on public. Instead,
        // shrink public capacity so nothing fits there.
        let mut ifaces = ifaces;
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 10.0;
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        // All three prefixes preferred egress 1 (240 Mbps on 100). The
        // allocator must shed to transit since public can't take anything.
        assert!(!out.overrides.is_empty());
        for o in out.overrides.iter_sorted() {
            assert_eq!(o.target, EgressId(3), "public is full, use transit");
            assert_eq!(o.target_kind, PeerKind::Transit);
        }
        assert!(out.residual_overloaded.is_empty());
    }

    #[test]
    fn detours_never_overload_their_target() {
        let (c, mut ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"]);
        // Make even transit small: not everything can be placed.
        ifaces.get_mut(&EgressId(3)).unwrap().capacity_mbps = 60.0;
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 60.0;
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 90.0),
            (p("2.0.0.0/24"), 80.0),
            (p("3.0.0.0/24"), 70.0),
        ]);
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        // Whatever happened, no *target* may exceed the limit; the hot
        // interface itself may stay overloaded (reported as residual).
        for (e, info) in &ifaces {
            if *e == EgressId(1) {
                continue;
            }
            let u = out.post_load.get(e).copied().unwrap_or(0.0) / info.capacity_mbps;
            assert!(u <= 0.95 + 1e-9, "target {e} overloaded to {u}");
        }
        assert!(
            out.residual_overloaded
                .iter()
                .any(|(e, _)| *e == EgressId(1)),
            "unplaceable overload is reported, not hidden"
        );
    }

    #[test]
    fn largest_first_moves_fewer_prefixes() {
        let prefixes = ["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24", "4.0.0.0/24"];
        let (c, ifaces) = standard_world(&prefixes);
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 70.0),
            (p("2.0.0.0/24"), 40.0),
            (p("3.0.0.0/24"), 10.0),
            (p("4.0.0.0/24"), 10.0),
        ]);
        let largest = run(
            &ControllerConfig {
                strategy: DetourStrategy::LargestFirst,
                ..Default::default()
            },
            &c,
            &ifaces,
            &traffic,
        );
        // 130 total on 100-cap: moving the 70 clears it in one override.
        assert_eq!(largest.overrides.len(), 1);
        assert_eq!(largest.overrides.iter_sorted()[0].prefix, p("1.0.0.0/24"));
    }

    #[test]
    fn perf_overrides_are_honored_and_charged() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0), (p("2.0.0.0/24"), 50.0)]);
        // Performance override steers 1.0/24 to transit already.
        let mut perf = OverrideSet::new();
        perf.insert(Override {
            prefix: p("1.0.0.0/24"),
            target: EgressId(3),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Performance,
            moved_mbps: 0.0,
        });
        let proj = project(&c, &traffic);
        let out = allocate(
            &ControllerConfig::default(),
            &ifaces,
            &c,
            &traffic,
            &proj,
            &perf,
            &OverrideSet::new(),
        );
        // 100 Mbps total would overload nothing once 1.0/24 sits on transit.
        assert!(out.overloaded_before.is_empty());
        let o = out.overrides.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(o.reason, OverrideReason::Performance);
        assert_eq!(o.moved_mbps, 50.0, "demand charged to the perf override");
        assert_eq!(out.post_load[&EgressId(3)], 50.0);
        assert_eq!(out.post_load[&EgressId(1)], 50.0);
    }

    /// A prefix a performance override already steers stays a victim of
    /// its projected (hot) interface, and sorts first there, but is never
    /// re-steered for capacity: the next victim relieves the interface.
    #[test]
    fn owned_victims_are_skipped_on_a_hot_interface() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"]);
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 70.0),
            (p("2.0.0.0/24"), 50.0),
            (p("3.0.0.0/24"), 50.0),
        ]);
        let mut perf = OverrideSet::new();
        perf.insert(Override {
            prefix: p("1.0.0.0/24"),
            target: EgressId(3),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Performance,
            moved_mbps: 0.0,
        });
        let proj = project(&c, &traffic);
        let out = allocate(
            &ControllerConfig::default(),
            &ifaces,
            &c,
            &traffic,
            &proj,
            &perf,
            &OverrideSet::new(),
        );
        // 100 Mbps stays on the 100 Mbps PNI once the perf override is
        // charged: hot, with the owned 70 Mbps prefix its largest victim.
        assert_eq!(out.overloaded_before.len(), 1);
        let owned = out.overrides.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(owned.reason, OverrideReason::Performance);
        assert_eq!(owned.target, EgressId(3));
        let capacity: Vec<&Override> = (out.overrides.iter_sorted().into_iter())
            .filter(|o| o.reason == OverrideReason::Capacity)
            .collect();
        assert_eq!(capacity.len(), 1, "{capacity:?}");
        assert_eq!(capacity[0].prefix, p("2.0.0.0/24"));
        assert_eq!(out.post_load[&EgressId(1)], 50.0);
    }

    #[test]
    fn splitting_places_a_half_when_whole_prefix_fits_nowhere() {
        // A single 120 Mbps prefix overloads the 100 Mbps PNI; the
        // alternates have only 65 Mbps each, so the whole prefix fits
        // nowhere — but half of it (60) does, and moving one half already
        // brings the PNI under its limit.
        let (c, mut ifaces) = standard_world(&["1.0.0.0/24"]);
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 65.0; // limit 61.75
        ifaces.get_mut(&EgressId(3)).unwrap().capacity_mbps = 65.0;
        let traffic = HashMap::from([(p("1.0.0.0/24"), 120.0)]);

        // Without splitting: stuck.
        let no_split = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        assert!(no_split.overrides.is_empty());
        assert!(
            !no_split.residual_overloaded.is_empty(),
            "whole-prefix allocator is stuck"
        );

        // With splitting: one /25 moves, the PNI is relieved.
        let cfg = ControllerConfig {
            split_depth: 1,
            ..Default::default()
        };
        let split = run(&cfg, &c, &ifaces, &traffic);
        assert!(
            split.residual_overloaded.is_empty(),
            "splitting relieves the overload: {:?}",
            split.residual_overloaded
        );
        let halves: Vec<&Override> = split
            .overrides
            .iter_sorted()
            .into_iter()
            .filter(|o| o.prefix.len() == 25)
            .collect();
        assert_eq!(halves.len(), 1, "one /25 override suffices");
        assert!(p("1.0.0.0/24").contains(&halves[0].prefix));
        assert_eq!(halves[0].moved_mbps, 60.0);
        // The target respects its limit.
        let post = split.post_load[&halves[0].target];
        assert!(post <= 61.75 + 1e-9);
    }

    #[test]
    fn splitting_disabled_by_default() {
        let cfg = ControllerConfig::default();
        assert_eq!(cfg.split_depth, 0);
        let bad = ControllerConfig {
            split_depth: 2,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hysteresis_keeps_override_in_the_band_and_drops_it_below() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let cfg = ControllerConfig {
            withdraw_hysteresis: 0.10, // keep while util > 0.85
            ..Default::default()
        };

        // Epoch 1: 150 Mbps overloads the 100 Mbps PNI → one override.
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let proj = project(&c, &peak);
        let first = allocate(
            &cfg,
            &ifaces,
            &c,
            &peak,
            &proj,
            &OverrideSet::new(),
            &OverrideSet::new(),
        );
        assert_eq!(first.overrides.len(), 1);

        // Epoch 2: demand eases to 90 Mbps total — under the 95 limit but
        // inside the hysteresis band (>85): the override must persist.
        let band = HashMap::from([(p("1.0.0.0/24"), 50.0), (p("2.0.0.0/24"), 40.0)]);
        let proj = project(&c, &band);
        let second = allocate(
            &cfg,
            &ifaces,
            &c,
            &band,
            &proj,
            &OverrideSet::new(),
            &first.overrides,
        );
        assert_eq!(second.overrides.len(), 1, "kept inside the band");
        assert_eq!(
            second.overrides.iter_sorted()[0].prefix,
            first.overrides.iter_sorted()[0].prefix
        );

        // Epoch 3: demand falls to 60 Mbps — below the band: withdrawn.
        let quiet = HashMap::from([(p("1.0.0.0/24"), 35.0), (p("2.0.0.0/24"), 25.0)]);
        let proj = project(&c, &quiet);
        let third = allocate(
            &cfg,
            &ifaces,
            &c,
            &quiet,
            &proj,
            &OverrideSet::new(),
            &second.overrides,
        );
        assert!(third.overrides.is_empty(), "dropped below the band");

        // Without hysteresis the epoch-2 override would have been dropped.
        let proj = project(&c, &band);
        let stateless = allocate(
            &ControllerConfig::default(),
            &ifaces,
            &c,
            &band,
            &proj,
            &OverrideSet::new(),
            &first.overrides,
        );
        assert!(stateless.overrides.is_empty());
    }

    #[test]
    fn hysteresis_does_not_keep_overrides_onto_dead_routes() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24"]);
        let cfg = ControllerConfig {
            withdraw_hysteresis: 0.10,
            ..Default::default()
        };
        // Previous override points at an egress with no route.
        let mut previous = OverrideSet::new();
        previous.insert(Override {
            prefix: p("1.0.0.0/24"),
            target: EgressId(77),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Capacity,
            moved_mbps: 50.0,
        });
        let traffic = HashMap::from([(p("1.0.0.0/24"), 92.0)]);
        let proj = project(&c, &traffic);
        let out = allocate(
            &cfg,
            &ifaces,
            &c,
            &traffic,
            &proj,
            &OverrideSet::new(),
            &previous,
        );
        assert!(
            out.overrides.get(&p("1.0.0.0/24")).map(|o| o.target) != Some(EgressId(77)),
            "stale override not retained"
        );
    }

    /// A standing capacity override onto `target` for 1.0.0.0/24, whose
    /// source (the PNI, egress 1) projects 90 of its 100 Mbps: inside the
    /// 10 % hysteresis band, so only the target's checks can drop it.
    fn hysteresis_in_band(
        c: &RouteCollector,
        ifaces: &InterfaceMap,
        target: EgressId,
    ) -> AllocationOutcome {
        let cfg = ControllerConfig {
            withdraw_hysteresis: 0.10,
            ..Default::default()
        };
        let mut previous = OverrideSet::new();
        previous.insert(Override {
            prefix: p("1.0.0.0/24"),
            target,
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Capacity,
            moved_mbps: 50.0,
        });
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0), (p("2.0.0.0/24"), 40.0)]);
        let proj = project(c, &traffic);
        allocate(
            &cfg,
            ifaces,
            c,
            &traffic,
            &proj,
            &OverrideSet::new(),
            &previous,
        )
    }

    #[test]
    fn hysteresis_keeps_overrides_only_onto_organic_routes() {
        // The transit's organic route for 1.0.0.0/24 is gone; only the
        // controller's own echo of the standing override remains there.
        let specs = [EgressSpec::pni(1, 65001), EgressSpec::transit(3, 65010)];
        let mut c = collector(&specs);
        for prefix in ["1.0.0.0/24", "2.0.0.0/24"] {
            announce(&mut c, specs[0], prefix);
        }
        announce(&mut c, specs[1], "2.0.0.0/24");
        announce_override(&mut c, EgressId(3), "1.0.0.0/24");
        let ifaces = interface_map(&[(specs[0], 100.0), (specs[1], 100_000.0)]);
        let out = hysteresis_in_band(&c, &ifaces, EgressId(3));
        assert!(out.overrides.is_empty(), "{:?}", out.overrides);

        // With the organic route back, the same override is kept.
        announce(&mut c, specs[1], "1.0.0.0/24");
        let out = hysteresis_in_band(&c, &ifaces, EgressId(3));
        let kept = out.overrides.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(kept.target_kind, PeerKind::Transit);
    }

    #[test]
    fn hysteresis_drops_an_override_whose_target_has_no_room() {
        let (c, mut ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        // The public peer's limit (38 Mbps) cannot take the 50 Mbps prefix.
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 40.0;
        let out = hysteresis_in_band(&c, &ifaces, EgressId(2));
        assert!(out.overrides.is_empty(), "{:?}", out.overrides);
        assert!(out.post_load.get(&EgressId(2)).copied().unwrap_or(0.0) <= 38.0);

        // With room on the target, the same override is kept.
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 100.0;
        let out = hysteresis_in_band(&c, &ifaces, EgressId(2));
        assert!(out.overrides.contains(&p("1.0.0.0/24")));
    }

    #[test]
    fn explains_cover_every_override_and_record_rejections() {
        let (c, mut ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"]);
        // Public (egress 2) can take nothing: every detour must record a
        // no-spare-capacity rejection for it before landing on transit.
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 10.0;
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 90.0),
            (p("2.0.0.0/24"), 60.0),
            (p("3.0.0.0/24"), 90.0),
        ]);
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        assert!(!out.overrides.is_empty());
        for o in out.overrides.iter_sorted() {
            let rec = out
                .explains
                .iter()
                .find(|e| e.prefix == o.prefix && e.emitted())
                .expect("every override has an emitted explain");
            assert_eq!(rec.chosen_egress, Some(o.target));
            assert_eq!(rec.trigger, "capacity");
            assert_eq!(rec.hot_egress, Some(EgressId(1)));
            assert!(rec.hot_util > 0.95, "decision made while hot");
            assert!(
                rec.rejected.iter().any(|r| r.egress == Some(EgressId(2))
                    && matches!(r.reason, RejectReason::NoSpareCapacity { .. })),
                "the full public peer shows up in the rejection trail: {rec:?}"
            );
        }
    }

    #[test]
    fn explains_record_budget_and_infeasible_verdicts() {
        let (c, mut ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        // Neither alternate can take a 90 Mbps prefix.
        ifaces.get_mut(&EgressId(2)).unwrap().capacity_mbps = 50.0;
        ifaces.get_mut(&EgressId(3)).unwrap().capacity_mbps = 50.0;
        let traffic = HashMap::from([(p("1.0.0.0/24"), 90.0), (p("2.0.0.0/24"), 90.0)]);
        let out = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        assert!(out.overrides.is_empty());
        for e in &out.explains {
            assert_eq!(e.verdict, ExplainVerdict::NoFeasibleAlternate, "{e:?}");
            assert!(
                e.rejected
                    .iter()
                    .all(|r| matches!(r.reason, RejectReason::NoSpareCapacity { .. })),
                "{e:?}"
            );
        }
        assert_eq!(out.explains.len(), 2, "one record per considered victim");
    }

    #[test]
    fn perf_and_hysteresis_decisions_are_explained() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0), (p("2.0.0.0/24"), 50.0)]);
        let mut perf = OverrideSet::new();
        perf.insert(Override {
            prefix: p("1.0.0.0/24"),
            target: EgressId(3),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Performance,
            moved_mbps: 0.0,
        });
        let proj = project(&c, &traffic);
        let out = allocate(
            &ControllerConfig::default(),
            &ifaces,
            &c,
            &traffic,
            &proj,
            &perf,
            &OverrideSet::new(),
        );
        let rec = &out.explains[0];
        assert_eq!(rec.trigger, "performance");
        assert_eq!(rec.chosen_egress, Some(EgressId(3)));
        assert!(rec.emitted());
    }

    #[test]
    fn best_alternative_first_prefers_close_alternates() {
        // Prefix A's only alternate is transit (rank distance large);
        // prefix B has a public alternate (rank distance 1). With the
        // BestAlternativeFirst strategy and both equally sized, B moves.
        let pni = EgressSpec::pni(1, 65001);
        let public = EgressSpec::settlement_free(2, 65002);
        let transit = EgressSpec::transit(3, 65010);
        let mut c = collector(&[pni, public, transit]);
        // Both prefixes on private; only B has the public alternate.
        announce(&mut c, pni, "10.0.0.0/24"); // A
        announce(&mut c, transit, "10.0.0.0/24");
        announce(&mut c, pni, "11.0.0.0/24"); // B
        announce(&mut c, public, "11.0.0.0/24");
        announce(&mut c, transit, "11.0.0.0/24");

        let interfaces = interface_map(&[(pni, 100.0), (public, 1000.0), (transit, 100_000.0)]);
        let traffic = HashMap::from([(p("10.0.0.0/24"), 60.0), (p("11.0.0.0/24"), 60.0)]);
        let out = run(&ControllerConfig::default(), &c, &interfaces, &traffic);
        assert_eq!(out.overrides.len(), 1);
        let o = out.overrides.iter_sorted()[0];
        assert_eq!(o.prefix, p("11.0.0.0/24"), "B has the closer alternate");
        assert_eq!(o.target, EgressId(2));
    }

    /// Two transit alternates in the same preference band, priced apart:
    /// cost-aware steering must take the cheap one (with provenance), and
    /// the cost-blind default must keep taking the first in rank order.
    #[test]
    fn cost_tiebreak_picks_cheapest_in_band() {
        let pni = EgressSpec::pni(1, 65001);
        let expensive = EgressSpec::transit(3, 65010).usd_per_mbps(3.0);
        let cheap = EgressSpec::transit(4, 65011).usd_per_mbps(0.5);
        let specs = [pni, expensive, cheap];
        let mut c = collector(&specs);
        for spec in specs {
            announce(&mut c, spec, "1.0.0.0/24");
            announce(&mut c, spec, "2.0.0.0/24");
        }
        let interfaces = interface_map(&[(pni, 100.0), (expensive, 100_000.0), (cheap, 100_000.0)]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 60.0)]);

        // Cost-blind: first transit in rank order wins (lower egress id).
        let blind = run(&ControllerConfig::default(), &c, &interfaces, &traffic);
        assert_eq!(blind.overrides.len(), 1);
        assert_eq!(blind.overrides.iter_sorted()[0].target, EgressId(3));

        // Cost-aware: the cheap transit wins, and the explain trail shows
        // the expensive one rejected as a costlier alternate.
        let cfg = ControllerConfig {
            cost_aware: true,
            ..Default::default()
        };
        let aware = run(&cfg, &c, &interfaces, &traffic);
        assert_eq!(aware.overrides.len(), 1);
        let o = aware.overrides.iter_sorted()[0];
        assert_eq!(o.target, EgressId(4), "cheapest same-band alternate");
        let rec = aware
            .explains
            .iter()
            .find(|e| e.emitted() && e.trigger == "capacity")
            .unwrap();
        assert_eq!(rec.chosen_egress, Some(EgressId(4)));
        assert_eq!(rec.chosen_usd_per_mbps, Some(0.5));
        assert!(
            rec.rejected.iter().any(|r| r.egress == Some(EgressId(3))
                && matches!(
                    r.reason,
                    RejectReason::CostlierAlternate {
                        usd_per_mbps: 3.0,
                        chosen_usd_per_mbps: 0.5
                    }
                )),
            "{rec:?}"
        );
    }

    /// The cost tiebreak is strictly a tiebreak: it never crosses into a
    /// cheaper-but-lower preference band, and it never picks a same-band
    /// alternate that lacks spare capacity.
    #[test]
    fn cost_tiebreak_never_overrides_preference_or_capacity() {
        // World: hot PNI; a free public alternate (higher band) and a cheap
        // transit (lower band). Cost-aware must still take the public peer
        // even though transit's marginal price is irrelevant — band first.
        let pni = EgressSpec::pni(1, 65001);
        let public = EgressSpec::settlement_free(2, 65002);
        let cheap_transit = EgressSpec::transit(3, 65010).usd_per_mbps(0.01);
        let specs = [pni, public, cheap_transit];
        let mut c = collector(&specs);
        for spec in specs {
            announce(&mut c, spec, "1.0.0.0/24");
        }
        let cfg = ControllerConfig {
            cost_aware: true,
            ..Default::default()
        };
        let interfaces =
            interface_map(&[(pni, 50.0), (public, 1000.0), (cheap_transit, 100_000.0)]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 80.0)]);
        let out = run(&cfg, &c, &interfaces, &traffic);
        assert_eq!(out.overrides.len(), 1);
        assert_eq!(
            out.overrides.iter_sorted()[0].target,
            EgressId(2),
            "band beats price: the settlement-free peer wins"
        );

        // Now pin the cheap transit at capacity: the tiebreak may not
        // relax the capacity check to reach it.
        let expensive = EgressSpec::transit(4, 65011).usd_per_mbps(3.0);
        let specs = [pni, cheap_transit, expensive];
        let mut c = collector(&specs);
        for spec in specs {
            announce(&mut c, spec, "1.0.0.0/24");
            announce(&mut c, spec, "9.0.0.0/24");
        }
        let interfaces =
            interface_map(&[(pni, 50.0), (cheap_transit, 100.0), (expensive, 100_000.0)]);
        // 9.0/24 pins the cheap transit near its limit; 1.0/24 overloads
        // the PNI and must detour to the *expensive* transit.
        let traffic = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("9.0.0.0/24"), 90.0)]);
        let out = run(&cfg, &c, &interfaces, &traffic);
        let o = out.overrides.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(
            o.target,
            EgressId(4),
            "full cheap transit is infeasible; cost never overrides capacity"
        );
        // And the full one is in the trail as capacity-rejected, not cost-rejected.
        let rec = out
            .explains
            .iter()
            .find(|e| e.prefix == p("1.0.0.0/24") && e.emitted())
            .unwrap();
        assert!(rec.rejected.iter().any(|r| r.egress == Some(EgressId(3))
            && matches!(r.reason, RejectReason::NoSpareCapacity { .. })));
    }

    /// The cost tiebreak stays inside the first feasible LOCAL_PREF band
    /// even between two transits: a cheaper transit one band lower never
    /// displaces the costlier one above it.
    #[test]
    fn cost_tiebreak_stays_in_the_first_feasible_band() {
        let pni = EgressSpec::pni(1, 65001);
        let preferred = EgressSpec::transit(3, 65010).usd_per_mbps(3.0);
        let cheap = EgressSpec::transit(4, 65011).usd_per_mbps(0.5);
        let mut c = collector(&[pni, preferred, cheap]);
        announce(&mut c, pni, "1.0.0.0/24");
        let transit_pref = PeerKind::Transit.default_local_pref();
        announce_with_pref(&mut c, preferred, "1.0.0.0/24", transit_pref + 10);
        announce(&mut c, cheap, "1.0.0.0/24");
        let interfaces = interface_map(&[(pni, 50.0), (preferred, 100_000.0), (cheap, 100_000.0)]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 80.0)]);
        let cfg = ControllerConfig {
            cost_aware: true,
            ..Default::default()
        };
        let out = run(&cfg, &c, &interfaces, &traffic);
        let o = out.overrides.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(o.target, EgressId(3), "band beats price between transits");
        let rec = out.explains.iter().find(|e| e.emitted()).unwrap();
        assert!(rec.rejected.is_empty(), "{rec:?}");
    }

    /// With uniform prices (the default cost model), cost-aware and
    /// cost-blind allocation are identical — the tiebreak only acts on
    /// real price asymmetry.
    #[test]
    fn uniform_prices_make_cost_aware_a_noop() {
        let (c, ifaces) = standard_world(&["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"]);
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 90.0),
            (p("2.0.0.0/24"), 60.0),
            (p("3.0.0.0/24"), 90.0),
        ]);
        let blind = run(&ControllerConfig::default(), &c, &ifaces, &traffic);
        let aware = run(
            &ControllerConfig {
                cost_aware: true,
                ..Default::default()
            },
            &c,
            &ifaces,
            &traffic,
        );
        assert_eq!(blind.overrides, aware.overrides);
        assert_eq!(blind.post_load, aware.post_load);
    }
}
