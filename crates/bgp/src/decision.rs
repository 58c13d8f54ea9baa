//! The BGP best-path decision process (RFC 4271 §9.1 plus the universal
//! vendor tie-breakers).
//!
//! Edge Fabric's override mechanism depends on this ladder: the controller
//! injects a route whose `LOCAL_PREF` tops every organic route, so step 1
//! selects it and the router detours the prefix — no SDN dataplane required.
//! Because the reproduction runs the genuine ladder, experiments exercising
//! overrides validate the real mechanism, including subtle cases like MED
//! comparability.
//!
//! The router, the controller and the simulator run the `*_rec*` functions
//! over compact interned records. [`compare`], [`best_route`] and
//! [`rank_routes`] read the attributes of fat [`Route`]s directly; they
//! remain as the reference model of `tests/rib_churn_equivalence.rs`,
//! nothing else.

use std::cmp::Ordering;

use crate::attrstore::RouteRec;
use crate::route::Route;

/// Why one route beat another — returned by [`compare`] for observability
/// and asserted on in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionStep {
    /// Higher LOCAL_PREF wins.
    LocalPref,
    /// Shorter AS path wins.
    AsPathLength,
    /// Lower origin code wins (IGP < EGP < INCOMPLETE).
    Origin,
    /// Lower MED wins (only among routes from the same neighbor AS).
    Med,
    /// Lower peer id wins (deterministic surrogate for the router-id and
    /// peer-address tie-breakers).
    PeerId,
    /// Routes compared equal on every step.
    Tie,
}

/// Compares two candidate routes for the same prefix.
///
/// Returns `(ordering, step)` where `ordering` is `Greater` if `a` is
/// preferred over `b`, and `step` names the first ladder rung that decided.
pub fn compare(a: &Route, b: &Route) -> (Ordering, DecisionStep) {
    // 1. Highest LOCAL_PREF.
    let lp = a
        .attrs
        .effective_local_pref()
        .cmp(&b.attrs.effective_local_pref());
    if lp != Ordering::Equal {
        return (lp, DecisionStep::LocalPref);
    }

    // 2. Shortest AS path (sets count once).
    let len = b
        .attrs
        .as_path
        .decision_len()
        .cmp(&a.attrs.as_path.decision_len());
    if len != Ordering::Equal {
        return (len, DecisionStep::AsPathLength);
    }

    // 3. Lowest origin code.
    let origin = b.attrs.origin.cmp(&a.attrs.origin);
    if origin != Ordering::Equal {
        return (origin, DecisionStep::Origin);
    }

    // 4. Lowest MED, only when the neighbor AS matches (RFC 4271 §9.1.2.2 c).
    if a.attrs.as_path.neighbor_as().is_some()
        && a.attrs.as_path.neighbor_as() == b.attrs.as_path.neighbor_as()
    {
        let med = b.attrs.effective_med().cmp(&a.attrs.effective_med());
        if med != Ordering::Equal {
            return (med, DecisionStep::Med);
        }
    }

    // 5. (eBGP-over-iBGP and IGP-cost rungs collapse: every session in the
    //    model is eBGP from the PoP's perspective and IGP cost to any local
    //    egress is uniform.)

    // 6. Deterministic final tie-break: lowest peer id.
    let peer = b.source.peer.cmp(&a.source.peer);
    if peer != Ordering::Equal {
        return (peer, DecisionStep::PeerId);
    }

    (Ordering::Equal, DecisionStep::Tie)
}

/// Selects the best route among candidates for one prefix.
///
/// Returns `None` for an empty slice. The result is the unique maximum under
/// [`compare`]; ties (identical peer) resolve to the first listed.
pub fn best_route<'a>(candidates: &'a [Route]) -> Option<&'a Route> {
    let mut best: Option<&'a Route> = None;
    for r in candidates {
        match best {
            None => best = Some(r),
            Some(b) => {
                if compare(r, b).0 == Ordering::Greater {
                    best = Some(r);
                }
            }
        }
    }
    best
}

/// Compares two compact route records for the same prefix.
///
/// Field-for-field the same ladder as [`compare`], but reading the
/// precomputed [`DecisionKey`](crate::attrstore::DecisionKey) — no heap
/// access, no effective-value recomputation. The equivalence is enforced by
/// the interned-RIB proptest suite.
pub fn compare_recs(a: &RouteRec, b: &RouteRec) -> (Ordering, DecisionStep) {
    // 1. Highest LOCAL_PREF.
    let lp = a.key.local_pref.cmp(&b.key.local_pref);
    if lp != Ordering::Equal {
        return (lp, DecisionStep::LocalPref);
    }

    // 2. Shortest AS path (sets count once).
    let len = b.key.path_len.cmp(&a.key.path_len);
    if len != Ordering::Equal {
        return (len, DecisionStep::AsPathLength);
    }

    // 3. Lowest origin code.
    let origin = b.key.origin.cmp(&a.key.origin);
    if origin != Ordering::Equal {
        return (origin, DecisionStep::Origin);
    }

    // 4. Lowest MED, only when the neighbor AS matches (RFC 4271 §9.1.2.2 c).
    if a.key.neighbor_as.is_some() && a.key.neighbor_as == b.key.neighbor_as {
        let med = b.key.med.cmp(&a.key.med);
        if med != Ordering::Equal {
            return (med, DecisionStep::Med);
        }
    }

    // 6. Deterministic final tie-break: lowest peer id.
    let peer = b.source.peer.cmp(&a.source.peer);
    if peer != Ordering::Equal {
        return (peer, DecisionStep::PeerId);
    }

    (Ordering::Equal, DecisionStep::Tie)
}

/// Selects the best record among candidates for one prefix; ties resolve to
/// the first listed, matching [`best_route`].
pub fn best_rec<'a>(candidates: &'a [RouteRec]) -> Option<&'a RouteRec> {
    let mut best: Option<&'a RouteRec> = None;
    for r in candidates {
        match best {
            None => best = Some(r),
            Some(b) => {
                if compare_recs(r, b).0 == Ordering::Greater {
                    best = Some(r);
                }
            }
        }
    }
    best
}

/// Selects the best record satisfying `pred`, without allocating — the
/// zero-alloc core of the per-epoch projection.
pub fn best_rec_where<'a>(
    candidates: &'a [RouteRec],
    mut pred: impl FnMut(&RouteRec) -> bool,
) -> Option<&'a RouteRec> {
    let mut best: Option<&'a RouteRec> = None;
    for r in candidates {
        if !pred(r) {
            continue;
        }
        match best {
            None => best = Some(r),
            Some(b) => {
                if compare_recs(r, b).0 == Ordering::Greater {
                    best = Some(r);
                }
            }
        }
    }
    best
}

/// Ranks records best-first into a caller-provided buffer (cleared first),
/// so hot loops reuse one scratch vector instead of allocating per prefix.
///
/// Uses the same stable `sort_by` as [`rank_routes`]. That matters beyond
/// taste: MED comparability makes the ladder a non-total order, so the
/// ranked order of incomparable routes depends on arrival order *and* on
/// the sort algorithm. Sharing the algorithm makes the compact and fat
/// representations byte-identical by construction; candidate sets are tiny
/// (one route per peer), which keeps std's stable sort on its
/// allocation-free insertion-sort path.
pub fn rank_recs_into(candidates: &[RouteRec], out: &mut Vec<RouteRec>) {
    out.clear();
    out.extend_from_slice(candidates);
    out.sort_by(|a, b| match compare_recs(a, b).0 {
        Ordering::Greater => Ordering::Less,
        Ordering::Less => Ordering::Greater,
        Ordering::Equal => Ordering::Equal,
    });
}

/// Ranks candidates best-first, the order the Edge Fabric allocator walks
/// when looking for a detour target: the "next-preferred" route is element 1.
pub fn rank_routes(candidates: &[Route]) -> Vec<&Route> {
    let mut v: Vec<&Route> = candidates.iter().collect();
    v.sort_by(|a, b| match compare(a, b).0 {
        Ordering::Greater => Ordering::Less,
        Ordering::Less => Ordering::Greater,
        Ordering::Equal => Ordering::Equal,
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin, PathAttributes};
    use crate::peer::{PeerId, PeerKind};
    use crate::route::{EgressId, Route, RouteSource};
    use ef_net_types::{Asn, Prefix};

    fn prefix() -> Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    struct Builder(Route);

    fn route(peer: u64) -> Builder {
        Builder(Route {
            prefix: prefix(),
            attrs: PathAttributes {
                local_pref: Some(100),
                as_path: AsPath::sequence([Asn(65000 + peer as u32)]),
                origin: Origin::Igp,
                ..Default::default()
            },
            source: RouteSource {
                peer: PeerId(peer),
                peer_asn: Asn(65000 + peer as u32),
                kind: PeerKind::Transit,
            },
            egress: EgressId(peer as u32),
        })
    }

    impl Builder {
        fn lp(mut self, v: u32) -> Self {
            self.0.attrs.local_pref = Some(v);
            self
        }
        fn path(mut self, asns: &[u32]) -> Self {
            self.0.attrs.as_path = AsPath::sequence(asns.iter().map(|a| Asn(*a)));
            self
        }
        fn origin(mut self, o: Origin) -> Self {
            self.0.attrs.origin = o;
            self
        }
        fn med(mut self, m: u32) -> Self {
            self.0.attrs.med = Some(m);
            self
        }
        fn done(self) -> Route {
            self.0
        }
    }

    #[test]
    fn local_pref_dominates_everything() {
        let long_but_preferred = route(1).lp(800).path(&[1, 2, 3, 4, 5]).done();
        let short_transit = route(2).lp(200).path(&[9]).done();
        let (ord, step) = compare(&long_but_preferred, &short_transit);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::LocalPref);
    }

    #[test]
    fn as_path_breaks_equal_local_pref() {
        let short = route(1).path(&[10, 11]).done();
        let long = route(2).path(&[20, 21, 22]).done();
        let (ord, step) = compare(&short, &long);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::AsPathLength);
    }

    #[test]
    fn origin_breaks_equal_path_length() {
        let igp = route(1).origin(Origin::Igp).done();
        let incomplete = route(2).origin(Origin::Incomplete).done();
        let (ord, step) = compare(&igp, &incomplete);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Origin);
    }

    #[test]
    fn med_compared_only_within_same_neighbor_as() {
        // Same neighbor AS: MED decides.
        let low = route(1).path(&[500]).med(10).done();
        let high = route(2).path(&[500]).med(20).done();
        let (ord, step) = compare(&low, &high);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Med);

        // Different neighbor AS: MED skipped, falls through to peer id.
        let a = route(1).path(&[500]).med(99).done();
        let b = route(2).path(&[600]).med(1).done();
        let (ord, step) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater, "lower peer id wins");
        assert_eq!(step, DecisionStep::PeerId);
    }

    #[test]
    fn missing_med_treated_as_zero() {
        let missing = route(1).path(&[500]).done();
        let with_med = route(2).path(&[500]).med(5).done();
        let (ord, step) = compare(&missing, &with_med);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Med);
    }

    #[test]
    fn peer_id_is_final_deterministic_tiebreak() {
        let a = route(1).done();
        let b = route(2).path(&[65001]).done(); // same length
        let (ord, step) = compare(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::PeerId);
    }

    #[test]
    fn identical_routes_tie() {
        let a = route(1).done();
        let (ord, step) = compare(&a, &a.clone());
        assert_eq!(ord, Ordering::Equal);
        assert_eq!(step, DecisionStep::Tie);
    }

    #[test]
    fn best_route_empty_and_singleton() {
        assert!(best_route(&[]).is_none());
        let only = route(1).done();
        assert_eq!(best_route(std::slice::from_ref(&only)), Some(&only));
    }

    #[test]
    fn best_route_picks_max() {
        let routes = vec![
            route(1).lp(200).done(),
            route(2).lp(800).done(),
            route(3).lp(600).done(),
        ];
        assert_eq!(best_route(&routes).unwrap().source.peer, PeerId(2));
    }

    #[test]
    fn controller_override_always_wins() {
        let organic = route(1).lp(800).path(&[65001]).done();
        let mut injected = route(9)
            .lp(PeerKind::Controller.default_local_pref())
            .done();
        injected.source.kind = PeerKind::Controller;
        let routes = vec![organic, injected.clone()];
        assert_eq!(best_route(&routes).unwrap().source.peer, PeerId(9));
    }

    #[test]
    fn rank_routes_orders_best_first() {
        let routes = vec![
            route(1).lp(200).done(),
            route(2).lp(800).done(),
            route(3).lp(600).done(),
        ];
        let ranked = rank_routes(&routes);
        let peers: Vec<u64> = ranked.iter().map(|r| r.source.peer.0).collect();
        assert_eq!(peers, vec![2, 3, 1]);
    }

    #[test]
    fn rank_is_total_and_consistent_with_best() {
        let routes = vec![
            route(5).lp(100).path(&[1, 2]).done(),
            route(3).lp(100).path(&[1]).done(),
            route(4).lp(100).path(&[1]).origin(Origin::Egp).done(),
        ];
        let ranked = rank_routes(&routes);
        assert_eq!(ranked[0], best_route(&routes).unwrap());
        // best of the tail equals second in rank
        let tail: Vec<Route> = routes
            .iter()
            .filter(|r| r.source.peer != ranked[0].source.peer)
            .cloned()
            .collect();
        assert_eq!(
            best_route(&tail).unwrap().source.peer,
            ranked[1].source.peer
        );
    }
}
