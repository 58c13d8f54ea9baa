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
//! The router, the controller and the simulator all run it over compact
//! interned records ([`RouteRec`]), whose precomputed
//! [`DecisionKey`](crate::attrstore::DecisionKey) holds every field the
//! ladder reads. A ladder over fat [`Route`](crate::route::Route)s that
//! recomputes those fields from the attributes lives beside the test that
//! checks the two agree, `tests/rib_churn_equivalence.rs`.

use std::cmp::Ordering;

use crate::attrstore::RouteRec;

/// Why one route beat another — returned by [`compare_recs`] for
/// observability and asserted on in tests.
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

/// Compares two compact route records for the same prefix.
///
/// Returns `(ordering, step)` where `ordering` is `Greater` if `a` is
/// preferred over `b`, and `step` names the first ladder rung that decided.
/// Reads only the precomputed [`DecisionKey`](crate::attrstore::DecisionKey)
/// and the source — no heap access, no effective-value recomputation.
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

/// Selects the best record among candidates for one prefix: the unique
/// maximum under `compare_recs`; ties resolve to the first listed.
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
/// The order the Edge Fabric allocator walks when looking for a detour
/// target: the "next-preferred" route is element 1. The sort is std's
/// stable `sort_by`, and that matters beyond taste: MED comparability makes
/// the ladder a non-total order, so the ranked order of incomparable routes
/// depends on arrival order *and* on the sort algorithm. Candidate sets are
/// tiny (one route per peer), which keeps the stable sort on its
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin, PathAttributes};
    use crate::attrstore::{AttrId, DecisionKey};
    use crate::peer::{PeerId, PeerKind};
    use crate::route::{EgressId, RouteSource};
    use ef_net_types::Asn;

    struct Builder {
        attrs: PathAttributes,
        source: RouteSource,
    }

    fn route(peer: u64) -> Builder {
        Builder {
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
        }
    }

    impl Builder {
        fn lp(mut self, v: u32) -> Self {
            self.attrs.local_pref = Some(v);
            self
        }
        fn path(mut self, asns: &[u32]) -> Self {
            self.attrs.as_path = AsPath::sequence(asns.iter().map(|a| Asn(*a)));
            self
        }
        fn origin(mut self, o: Origin) -> Self {
            self.attrs.origin = o;
            self
        }
        fn med(mut self, m: u32) -> Self {
            self.attrs.med = Some(m);
            self
        }
        fn kind(mut self, kind: PeerKind) -> Self {
            self.source.kind = kind;
            self
        }
        /// The record a RIB would hold for this route: the key is derived
        /// from the attributes exactly as interning derives it.
        fn done(self) -> RouteRec {
            RouteRec {
                attr: AttrId(self.source.peer.0 as u32),
                egress: EgressId(self.source.peer.0 as u32),
                source: self.source,
                key: DecisionKey::of(&self.attrs),
            }
        }
    }

    fn ranked(candidates: &[RouteRec]) -> Vec<u64> {
        let mut out = Vec::new();
        rank_recs_into(candidates, &mut out);
        out.iter().map(|r| r.source.peer.0).collect()
    }

    #[test]
    fn local_pref_dominates_everything() {
        let long_but_preferred = route(1).lp(800).path(&[1, 2, 3, 4, 5]).done();
        let short_transit = route(2).lp(200).path(&[9]).done();
        let (ord, step) = compare_recs(&long_but_preferred, &short_transit);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::LocalPref);
    }

    #[test]
    fn as_path_breaks_equal_local_pref() {
        let short = route(1).path(&[10, 11]).done();
        let long = route(2).path(&[20, 21, 22]).done();
        let (ord, step) = compare_recs(&short, &long);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::AsPathLength);
    }

    #[test]
    fn origin_breaks_equal_path_length() {
        let igp = route(1).origin(Origin::Igp).done();
        let incomplete = route(2).origin(Origin::Incomplete).done();
        let (ord, step) = compare_recs(&igp, &incomplete);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Origin);
    }

    #[test]
    fn med_compared_only_within_same_neighbor_as() {
        // Same neighbor AS: MED decides.
        let low = route(1).path(&[500]).med(10).done();
        let high = route(2).path(&[500]).med(20).done();
        let (ord, step) = compare_recs(&low, &high);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Med);

        // Different neighbor AS: MED skipped, falls through to peer id.
        let a = route(1).path(&[500]).med(99).done();
        let b = route(2).path(&[600]).med(1).done();
        let (ord, step) = compare_recs(&a, &b);
        assert_eq!(ord, Ordering::Greater, "lower peer id wins");
        assert_eq!(step, DecisionStep::PeerId);
    }

    #[test]
    fn missing_med_treated_as_zero() {
        let missing = route(1).path(&[500]).done();
        let with_med = route(2).path(&[500]).med(5).done();
        let (ord, step) = compare_recs(&missing, &with_med);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::Med);
    }

    #[test]
    fn peer_id_is_final_deterministic_tiebreak() {
        let a = route(1).done();
        let b = route(2).path(&[65001]).done(); // same length
        let (ord, step) = compare_recs(&a, &b);
        assert_eq!(ord, Ordering::Greater);
        assert_eq!(step, DecisionStep::PeerId);
    }

    #[test]
    fn identical_routes_tie() {
        let a = route(1).done();
        let (ord, step) = compare_recs(&a, &a);
        assert_eq!(ord, Ordering::Equal);
        assert_eq!(step, DecisionStep::Tie);
    }

    #[test]
    fn best_route_empty_and_singleton() {
        assert!(best_rec(&[]).is_none());
        assert!(best_rec_where(&[], |_| true).is_none());
        let only = route(1).done();
        assert_eq!(best_rec(std::slice::from_ref(&only)), Some(&only));
        assert!(best_rec_where(std::slice::from_ref(&only), |_| false).is_none());
    }

    #[test]
    fn best_route_picks_max() {
        let routes = vec![
            route(1).lp(200).done(),
            route(2).lp(800).done(),
            route(3).lp(600).done(),
        ];
        assert_eq!(best_rec(&routes).unwrap().source.peer, PeerId(2));
        let not_two = best_rec_where(&routes, |r| r.source.peer != PeerId(2));
        assert_eq!(not_two.unwrap().source.peer, PeerId(3));
    }

    #[test]
    fn controller_override_always_wins() {
        let organic = route(1).lp(800).path(&[65001]).done();
        let injected = route(9)
            .lp(PeerKind::Controller.default_local_pref())
            .kind(PeerKind::Controller)
            .done();
        let routes = vec![organic, injected];
        assert_eq!(best_rec(&routes).unwrap().source.peer, PeerId(9));
        // The projection's view: the best route absent any override.
        let organic_best = best_rec_where(&routes, |r| !r.is_override());
        assert_eq!(organic_best.unwrap().source.peer, PeerId(1));
    }

    #[test]
    fn rank_routes_orders_best_first() {
        let routes = vec![
            route(1).lp(200).done(),
            route(2).lp(800).done(),
            route(3).lp(600).done(),
        ];
        assert_eq!(ranked(&routes), vec![2, 3, 1]);
    }

    #[test]
    fn rank_is_total_and_consistent_with_best() {
        let routes = vec![
            route(5).lp(100).path(&[1, 2]).done(),
            route(3).lp(100).path(&[1]).done(),
            route(4).lp(100).path(&[1]).origin(Origin::Egp).done(),
        ];
        let order = ranked(&routes);
        assert_eq!(order.len(), routes.len());
        assert_eq!(order[0], best_rec(&routes).unwrap().source.peer.0);
        // best of the tail equals second in rank
        let tail: Vec<RouteRec> = routes
            .iter()
            .filter(|r| r.source.peer.0 != order[0])
            .copied()
            .collect();
        assert_eq!(best_rec(&tail).unwrap().source.peer.0, order[1]);
        // The scratch buffer is cleared, not appended to.
        let mut out = routes.clone();
        rank_recs_into(&routes, &mut out);
        assert_eq!(out.len(), routes.len());
    }
}
