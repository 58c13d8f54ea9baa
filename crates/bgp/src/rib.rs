//! The router-wide Loc-RIB: every candidate route per prefix.
//!
//! Edge Fabric needs more than a FIB view: the controller must see *every*
//! route available for a prefix (paper §4.1, "the controller needs to know
//! all routes, not just the best") in order to pick detour targets. The
//! [`LocRib`] therefore keeps the full candidate set per prefix and exposes
//! both the winner and the ranked alternatives.
//!
//! It holds decision records only, never attributes: a [`RouteRec`] is the
//! route's source, egress and [`DecisionKey`](crate::DecisionKey), which is
//! all the decision ladder, the FIB and the controller read. The router's
//! per-peer Adj-RIB-In holds the attribute handles (its post-policy route
//! for a prefix is that peer's candidate here, at most one per peer), and
//! the same type is the controller's BMP-fed view in
//! `edge-fabric::collector`, which keeps no attributes at all.
//!
//! Each prefix owns one `Vec<RouteRec>`. A record is ~48 bytes, `Copy`
//! and attribute-free, so the vector's header and growth slack are all a
//! prefix pays for its candidates; there is no deep clone to pool away,
//! and a prefix's storage goes back to the allocator with its last route.
//!
//! Within a vector, records keep **arrival order**: the decision ladder is
//! not a total order (MED comparability), so best/ranked results depend on
//! iteration order. A peer that already has a route is replaced in place,
//! a new peer is appended, and a withdraw shifts left.
//!
//! The map's hasher is fixed, so [`LocRib::iter`] order depends only on
//! the sequence of operations, and runs stay reproducible. A fixed key
//! does not resist crafted colliding prefixes; the prefixes here come
//! from the world generator.
//!
//! [`BestChange`] compares records, so it sees `(source, egress, key)`
//! only: a re-announcement that changes attributes outside the decision key
//! (a community, say) while staying best reports
//! [`Unchanged`](BestChange::Unchanged). Nothing downstream misses it — the
//! FIB entry such a change would write is the one already installed, and
//! the attributes themselves reach BMP from the Adj-RIB-In.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use ef_net_types::Prefix;

use crate::attrstore::RouteRec;
use crate::decision::{best_rec, rank_recs_into};
use crate::peer::PeerId;

/// How the best route for a prefix changed after a RIB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BestChange {
    /// The best route's record is unchanged.
    Unchanged,
    /// The prefix gained its first route, or best switched to this record.
    NewBest(RouteRec),
    /// The prefix no longer has any route.
    Unreachable,
}

/// The router's collected view: every candidate route per prefix (at most
/// one per peer, in arrival order) and the decision-process winner.
#[derive(Debug, Clone, Default)]
pub struct LocRib {
    table: HashMap<Prefix, Vec<RouteRec>, BuildHasherDefault<DefaultHasher>>,
    routes: usize,
}

impl LocRib {
    /// Creates an empty Loc-RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs or replaces `rec` (keyed by its source peer), returning how
    /// the best record changed.
    pub fn install(&mut self, prefix: Prefix, rec: RouteRec) -> BestChange {
        let recs = self.table.entry(prefix).or_default();
        let old_best = best_rec(recs).copied();
        match recs.iter_mut().find(|r| r.source.peer == rec.source.peer) {
            Some(slot) => *slot = rec,
            None => {
                recs.push(rec);
                self.routes += 1;
            }
        }
        let new_best = *best_rec(recs).expect("install leaves a route");
        if old_best == Some(new_best) {
            BestChange::Unchanged
        } else {
            BestChange::NewBest(new_best)
        }
    }

    /// Removes the route for `prefix` learned from `peer`.
    pub fn withdraw(&mut self, prefix: &Prefix, peer: PeerId) -> BestChange {
        let Some(recs) = self.table.get_mut(prefix) else {
            return BestChange::Unchanged;
        };
        let Some(hit) = recs.iter().position(|r| r.source.peer == peer) else {
            return BestChange::Unchanged;
        };
        let old_best = best_rec(recs).copied();
        recs.remove(hit);
        self.routes -= 1;
        match best_rec(recs).copied() {
            None => {
                self.table.remove(prefix);
                BestChange::Unreachable
            }
            new_best if new_best == old_best => BestChange::Unchanged,
            Some(b) => BestChange::NewBest(b),
        }
    }

    /// Removes every route learned from `peer` (session teardown). Returns
    /// the per-prefix best-route changes that resulted, in prefix order.
    pub fn withdraw_peer(&mut self, peer: PeerId) -> Vec<(Prefix, BestChange)> {
        let mut prefixes: Vec<Prefix> = self
            .iter()
            .filter(|(_, recs)| recs.iter().any(|r| r.source.peer == peer))
            .map(|(prefix, _)| *prefix)
            .collect();
        prefixes.sort_unstable();
        prefixes
            .into_iter()
            .map(|p| {
                let change = self.withdraw(&p, peer);
                (p, change)
            })
            .filter(|(_, c)| *c != BestChange::Unchanged)
            .collect()
    }

    /// All candidate records for a prefix, in arrival order.
    pub fn candidates(&self, prefix: &Prefix) -> &[RouteRec] {
        self.table.get(prefix).map_or(&[], Vec::as_slice)
    }

    /// Candidates ranked best-first by the decision process, written into a
    /// caller-provided scratch buffer (cleared first) so per-prefix calls in
    /// the allocator's hot loop stop allocating.
    pub fn ranked_into(&self, prefix: &Prefix, out: &mut Vec<RouteRec>) {
        rank_recs_into(self.candidates(prefix), out);
    }

    /// The decision-process winner for a prefix.
    pub fn best(&self, prefix: &Prefix) -> Option<&RouteRec> {
        best_rec(self.candidates(prefix))
    }

    /// Number of prefixes with at least one route.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no prefix has a route.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Total candidate routes across all prefixes.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Approximate resident bytes: each prefix's record vector at its
    /// capacity, plus the map's table (an entry and a control byte per
    /// bucket of capacity). The CI bytes/route gate adds the owning
    /// router's attribute store and divides by
    /// [`route_count`](Self::route_count).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let recs: usize = self.table.values().map(Vec::capacity).sum();
        let table = self.table.capacity() * (size_of::<(Prefix, Vec<RouteRec>)>() + 1);
        recs * size_of::<RouteRec>() + table
    }

    /// Iterates `(prefix, candidates)`, in an order fixed by the sequence
    /// of operations that built the RIB.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &[RouteRec])> {
        self.table
            .iter()
            .map(|(prefix, recs)| (prefix, recs.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};
    use crate::peer::PeerKind;
    use crate::route::{EgressId, Route, RouteSource};
    use ef_net_types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str, peer: u64, lp: u32) -> Route {
        Route {
            prefix: p(prefix),
            attrs: PathAttributes {
                local_pref: Some(lp),
                as_path: AsPath::sequence([Asn(65000 + peer as u32)]),
                ..Default::default()
            },
            source: RouteSource {
                peer: PeerId(peer),
                peer_asn: Asn(65000 + peer as u32),
                kind: PeerKind::Transit,
            },
            egress: EgressId(peer as u32),
        }
    }

    /// Installs or replaces `route`'s record (keyed by its source peer).
    fn install(rib: &mut LocRib, route: Route) -> BestChange {
        rib.install(
            route.prefix,
            RouteRec::new(&route.attrs, route.source, route.egress),
        )
    }

    #[test]
    fn loc_rib_first_route_is_new_best() {
        let mut rib = LocRib::new();
        let r = route("1.0.0.0/8", 1, 100);
        match install(&mut rib, r.clone()) {
            BestChange::NewBest(rec) => {
                assert_eq!(rec, RouteRec::new(&r.attrs, r.source, r.egress));
            }
            other => panic!("expected NewBest, got {other:?}"),
        }
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn loc_rib_better_route_takes_over() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        match install(&mut rib, route("1.0.0.0/8", 2, 900)) {
            BestChange::NewBest(rec) => assert_eq!(rec.source.peer, PeerId(2)),
            other => panic!("expected NewBest, got {other:?}"),
        }
        // A worse newcomer does not change best.
        assert_eq!(
            install(&mut rib, route("1.0.0.0/8", 3, 50)),
            BestChange::Unchanged
        );
        assert_eq!(rib.candidates(&p("1.0.0.0/8")).len(), 3);
    }

    #[test]
    fn loc_rib_replacement_from_same_peer_does_not_duplicate() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        install(&mut rib, route("1.0.0.0/8", 1, 150));
        assert_eq!(rib.candidates(&p("1.0.0.0/8")).len(), 1);
        assert_eq!(rib.best(&p("1.0.0.0/8")).unwrap().key.local_pref, 150);
    }

    #[test]
    fn loc_rib_withdraw_best_promotes_runner_up() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 900));
        install(&mut rib, route("1.0.0.0/8", 2, 100));
        match rib.withdraw(&p("1.0.0.0/8"), PeerId(1)) {
            BestChange::NewBest(r) => assert_eq!(r.source.peer, PeerId(2)),
            other => panic!("expected NewBest, got {other:?}"),
        }
    }

    #[test]
    fn loc_rib_withdraw_non_best_is_unchanged() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 900));
        install(&mut rib, route("1.0.0.0/8", 2, 100));
        assert_eq!(
            rib.withdraw(&p("1.0.0.0/8"), PeerId(2)),
            BestChange::Unchanged
        );
    }

    #[test]
    fn loc_rib_last_withdraw_is_unreachable() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        assert_eq!(
            rib.withdraw(&p("1.0.0.0/8"), PeerId(1)),
            BestChange::Unreachable
        );
        assert!(rib.is_empty());
        assert_eq!(rib.route_count(), 0);
        // Withdrawing again is a no-op.
        assert_eq!(
            rib.withdraw(&p("1.0.0.0/8"), PeerId(1)),
            BestChange::Unchanged
        );
    }

    #[test]
    fn loc_rib_withdraw_peer_sweeps_all_prefixes() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 900));
        install(&mut rib, route("2.0.0.0/8", 1, 900));
        install(&mut rib, route("2.0.0.0/8", 2, 100));
        let changes = rib.withdraw_peer(PeerId(1));
        assert_eq!(changes.len(), 2);
        assert!(changes
            .iter()
            .any(|(pfx, c)| *pfx == p("1.0.0.0/8") && *c == BestChange::Unreachable));
        assert!(changes
            .iter()
            .any(|(pfx, c)| *pfx == p("2.0.0.0/8") && matches!(c, BestChange::NewBest(_))));
    }

    #[test]
    fn ranked_returns_decision_order() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        install(&mut rib, route("1.0.0.0/8", 2, 900));
        install(&mut rib, route("1.0.0.0/8", 3, 500));
        let mut ranked = Vec::new();
        rib.ranked_into(&p("1.0.0.0/8"), &mut ranked);
        let peers: Vec<u64> = ranked.iter().map(|r| r.source.peer.0).collect();
        assert_eq!(peers, vec![2, 3, 1]);
    }

    #[test]
    fn ranked_into_reuses_scratch() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        install(&mut rib, route("1.0.0.0/8", 2, 900));
        let mut scratch = Vec::with_capacity(8);
        rib.ranked_into(&p("1.0.0.0/8"), &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch[0].source.peer, PeerId(2));
        rib.ranked_into(&p("9.0.0.0/8"), &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn iter_best_covers_all_prefixes() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        install(&mut rib, route("2.0.0.0/8", 2, 100));
        let mut prefixes: Vec<Prefix> = rib.iter().map(|(p, _)| *p).collect();
        assert!(prefixes.iter().all(|p| rib.best(p).is_some()));
        prefixes.sort();
        assert_eq!(prefixes, vec![p("1.0.0.0/8"), p("2.0.0.0/8")]);
    }

    #[test]
    fn five_peers_keep_arrival_order() {
        let mut rib = LocRib::new();
        for peer in 1..=5 {
            install(&mut rib, route("1.0.0.0/8", peer, 100 + peer as u32));
        }
        let arrival: Vec<u64> = rib
            .candidates(&p("1.0.0.0/8"))
            .iter()
            .map(|r| r.source.peer.0)
            .collect();
        assert_eq!(arrival, vec![1, 2, 3, 4, 5], "arrival order preserved");
        for peer in 1..=5 {
            rib.withdraw(&p("1.0.0.0/8"), PeerId(peer));
        }
        assert!(rib.is_empty());
    }

    #[test]
    fn best_change_equality_detects_idempotent_reinstall() {
        let mut rib = LocRib::new();
        install(&mut rib, route("1.0.0.0/8", 1, 100));
        // Identical re-announcement: same rec, unchanged.
        assert_eq!(
            install(&mut rib, route("1.0.0.0/8", 1, 100)),
            BestChange::Unchanged
        );
        // A new community is outside the decision key: still unchanged.
        let mut tagged = route("1.0.0.0/8", 1, 100);
        tagged
            .attrs
            .add_community(ef_net_types::Community::new(65001, 7));
        assert_eq!(install(&mut rib, tagged), BestChange::Unchanged);
    }
}
