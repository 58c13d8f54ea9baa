//! The router-wide Loc-RIB, laid out for full-table scale.
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
//! At ~900k prefixes × 2–6 paths the old `HashMap<Prefix, Vec<Route>>` paid
//! one heap vector plus a deep [`PathAttributes`](crate::PathAttributes)
//! clone per route. The compact layout stores all candidates in one pooled
//! `Vec<RouteRec>` carved into power-of-two chunks:
//!
//! ```text
//!   index: Prefix ─▶ slot ─▶ { start, len, class }   (one slot per prefix)
//!   pool:  [ rec rec rec · | rec · · · | rec rec ... ]  chunk = 1<<class recs
//!   rec:   { source, egress, key }                     (~48 bytes, Copy)
//! ```
//!
//! Within a chunk, records keep **arrival order** — the decision ladder is
//! not a total order (MED comparability), so best/ranked results depend on
//! iteration order and the pool must reproduce the reference `Vec` semantics
//! (append new peers, replace in place, shift left on withdraw) exactly for
//! determinism to hold byte-for-byte.
//!
//! [`BestChange`] compares records, so it sees `(source, egress, key)`
//! only: a re-announcement that changes attributes outside the decision key
//! (a community, say) while staying best reports
//! [`Unchanged`](BestChange::Unchanged). Nothing downstream misses it — the
//! FIB entry such a change would write is the one already installed, and
//! the attributes themselves reach BMP from the Adj-RIB-In.

use std::collections::HashMap;

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

/// Per-prefix slot: an index range into the pooled record storage.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prefix: Prefix,
    /// First record index in the pool.
    start: u32,
    /// Live records (arrival order).
    len: u16,
    /// Chunk capacity is `1 << class` records.
    class: u8,
}

const FREE_SLOT: u8 = u8::MAX;

/// The router's collected view: every candidate route per prefix (at most
/// one per peer) and the decision-process winner, in pooled compact storage.
#[derive(Debug, Clone, Default)]
pub struct LocRib {
    index: HashMap<Prefix, u32>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    pool: Vec<RouteRec>,
    /// Free chunk start indices, per size class.
    free_chunks: Vec<Vec<u32>>,
    routes: usize,
}

impl LocRib {
    /// Creates an empty Loc-RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a free chunk of `1 << class` records, or grows the pool by a
    /// chunk of copies of `fill` (slack past a slot's `len` is never
    /// read).
    fn alloc_chunk(&mut self, class: u8, fill: RouteRec) -> u32 {
        if let Some(free) = self.free_chunks.get_mut(class as usize) {
            if let Some(start) = free.pop() {
                return start;
            }
        }
        let start = self.pool.len() as u32;
        self.pool.resize(self.pool.len() + (1usize << class), fill);
        start
    }

    fn free_chunk(&mut self, start: u32, class: u8) {
        let class = class as usize;
        if self.free_chunks.len() <= class {
            self.free_chunks.resize_with(class + 1, Vec::new);
        }
        self.free_chunks[class].push(start);
    }

    fn slot_recs(&self, slot: &Slot) -> &[RouteRec] {
        &self.pool[slot.start as usize..slot.start as usize + slot.len as usize]
    }

    /// Grows the slot's chunk to the next size class, copying live records.
    fn grow(&mut self, slot_id: u32) {
        let (start, len, class) = {
            let s = &self.slots[slot_id as usize];
            (s.start, s.len, s.class)
        };
        let new_class = class + 1;
        let new_start = self.alloc_chunk(new_class, self.pool[start as usize]);
        let (src, dst) = (start as usize, new_start as usize);
        for i in 0..len as usize {
            self.pool[dst + i] = self.pool[src + i];
        }
        self.free_chunk(start, class);
        let s = &mut self.slots[slot_id as usize];
        s.start = new_start;
        s.class = new_class;
    }

    /// Installs or replaces `rec` (keyed by its source peer), returning how
    /// the best record changed.
    pub fn install(&mut self, prefix: Prefix, rec: RouteRec) -> BestChange {
        let source = rec.source;
        let slot_id = match self.index.get(&prefix) {
            Some(&id) => id,
            None => {
                let start = self.alloc_chunk(0, rec);
                let slot = Slot {
                    prefix,
                    start,
                    len: 0,
                    class: 0,
                };
                let id = match self.free_slots.pop() {
                    Some(id) => {
                        self.slots[id as usize] = slot;
                        id
                    }
                    None => {
                        self.slots.push(slot);
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.insert(prefix, id);
                id
            }
        };

        let old_best = best_rec(self.slot_recs(&self.slots[slot_id as usize])).copied();

        // Replace in place if this peer already has a route; append otherwise
        // — same ordering semantics as the reference Vec representation.
        let slot = self.slots[slot_id as usize];
        let base = slot.start as usize;
        let existing =
            (0..slot.len as usize).find(|&i| self.pool[base + i].source.peer == source.peer);
        match existing {
            Some(i) => self.pool[base + i] = rec,
            None => {
                if usize::from(slot.len) == 1usize << slot.class {
                    self.grow(slot_id);
                }
                let s = self.slots[slot_id as usize];
                self.pool[s.start as usize + s.len as usize] = rec;
                self.slots[slot_id as usize].len += 1;
                self.routes += 1;
            }
        }

        let new_best = best_rec(self.slot_recs(&self.slots[slot_id as usize]))
            .copied()
            .unwrap_or(rec);
        if old_best == Some(new_best) {
            BestChange::Unchanged
        } else {
            BestChange::NewBest(new_best)
        }
    }

    /// Removes the route for `prefix` learned from `peer`.
    pub fn withdraw(&mut self, prefix: &Prefix, peer: PeerId) -> BestChange {
        let Some(&slot_id) = self.index.get(prefix) else {
            return BestChange::Unchanged;
        };
        let slot = self.slots[slot_id as usize];
        let base = slot.start as usize;
        let len = slot.len as usize;
        let Some(hit) = (0..len).find(|&i| self.pool[base + i].source.peer == peer) else {
            return BestChange::Unchanged;
        };

        let old_best = best_rec(self.slot_recs(&slot)).copied();
        // Shift left to preserve arrival order (the reference `retain`).
        for i in hit..len - 1 {
            self.pool[base + i] = self.pool[base + i + 1];
        }
        self.slots[slot_id as usize].len -= 1;
        self.routes -= 1;

        if self.slots[slot_id as usize].len == 0 {
            self.index.remove(prefix);
            self.free_chunk(slot.start, slot.class);
            self.slots[slot_id as usize].class = FREE_SLOT;
            self.free_slots.push(slot_id);
            return BestChange::Unreachable;
        }
        let new_best = best_rec(self.slot_recs(&self.slots[slot_id as usize])).copied();
        if old_best == new_best {
            BestChange::Unchanged
        } else {
            match new_best {
                Some(b) => BestChange::NewBest(b),
                None => BestChange::Unreachable,
            }
        }
    }

    /// Removes every route learned from `peer` (session teardown). Returns
    /// the per-prefix best-route changes that resulted, in prefix order.
    pub fn withdraw_peer(&mut self, peer: PeerId) -> Vec<(Prefix, BestChange)> {
        let mut prefixes: Vec<Prefix> = self
            .slots
            .iter()
            .filter(|s| s.class != FREE_SLOT)
            .filter(|s| self.slot_recs(s).iter().any(|r| r.source.peer == peer))
            .map(|s| s.prefix)
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
        match self.index.get(prefix) {
            Some(&id) => self.slot_recs(&self.slots[id as usize]),
            None => &[],
        }
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
        self.index.len()
    }

    /// True if no prefix has a route.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total candidate routes across all prefixes.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Approximate resident bytes of the compact layout: pooled records,
    /// slot table and prefix index. The CI bytes/route gate adds the
    /// owning router's attribute store and divides by
    /// [`route_count`](Self::route_count).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let pool = self.pool.capacity() * size_of::<RouteRec>();
        let slots = self.slots.capacity() * size_of::<Slot>();
        // HashMap entry ≈ key + value + control byte overhead (~1.1 factor).
        let index = self.index.capacity() * (size_of::<Prefix>() + size_of::<u32>() + 8);
        pool + slots + index
    }

    /// Iterates `(prefix, candidates)` in slot (arrival) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &[RouteRec])> {
        self.slots
            .iter()
            .filter(|s| s.class != FREE_SLOT)
            .map(|s| (&s.prefix, self.slot_recs(s)))
    }

    /// Re-lays the pool out prefix-sorted with no free chunks or slack — the
    /// batched-build companion: after a bulk load (or heavy churn), one pass
    /// leaves candidates contiguous in prefix order for cache-friendly scans
    /// and minimal footprint.
    pub fn compact(&mut self) {
        let mut live: Vec<Slot> = self
            .slots
            .iter()
            .filter(|s| s.class != FREE_SLOT)
            .copied()
            .collect();
        live.sort_unstable_by_key(|s| s.prefix);

        let mut new_pool: Vec<RouteRec> = Vec::with_capacity(self.routes);
        let mut new_slots: Vec<Slot> = Vec::with_capacity(live.len());
        let mut new_index: HashMap<Prefix, u32> = HashMap::with_capacity(live.len());
        for slot in &live {
            let start = new_pool.len() as u32;
            new_pool.extend_from_slice(self.slot_recs(slot));
            // Exact-fit class: smallest power of two holding `len`.
            let class = (u16::BITS - slot.len.max(1).leading_zeros() - 1) as u8
                + u8::from(!slot.len.is_power_of_two());
            new_pool.resize(
                start as usize + (1usize << class),
                *new_pool.last().expect("slot nonempty"),
            );
            new_index.insert(slot.prefix, new_slots.len() as u32);
            new_slots.push(Slot {
                prefix: slot.prefix,
                start,
                len: slot.len,
                class,
            });
        }
        self.pool = new_pool;
        self.slots = new_slots;
        self.index = new_index;
        self.free_slots.clear();
        self.free_chunks.clear();
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
    fn chunks_grow_and_recycle() {
        let mut rib = LocRib::new();
        // 5 peers forces class 0 -> 1 -> 2 growth with chunk recycling.
        for peer in 1..=5 {
            install(&mut rib, route("1.0.0.0/8", peer, 100 + peer as u32));
        }
        assert_eq!(rib.candidates(&p("1.0.0.0/8")).len(), 5);
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
        // A new prefix reuses recycled storage rather than growing the pool.
        let before = rib.pool.len();
        install(&mut rib, route("3.0.0.0/8", 1, 100));
        assert_eq!(rib.pool.len(), before);
    }

    #[test]
    fn compact_preserves_contents_and_order() {
        let mut rib = LocRib::new();
        install(&mut rib, route("2.0.0.0/8", 2, 100));
        install(&mut rib, route("1.0.0.0/8", 1, 900));
        install(&mut rib, route("1.0.0.0/8", 3, 500));
        install(&mut rib, route("3.0.0.0/8", 1, 100));
        rib.withdraw(&p("3.0.0.0/8"), PeerId(1));
        let before: Vec<(Prefix, Vec<RouteRec>)> = {
            let mut v: Vec<(Prefix, Vec<RouteRec>)> =
                rib.iter().map(|(p, r)| (*p, r.to_vec())).collect();
            v.sort_by_key(|(p, _)| *p);
            v
        };
        rib.compact();
        let after: Vec<(Prefix, Vec<RouteRec>)> =
            rib.iter().map(|(p, r)| (*p, r.to_vec())).collect();
        assert_eq!(before, after, "compact iterates prefix-sorted");
        assert_eq!(rib.route_count(), 3);
        assert_eq!(rib.best(&p("1.0.0.0/8")).unwrap().source.peer, PeerId(1));
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
