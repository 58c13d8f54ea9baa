//! Demand projection (paper §4.2, step 1).
//!
//! Predicts what every egress interface would carry if BGP ran *without*
//! controller intervention: each prefix's demand lands on its best
//! non-override route. This "unmitigated" projection is what overload
//! detection runs against — projecting against the already-overridden state
//! would make the controller blind to whether its own detours are still
//! needed (the paper's stateless-recompute design falls out of this).

use std::collections::HashMap;

use ef_bgp::attrstore::RouteRec;
use ef_bgp::best_rec_where;
use ef_bgp::route::EgressId;
use ef_net_types::Prefix;

use crate::collector::RouteCollector;
use crate::state::TrafficView;

/// The result of projecting demand onto BGP-preferred routes.
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// Predicted load per interface, Mbps.
    pub load_mbps: HashMap<EgressId, f64>,
    /// `(prefix, demand_mbps)` for every prefix that carried positive
    /// demand onto a non-override route, in canonical prefix order. With
    /// the two columns below (same index, same order) this is the
    /// assignment table (see [`assigned_egress`](Self::assigned_egress))
    /// and the allocator's victim list — sorted vectors are both cheaper
    /// to build than a map and cheaper to scan.
    pub routed: Vec<(Prefix, f64)>,
    /// Column of `routed`: the egress each prefix's demand landed on. The
    /// allocator finds a hot interface's victims by scanning this column
    /// alone.
    pub egress: Vec<EgressId>,
    /// Column of `routed`: each prefix's [`PrefGap`] off its assigned
    /// egress, the allocator's best-alternative-first key.
    pub gap: Vec<PrefGap>,
    /// Demand (Mbps) that had no route at all (blackhole risk; reported,
    /// not steered).
    pub unrouted_mbps: f64,
}

impl Projection {
    /// Load on one interface, Mbps (0 if untouched).
    pub(crate) fn load(&self, egress: EgressId) -> f64 {
        self.load_mbps.get(&egress).copied().unwrap_or(0.0)
    }

    /// The egress the prefix's demand was projected onto, if it carried
    /// positive demand and had a non-override route.
    pub fn assigned_egress(&self, prefix: &Prefix) -> Option<EgressId> {
        self.routed
            .binary_search_by(|(p, _)| p.cmp(prefix))
            .ok()
            .map(|i| self.egress[i])
    }

    /// Every recorded number equal bit for bit (not merely `==`: a `-0.0`
    /// or NaN difference would still change serialized results).
    fn bitwise_eq(&self, other: &Projection) -> bool {
        let bits = f64::to_bits;
        self.load_mbps.len() == other.load_mbps.len()
            && self.load_mbps.iter().all(|(egress, load)| {
                other.load_mbps.get(egress).map(|l| bits(*l)) == Some(bits(*load))
            })
            && (self.routed.iter().map(|r| (r.0, bits(r.1))))
                .eq(other.routed.iter().map(|r| (r.0, bits(r.1))))
            && self.egress == other.egress
            && self.gap == other.gap
            && bits(self.unrouted_mbps) == bits(other.unrouted_mbps)
    }
}

/// How far a routed prefix's organic alternates sit below its best route
/// in BGP preference: the top effective LOCAL_PREF among its organic
/// (non-override) routes, minus the top among those off the best route's
/// egress. The allocator detours small gaps first (paper §4.2: prefixes
/// with good alternatives lose the least by moving).
///
/// Ordered ascending, [`NONE`](Self::NONE) — no organic route leaves the
/// best route's egress — last. Four bytes, so it rides in the projection
/// memo's row padding; a gap of `u32::MAX` (LOCAL_PREF 2³²−1 over 0)
/// saturates to one below `NONE` and so still sorts before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefGap(u32);

impl PrefGap {
    /// No organic alternate off the best route's egress.
    pub const NONE: PrefGap = PrefGap(u32::MAX);

    /// The gap from the best organic route's LOCAL_PREF down to the best
    /// alternate's (`None`: no alternate).
    pub fn between(best_pref: u32, alt_pref: Option<u32>) -> PrefGap {
        match alt_pref {
            Some(alt) => PrefGap(best_pref.saturating_sub(alt).min(u32::MAX - 1)),
            None => PrefGap::NONE,
        }
    }

    /// `best`'s gap over its own candidate slice. LOCAL_PREF is the
    /// decision ladder's first key, so `best` carries the top organic
    /// LOCAL_PREF; one more scan finds the top one off its egress.
    fn off(candidates: &[RouteRec], best: &RouteRec) -> PrefGap {
        let alt = candidates
            .iter()
            .filter(|r| !r.is_override() && r.egress != best.egress)
            .map(|r| r.effective_local_pref())
            .max();
        PrefGap::between(best.effective_local_pref(), alt)
    }
}

/// Projects `traffic` onto the best non-override route per prefix.
///
/// This is the paper's stateless per-cycle recompute (§4.4) and the
/// specification of projection: the controller runs [`project_cached`],
/// which must return exactly this function's result and asserts so on
/// every call in debug builds.
///
/// Prefixes present in traffic but absent from the route table contribute
/// to `unrouted_mbps`. Prefixes with routes but no demand simply do not
/// appear in the assignment (they carry nothing).
pub(crate) fn project<T: TrafficView + ?Sized>(routes: &RouteCollector, traffic: &T) -> Projection {
    let mut projection = Projection::default();
    // Canonical (prefix) order: the per-interface sums below are float
    // accumulations, and storage order must not leak into them.
    for (prefix, mbps) in traffic.sorted_entries(&mut Vec::new()) {
        if *mbps <= 0.0 {
            continue;
        }
        let candidates = routes.candidates(prefix);
        match best_rec_where(candidates, |r| !r.is_override()) {
            Some(best) => {
                *projection.load_mbps.entry(best.egress).or_default() += mbps;
                projection.routed.push((*prefix, *mbps));
                projection.egress.push(best.egress);
                projection.gap.push(PrefGap::off(candidates, best));
            }
            None => projection.unrouted_mbps += mbps,
        }
    }
    projection
}

/// Memoized per-prefix projection decisions, invalidated by the
/// collector's generation stamps.
///
/// Purely an implementation detail of the stateless-recompute contract:
/// [`project_cached`] produces output byte-identical to `project` — the
/// per-prefix `best_rec_where` call is skipped when the prefix's
/// non-override candidate set provably has not changed, but demand is
/// accumulated in exactly the same canonical order either way, so even the
/// float sums match bit for bit.
///
/// The memo is a prefix-sorted vector walked in lockstep with the traffic
/// view's sorted entries (the hot loop is a merge join, not a map probe),
/// and per-egress loads accumulate into dense slots. On epochs where the
/// collector's global generation has not moved — the steady state, since
/// the controller's own override churn never bumps it — the per-prefix
/// stamp lookups are skipped entirely, so a fully warm epoch over a
/// [`TrafficTable`](crate::state::TrafficTable) hashes nothing and sorts
/// nothing. Every buffer is kept alive across epochs.
#[derive(Debug, Default)]
pub struct ProjectionCache {
    /// Prefix-sorted memo, one row per prefix that carried demand.
    memo: Vec<MemoRow>,
    /// Double buffer for the next epoch's memo.
    memo_next: Vec<MemoRow>,
    /// Slot → egress registry (slots are dense, assigned on first sight).
    slot_egress: Vec<EgressId>,
    /// Egress → slot; consulted only on memo misses.
    slot_of: HashMap<EgressId, u32>,
    /// Per-slot load accumulator for the current epoch.
    slot_sum: Vec<f64>,
    /// Epoch stamp of each slot's last touch (lazily resets `slot_sum`).
    slot_epoch: Vec<u64>,
    /// Monotone epoch counter for `slot_epoch`.
    epoch: u64,
    /// Slots touched this epoch, in first-touch order — the exact order
    /// `project` creates its `load_mbps` entries in.
    touched: Vec<u32>,
    /// Collector global generation after the last projection.
    synced: u64,
    /// False until the first projection (or after [`clear`](Self::clear)).
    valid: bool,
    /// Sort scratch lent to [`TrafficView::sorted_entries`]; only the map
    /// adapter writes to it.
    entries: Vec<(Prefix, f64)>,
}

/// One memoized projection decision. Both answers are functions of the
/// prefix's organic candidate set alone, which is exactly what the stamp
/// guards: every organic announce or withdraw of the prefix moves it, and
/// the gap reads only LOCAL_PREF, the ladder's first key, of organic
/// routes. The gap fills the row's alignment padding: 48 bytes either way.
#[derive(Debug, Clone, Copy)]
struct MemoRow {
    prefix: Prefix,
    /// The collector's generation stamp of `prefix` when decided.
    stamp: u64,
    /// Slot of the best organic route's egress, plus one; 0 encodes "no
    /// non-override route".
    slot1: u32,
    /// The best organic route's [`PrefGap`] ([`PrefGap::NONE`] when
    /// `slot1` is 0).
    gap: PrefGap,
}

impl ProjectionCache {
    /// Decides `prefix` afresh on a memo miss: the best organic route's
    /// egress slot (registered on first sight) and its preference gap, both
    /// read from one candidate slice, stamped with the prefix's current
    /// generation.
    fn decide(&mut self, routes: &RouteCollector, prefix: Prefix) -> MemoRow {
        let candidates = routes.candidates(&prefix);
        let (slot1, gap) = match best_rec_where(candidates, |r| !r.is_override()) {
            None => (0, PrefGap::NONE),
            Some(best) => {
                let slot = match self.slot_of.get(&best.egress) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.slot_egress.len() as u32;
                        self.slot_egress.push(best.egress);
                        self.slot_of.insert(best.egress, slot);
                        self.slot_sum.push(0.0);
                        self.slot_epoch.push(0);
                        slot
                    }
                };
                (slot + 1, PrefGap::off(candidates, best))
            }
        };
        MemoRow {
            prefix,
            stamp: routes.generation_of(&prefix),
            slot1,
            gap,
        }
    }

    /// An empty cache (first projection recomputes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every memoized decision. A controller that resyncs against a
    /// *replacement* collector must call this: generation stamps are only
    /// comparable within one collector's lifetime.
    pub fn clear(&mut self) {
        self.memo.clear();
        self.slot_egress.clear();
        self.slot_of.clear();
        self.slot_sum.clear();
        self.slot_epoch.clear();
        self.touched.clear();
        self.synced = 0;
        self.valid = false;
    }
}

/// Projects `traffic` onto the best non-override route per prefix, re-running
/// the BGP decision only for prefixes whose generation stamp moved since the
/// memoized answer was recorded. The crate's stateless `project` is the
/// specification: debug builds re-run it on the same inputs and assert the
/// two results equal bit for bit; release builds compile the check out. A
/// fresh cache recomputes every prefix.
pub fn project_cached<T: TrafficView + ?Sized>(
    cache: &mut ProjectionCache,
    routes: &RouteCollector,
    traffic: &T,
) -> Projection {
    // Same canonical order as `project`: float accumulation order is part
    // of the byte-identical contract.
    let mut scratch = std::mem::take(&mut cache.entries);
    let entries = traffic.sorted_entries(&mut scratch);

    // Steady-state fast path: if the collector's global generation has not
    // moved since the memo was recorded, every stamp in it is still valid
    // and the per-prefix checks can be skipped wholesale.
    let generation = routes.generation();
    let all_clean = cache.valid && generation == cache.synced;

    cache.epoch += 1;
    cache.touched.clear();
    let memo = std::mem::take(&mut cache.memo);
    let mut memo_next = std::mem::take(&mut cache.memo_next);
    memo_next.clear();
    memo_next.reserve(entries.len());

    // The output columns and sums are locals until the loop ends, so the
    // hot loop's pushes keep their lengths in registers.
    let mut routed = Vec::with_capacity(entries.len());
    let mut egress = Vec::with_capacity(entries.len());
    let mut gap = Vec::with_capacity(entries.len());
    let mut unrouted_mbps = 0.0;
    let mut mi = 0usize;
    for &(prefix, mbps) in entries {
        if mbps <= 0.0 {
            continue;
        }
        while mi < memo.len() && memo[mi].prefix < prefix {
            mi += 1;
        }
        let memo_hit = match memo.get(mi) {
            Some(row) if row.prefix == prefix => {
                all_clean || row.stamp == routes.generation_of(&prefix)
            }
            _ => false,
        };
        let row = if memo_hit {
            memo[mi]
        } else {
            cache.decide(routes, prefix)
        };
        memo_next.push(row);
        if row.slot1 == 0 {
            unrouted_mbps += mbps;
        } else {
            let slot = (row.slot1 - 1) as usize;
            if cache.slot_epoch[slot] != cache.epoch {
                cache.slot_epoch[slot] = cache.epoch;
                cache.slot_sum[slot] = 0.0;
                cache.touched.push(slot as u32);
            }
            cache.slot_sum[slot] += mbps;
            routed.push((prefix, mbps));
            egress.push(cache.slot_egress[slot]);
            gap.push(row.gap);
        }
    }
    let mut projection = Projection {
        routed,
        egress,
        gap,
        unrouted_mbps,
        ..Default::default()
    };

    // Interfaces enter `load_mbps` in first-touch order — the same order
    // `project`'s `entry(...)` calls create them in.
    projection.load_mbps.reserve(cache.touched.len());
    for &slot in &cache.touched {
        projection.load_mbps.insert(
            cache.slot_egress[slot as usize],
            cache.slot_sum[slot as usize],
        );
    }

    cache.memo = memo_next;
    cache.memo_next = memo;
    cache.entries = scratch;
    cache.synced = generation;
    cache.valid = true;
    debug_assert!(
        projection.bitwise_eq(&project(routes, traffic)),
        "memoized projection diverged from the stateless recompute"
    );
    projection
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::message::UpdateMessage;
    use ef_bgp::peer::{PeerId, PeerKind};
    use ef_bgp::{BmpMessage, BmpPeerHeader};
    use ef_net_types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(c: &mut RouteCollector, peer: u64, asn: u32, kind: PeerKind, prefix: &str) {
        let mut attrs = PathAttributes {
            local_pref: Some(kind.default_local_pref()),
            as_path: AsPath::sequence([Asn(asn)]),
            ..Default::default()
        };
        attrs.add_community(kind.tag_community());
        if kind == PeerKind::Controller {
            attrs.next_hop = Some(EgressId(99).to_next_hop().unwrap());
        }
        c.ingest([BmpMessage::RouteMonitoring {
            peer: BmpPeerHeader {
                peer: PeerId(peer),
                peer_asn: Asn(asn),
                peer_bgp_id: "10.0.0.1".parse().unwrap(),
                timestamp_ms: 0,
            },
            update: UpdateMessage::announce(p(prefix), attrs),
        }]);
    }

    fn collector() -> RouteCollector {
        RouteCollector::new(HashMap::from([
            (PeerId(1), EgressId(11)),
            (PeerId(2), EgressId(12)),
            (PeerId(100), EgressId(0)),
        ]))
    }

    #[test]
    fn demand_lands_on_preferred_route() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "1.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 100.0)]);
        let proj = project(&c, &traffic);
        assert_eq!(proj.load(EgressId(11)), 100.0);
        assert_eq!(proj.load(EgressId(12)), 0.0);
        assert_eq!(proj.assigned_egress(&p("1.0.0.0/24")), Some(EgressId(11)));
        assert_eq!(proj.unrouted_mbps, 0.0);
        assert_eq!(proj.routed, [(p("1.0.0.0/24"), 100.0)]);
    }

    #[test]
    fn loads_accumulate_across_prefixes() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "2.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0), (p("2.0.0.0/24"), 40.0)]);
        let proj = project(&c, &traffic);
        assert_eq!(proj.load(EgressId(11)), 100.0);
    }

    #[test]
    fn overrides_are_ignored_by_projection() {
        // The whole point: projection answers "what would BGP do alone?".
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 100, 32934, PeerKind::Controller, "1.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 100.0)]);
        let proj = project(&c, &traffic);
        assert_eq!(proj.load(EgressId(11)), 100.0, "organic route carries it");
        assert_eq!(
            proj.load(EgressId(99)),
            0.0,
            "override egress not projected"
        );
    }

    #[test]
    fn unrouted_demand_is_reported() {
        let c = collector();
        let traffic = HashMap::from([(p("9.9.9.0/24"), 50.0)]);
        let proj = project(&c, &traffic);
        assert_eq!(proj.unrouted_mbps, 50.0);
        assert!(proj.routed.is_empty());
    }

    fn withdraw(c: &mut RouteCollector, peer: u64, asn: u32, prefix: &str) {
        c.ingest([BmpMessage::RouteMonitoring {
            peer: BmpPeerHeader {
                peer: PeerId(peer),
                peer_asn: Asn(asn),
                peer_bgp_id: "10.0.0.1".parse().unwrap(),
                timestamp_ms: 0,
            },
            update: UpdateMessage::withdraw([p(prefix)]),
        }]);
    }

    fn assert_projections_match(
        c: &RouteCollector,
        cache: &mut ProjectionCache,
        traffic: &HashMap<Prefix, f64>,
    ) {
        let fresh = project(c, traffic);
        let cached = project_cached(cache, c, traffic);
        assert_eq!(fresh.load_mbps, cached.load_mbps);
        assert_eq!(fresh.routed, cached.routed);
        assert_eq!(fresh.egress, cached.egress);
        assert_eq!(fresh.gap, cached.gap);
        assert_eq!(fresh.unrouted_mbps, cached.unrouted_mbps);
    }

    #[test]
    fn cached_projection_matches_fresh_through_churn() {
        let mut c = collector();
        let mut cache = ProjectionCache::new();
        let traffic = HashMap::from([
            (p("1.0.0.0/24"), 60.0),
            (p("2.0.0.0/24"), 40.0),
            (p("3.0.0.0/24"), 25.0),
        ]);

        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "1.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "2.0.0.0/24");
        assert_projections_match(&c, &mut cache, &traffic);

        // Preferred route withdrawn: memo must fall back to transit.
        withdraw(&mut c, 1, 65001, "1.0.0.0/24");
        assert_projections_match(&c, &mut cache, &traffic);

        // Route appears for a previously unrouted prefix.
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "3.0.0.0/24");
        assert_projections_match(&c, &mut cache, &traffic);

        // Override churn hits the memoized answers without invalidating.
        announce(&mut c, 100, 32934, PeerKind::Controller, "2.0.0.0/24");
        let before = cache.memo.len();
        assert_projections_match(&c, &mut cache, &traffic);
        assert_eq!(cache.memo.len(), before, "override did not grow the memo");
    }

    #[test]
    fn cached_projection_survives_peer_down() {
        let mut c = collector();
        let mut cache = ProjectionCache::new();
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0), (p("2.0.0.0/24"), 40.0)]);
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "2.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "1.0.0.0/24");
        assert_projections_match(&c, &mut cache, &traffic);

        // Peer failure (the chaos fault path) flushes peer 1 wholesale.
        c.ingest([BmpMessage::PeerDown {
            peer: BmpPeerHeader {
                peer: PeerId(1),
                peer_asn: Asn(65001),
                peer_bgp_id: "10.0.0.1".parse().unwrap(),
                timestamp_ms: 0,
            },
            reason: 1,
        }]);
        assert_projections_match(&c, &mut cache, &traffic);
    }

    /// The in-situ invariant is live: a memoized answer the generation
    /// stamps cannot see through must stop a debug build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diverged from the stateless recompute")]
    fn poisoned_memo_entry_trips_the_invariant() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0)]);
        let mut cache = ProjectionCache::new();
        project_cached(&mut cache, &c, &traffic);
        // Slot 0 encodes "no non-override route"; the stamp stays valid.
        cache.memo[0].slot1 = 0;
        project_cached(&mut cache, &c, &traffic);
    }

    /// The same for the gap the allocator keys victims by: a memoized gap
    /// the stamps cannot see through must stop a debug build too.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diverged from the stateless recompute")]
    fn poisoned_memo_gap_trips_the_invariant() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "1.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0)]);
        let mut cache = ProjectionCache::new();
        project_cached(&mut cache, &c, &traffic);
        cache.memo[0].gap = PrefGap::NONE;
        project_cached(&mut cache, &c, &traffic);
    }

    /// The gap rides in the memo row's alignment padding.
    #[test]
    fn memo_row_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<MemoRow>(), 48);
    }

    #[test]
    fn gap_reads_the_best_alternate_off_the_best_egress() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        announce(&mut c, 2, 65010, PeerKind::Transit, "1.0.0.0/24");
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "2.0.0.0/24");
        // An override onto another egress is not an organic alternate.
        announce(&mut c, 100, 32934, PeerKind::Controller, "2.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0), (p("2.0.0.0/24"), 40.0)]);
        let proj = project(&c, &traffic);
        let private = PeerKind::PrivatePeer.default_local_pref();
        let transit = PeerKind::Transit.default_local_pref();
        assert_eq!(
            proj.gap,
            [PrefGap::between(private, Some(transit)), PrefGap::NONE]
        );
        assert!(PrefGap::between(private, Some(transit)) < PrefGap::NONE);
        assert!(PrefGap::between(u32::MAX, Some(0)) < PrefGap::NONE);
    }

    #[test]
    fn zero_and_negative_demand_skipped() {
        let mut c = collector();
        announce(&mut c, 1, 65001, PeerKind::PrivatePeer, "1.0.0.0/24");
        let traffic = HashMap::from([(p("1.0.0.0/24"), 0.0)]);
        let proj = project(&c, &traffic);
        assert!(proj.routed.is_empty());
        assert_eq!(proj.unrouted_mbps, 0.0);
    }
}
