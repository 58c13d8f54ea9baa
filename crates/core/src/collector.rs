//! BMP route collection (paper §4.1).
//!
//! The controller never peers with routers to learn routes — it consumes
//! their BMP feeds, which export every post-policy route (not only the
//! decision winners). [`RouteCollector`] folds those messages into a
//! [`LocRib`] of decision records, the view the projection and allocator
//! operate on. They read each route's source, egress and decision key and
//! nothing else, so the collector derives one [`RouteRec`] per message and
//! keeps no attributes.
//!
//! Routes are classified by the interconnect-kind community the routers'
//! import policy tagged at the edge; the egress interface of a route is the
//! attachment egress of the peer it came from (supplied as static config),
//! except controller-injected routes, whose egress rides in the synthetic
//! next hop.

use std::collections::HashMap;

use ef_bgp::attrstore::RouteRec;
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, RouteSource};
use ef_bgp::{BmpMessage, LocRib};
use ef_net_types::Prefix;

/// Maintains the controller's merged route view from BMP.
#[derive(Debug, Clone, Default)]
pub struct RouteCollector {
    /// Peer → egress interface, from PoP config.
    peer_egress: HashMap<PeerId, EgressId>,
    rib: LocRib,
    /// Messages that could not be attributed (unknown peer, missing tag).
    dropped: usize,
    /// Global generation counter; the source of per-prefix stamps.
    generation: u64,
    /// Per-prefix generation, bumped whenever the prefix's *non-override*
    /// candidate set changes (see [`generation_of`](Self::generation_of)).
    generations: HashMap<Prefix, u64>,
}

impl RouteCollector {
    /// Creates a collector knowing each peer's egress interface.
    pub fn new(peer_egress: HashMap<PeerId, EgressId>) -> Self {
        RouteCollector {
            peer_egress,
            rib: LocRib::new(),
            dropped: 0,
            generation: 0,
            generations: HashMap::new(),
        }
    }

    /// Stamps `prefix` with a fresh generation.
    fn touch(&mut self, prefix: Prefix) {
        self.generation += 1;
        self.generations.insert(prefix, self.generation);
    }

    /// The prefix's generation stamp: guaranteed to change whenever the set
    /// of non-override candidate routes for the prefix changes, and
    /// guaranteed *not* to change on controller-route (override) churn —
    /// projection ignores overrides, so its memoized per-prefix decision
    /// stays valid exactly as long as this stamp does. Prefixes never seen
    /// report 0.
    pub(crate) fn generation_of(&self, prefix: &Prefix) -> u64 {
        self.generations.get(prefix).copied().unwrap_or(0)
    }

    /// The global generation counter: strictly increases every time *any*
    /// prefix's non-override candidate set changes, and never moves on
    /// override churn. When two snapshots of this counter agree, every
    /// per-prefix stamp taken in between is still valid — the projection
    /// cache's steady-state fast path.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of messages dropped for lack of attribution.
    pub(crate) fn dropped(&self) -> usize {
        self.dropped
    }

    /// Folds a batch of BMP messages into the route view.
    pub fn ingest(&mut self, messages: impl IntoIterator<Item = BmpMessage>) {
        for msg in messages {
            match msg {
                BmpMessage::RouteMonitoring { peer, update } => {
                    // Kind is recovered from the import-tag community.
                    let kind = update.attrs.communities.iter().find_map(|c| {
                        (c.asn_part() == (ef_net_types::Asn::LOCAL.0 & 0xFFFF) as u16)
                            .then(|| PeerKind::from_tag_code(c.value_part()))
                            .flatten()
                    });
                    for prefix in &update.withdrawn {
                        // Dirty only if the withdrawal removes a route that
                        // projection could see (non-override); withdrawing
                        // nothing, or an override, leaves its view intact.
                        let dirties = self
                            .rib
                            .candidates(prefix)
                            .iter()
                            .any(|r| r.source.peer == peer.peer && !r.is_override());
                        self.rib.withdraw(prefix, peer.peer);
                        if dirties {
                            self.touch(*prefix);
                        }
                    }
                    if update.announced.is_empty() {
                        continue;
                    }
                    let Some(kind) = kind else {
                        self.dropped += 1;
                        continue;
                    };
                    let egress = if kind == PeerKind::Controller {
                        update.attrs.next_hop.and_then(EgressId::from_next_hop)
                    } else {
                        self.peer_egress.get(&peer.peer).copied()
                    };
                    let Some(egress) = egress else {
                        self.dropped += 1;
                        continue;
                    };
                    let source = RouteSource {
                        peer: peer.peer,
                        peer_asn: peer.peer_asn,
                        kind,
                    };
                    // One record per message, however many prefixes it
                    // announces.
                    let rec = RouteRec::new(&update.attrs, source, egress);
                    for prefix in &update.announced {
                        self.rib.install(*prefix, rec);
                        // Controller self-echoes are overrides: projection
                        // never reads them, so they must not dirty the memo.
                        if kind != PeerKind::Controller {
                            self.touch(*prefix);
                        }
                    }
                }
                BmpMessage::PeerDown { peer, .. } => {
                    // `withdraw_peer` reports overall-best changes, which is
                    // the wrong signal here (overrides mask organic churn);
                    // scan for prefixes losing a non-override route instead.
                    let dirty: Vec<Prefix> = self
                        .rib
                        .iter()
                        .filter(|(_, routes)| {
                            routes
                                .iter()
                                .any(|r| r.source.peer == peer.peer && !r.is_override())
                        })
                        .map(|(prefix, _)| *prefix)
                        .collect();
                    self.rib.withdraw_peer(peer.peer);
                    for prefix in dirty {
                        self.touch(prefix);
                    }
                }
                BmpMessage::PeerUp(_) | BmpMessage::Initiation { .. } | BmpMessage::Termination => {
                }
            }
        }
    }

    /// Re-lays the Loc-RIB out prefix-sorted with no slack (see
    /// [`LocRib::compact`]), the end of a bulk load. Nothing reads the slot
    /// order: candidates are looked up by prefix, and a peer-down scan
    /// only collects the prefixes it dirties, each stamped afresh.
    pub fn compact(&mut self) {
        self.rib.compact()
    }

    /// Bytes the route view holds (see [`LocRib::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.rib.approx_bytes()
    }

    /// Every candidate route for a prefix, as compact pooled records.
    pub fn candidates(&self, prefix: &Prefix) -> &[RouteRec] {
        self.rib.candidates(prefix)
    }

    /// Candidates ranked best-first into a caller-owned scratch vector.
    pub(crate) fn ranked_into(&self, prefix: &Prefix, out: &mut Vec<RouteRec>) {
        self.rib.ranked_into(prefix, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::message::UpdateMessage;
    use ef_bgp::BmpPeerHeader;
    use ef_net_types::Asn;

    /// Number of prefixes with at least one route.
    fn prefix_count(c: &RouteCollector) -> usize {
        c.rib.len()
    }

    fn header(peer: u64, asn: u32) -> BmpPeerHeader {
        BmpPeerHeader {
            peer: PeerId(peer),
            peer_asn: Asn(asn),
            peer_bgp_id: "10.0.0.1".parse().unwrap(),
            timestamp_ms: 0,
        }
    }

    fn tagged_attrs(kind: PeerKind, path: &[u32]) -> PathAttributes {
        let mut attrs = PathAttributes {
            local_pref: Some(kind.default_local_pref()),
            as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
            ..Default::default()
        };
        attrs.add_community(kind.tag_community());
        attrs
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn collector() -> RouteCollector {
        RouteCollector::new(HashMap::from([
            (PeerId(1), EgressId(11)),
            (PeerId(2), EgressId(12)),
        ]))
    }

    #[test]
    fn announce_and_withdraw_flow_through() {
        let mut c = collector();
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(1, 65001),
            update: UpdateMessage::announce(
                p("203.0.113.0/24"),
                tagged_attrs(PeerKind::PrivatePeer, &[65001]),
            ),
        }]);
        assert_eq!(prefix_count(&c), 1);
        let routes = c.candidates(&p("203.0.113.0/24"));
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].egress, EgressId(11));
        assert_eq!(routes[0].source.kind, PeerKind::PrivatePeer);

        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(1, 65001),
            update: UpdateMessage::withdraw([p("203.0.113.0/24")]),
        }]);
        assert_eq!(prefix_count(&c), 0);
    }

    #[test]
    fn ranked_respects_decision_process() {
        let mut c = collector();
        c.ingest([
            BmpMessage::RouteMonitoring {
                peer: header(2, 65010),
                update: UpdateMessage::announce(
                    p("203.0.113.0/24"),
                    tagged_attrs(PeerKind::Transit, &[65010]),
                ),
            },
            BmpMessage::RouteMonitoring {
                peer: header(1, 65001),
                update: UpdateMessage::announce(
                    p("203.0.113.0/24"),
                    tagged_attrs(PeerKind::PrivatePeer, &[65001, 64999]),
                ),
            },
        ]);
        let mut ranked = Vec::new();
        c.ranked_into(&p("203.0.113.0/24"), &mut ranked);
        assert_eq!(ranked.len(), 2);
        assert_eq!(
            ranked[0].source.kind,
            PeerKind::PrivatePeer,
            "tier beats length"
        );
    }

    #[test]
    fn peer_down_flushes_routes() {
        let mut c = collector();
        for prefix in ["1.0.0.0/24", "2.0.0.0/24"] {
            c.ingest([BmpMessage::RouteMonitoring {
                peer: header(1, 65001),
                update: UpdateMessage::announce(
                    p(prefix),
                    tagged_attrs(PeerKind::PrivatePeer, &[65001]),
                ),
            }]);
        }
        assert_eq!(prefix_count(&c), 2);
        c.ingest([BmpMessage::PeerDown {
            peer: header(1, 65001),
            reason: 1,
        }]);
        assert_eq!(prefix_count(&c), 0);
    }

    #[test]
    fn untagged_routes_are_dropped_and_counted() {
        let mut c = collector();
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(1, 65001),
            update: UpdateMessage::announce(
                p("203.0.113.0/24"),
                PathAttributes::default(), // no kind tag
            ),
        }]);
        assert_eq!(prefix_count(&c), 0);
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn unknown_peer_is_dropped() {
        let mut c = collector();
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(99, 65099),
            update: UpdateMessage::announce(
                p("203.0.113.0/24"),
                tagged_attrs(PeerKind::PublicPeer, &[65099]),
            ),
        }]);
        assert_eq!(prefix_count(&c), 0);
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn controller_routes_resolve_egress_from_next_hop() {
        let mut c = collector();
        let mut attrs = tagged_attrs(PeerKind::Controller, &[]);
        attrs.next_hop = Some(EgressId(42).to_next_hop().unwrap());
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(100, 32934),
            update: UpdateMessage::announce(p("203.0.113.0/24"), attrs),
        }]);
        let routes = c.candidates(&p("203.0.113.0/24"));
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].egress, EgressId(42));
        assert!(routes[0].is_override());
    }

    #[test]
    fn generations_track_non_override_churn_only() {
        let mut c = collector();
        let prefix = p("203.0.113.0/24");
        assert_eq!(c.generation_of(&prefix), 0, "unseen prefix is generation 0");

        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(1, 65001),
            update: UpdateMessage::announce(prefix, tagged_attrs(PeerKind::PrivatePeer, &[65001])),
        }]);
        let g1 = c.generation_of(&prefix);
        assert!(g1 > 0, "organic announce dirties");

        // Override churn is invisible to projection and must not dirty.
        let mut oattrs = tagged_attrs(PeerKind::Controller, &[]);
        oattrs.next_hop = Some(EgressId(42).to_next_hop().unwrap());
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(100, 32934),
            update: UpdateMessage::announce(prefix, oattrs),
        }]);
        assert_eq!(c.generation_of(&prefix), g1, "override announce is clean");
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(100, 32934),
            update: UpdateMessage::withdraw([prefix]),
        }]);
        assert_eq!(c.generation_of(&prefix), g1, "override withdraw is clean");

        // Withdrawing a route the peer does not hold leaves the set alone.
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(2, 65010),
            update: UpdateMessage::withdraw([prefix]),
        }]);
        assert_eq!(c.generation_of(&prefix), g1, "no-op withdraw is clean");

        // A real withdrawal dirties.
        c.ingest([BmpMessage::RouteMonitoring {
            peer: header(1, 65001),
            update: UpdateMessage::withdraw([prefix]),
        }]);
        assert!(c.generation_of(&prefix) > g1, "organic withdraw dirties");
    }

    #[test]
    fn peer_down_dirties_exactly_the_peers_prefixes() {
        let mut c = collector();
        c.ingest([
            BmpMessage::RouteMonitoring {
                peer: header(1, 65001),
                update: UpdateMessage::announce(
                    p("1.0.0.0/24"),
                    tagged_attrs(PeerKind::PrivatePeer, &[65001]),
                ),
            },
            BmpMessage::RouteMonitoring {
                peer: header(2, 65010),
                update: UpdateMessage::announce(
                    p("2.0.0.0/24"),
                    tagged_attrs(PeerKind::Transit, &[65010]),
                ),
            },
        ]);
        let g1 = c.generation_of(&p("1.0.0.0/24"));
        let g2 = c.generation_of(&p("2.0.0.0/24"));
        c.ingest([BmpMessage::PeerDown {
            peer: header(1, 65001),
            reason: 1,
        }]);
        assert!(
            c.generation_of(&p("1.0.0.0/24")) > g1,
            "downed peer's prefix dirtied"
        );
        assert_eq!(
            c.generation_of(&p("2.0.0.0/24")),
            g2,
            "unrelated prefix untouched"
        );
    }
}
