//! Equivalence of the [`LocRib`] of decision records against the
//! reference representation it replaced: `HashMap<Prefix, Vec<Route>>`
//! with per-route deep attribute clones, ranked by a decision ladder that
//! reads each fat [`Route`]'s attributes directly ([`compare`],
//! [`best_route`], [`rank_routes`] below — the reference model, used
//! nowhere else).
//!
//! Under arbitrary churn (install / replace-from-same-peer / withdraw /
//! session teardown), the two must agree on candidate sets,
//! arrival order, decision ranking, best-route changes and route counts,
//! each route compared as what the RIB keeps of it: `(source, egress,
//! key)`, the [`RouteRec`]. This is the contract that lets every consumer
//! of the RIB work on records without re-auditing decisions.

use std::cmp::Ordering;
use std::collections::HashMap;

use proptest::prelude::*;

use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, Route, RouteSource};
use ef_bgp::{BestChange, LocRib, RouteRec};
use ef_net_types::{Asn, Community, Prefix};

/// Reference ladder: RFC 4271 §9.1 over fat routes, recomputing every
/// effective value from the attributes. `Greater` means `a` is preferred.
fn compare(a: &Route, b: &Route) -> Ordering {
    // 1. Highest LOCAL_PREF.
    let lp = a
        .attrs
        .effective_local_pref()
        .cmp(&b.attrs.effective_local_pref());
    if lp != Ordering::Equal {
        return lp;
    }
    // 2. Shortest AS path (sets count once).
    let len = b
        .attrs
        .as_path
        .decision_len()
        .cmp(&a.attrs.as_path.decision_len());
    if len != Ordering::Equal {
        return len;
    }
    // 3. Lowest origin code.
    let origin = b.attrs.origin.cmp(&a.attrs.origin);
    if origin != Ordering::Equal {
        return origin;
    }
    // 4. Lowest MED, only when the neighbor AS matches.
    if a.attrs.as_path.neighbor_as().is_some()
        && a.attrs.as_path.neighbor_as() == b.attrs.as_path.neighbor_as()
    {
        let med = b.attrs.effective_med().cmp(&a.attrs.effective_med());
        if med != Ordering::Equal {
            return med;
        }
    }
    // 6. Deterministic final tie-break: lowest peer id.
    b.source.peer.cmp(&a.source.peer)
}

/// The unique maximum under [`compare`]; ties resolve to the first listed.
fn best_route(candidates: &[Route]) -> Option<&Route> {
    let mut best: Option<&Route> = None;
    for r in candidates {
        match best {
            Some(b) if compare(r, b) != Ordering::Greater => {}
            _ => best = Some(r),
        }
    }
    best
}

/// Candidates best-first, by the same stable sort the RIB uses.
fn rank_routes(candidates: &[Route]) -> Vec<&Route> {
    let mut v: Vec<&Route> = candidates.iter().collect();
    v.sort_by(|a, b| compare(b, a));
    v
}

/// Reference model: the Loc-RIB representation before decision records.
#[derive(Default)]
struct ModelRib {
    table: HashMap<Prefix, Vec<Route>>,
}

/// What the RIB keeps of a route.
fn rec(route: &Route) -> RouteRec {
    RouteRec::new(&route.attrs, route.source, route.egress)
}

impl ModelRib {
    fn install(&mut self, route: Route) -> BestChange {
        let routes = self.table.entry(route.prefix).or_default();
        let old_best = best_route(routes).map(rec);
        match routes
            .iter_mut()
            .find(|r| r.source.peer == route.source.peer)
        {
            Some(slot) => *slot = route,
            None => routes.push(route),
        }
        let new_best = best_route(routes).map(rec);
        if old_best == new_best {
            BestChange::Unchanged
        } else {
            // Install always leaves at least one route.
            BestChange::NewBest(new_best.unwrap())
        }
    }

    fn withdraw(&mut self, prefix: &Prefix, peer: PeerId) -> BestChange {
        let Some(routes) = self.table.get_mut(prefix) else {
            return BestChange::Unchanged;
        };
        if !routes.iter().any(|r| r.source.peer == peer) {
            return BestChange::Unchanged;
        }
        let old_best = best_route(routes).map(rec);
        routes.retain(|r| r.source.peer != peer);
        if routes.is_empty() {
            self.table.remove(prefix);
            return BestChange::Unreachable;
        }
        let new_best = best_route(routes).map(rec);
        if old_best == new_best {
            BestChange::Unchanged
        } else {
            BestChange::NewBest(new_best.unwrap())
        }
    }

    fn withdraw_peer(&mut self, peer: PeerId) -> Vec<(Prefix, BestChange)> {
        let mut prefixes: Vec<Prefix> = self
            .table
            .iter()
            .filter(|(_, routes)| routes.iter().any(|r| r.source.peer == peer))
            .map(|(p, _)| *p)
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

    fn route_count(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }
}

/// Asserts full observable equivalence between the RIB and the model.
fn assert_equivalent(rib: &LocRib, model: &ModelRib) {
    assert_eq!(rib.len(), model.table.len(), "prefix count");
    assert_eq!(rib.route_count(), model.route_count(), "route count");
    let mut ranked = Vec::new();
    for (prefix, routes) in &model.table {
        // Candidate sets in arrival order.
        let candidates: Vec<RouteRec> = routes.iter().map(rec).collect();
        assert_eq!(
            rib.candidates(prefix),
            &candidates[..],
            "candidates for {prefix}"
        );

        // Decision ranking identical to the reference sort.
        rib.ranked_into(prefix, &mut ranked);
        let model_ranked: Vec<RouteRec> = rank_routes(routes).into_iter().map(rec).collect();
        assert_eq!(ranked, model_ranked, "ranking for {prefix}");

        // Best route identical.
        assert_eq!(
            rib.best(prefix).copied(),
            best_route(routes).map(rec),
            "best for {prefix}"
        );
    }
}

/// The fuzzable churn operations.
#[derive(Debug, Clone)]
enum Op {
    Install {
        prefix_ix: usize,
        peer_ix: usize,
        attr_ix: usize,
        egress: u32,
    },
    Withdraw {
        prefix_ix: usize,
        peer_ix: usize,
    },
    WithdrawPeer {
        peer_ix: usize,
    },
}

const N_PREFIXES: usize = 6;
const N_PEERS: usize = 4;
const N_ATTRS: usize = 8;

/// Half IPv4 /24s, half IPv6 /48s under `2001:db8::/32`, so both families
/// run through the RIB and the reference ladder.
fn prefixes() -> Vec<Prefix> {
    (0..N_PREFIXES as u16)
        .map(|i| {
            if i % 2 == 0 {
                Prefix::v4(std::net::Ipv4Addr::new(10, i as u8, 0, 0), 24)
            } else {
                Prefix::v6(std::net::Ipv6Addr::new(0x2001, 0xdb8, i, 0, 0, 0, 0, 0), 48)
            }
        })
        .collect()
}

fn sources() -> Vec<RouteSource> {
    (0..N_PEERS as u64)
        .map(|p| RouteSource {
            peer: PeerId(p + 1),
            peer_asn: Asn(65_000 + p as u32),
            kind: match p % 4 {
                0 => PeerKind::Transit,
                1 => PeerKind::PrivatePeer,
                2 => PeerKind::PublicPeer,
                _ => PeerKind::Controller,
            },
        })
        .collect()
}

/// Attribute patterns exercising every rung of the decision ladder,
/// including ties (same local_pref and path length, different MEDs and
/// neighbor ASes — the non-transitive MED rung).
fn attr_patterns() -> Vec<PathAttributes> {
    (0..N_ATTRS)
        .map(|i| {
            let mut attrs = PathAttributes {
                local_pref: if i % 3 == 0 {
                    None
                } else {
                    Some(100 + (i as u32 % 4) * 50)
                },
                as_path: AsPath::sequence((0..(i % 3 + 1)).map(|k| Asn(64_500 + (i + k) as u32))),
                med: if i % 2 == 0 { Some(i as u32 * 5) } else { None },
                origin: match i % 3 {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                ..Default::default()
            };
            if i % 4 == 0 {
                attrs.add_community(Community::new(64_500, i as u16));
            }
            attrs
        })
        .collect()
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Installs dominate (two arms) so tables actually fill up between the
    // withdraw/teardown churn.
    let install = || {
        (0..N_PREFIXES, 0..N_PEERS, 0..N_ATTRS, 1u32..4).prop_map(
            |(prefix_ix, peer_ix, attr_ix, egress)| Op::Install {
                prefix_ix,
                peer_ix,
                attr_ix,
                egress,
            },
        )
    };
    prop_oneof![
        install(),
        install(),
        (0..N_PREFIXES, 0..N_PEERS)
            .prop_map(|(prefix_ix, peer_ix)| Op::Withdraw { prefix_ix, peer_ix }),
        (0..N_PEERS).prop_map(|peer_ix| Op::WithdrawPeer { peer_ix }),
    ]
}

/// The bytes of a RIB that held one route at each of `prefixes` at once
/// and then lost them all: its map alone, with no record storage.
fn drained_index_bytes(prefixes: &[Prefix]) -> usize {
    let mut rib = LocRib::new();
    let source = sources()[0];
    let attrs = PathAttributes::default();
    for prefix in prefixes {
        rib.install(*prefix, RouteRec::new(&attrs, source, EgressId(1)));
    }
    for prefix in prefixes {
        rib.withdraw(prefix, source.peer);
    }
    rib.approx_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary churn: the RIB and the reference model agree on every
    /// change report and on the full observable state after every
    /// operation, and a drained RIB keeps no record storage.
    #[test]
    fn loc_rib_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let prefixes = prefixes();
        let sources = sources();
        let patterns = attr_patterns();
        let mut rib = LocRib::new();
        let mut model = ModelRib::default();

        for op in ops {
            match op {
                Op::Install { prefix_ix, peer_ix, attr_ix, egress } => {
                    let route = Route {
                        prefix: prefixes[prefix_ix],
                        attrs: patterns[attr_ix].clone(),
                        source: sources[peer_ix],
                        egress: EgressId(egress),
                    };
                    let got = rib.install(route.prefix, rec(&route));
                    let want = model.install(route);
                    prop_assert_eq!(got, want, "install change report");
                }
                Op::Withdraw { prefix_ix, peer_ix } => {
                    let prefix = prefixes[prefix_ix];
                    let peer = sources[peer_ix].peer;
                    let got = rib.withdraw(&prefix, peer);
                    let want = model.withdraw(&prefix, peer);
                    prop_assert_eq!(got, want, "withdraw change report");
                }
                Op::WithdrawPeer { peer_ix } => {
                    let peer = sources[peer_ix].peer;
                    let got = rib.withdraw_peer(peer);
                    let want = model.withdraw_peer(peer);
                    prop_assert_eq!(got, want, "withdraw_peer change reports");
                }
            }
            assert_equivalent(&rib, &model);
        }

        // Drain everything; the RIB must empty out and give every record's
        // storage back, keeping at most the map of a RIB that held every
        // prefix at once.
        for source in &sources {
            rib.withdraw_peer(source.peer);
            model.withdraw_peer(source.peer);
        }
        assert_equivalent(&rib, &model);
        prop_assert_eq!(rib.route_count(), 0);
        prop_assert!(rib.is_empty());
        prop_assert!(rib.approx_bytes() <= drained_index_bytes(&prefixes));
    }
}
