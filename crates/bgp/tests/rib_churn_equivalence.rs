//! Equivalence of the pooled, attribute-interned [`LocRib`] against the
//! reference representation it replaced: `HashMap<Prefix, Vec<Route>>`
//! with per-route deep attribute clones, ranked by a decision ladder that
//! reads each fat [`Route`]'s attributes directly ([`compare`],
//! [`best_route`], [`rank_routes`] below — the reference model, used
//! nowhere else).
//!
//! Under arbitrary churn (install / replace-from-same-peer / withdraw /
//! session teardown / compaction), the two must agree byte-for-byte on
//! candidate sets, arrival order, decision ranking, best-route changes,
//! and route counts. This is the contract that lets every consumer of the
//! RIB switch to `RouteRec` handles without re-auditing decisions.

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

/// Reference model: the pre-pooling Loc-RIB representation.
#[derive(Default)]
struct ModelRib {
    table: HashMap<Prefix, Vec<Route>>,
}

/// The model's best-change report, as materialized routes.
#[derive(Debug, PartialEq)]
enum ModelChange {
    Unchanged,
    NewBest(Route),
    Unreachable,
}

impl ModelRib {
    fn install(&mut self, route: Route) -> ModelChange {
        let routes = self.table.entry(route.prefix).or_default();
        let old_best = best_route(routes).cloned();
        match routes
            .iter_mut()
            .find(|r| r.source.peer == route.source.peer)
        {
            Some(slot) => *slot = route,
            None => routes.push(route),
        }
        let new_best = best_route(routes).cloned();
        if old_best == new_best {
            ModelChange::Unchanged
        } else {
            // Install always leaves at least one route.
            ModelChange::NewBest(new_best.unwrap())
        }
    }

    fn withdraw(&mut self, prefix: &Prefix, peer: PeerId) -> ModelChange {
        let Some(routes) = self.table.get_mut(prefix) else {
            return ModelChange::Unchanged;
        };
        if !routes.iter().any(|r| r.source.peer == peer) {
            return ModelChange::Unchanged;
        }
        let old_best = best_route(routes).cloned();
        routes.retain(|r| r.source.peer != peer);
        if routes.is_empty() {
            self.table.remove(prefix);
            return ModelChange::Unreachable;
        }
        let new_best = best_route(routes).cloned();
        if old_best == new_best {
            ModelChange::Unchanged
        } else {
            ModelChange::NewBest(new_best.unwrap())
        }
    }

    fn withdraw_peer(&mut self, peer: PeerId) -> Vec<(Prefix, ModelChange)> {
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
            .filter(|(_, c)| !matches!(c, ModelChange::Unchanged))
            .collect()
    }

    fn route_count(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }
}

/// Materializes a full [`Route`] from one of the pooled RIB's records.
fn route(rib: &LocRib, prefix: Prefix, rec: &RouteRec) -> Route {
    Route {
        prefix,
        attrs: rib.store().attrs(rec.attr).clone(),
        source: rec.source,
        egress: rec.egress,
    }
}

/// Materializes the pooled RIB's change report for comparison.
fn materialize_change(rib: &LocRib, prefix: Prefix, change: &BestChange) -> ModelChange {
    match change {
        BestChange::Unchanged => ModelChange::Unchanged,
        BestChange::NewBest(rec) => ModelChange::NewBest(route(rib, prefix, rec)),
        BestChange::Unreachable => ModelChange::Unreachable,
    }
}

/// Asserts full observable equivalence between the pooled RIB and the model.
fn assert_equivalent(rib: &LocRib, model: &ModelRib) {
    assert_eq!(rib.len(), model.table.len(), "prefix count");
    assert_eq!(rib.route_count(), model.route_count(), "route count");
    let mut ranked_scratch = Vec::new();
    for (prefix, routes) in &model.table {
        // Candidate sets in arrival order, byte-identical once materialized.
        let candidates: Vec<Route> = rib
            .candidates(prefix)
            .iter()
            .map(|rec| route(rib, *prefix, rec))
            .collect();
        assert_eq!(&candidates, routes, "candidates for {prefix}");

        // Decision ranking identical to the reference sort.
        rib.ranked_into(prefix, &mut ranked_scratch);
        let ranked: Vec<Route> = ranked_scratch
            .iter()
            .map(|rec| route(rib, *prefix, rec))
            .collect();
        let model_ranked: Vec<Route> = rank_routes(routes).into_iter().cloned().collect();
        assert_eq!(ranked, model_ranked, "ranking for {prefix}");

        // Best route identical.
        let best = rib.best(prefix).map(|rec| route(rib, *prefix, rec));
        assert_eq!(best, best_route(routes).cloned(), "best for {prefix}");
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
    Compact,
}

const N_PREFIXES: usize = 6;
const N_PEERS: usize = 4;
const N_ATTRS: usize = 8;

/// Half IPv4 /24s, half IPv6 /48s under `2001:db8::/32`, so both families
/// run through the compact RIB and the reference ladder.
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
    // withdraw/teardown/compact churn.
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
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary churn: the pooled RIB and the reference model agree on
    /// every change report and on the full observable state after every
    /// operation.
    #[test]
    fn pooled_rib_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
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
                    let change = rib.install_ref(
                        route.prefix,
                        &route.attrs,
                        route.source,
                        route.egress,
                    );
                    let got = materialize_change(&rib, route.prefix, &change);
                    let want = model.install(route);
                    prop_assert_eq!(got, want, "install change report");
                }
                Op::Withdraw { prefix_ix, peer_ix } => {
                    let prefix = prefixes[prefix_ix];
                    let peer = sources[peer_ix].peer;
                    let change = rib.withdraw(&prefix, peer);
                    let got = materialize_change(&rib, prefix, &change);
                    let want = model.withdraw(&prefix, peer);
                    prop_assert_eq!(got, want, "withdraw change report");
                }
                Op::WithdrawPeer { peer_ix } => {
                    let peer = sources[peer_ix].peer;
                    let changes = rib.withdraw_peer(peer);
                    let got: Vec<(Prefix, ModelChange)> = changes
                        .iter()
                        .map(|(p, c)| (*p, materialize_change(&rib, *p, c)))
                        .collect();
                    let want = model.withdraw_peer(peer);
                    prop_assert_eq!(got, want, "withdraw_peer change reports");
                }
                Op::Compact => rib.compact(),
            }
            assert_equivalent(&rib, &model);
        }

        // Interning actually shares storage: never more distinct attribute
        // sets than generator patterns, regardless of route count.
        prop_assert!(rib.distinct_attrs() <= N_ATTRS);

        // Drain everything; the pooled structures must empty out.
        for source in &sources {
            rib.withdraw_peer(source.peer);
            model.withdraw_peer(source.peer);
        }
        assert_equivalent(&rib, &model);
        prop_assert_eq!(rib.route_count(), 0);
        prop_assert!(rib.is_empty());
        prop_assert_eq!(rib.store().distinct(), 0, "attr refcounts leaked");
    }
}
