//! The override auditor.
//!
//! The paper's controller does not assume its BGP announcements took
//! effect — it verifies them (§5). After each epoch, the auditor re-runs
//! the peering routers' decision process over the live Loc-RIB and checks
//! two invariants:
//!
//! * **installed** — every override the controller believes is announced
//!   actually wins the decision process for its prefix *and* sits in the
//!   FIB pointing at the intended egress;
//! * **no leaks** — no controller-sourced route exists for a prefix the
//!   controller does not currently claim (withdrawn overrides must be
//!   gone).
//!
//! Violations become `audit.override_not_installed` /
//! `audit.override_leaked` events via [`AuditOutcome::emit`]. The audit
//! itself is read-only and deterministic, and the controller runs it after
//! every non-dry-run epoch regardless of whether telemetry is attached: its
//! findings feed the post-epoch reconciliation pass (re-announce what is
//! missing, force-withdraw what leaked), while `emit` is the only part
//! gated on a telemetry sink.

use std::collections::HashSet;

use ef_bgp::attrstore::RouteRec;
use ef_bgp::best_rec;
use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;
use ef_bgp::router::BgpRouter;
use ef_net_types::Prefix;

use crate::handle::TelemetryHandle;

/// One audit violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// The prefix whose override state is wrong.
    pub prefix: Prefix,
    /// The egress the controller intended (None for leak findings).
    pub expected_egress: Option<u32>,
    /// The egress actually observed (None when no route/FIB entry exists).
    pub found_egress: Option<u32>,
    /// What exactly went wrong.
    pub detail: String,
}

/// Result of one audit pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditOutcome {
    /// Overrides checked (the currently-announced set).
    pub checked: usize,
    /// Announced overrides that did not win the decision process or are
    /// not in the FIB at the intended egress.
    pub not_installed: Vec<AuditFinding>,
    /// Controller-sourced routes present for prefixes the controller does
    /// not claim (withdrawals that failed to take effect, or strays).
    pub leaked: Vec<AuditFinding>,
}

impl AuditOutcome {
    /// True when the epoch's override state verified completely.
    pub fn clean(&self) -> bool {
        self.not_installed.is_empty() && self.leaked.is_empty()
    }

    /// Total violations.
    pub fn failures(&self) -> usize {
        self.not_installed.len() + self.leaked.len()
    }

    /// Emits the findings as `audit.override_*` events.
    pub fn emit(&self, telemetry: &TelemetryHandle, pop: u16, now_ms: u64) {
        if !telemetry.enabled() {
            return;
        }
        for f in &self.not_installed {
            telemetry.emit(
                pop,
                now_ms,
                "audit.override_not_installed",
                &[
                    ("prefix", f.prefix.to_string().into()),
                    ("expected_egress", f.expected_egress.unwrap_or(0).into()),
                    (
                        "found_egress",
                        f.found_egress.map(u64::from).unwrap_or(0).into(),
                    ),
                    ("detail", f.detail.as_str().into()),
                ],
            );
        }
        for f in &self.leaked {
            telemetry.emit(
                pop,
                now_ms,
                "audit.override_leaked",
                &[
                    ("prefix", f.prefix.to_string().into()),
                    (
                        "found_egress",
                        f.found_egress.map(u64::from).unwrap_or(0).into(),
                    ),
                    ("detail", f.detail.as_str().into()),
                ],
            );
        }
    }
}

/// Audits the router's override state against what the controller believes
/// it has announced (`expected`, at most one entry per prefix) and what it
/// withdrew this epoch (`withdrawn`, re-checked explicitly even though the
/// leak scan subsumes it — a withdrawal that left a FIB entry behind is the
/// likeliest bug).
pub fn audit_overrides(
    router: &BgpRouter,
    expected: &[(Prefix, EgressId)],
    withdrawn: &[Prefix],
) -> AuditOutcome {
    let mut outcome = AuditOutcome {
        checked: expected.len(),
        ..Default::default()
    };

    // Installed check: each announced override must win the decision
    // process and own the FIB entry.
    for (prefix, target) in expected {
        let best = best_rec(router.candidates(prefix));
        let fib = router.fib_entry(prefix);
        let detail = match (best, fib) {
            (None, _) => Some("no route at all for announced override".to_string()),
            (Some(b), _) if !b.is_override() => Some(format!(
                "organic route via egress {} wins over the override",
                b.egress.0
            )),
            (Some(b), _) if b.egress != *target => Some(format!(
                "override installed toward egress {} instead of {}",
                b.egress.0, target.0
            )),
            (Some(_), None) => Some("decision winner missing from the FIB".to_string()),
            (Some(_), Some(f)) if !f.is_override || f.egress != *target => Some(format!(
                "FIB entry disagrees (egress {}, override={})",
                f.egress.0, f.is_override
            )),
            _ => None,
        };
        if let Some(detail) = detail {
            outcome.not_installed.push(AuditFinding {
                prefix: *prefix,
                expected_egress: Some(target.0),
                found_egress: best.map(|b| b.egress.0).or(fib.map(|f| f.egress.0)),
                detail,
            });
        }
    }

    // Leak scan: any controller-sourced route for an unclaimed prefix. A
    // controller route is a controller peer's Loc-RIB candidate, and a
    // peer's Adj-RIB-In is exactly its set of candidates, so those sets
    // name every prefix to look at: the scan costs O(overrides), not
    // O(RIB).
    let claimed: HashSet<Prefix> = expected.iter().map(|(p, _)| *p).collect();
    let mut leaks: Vec<(Prefix, EgressId)> = router
        .adj_rib_in_of_kind(PeerKind::Controller)
        .filter(|prefix| !claimed.contains(prefix))
        .filter_map(|prefix| Some((*prefix, first_override(router.candidates(prefix))?)))
        .collect();
    leaks.sort_unstable();
    leaks.dedup();
    debug_assert_eq!(
        leaks,
        leaks_by_full_walk(router, &claimed),
        "the controller peers' Adj-RIB-In diverged from the Loc-RIB's controller routes"
    );
    for (prefix, egress) in leaks {
        outcome.leaked.push(AuditFinding {
            prefix,
            expected_egress: None,
            found_egress: Some(egress.0),
            detail: "controller route present for unclaimed prefix".to_string(),
        });
    }
    // Withdrawn-this-epoch FIB check (catches a FIB that kept a dead route).
    for prefix in withdrawn {
        if claimed.contains(prefix) {
            continue;
        }
        let has_rib_leak = outcome.leaked.iter().any(|f| f.prefix == *prefix);
        if let Some(f) = router.fib_entry(prefix) {
            if f.is_override && !has_rib_leak {
                outcome.leaked.push(AuditFinding {
                    prefix: *prefix,
                    expected_egress: None,
                    found_egress: Some(f.egress.0),
                    detail: "withdrawn override still in the FIB".to_string(),
                });
            }
        }
    }

    // Deterministic report order regardless of RIB iteration order. The
    // order is textual (as the prefixes print), not `Prefix`'s: reconcile
    // sends in this order, so it reaches the router.
    outcome
        .not_installed
        .sort_by_cached_key(|f| f.prefix.to_string());
    outcome.leaked.sort_by_cached_key(|f| f.prefix.to_string());
    outcome
}

/// The egress of the first controller route among a prefix's candidates.
fn first_override(candidates: &[RouteRec]) -> Option<EgressId> {
    candidates
        .iter()
        .find(|r| r.is_override())
        .map(|r| r.egress)
}

/// The leak scan as a walk over every Loc-RIB candidate: the reference the
/// indexed scan is checked against in debug builds.
fn leaks_by_full_walk(router: &BgpRouter, claimed: &HashSet<Prefix>) -> Vec<(Prefix, EgressId)> {
    let mut leaks: Vec<(Prefix, EgressId)> = router
        .iter_candidates()
        .filter(|(prefix, _)| !claimed.contains(prefix))
        .filter_map(|(prefix, candidates)| Some((*prefix, first_override(candidates)?)))
        .collect();
    leaks.sort_unstable();
    leaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::peer::{PeerId, PeerKind};
    use ef_bgp::policy::{Policy, OVERRIDE_MARKER};
    use ef_bgp::router::{PeerAttachment, PeerStub, RouterConfig};
    use ef_net_types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A router with one private peer (egress 1) and one transit
    /// (egress 2) announcing `prefixes`, plus an established controller
    /// pseudo-peer whose marker community lifts injected routes.
    fn world(prefixes: &[&str]) -> (BgpRouter, PeerStub) {
        let mut router = BgpRouter::new(RouterConfig {
            name: "pr".into(),
            asn: Asn::LOCAL,
            router_id: "10.0.0.1".parse().unwrap(),
        });
        for (id, asn, kind, egress) in [
            (1u64, 65001u32, PeerKind::PrivatePeer, 1u32),
            (2, 65010, PeerKind::Transit, 2),
        ] {
            router.add_peer(PeerAttachment {
                peer: PeerId(id),
                peer_asn: Asn(asn),
                kind,
                egress: EgressId(egress),
                policy: Policy::default_import(Asn::LOCAL, kind),
                max_prefixes: 0,
            });
        }
        router.add_peer(PeerAttachment {
            peer: PeerId(1000),
            peer_asn: Asn::LOCAL,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(),
            max_prefixes: 0,
        });
        let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
        let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
        let mut ctl = PeerStub::new(PeerId(1000), Asn::LOCAL, "10.200.0.1".parse().unwrap());
        peer.pump(&mut router, 0);
        transit.pump(&mut router, 0);
        ctl.pump(&mut router, 0);
        for prefix in prefixes {
            peer.announce(
                &mut router,
                p(prefix),
                PathAttributes {
                    as_path: AsPath::sequence([Asn(65001)]),
                    ..Default::default()
                },
                0,
            );
            transit.announce(
                &mut router,
                p(prefix),
                PathAttributes {
                    as_path: AsPath::sequence([Asn(65010)]),
                    ..Default::default()
                },
                0,
            );
        }
        (router, ctl)
    }

    fn inject(router: &mut BgpRouter, ctl: &mut PeerStub, prefix: &str) {
        let mut attrs = PathAttributes {
            origin: ef_bgp::attrs::Origin::Igp,
            next_hop: Some(EgressId(2).to_next_hop().unwrap()),
            ..Default::default()
        };
        attrs.add_community(OVERRIDE_MARKER);
        ctl.send_update(
            router,
            ef_bgp::message::UpdateMessage::announce(p(prefix), attrs),
            10,
        );
    }

    #[test]
    fn clean_when_state_matches() {
        let (mut router, mut ctl) = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        inject(&mut router, &mut ctl, "1.0.0.0/24");
        let outcome = audit_overrides(&router, &[(p("1.0.0.0/24"), EgressId(2))], &[]);
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.checked, 1);
    }

    #[test]
    fn missing_injection_is_not_installed() {
        let (router, _ctl) = world(&["1.0.0.0/24"]);
        // Claim an override that was never injected.
        let outcome = audit_overrides(&router, &[(p("1.0.0.0/24"), EgressId(2))], &[]);
        assert_eq!(outcome.not_installed.len(), 1);
        assert!(outcome.not_installed[0].detail.contains("organic route"));
        assert!(outcome.leaked.is_empty());
    }

    #[test]
    fn wrong_target_is_not_installed() {
        let (mut router, mut ctl) = world(&["1.0.0.0/24"]);
        inject(&mut router, &mut ctl, "1.0.0.0/24"); // toward egress 2
        let outcome = audit_overrides(&router, &[(p("1.0.0.0/24"), EgressId(1))], &[]);
        assert_eq!(outcome.not_installed.len(), 1);
        assert!(outcome.not_installed[0].detail.contains("instead of"));
    }

    #[test]
    fn unclaimed_injection_is_a_leak() {
        let (mut router, mut ctl) = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        inject(&mut router, &mut ctl, "2.0.0.0/24");
        let outcome = audit_overrides(&router, &[], &[p("2.0.0.0/24")]);
        assert_eq!(outcome.leaked.len(), 1);
        assert_eq!(outcome.leaked[0].prefix, p("2.0.0.0/24"));
        assert_eq!(outcome.leaked[0].found_egress, Some(2));
    }

    #[test]
    fn proper_withdrawal_audits_clean() {
        let (mut router, mut ctl) = world(&["1.0.0.0/24"]);
        inject(&mut router, &mut ctl, "1.0.0.0/24");
        ctl.send_update(
            &mut router,
            ef_bgp::message::UpdateMessage::withdraw([p("1.0.0.0/24")]),
            20,
        );
        let outcome = audit_overrides(&router, &[], &[p("1.0.0.0/24")]);
        assert!(outcome.clean(), "{outcome:?}");
    }
}
