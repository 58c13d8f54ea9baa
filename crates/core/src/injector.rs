//! Override injection over BGP (paper §4.3).
//!
//! The controller holds an ordinary BGP session to each peering router and
//! expresses detours as route announcements: the override's next hop names
//! the chosen egress interface, a marker community proves provenance, and
//! the router's import policy lifts the route into the controller
//! `LOCAL_PREF` tier so the standard decision process installs it.
//! Withdrawing the announcement reverts the detour instantly to the organic
//! best path — the failure mode of a crashed controller is plain BGP.
//!
//! Every injection crosses the real wire codec: the injector speaks through
//! a [`PeerStub`] session whose UPDATEs are encoded and re-decoded by the
//! router exactly like any peer's.
//!
//! Injection is treated as fallible: a send may be lost (the fault model's
//! partial-loss gate, or a session error surfacing mid-epoch). The
//! [`announced`](Injector::announced) set tracks only what was **actually
//! sent**, so the next epoch's diff retries anything dropped: the
//! stateless diff is the one repair path. [`override_divergence`] states
//! what that buys — the router's override state matches the ledger after
//! every epoch — and debug builds assert it after each one.

use ef_bgp::attrs::{Origin, PathAttributes};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::PeerId;
use ef_bgp::policy::{Policy, OVERRIDE_MARKER};
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub};
use ef_bgp::{best_rec, Millis};
use ef_net_types::Prefix;

use crate::overrides::{OverrideDiff, OverrideSet};

/// Why the injector could not attach or speak to the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectorError {
    /// The BGP session did not reach `Established` during attach.
    AttachFailed,
}

impl std::fmt::Display for InjectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectorError::AttachFailed => {
                write!(f, "controller session failed to establish")
            }
        }
    }
}

impl std::error::Error for InjectorError {}

/// Deterministic partial-loss gate over individual injection sends.
///
/// Models the fault `InjectorPartialLoss { fraction }`: each per-prefix
/// send is dropped with probability `fraction`, decided by a seeded hash of
/// `(seed, prefix, counter)` so a run is reproducible byte-for-byte.
#[derive(Debug, Clone)]
struct LossGate {
    fraction: f64,
    seed: u64,
    counter: u64,
}

impl LossGate {
    /// True when this send is dropped. Advances the counter either way so
    /// the decision sequence depends only on (seed, call order).
    fn drops(&mut self, prefix: &Prefix) -> bool {
        // FNV-1a over the prefix, folded with the seed and call counter.
        let mut h = self.seed ^ 0xCBF2_9CE4_8422_2325;
        for b in prefix.to_string().as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01B3);
        }
        h ^= self.counter;
        self.counter = self.counter.wrapping_add(1);
        // splitmix64 finalizer for avalanche.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.fraction
    }
}

/// Cumulative per-PoP injection accounting: what was attempted, what hit
/// the wire, what was dropped. Exposed via
/// [`PopController::injection_ledger`](crate::controller::PopController::injection_ledger)
/// so the harness and operators can see partial failure instead of
/// inferring it from FIB divergence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionLedger {
    /// Announcements that were actually sent.
    pub announces_sent: u64,
    /// Announcements dropped by the loss gate (pending retry next epoch).
    pub announces_dropped: u64,
    /// Withdrawals that were actually sent.
    pub withdraws_sent: u64,
    /// Withdrawals dropped by the loss gate (pending retry next epoch).
    pub withdraws_dropped: u64,
    /// Sends refused by the session layer (session not established).
    pub send_errors: u64,
}

impl InjectionLedger {
    /// Sends lost so far; the next diff retries each one still desired.
    pub fn dropped_total(&self) -> u64 {
        self.announces_dropped + self.withdraws_dropped + self.send_errors
    }
}

/// Checks the router's override state against the injector's ledger:
/// `announced` is what it stands behind, `withdrawn` what it withdrew this
/// epoch. Returns one `"prefix: what is wrong"` line per divergence, sorted,
/// and nothing when these hold:
///
/// * every announced override wins the decision process and owns the FIB
///   entry at its target;
/// * no controller route exists for a prefix `announced` does not claim;
/// * no prefix withdrawn this epoch keeps an override FIB entry.
///
/// The injector records only what it actually sent, so a lost send leaves
/// the ledger short and the next epoch's diff retries it; none of this
/// needs a repair pass. [`PopController`](crate::PopController) asserts it
/// after every epoch in debug builds. It walks every Loc-RIB candidate
/// list, so it is a check, not a production path.
pub fn override_divergence(
    router: &BgpRouter,
    announced: &OverrideSet,
    withdrawn: &[Prefix],
) -> Vec<String> {
    let mut found = Vec::new();
    for o in announced.iter_sorted() {
        let best = best_rec(router.candidates(&o.prefix));
        let detail = match (best, router.fib_entry(&o.prefix)) {
            (None, _) => "no route at all for the announced override".to_string(),
            (Some(b), _) if !b.is_override() => format!(
                "organic route via egress {} wins over the override",
                b.egress.0
            ),
            (Some(b), _) if b.egress != o.target => format!(
                "override installed toward egress {} instead of {}",
                b.egress.0, o.target.0
            ),
            (Some(_), None) => "decision winner missing from the FIB".to_string(),
            (Some(_), Some(f)) if !f.is_override || f.egress != o.target => format!(
                "FIB entry disagrees (egress {}, override={})",
                f.egress.0, f.is_override
            ),
            _ => continue,
        };
        found.push((o.prefix, detail));
    }
    for (prefix, candidates) in router.iter_candidates() {
        if announced.contains(prefix) {
            continue;
        }
        if let Some(r) = candidates.iter().find(|r| r.is_override()) {
            let detail = format!(
                "controller route via egress {} for an unclaimed prefix",
                r.egress.0
            );
            found.push((*prefix, detail));
        }
    }
    for prefix in withdrawn {
        if announced.contains(prefix) || found.iter().any(|(p, _)| p == prefix) {
            continue;
        }
        if let Some(f) = router.fib_entry(prefix).filter(|f| f.is_override) {
            let detail = format!(
                "withdrawn override still in the FIB at egress {}",
                f.egress.0
            );
            found.push((*prefix, detail));
        }
    }
    found.sort_by_key(|(prefix, _)| *prefix);
    found
        .into_iter()
        .map(|(prefix, detail)| format!("{prefix}: {detail}"))
        .collect()
}

/// What one [`Injector::apply`] actually did: the diff that hit the wire,
/// plus anything the loss gate or session layer refused. Dropped items stay
/// un-acknowledged in the announced set, so the next epoch's diff retries
/// them — partial failure is retryable, not silent.
#[derive(Debug, Clone, Default)]
pub struct InjectionReport {
    /// The portion of the diff that was actually sent.
    pub sent: OverrideDiff,
    /// Announce targets dropped before reaching the wire.
    pub dropped_announce: Vec<Prefix>,
    /// Withdrawals dropped before reaching the wire.
    pub dropped_withdraw: Vec<Prefix>,
}

/// The controller's BGP mouthpiece toward one router.
pub struct Injector {
    stub: PeerStub,
    announced: OverrideSet,
    /// Cleared by [`session_lost`](Self::session_lost) when the router-side
    /// session drops out from under us.
    up: bool,
    loss: Option<LossGate>,
    ledger: InjectionLedger,
}

impl Injector {
    /// Attaches the controller pseudo-peer to `router` and establishes the
    /// session. `peer_id` must be unique on the router. Returns
    /// [`InjectorError::AttachFailed`] when the session does not establish
    /// (e.g. the router refuses the peer) instead of panicking — attach is
    /// a session path and must stay retryable under the backoff governor.
    pub fn try_attach(
        router: &mut BgpRouter,
        peer_id: PeerId,
        now: Millis,
    ) -> Result<Self, InjectorError> {
        router.add_peer(PeerAttachment {
            peer: peer_id,
            peer_asn: router.asn(),
            kind: ef_bgp::peer::PeerKind::Controller,
            egress: ef_bgp::route::EgressId(0),
            policy: Policy::controller_import(),
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(
            peer_id,
            router.asn(),
            std::net::Ipv4Addr::new(10, 200, (peer_id.0 >> 8) as u8, peer_id.0 as u8),
        );
        stub.pump(router, now);
        if !stub.is_established() {
            return Err(InjectorError::AttachFailed);
        }
        Ok(Injector {
            stub,
            announced: OverrideSet::new(),
            up: true,
            loss: None,
            ledger: InjectionLedger::default(),
        })
    }

    /// What is currently announced to the router — precisely: what was
    /// actually sent and not withdrawn. Overrides whose announcement was
    /// dropped are absent; withdrawn-but-dropped ones are still present.
    pub fn announced(&self) -> &OverrideSet {
        &self.announced
    }

    /// Cumulative injection accounting.
    pub(crate) fn ledger(&self) -> &InjectionLedger {
        &self.ledger
    }

    /// Configures the deterministic partial-loss gate. `fraction == 0`
    /// disables it. Used by the fault model (`InjectorPartialLoss`).
    pub fn set_loss(&mut self, fraction: f64, seed: u64) {
        self.loss = if fraction > 0.0 {
            Some(LossGate {
                fraction,
                seed,
                counter: 0,
            })
        } else {
            None
        };
    }

    /// The loss gate's `(fraction, seed)`; `(0.0, 0)` when disabled.
    pub(crate) fn loss(&self) -> (f64, u64) {
        self.loss
            .as_ref()
            .map_or((0.0, 0), |g| (g.fraction, g.seed))
    }

    /// True while the BGP session is up.
    pub fn session_up(&self) -> bool {
        self.up && self.stub.is_established()
    }

    /// Records a router-side session loss. BGP semantics do the safety
    /// work: a dropped session implicitly withdraws every route the peer
    /// announced, so the announced set is now empty — the PoP is back on
    /// plain BGP. Call [`Injector::try_attach`] again to reconnect; the
    /// fresh injector starts from an explicitly empty announced set, so
    /// re-announcement after reattach is a full replay driven by the next
    /// epoch's diff (never a double-announce, never a stale survivor).
    pub fn session_lost(&mut self) {
        self.up = false;
        self.announced = OverrideSet::new();
    }

    fn gate_drops(&mut self, prefix: &Prefix) -> bool {
        match self.loss.as_mut() {
            Some(gate) => gate.drops(prefix),
            None => false,
        }
    }

    /// Moves the router from the currently-announced override set toward
    /// `desired`, sending only the diff. Individual sends may be dropped by
    /// the loss gate or refused by the session layer; those are reported,
    /// left out of the announced bookkeeping, and therefore retried by the
    /// next epoch's diff.
    pub fn apply(
        &mut self,
        router: &mut BgpRouter,
        desired: &OverrideSet,
        now: Millis,
    ) -> InjectionReport {
        let diff = self.announced.diff_to(desired);
        let mut report = InjectionReport::default();

        let mut sendable_withdraw: Vec<Prefix> = Vec::new();
        for p in &diff.withdraw {
            if self.gate_drops(p) {
                self.ledger.withdraws_dropped += 1;
                report.dropped_withdraw.push(*p);
            } else {
                sendable_withdraw.push(*p);
            }
        }
        if !sendable_withdraw.is_empty() {
            match self.stub.try_send_update(
                router,
                UpdateMessage::withdraw(sendable_withdraw.iter().copied()),
                now,
            ) {
                Ok(()) => {
                    self.ledger.withdraws_sent += sendable_withdraw.len() as u64;
                    for p in &sendable_withdraw {
                        self.announced.remove(p);
                    }
                    report.sent.withdraw = sendable_withdraw;
                }
                Err(_) => {
                    self.ledger.send_errors += 1;
                    report.dropped_withdraw.extend(sendable_withdraw);
                }
            }
        }

        for o in &diff.announce {
            if self.gate_drops(&o.prefix) {
                self.ledger.announces_dropped += 1;
                report.dropped_announce.push(o.prefix);
                continue;
            }
            // An egress outside the synthetic next-hop range means the
            // allocation is corrupt; drop the announce rather than inject
            // an unroutable override.
            let Ok(next_hop) = o.target.to_next_hop() else {
                self.ledger.send_errors += 1;
                report.dropped_announce.push(o.prefix);
                continue;
            };
            let mut attrs = PathAttributes {
                origin: Origin::Igp,
                next_hop: Some(next_hop),
                ..Default::default()
            };
            attrs.add_community(OVERRIDE_MARKER);
            match self
                .stub
                .try_send_update(router, UpdateMessage::announce(o.prefix, attrs), now)
            {
                Ok(()) => {
                    self.ledger.announces_sent += 1;
                    self.announced.insert(*o);
                    report.sent.announce.push(*o);
                }
                Err(_) => {
                    self.ledger.send_errors += 1;
                    report.dropped_announce.push(o.prefix);
                }
            }
        }
        report
    }

    /// Resynchronises the router with the injector's view via a
    /// ROUTE-REFRESH request on the live session (RFC 2918): the stub
    /// replays exactly what it actually sent (loss-gate drops never made it
    /// into that set), and with enhanced refresh (RFC 7313) the EoRR sweep
    /// clears any stale route the router holds that the injector no longer
    /// stands behind. No session bounce, no override withdrawal window.
    /// Returns `false` if the session is down or refresh was not
    /// negotiated. Neither needs another path: a reattach replays the
    /// whole desired set, and the next diff retries every send the ledger
    /// lacks.
    pub fn resync_via_refresh(&mut self, router: &mut BgpRouter, now: Millis) -> bool {
        if !self.session_up() {
            return false;
        }
        if router.request_refresh(self.stub.peer).is_err() {
            return false;
        }
        self.stub.pump(router, now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overrides::{Override, OverrideReason};
    use ef_bgp::attrs::AsPath;
    use ef_bgp::peer::PeerKind;
    use ef_bgp::route::EgressId;
    use ef_bgp::router::RouterConfig;
    use ef_net_types::{Asn, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Every attempted send reached the wire.
    fn lossless(report: &InjectionReport) -> bool {
        report.dropped_announce.is_empty() && report.dropped_withdraw.is_empty()
    }

    /// Nothing was attempted and nothing was dropped.
    fn quiet(report: &InjectionReport) -> bool {
        report.sent.announce.is_empty() && report.sent.withdraw.is_empty() && lossless(report)
    }

    fn world() -> (BgpRouter, PeerStub, PeerStub) {
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
        let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
        let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
        peer.pump(&mut router, 0);
        transit.pump(&mut router, 0);
        let attrs = |asn: u32| PathAttributes {
            as_path: AsPath::sequence([Asn(asn)]),
            ..Default::default()
        };
        peer.announce(&mut router, p("1.0.0.0/24"), attrs(65001), 0);
        transit.announce(&mut router, p("1.0.0.0/24"), attrs(65010), 0);
        (router, peer, transit)
    }

    fn ov(prefix: &str, target: u32) -> Override {
        Override {
            prefix: p(prefix),
            target: EgressId(target),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Capacity,
            moved_mbps: 10.0,
        }
    }

    #[test]
    fn inject_and_withdraw_steers_fib() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        assert!(inj.session_up());
        assert_eq!(
            router.fib_entry(&p("1.0.0.0/24")).unwrap().egress,
            EgressId(1)
        );

        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        let report = inj.apply(&mut router, &desired, 10);
        assert_eq!(report.sent.announce.len(), 1);
        assert!(report.sent.withdraw.is_empty());
        assert!(lossless(&report));
        let fib = router.fib_entry(&p("1.0.0.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(2));
        assert!(fib.is_override);

        // Re-applying the same desired state is churn-free.
        let report = inj.apply(&mut router, &desired, 20);
        assert!(quiet(&report));

        // Withdrawal reverts.
        let report = inj.apply(&mut router, &OverrideSet::new(), 30);
        assert_eq!(report.sent.withdraw.len(), 1);
        let fib = router.fib_entry(&p("1.0.0.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(1));
        assert!(!fib.is_override);
    }

    #[test]
    fn retarget_is_single_announce() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();

        let mut a = OverrideSet::new();
        a.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &a, 10);

        let mut b = OverrideSet::new();
        b.insert(ov("1.0.0.0/24", 1));
        let report = inj.apply(&mut router, &b, 20);
        assert_eq!(report.sent.announce.len(), 1);
        assert!(
            report.sent.withdraw.is_empty(),
            "retarget needs no withdraw"
        );
        assert_eq!(
            router.fib_entry(&p("1.0.0.0/24")).unwrap().egress,
            EgressId(1)
        );
    }

    #[test]
    fn drain_removes_everything() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        inj.apply(&mut router, &OverrideSet::new(), 20);
        assert!(inj.announced().is_empty());
        assert!(!router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
    }

    #[test]
    fn session_loss_clears_announced_state() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        assert!(inj.session_up());

        // The router drops the controller pseudo-peer (session loss): its
        // routes are flushed and the injector must account for that.
        router.remove_peer(PeerId(1000), 20);
        inj.session_lost();
        assert!(!inj.session_up());
        assert!(inj.announced().is_empty());
        let fib = router.fib_entry(&p("1.0.0.0/24")).unwrap();
        assert!(!fib.is_override, "override implicitly withdrawn");
        assert_eq!(fib.egress, EgressId(1));

        // Reattaching restores steering capability from a clean slate.
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 30).unwrap();
        assert!(inj.session_up());
        inj.apply(&mut router, &desired, 40);
        assert!(router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
    }

    #[test]
    fn reattach_replay_is_exactly_one_announce_per_override() {
        // The replay-semantics contract: after loss + reattach, applying the
        // same desired set announces each override exactly once (a full
        // replay, not a double-announce and not a stale no-op).
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);

        router.remove_peer(PeerId(1000), 20);
        inj.session_lost();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 30)
            .expect("reattach in a healthy world");
        assert!(
            inj.announced().is_empty(),
            "no stale announced state survives reattach"
        );

        let report = inj.apply(&mut router, &desired, 40);
        assert_eq!(report.sent.announce.len(), 1, "full replay, exactly once");
        let report = inj.apply(&mut router, &desired, 50);
        assert!(quiet(&report), "no double-announce after the replay");
        assert_eq!(inj.ledger().announces_sent, 1);
    }

    #[test]
    fn partial_loss_is_reported_and_retried_by_next_diff() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        inj.set_loss(1.0, 7); // drop everything

        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        let report = inj.apply(&mut router, &desired, 10);
        assert!(report.sent.announce.is_empty());
        assert_eq!(report.dropped_announce, vec![p("1.0.0.0/24")]);
        assert!(!lossless(&report));
        assert!(
            inj.announced().is_empty(),
            "dropped announce is not acknowledged"
        );
        assert!(!router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);

        // The fault clears; the same desired set is retried because the
        // announced set never acknowledged the drop.
        inj.set_loss(0.0, 7);
        let report = inj.apply(&mut router, &desired, 20);
        assert_eq!(report.sent.announce.len(), 1);
        assert!(router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
        assert_eq!(inj.ledger().announces_dropped, 1);
        assert_eq!(inj.ledger().announces_sent, 1);
    }

    #[test]
    fn dropped_withdraw_keeps_override_pending_until_retried() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);

        inj.set_loss(1.0, 7);
        let report = inj.apply(&mut router, &OverrideSet::new(), 20);
        assert!(report.sent.withdraw.is_empty());
        assert_eq!(report.dropped_withdraw, vec![p("1.0.0.0/24")]);
        assert!(
            inj.announced().contains(&p("1.0.0.0/24")),
            "unacknowledged withdraw stays pending"
        );
        assert!(router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);

        inj.set_loss(0.0, 7);
        let report = inj.apply(&mut router, &OverrideSet::new(), 30);
        assert_eq!(report.sent.withdraw.len(), 1);
        assert!(!router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
    }

    #[test]
    fn loss_gate_is_deterministic_per_seed() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut gate = LossGate {
                fraction: 0.5,
                seed,
                counter: 0,
            };
            (0..64).map(|_| gate.drops(&p("1.0.0.0/24"))).collect()
        };
        assert_eq!(decide(7), decide(7), "same seed, same drop schedule");
        assert_ne!(decide(7), decide(8), "different seeds diverge");
        let drops = decide(7).iter().filter(|d| **d).count();
        assert!((16..=48).contains(&drops), "fraction is roughly honored");
    }

    /// `override_divergence` against a ledger claiming 1.0.0.0/24 toward
    /// `target`, with nothing withdrawn.
    fn divergence_from(router: &BgpRouter, target: u32) -> Vec<String> {
        let mut claimed = OverrideSet::new();
        claimed.insert(ov("1.0.0.0/24", target));
        override_divergence(router, &claimed, &[])
    }

    #[test]
    fn clean_when_state_matches() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        assert_eq!(
            override_divergence(&router, inj.announced(), &[]),
            Vec::<String>::new()
        );
    }

    #[test]
    fn missing_injection_is_not_installed() {
        let (mut router, _peer, _transit) = world();
        let _inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        // Claim an override that was never injected.
        assert_eq!(
            divergence_from(&router, 2),
            ["1.0.0.0/24: organic route via egress 1 wins over the override"]
        );
    }

    #[test]
    fn wrong_target_is_not_installed() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        assert_eq!(
            divergence_from(&router, 1),
            ["1.0.0.0/24: override installed toward egress 2 instead of 1"]
        );
    }

    #[test]
    fn unclaimed_injection_is_a_leak() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        // Reported once, though it is both unclaimed and withdrawn.
        assert_eq!(
            override_divergence(&router, &OverrideSet::new(), &[p("1.0.0.0/24")]),
            ["1.0.0.0/24: controller route via egress 2 for an unclaimed prefix"]
        );
    }

    #[test]
    fn proper_withdrawal_audits_clean() {
        let (mut router, _peer, _transit) = world();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        let report = inj.apply(&mut router, &OverrideSet::new(), 20);
        assert_eq!(report.sent.withdraw, [p("1.0.0.0/24")]);
        assert_eq!(
            override_divergence(&router, inj.announced(), &report.sent.withdraw),
            Vec::<String>::new()
        );
    }

    #[test]
    fn injected_routes_show_in_bmp_as_controller_kind() {
        let (mut router, _peer, _transit) = world();
        router.drain_bmp();
        let mut inj = Injector::try_attach(&mut router, PeerId(1000), 0).unwrap();
        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 2));
        inj.apply(&mut router, &desired, 10);
        let feed = router.drain_bmp();
        let monitored = feed.iter().any(|m| match m {
            ef_bgp::BmpMessage::RouteMonitoring { update, .. } => update
                .attrs
                .has_community(PeerKind::Controller.tag_community()),
            _ => false,
        });
        assert!(monitored, "override visible on the BMP feed, tagged");
    }
}
