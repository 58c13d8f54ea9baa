//! The per-PoP control loop (paper §4).
//!
//! [`PopController`] owns the collector, the injector, and the epoch cycle.
//! Each [`run_epoch`](PopController::run_epoch) is `decide` then `apply`:
//!
//! - **decide** (`decide.rs`) is a function of the epoch's inputs — config,
//!   interface facts, collected routes, traffic, input ages, this epoch's
//!   performance intents and the announced set — with the projection memo
//!   as its one piece of mutable state. It recomputes the full desired
//!   override set from scratch, including the stale-input and fail-open
//!   guards. The paper argues this stateless design keeps the controller
//!   simple and self-correcting — an operator can restart it at any time
//!   and the next epoch converges to the same answer.
//! - **apply** puts the decision into effect against the router: the
//!   injector sends the diff, the router's BMP echoes are ingested, and
//!   telemetry records the epoch. A send the injector lost is missing from
//!   its announced set, so the next epoch's diff retries it; debug builds
//!   assert after every epoch that the router's override state matches
//!   that set ([`override_divergence`]).
//!
//! Across epochs the controller keeps only the memo and what its effects
//! need: the injector (session, announced set, loss gate), the reattach
//! governor, the last degraded / fail-open mode (for transition events)
//! and the collector's drop count as last reported.

use std::collections::HashMap;

use serde::Serialize;

use ef_bgp::peer::PeerId;
use ef_bgp::route::EgressId;
use ef_bgp::router::BgpRouter;
use ef_bgp::{BmpMessage, Millis, ReconnectGovernor};
use ef_telemetry::{ExplainRecord, PhaseTimer, TelemetryHandle};

use crate::collector::RouteCollector;
use crate::config::ControllerConfig;
use crate::decide::{decide, Decision, EpochInputs, EpochView};
use crate::injector::{override_divergence, InjectionLedger, Injector};
use crate::overrides::OverrideSet;
use crate::projection::ProjectionCache;
use crate::state::{InterfaceMap, TrafficView};

/// What one controller epoch observed and did, for telemetry and the
/// evaluation harness.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Simulated time of the epoch, ms.
    pub now_ms: u64,
    /// PoP this controller serves.
    pub pop: u16,
    /// Interfaces projected over the limit before mitigation
    /// `(egress, projected utilization)`, worst first (ties by egress).
    pub overloaded_before: Vec<(EgressId, f64)>,
    /// Interfaces still over the limit after mitigation
    /// `(egress, residual utilization)`, worst first (ties by egress).
    pub residual_overloaded: Vec<(EgressId, f64)>,
    /// Overrides active after this epoch.
    pub overrides_active: usize,
    /// Demand detoured by active overrides, Mbps.
    pub detoured_mbps: f64,
    /// Demand detoured per target interconnect kind, Mbps.
    pub detoured_by_kind: HashMap<String, f64>,
    /// BGP announcements sent this epoch.
    pub churn_announced: usize,
    /// BGP withdrawals sent this epoch.
    pub churn_withdrawn: usize,
    /// Worst input age this epoch ran with, ms.
    pub input_age_ms: u64,
    /// The epoch ran in degraded mode (stale inputs: override set frozen
    /// to hold-or-shrink).
    pub degraded: bool,
    /// The epoch failed open (inputs past the trust horizon: every
    /// override withdrawn).
    pub fail_open: bool,
    /// Decision provenance: one record per steering decision the allocator
    /// considered, with verdicts amended by the guards (hold-or-shrink,
    /// fail-open). Always populated — `decide` derives it from the epoch's
    /// inputs alone, so reports stay byte-identical whether or not a
    /// telemetry sink is attached.
    pub explains: Vec<ExplainRecord>,
}

/// Why an epoch was skipped instead of run. These are operational
/// conditions, not bugs: the controller's reaction is to do nothing this
/// cycle (fail static) and let the embedding decide whether to reattach or
/// restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochError {
    /// The injector's BGP session to the peering router is down. Every
    /// override is already implicitly withdrawn by BGP; nothing can be
    /// steered until [`PopController::try_reattach_injector`] succeeds.
    InjectorDown,
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::InjectorDown => {
                write!(f, "injector session down; epoch skipped (fail-open)")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// The Edge Fabric controller for one PoP.
pub struct PopController {
    pop: u16,
    cfg: ControllerConfig,
    interfaces: InterfaceMap,
    collector: RouteCollector,
    /// Memoized projection decisions; holds no semantic state — a fresh
    /// cache converges on the first epoch.
    projection_cache: ProjectionCache,
    injector: Injector,
    /// Governs reattach pacing after injector session losses: exponential
    /// backoff with decorrelated jitter, plus flap damping that suppresses
    /// a storming session until it cools.
    injector_governor: ReconnectGovernor,
    telemetry: TelemetryHandle,
    last_degraded: bool,
    last_fail_open: bool,
    /// The collector's unattributed-message count as last emitted in a
    /// `collector.dropped` event.
    reported_dropped: usize,
}

impl PopController {
    /// Creates a controller and attaches its BGP session to the PoP's
    /// router. The collector's peer→egress map is read from the router's
    /// current attachments. Fails on an invalid config or when the
    /// injector session does not establish.
    pub fn new(
        pop: u16,
        cfg: ControllerConfig,
        interfaces: InterfaceMap,
        router: &mut BgpRouter,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let mut peer_egress = HashMap::new();
        for peer in router.peer_ids() {
            if let Some(attach) = router.attachment(peer) {
                peer_egress.insert(peer, attach.egress);
            }
        }
        let injector = Injector::try_attach(router, PeerId(1_000_000 + pop as u64), 0)
            .map_err(|e| e.to_string())?;
        Ok(PopController {
            pop,
            cfg,
            interfaces,
            collector: RouteCollector::new(peer_egress),
            projection_cache: ProjectionCache::new(),
            injector,
            injector_governor: ReconnectGovernor::with_seed(0xEF1A_7C00 ^ pop as u64),
            telemetry: TelemetryHandle::disabled(),
            last_degraded: false,
            last_fail_open: false,
            reported_dropped: 0,
        })
    }

    /// Attaches (or detaches, with a disabled handle) the telemetry
    /// pipeline. Telemetry observes the epoch cycle — phase timings,
    /// decision provenance, mode transitions — but never
    /// influences it: all control decisions are computed before any
    /// telemetry call, and timers read 0 when disabled.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The stable peer id of this controller's injector session.
    pub fn injector_peer_id(&self) -> PeerId {
        PeerId(1_000_000 + self.pop as u64)
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Read access to the collected route state.
    pub fn collector(&self) -> &RouteCollector {
        &self.collector
    }

    /// The overrides currently announced to the router.
    pub fn active_overrides(&self) -> &OverrideSet {
        self.injector.announced()
    }

    /// Interface facts the controller operates with.
    pub fn interfaces(&self) -> &InterfaceMap {
        &self.interfaces
    }

    /// Re-lays the collector's route view out prefix-sorted with no slack:
    /// call once, after a bulk table load has been ingested.
    pub fn compact_collector(&mut self) {
        self.collector.compact()
    }

    /// Feeds BMP messages from the router into the route collector, at
    /// `now`. Call whenever the feed has data; at minimum once per epoch
    /// before [`run_epoch`](Self::run_epoch). When the collector could not
    /// attribute some route messages (no kind tag, or a peer with no egress
    /// mapping), a `collector.dropped` event carries its new drop total.
    pub fn ingest_bmp(&mut self, messages: impl IntoIterator<Item = BmpMessage>, now: Millis) {
        self.collector.ingest(messages);
        let dropped = self.collector.dropped();
        if dropped > self.reported_dropped {
            self.reported_dropped = dropped;
            let fields = [("dropped", dropped.into())];
            self.telemetry
                .emit(self.pop, now, "collector.dropped", &fields);
        }
    }

    /// Runs one controller cycle against `traffic` (per-prefix Mbps):
    /// decides the desired override set from this epoch's inputs — input
    /// ages `inputs`, the §6 performance intents `perf` (empty without
    /// perf steering) — then applies it to `router`. See `decide` for the
    /// stale-input and fail-open guards.
    ///
    /// Returns [`EpochError::InjectorDown`] (epoch skipped, nothing
    /// decided) when the injector session is down.
    pub fn run_epoch<T: TrafficView + ?Sized>(
        &mut self,
        traffic: &T,
        router: &mut BgpRouter,
        now: Millis,
        inputs: EpochInputs,
        perf: &OverrideSet,
    ) -> Result<EpochReport, EpochError> {
        let epoch_timer = self.telemetry.timer();
        if !self.injector.session_up() {
            self.telemetry.emit(
                self.pop,
                now,
                "epoch.skipped",
                &[("reason", "injector_down".into())],
            );
            return Err(EpochError::InjectorDown);
        }
        let view = EpochView {
            cfg: &self.cfg,
            interfaces: &self.interfaces,
            collector: &self.collector,
            traffic,
            inputs,
            perf,
            announced: self.injector.announced(),
        };
        let decision = decide(&view, &mut self.projection_cache, &self.telemetry);
        Ok(self.apply(decision, router, now, inputs.age_ms(), epoch_timer))
    }

    /// Puts `decision` into effect: mode-transition events, injection of
    /// the diff and the router's BMP echoes, then the epoch's telemetry.
    fn apply(
        &mut self,
        decision: Decision,
        router: &mut BgpRouter,
        now: Millis,
        age_ms: u64,
        epoch_timer: PhaseTimer,
    ) -> EpochReport {
        let (degraded, fail_open) = (decision.degraded, decision.fail_open);
        // Before injection, so the events carry the footprint at the moment
        // of crossing.
        self.note_mode_transitions(degraded, fail_open, age_ms, now);

        let injection_timer = self.telemetry.timer();
        let report = self.injector.apply(router, &decision.desired, now);
        let injection_us = injection_timer.elapsed_us();

        // Pull the router's BMP echoes of our own changes immediately so
        // the collector's view stays current within the epoch.
        let bmp_timer = self.telemetry.timer();
        self.collector.ingest(router.drain_bmp());
        let bmp_ingest_us = bmp_timer.elapsed_us();

        let active = self.injector.announced();
        debug_assert_eq!(
            override_divergence(router, active, &report.sent.withdraw),
            Vec::<String>::new(),
            "pop {} t={now}ms: the router's overrides diverged from the injector's ledger",
            self.pop
        );
        if self.telemetry.enabled() {
            for rec in &decision.explains {
                self.telemetry.explain(self.pop, now, rec);
            }
            for o in &report.sent.announce {
                self.telemetry.emit(
                    self.pop,
                    now,
                    "override.announce",
                    &[
                        ("prefix", o.prefix.to_string().into()),
                        ("target", o.target.0.into()),
                        ("kind", o.target_kind.label().into()),
                        ("mbps", o.moved_mbps.into()),
                        ("reason", o.reason.label().into()),
                    ],
                );
            }
            for prefix in &report.sent.withdraw {
                self.telemetry.emit(
                    self.pop,
                    now,
                    "override.withdraw",
                    &[("prefix", prefix.to_string().into())],
                );
            }
            let total_us = epoch_timer.elapsed_us();
            self.telemetry.emit(
                self.pop,
                now,
                "epoch",
                &[
                    ("input_age_ms", age_ms.into()),
                    ("degraded", degraded.into()),
                    ("fail_open", fail_open.into()),
                    ("overrides_active", active.len().into()),
                    ("detoured_mbps", active.total_moved_mbps().into()),
                    ("announced", report.sent.announce.len().into()),
                    ("withdrawn", report.sent.withdraw.len().into()),
                    ("dropped_announce", report.dropped_announce.len().into()),
                    ("dropped_withdraw", report.dropped_withdraw.len().into()),
                    ("projection_us", decision.projection_us.into()),
                    ("allocation_us", decision.allocation_us.into()),
                    ("guards_us", decision.guards_us.into()),
                    ("injection_us", injection_us.into()),
                    ("bmp_ingest_us", bmp_ingest_us.into()),
                    ("total_us", total_us.into()),
                ],
            );
        }
        EpochReport {
            now_ms: now,
            pop: self.pop,
            overloaded_before: decision.overloaded_before,
            residual_overloaded: decision.residual_overloaded,
            overrides_active: active.len(),
            detoured_mbps: active.total_moved_mbps(),
            detoured_by_kind: active
                .moved_by_target_kind()
                .into_iter()
                .map(|(k, v)| (k.label().to_string(), v))
                .collect(),
            churn_announced: report.sent.announce.len(),
            churn_withdrawn: report.sent.withdraw.len(),
            input_age_ms: age_ms,
            degraded,
            fail_open,
            explains: decision.explains,
        }
    }

    /// Emits enter/exit events when the controller crosses into or out of
    /// degraded / fail-open mode. These replace the ad-hoc debug prints an
    /// operator would otherwise add: the transition, its trigger (input
    /// age), and the override footprint at the moment of crossing are all
    /// structured fields.
    fn note_mode_transitions(&mut self, degraded: bool, fail_open: bool, age_ms: u64, now: Millis) {
        let overrides_active = self.injector.announced().len();
        let fields = [
            ("input_age_ms", age_ms.into()),
            ("overrides_active", overrides_active.into()),
        ];
        if degraded != self.last_degraded {
            let name = if degraded {
                "controller.degraded.enter"
            } else {
                "controller.degraded.exit"
            };
            self.telemetry.emit(self.pop, now, name, &fields);
        }
        if fail_open != self.last_fail_open {
            let name = if fail_open {
                "controller.fail_open.enter"
            } else {
                "controller.fail_open.exit"
            };
            self.telemetry.emit(self.pop, now, name, &fields);
        }
        self.last_degraded = degraded;
        self.last_fail_open = fail_open;
    }

    /// True while the injector's BGP session to the router is up.
    pub fn injector_up(&self) -> bool {
        self.injector.session_up()
    }

    /// Records a router-side loss of the injector session (the fault model
    /// or a real transport removed the controller pseudo-peer). All
    /// overrides are implicitly withdrawn by BGP; subsequent epochs
    /// return [`EpochError::InjectorDown`] until a reattach
    /// succeeds. The loss is charged to the backoff governor, so a
    /// flapping session earns growing reconnect delays and, past the
    /// damping threshold, outright suppression until it cools.
    pub fn injector_session_lost(&mut self, now: Millis) {
        self.injector.session_lost();
        self.injector_governor.record_down(now);
    }

    /// Attempts a governed reattach of the injector session: a no-op
    /// (returning `false`) while the backoff governor still holds the
    /// session down. On a successful attach the governor is credited and
    /// the fresh session keeps the loss gate's fraction and seed; on a
    /// failed attach it is charged another failure. Call once per
    /// simulation step (or epoch) while [`injector_up`](Self::injector_up)
    /// is false.
    pub fn try_reattach_injector(&mut self, router: &mut BgpRouter, now: Millis) -> bool {
        if self.injector.session_up() {
            return true;
        }
        if !self.injector_governor.can_reconnect(now) {
            return false;
        }
        match Injector::try_attach(router, self.injector_peer_id(), now) {
            Ok(mut inj) => {
                let (fraction, seed) = self.injector.loss();
                inj.set_loss(fraction, seed);
                self.injector = inj;
                self.injector_governor.record_up(now);
                true
            }
            Err(_) => {
                self.injector_governor.record_down(now);
                false
            }
        }
    }

    /// Cumulative injection accounting: sends, drops and session
    /// refusals.
    pub fn injection_ledger(&self) -> &InjectionLedger {
        self.injector.ledger()
    }

    /// Configures the injector's deterministic partial-loss gate (the
    /// `InjectorPartialLoss` fault). `fraction == 0` disables it.
    pub fn set_injection_loss(&mut self, fraction: f64, seed: u64) {
        self.injector.set_loss(fraction, seed);
    }

    /// The partial-loss gate's drop fraction (0 when disabled).
    pub fn injection_loss(&self) -> f64 {
        self.injector.loss().0
    }

    /// Updates an interface's usable capacity (provisioning change or
    /// fault-model link degradation). Unknown interfaces are ignored.
    pub fn set_interface_capacity(&mut self, egress: EgressId, capacity_mbps: f64) {
        if let Some(info) = self.interfaces.get_mut(&egress) {
            info.capacity_mbps = capacity_mbps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{limit_mbps, InterfaceInfo};
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::peer::PeerKind;
    use ef_bgp::policy::Policy;
    use ef_bgp::router::{PeerAttachment, PeerStub, RouterConfig};
    use ef_net_types::{Asn, Prefix};
    use ef_telemetry::ExplainVerdict;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    struct World {
        router: BgpRouter,
        #[allow(dead_code)]
        peer: PeerStub,
        transit: PeerStub,
        controller: PopController,
    }

    impl World {
        /// One epoch at `now` with the given input ages and no
        /// performance intents.
        fn run(
            &mut self,
            traffic: &HashMap<Prefix, f64>,
            now: Millis,
            inputs: EpochInputs,
        ) -> Result<EpochReport, EpochError> {
            self.controller
                .run_epoch(traffic, &mut self.router, now, inputs, &OverrideSet::new())
        }

        /// One epoch with fresh inputs.
        fn epoch(&mut self, traffic: &HashMap<Prefix, f64>, now: Millis) -> EpochReport {
            self.run(traffic, now, EpochInputs::fresh())
                .expect("injector session up")
        }
    }

    /// Inputs last refreshed `bmp_age_ms` / `traffic_age_ms` ago.
    fn aged(bmp_age_ms: u64, traffic_age_ms: u64) -> EpochInputs {
        EpochInputs {
            bmp_age_ms,
            traffic_age_ms,
        }
    }

    /// One private peer (egress 1, 100 Mbps) + one transit (egress 2, big),
    /// both announcing the given prefixes.
    fn world(prefixes: &[&str]) -> World {
        let mut router = BgpRouter::new(RouterConfig {
            name: "pop0-pr0".into(),
            asn: Asn::LOCAL,
            router_id: "10.0.0.1".parse().unwrap(),
        });
        let mut interfaces = InterfaceMap::new();
        for (id, asn, kind, egress, capacity_mbps) in [
            (1u64, 65001u32, PeerKind::PrivatePeer, 1u32, 100.0),
            (2, 65010, PeerKind::Transit, 2, 100_000.0),
        ] {
            router.add_peer(PeerAttachment {
                peer: PeerId(id),
                peer_asn: Asn(asn),
                kind,
                egress: EgressId(egress),
                policy: Policy::default_import(Asn::LOCAL, kind),
                max_prefixes: 0,
            });
            interfaces.insert(EgressId(egress), InterfaceInfo::new(capacity_mbps, kind));
        }
        let mut peer = PeerStub::new(PeerId(1), Asn(65001), "10.9.0.1".parse().unwrap());
        let mut transit = PeerStub::new(PeerId(2), Asn(65010), "10.9.0.2".parse().unwrap());
        peer.pump(&mut router, 0);
        transit.pump(&mut router, 0);
        for prefix in prefixes {
            for (stub, asn) in [(&mut peer, 65001), (&mut transit, 65010)] {
                let attrs = PathAttributes {
                    as_path: AsPath::sequence([Asn(asn)]),
                    ..Default::default()
                };
                stub.announce(&mut router, p(prefix), attrs, 0);
            }
        }
        let mut controller =
            PopController::new(0, ControllerConfig::default(), interfaces, &mut router).unwrap();
        controller.ingest_bmp(router.drain_bmp(), 0);
        World {
            router,
            peer,
            transit,
            controller,
        }
    }

    #[test]
    fn quiet_epoch_changes_nothing() {
        let mut w = world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 40.0)]);
        let report = w.epoch(&traffic, 30_000);
        assert_eq!(report.overrides_active, 0);
        assert_eq!(report.churn_announced + report.churn_withdrawn, 0);
        assert!(report.overloaded_before.is_empty());
        assert_eq!(
            w.router.fib_entry(&p("1.0.0.0/24")).unwrap().egress,
            EgressId(1)
        );
    }

    #[test]
    fn overload_triggers_detour_and_recovery_reverts_it() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        // Peak: 150 Mbps on a 100 Mbps PNI.
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let report = w.epoch(&peak, 30_000);
        assert_eq!(report.overloaded_before.len(), 1);
        assert_eq!(report.overrides_active, 1);
        assert!(report.detoured_mbps > 0.0);
        assert!(report.residual_overloaded.is_empty());
        assert!(report.detoured_by_kind.contains_key("transit"));
        // One prefix steered to transit.
        let steered = [p("1.0.0.0/24"), p("2.0.0.0/24")]
            .iter()
            .filter(|pre| w.router.fib_entry(pre).unwrap().egress == EgressId(2))
            .count();
        assert_eq!(steered, 1);

        // Off-peak: demand drops; the stateless recompute withdraws.
        let off_peak = HashMap::from([(p("1.0.0.0/24"), 30.0), (p("2.0.0.0/24"), 20.0)]);
        let report = w.epoch(&off_peak, 60_000);
        assert_eq!(report.overrides_active, 0);
        assert_eq!(report.churn_withdrawn, 1);
        assert_eq!(
            w.router.fib_entry(&p("1.0.0.0/24")).unwrap().egress,
            EgressId(1)
        );
        assert_eq!(
            w.router.fib_entry(&p("2.0.0.0/24")).unwrap().egress,
            EgressId(1)
        );
    }

    #[test]
    fn steady_overload_causes_no_churn_after_first_epoch() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let first = w.epoch(&peak, 30_000);
        assert_eq!(first.churn_announced, 1);
        for i in 2..6 {
            let again = w.epoch(&peak, 30_000 * i);
            assert_eq!(
                again.churn_announced + again.churn_withdrawn,
                0,
                "steady state is churn-free (epoch {i})"
            );
            assert_eq!(again.overrides_active, 1);
        }
    }

    #[test]
    fn unrouted_demand_is_surfaced() {
        let w = world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 10.0), (p("99.0.0.0/24"), 5.0)]);
        let projection = crate::projection::project(w.controller.collector(), &traffic);
        assert_eq!(projection.unrouted_mbps, 5.0);
        assert_eq!(projection.routed, [(p("1.0.0.0/24"), 10.0)]);
    }

    #[test]
    fn limit_and_kind_helpers() {
        let w = world(&[]);
        let (interfaces, util_limit) =
            (w.controller.interfaces(), w.controller.config().util_limit);
        assert!((limit_mbps(interfaces, EgressId(1), util_limit) - 95.0).abs() < 1e-9);
        assert_eq!(
            limit_mbps(interfaces, EgressId(77), util_limit),
            f64::INFINITY
        );
        let kind = |e| interfaces.get(&EgressId(e)).map(|i| i.policy.kind());
        assert_eq!(kind(1), Some(PeerKind::PrivatePeer));
        assert_eq!(kind(77), None);
    }

    #[test]
    fn fresh_inputs_behave_like_run_epoch() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let report = w.run(&peak, 30_000, EpochInputs::fresh()).unwrap();
        assert!(!report.degraded);
        assert!(!report.fail_open);
        assert_eq!(report.input_age_ms, 0);
        assert_eq!(report.overrides_active, 1);
    }

    #[test]
    fn stale_inputs_never_enlarge_the_override_set() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        // Overload appears while inputs are stale: the controller must not
        // create the detour it would otherwise inject.
        let stale = aged(w.controller.config().stale_input_secs * 1000, 0);
        let report = w.run(&peak, 30_000, stale).unwrap();
        assert!(report.degraded);
        assert!(!report.fail_open);
        assert_eq!(report.overloaded_before.len(), 1, "overload still observed");
        assert_eq!(report.overrides_active, 0, "but nothing new injected");
        assert_eq!(report.churn_announced, 0);
    }

    #[test]
    fn stale_inputs_keep_existing_overrides_that_revalidate() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        // Fresh epoch installs the detour.
        let first = w.epoch(&peak, 30_000);
        assert_eq!(first.overrides_active, 1);
        // Inputs go stale while the overload persists: the standing
        // override is held (target still routed, still has room).
        let stale = aged(0, w.controller.config().stale_input_secs * 1000 + 1);
        let report = w.run(&peak, 60_000, stale).unwrap();
        assert!(report.degraded);
        assert_eq!(report.overrides_active, 1, "standing override held");
        assert_eq!(report.churn_announced + report.churn_withdrawn, 0);
    }

    #[test]
    fn stale_inputs_drop_overrides_whose_target_vanished() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        let steered = *w
            .controller
            .active_overrides()
            .iter_sorted()
            .first()
            .unwrap();
        // The transit route under the detour disappears; the BMP withdraw
        // reaches the collector, but the traffic input is stale.
        w.transit
            .try_send_update(
                &mut w.router,
                ef_bgp::message::UpdateMessage::withdraw([steered.prefix]),
                50_000,
            )
            .unwrap();
        w.controller.ingest_bmp(w.router.drain_bmp(), 50_000);
        let stale = aged(0, w.controller.config().stale_input_secs * 1000);
        let report = w.run(&peak, 60_000, stale).unwrap();
        assert!(report.degraded);
        assert_eq!(
            report.overrides_active, 0,
            "override to a vanished target is not kept"
        );
    }

    #[test]
    fn fail_open_horizon_withdraws_everything() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        let ancient = aged(w.controller.config().fail_open_secs * 1000, 0);
        let report = w.run(&peak, 700_000, ancient).unwrap();
        assert!(report.fail_open);
        assert!(!report.degraded);
        assert_eq!(report.overrides_active, 0);
        assert_eq!(report.churn_withdrawn, 1);
        assert!(!w.router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
        assert!(!w.router.fib_entry(&p("2.0.0.0/24")).unwrap().is_override);
    }

    #[test]
    fn injector_loss_skips_epochs_and_reattach_recovers() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);

        // The router loses the controller pseudo-peer.
        let injector_peer = w.controller.injector_peer_id();
        w.router.remove_peer(injector_peer, 40_000);
        w.controller.injector_session_lost(40_000);
        assert!(!w.controller.injector_up());
        assert!(!w.router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);

        let err = w.run(&peak, 60_000, EpochInputs::fresh()).unwrap_err();
        assert_eq!(err, EpochError::InjectorDown);
        // The skipped epoch changed nothing: BGP already withdrew it all.
        assert!(w.controller.active_overrides().is_empty());

        // Reattach once the backoff has passed: the next epoch restores
        // the needed detour.
        assert!(w.controller.try_reattach_injector(&mut w.router, 100_000));
        assert!(w.controller.injector_up());
        let report = w.epoch(&peak, 120_000);
        assert_eq!(report.overrides_active, 1);
        assert_eq!(report.churn_announced, 1);
    }

    #[test]
    fn governed_reattach_waits_out_the_backoff_then_recovers() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);

        let injector_peer = w.controller.injector_peer_id();
        w.router.remove_peer(injector_peer, 40_000);
        w.controller.injector_session_lost(40_000);

        // Immediately after the loss the governor still holds the session
        // down (base backoff is at least a second).
        assert!(!w.controller.try_reattach_injector(&mut w.router, 40_000));
        assert!(!w.controller.injector_up());

        // Once the backoff elapses the governed reattach succeeds and the
        // next epoch replays the needed override.
        assert!(w.controller.try_reattach_injector(&mut w.router, 70_000));
        assert!(w.controller.injector_up());
        let report = w.epoch(&peak, 90_000);
        assert_eq!(report.overrides_active, 1);
        assert_eq!(report.churn_announced, 1);
    }

    /// The ledger invariant is live: a withdraw delivered on the injector
    /// session without the injector's knowledge leaves an override it
    /// stands behind missing from the router, and the next epoch's
    /// debug assertion names it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "diverged from the injector's ledger")]
    fn withdraw_behind_the_injectors_back_trips_the_invariant() {
        use ef_bgp::message::{BgpMessage, UpdateMessage};
        use ef_bgp::wire::encode_message;

        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        let overridden = w.controller.active_overrides().iter_sorted();
        assert_eq!(overridden.len(), 1);
        let prefix = overridden[0].prefix;

        let withdraw =
            encode_message(&BgpMessage::Update(UpdateMessage::withdraw([prefix]))).unwrap();
        w.router
            .deliver(w.controller.injector_peer_id(), &withdraw, 40_000);
        assert!(!w.router.fib_entry(&prefix).unwrap().is_override);

        // Same demand: the diff is empty, nothing re-announces the route.
        w.epoch(&peak, 60_000);
    }

    #[test]
    fn unattributed_bmp_routes_are_reported_as_collector_drops() {
        let mut w = world(&["1.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle);
        // A peer attached after the controller: the collector has no
        // egress mapping for it, so its routes cannot be attributed.
        let kind = PeerKind::PublicPeer;
        w.router.add_peer(PeerAttachment {
            peer: PeerId(3),
            peer_asn: Asn(65020),
            kind,
            egress: EgressId(3),
            policy: Policy::default_import(Asn::LOCAL, kind),
            max_prefixes: 0,
        });
        let mut late = PeerStub::new(PeerId(3), Asn(65020), "10.9.0.3".parse().unwrap());
        late.pump(&mut w.router, 10_000);
        let attrs = PathAttributes {
            as_path: AsPath::sequence([Asn(65020)]),
            ..Default::default()
        };
        late.announce(&mut w.router, p("3.0.0.0/24"), attrs, 10_000);
        w.controller.ingest_bmp(w.router.drain_bmp(), 10_000);
        assert_eq!(w.controller.collector().dropped(), 1);
        let drops = sink.events_named("collector.dropped");
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].now_ms, 10_000);
        assert_eq!(drops[0].field("dropped"), Some(&1usize.into()));
        // A batch that drops nothing new emits nothing.
        w.controller.ingest_bmp(w.router.drain_bmp(), 20_000);
        assert_eq!(sink.events_named("collector.dropped").len(), 1);
    }

    #[test]
    fn capacity_updates_feed_the_next_epoch() {
        let mut w = world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0)]);
        let quiet = w.epoch(&traffic, 30_000);
        assert_eq!(quiet.overrides_active, 0);
        // The PNI loses half its capacity: 60 Mbps no longer fits 50.
        w.controller.set_interface_capacity(EgressId(1), 50.0);
        let report = w.epoch(&traffic, 60_000);
        assert_eq!(report.overrides_active, 1, "detour after capacity loss");
        // Restore: the stateless recompute reverts.
        w.controller.set_interface_capacity(EgressId(1), 100.0);
        let report = w.epoch(&traffic, 90_000);
        assert_eq!(report.overrides_active, 0);
    }

    #[test]
    fn telemetry_captures_epoch_events_explains_and_clean_audit() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let report = w.epoch(&peak, 30_000);
        assert_eq!(report.overrides_active, 1);

        // Every announced override has an emitted explain, in the sink and
        // in the report (identical records).
        let explains = sink.explains();
        assert!(!explains.is_empty());
        assert_eq!(
            explains
                .iter()
                .map(|(_, _, e)| e.clone())
                .collect::<Vec<_>>(),
            report.explains
        );
        for o in w.controller.active_overrides().iter_sorted() {
            assert!(
                report
                    .explains
                    .iter()
                    .any(|e| e.emitted() && e.prefix == o.prefix),
                "override {} lacks provenance",
                o.prefix
            );
        }

        // The announce event carries the structured fields.
        let announces = sink.events_named("override.announce");
        assert_eq!(announces.len(), 1);
        assert_eq!(announces[0].str_field("kind"), Some("transit"));

        // The epoch event carries the override footprint and churn...
        let epochs = sink.events_named("epoch");
        assert_eq!(epochs.len(), 1);
        let field = |key| epochs[0].field(key).cloned();
        assert_eq!(field("overrides_active"), Some(1usize.into()));
        assert_eq!(field("announced"), Some(1usize.into()));
        assert_eq!(field("withdrawn"), Some(0usize.into()));
        assert_eq!(field("detoured_mbps"), Some(report.detoured_mbps.into()));
        assert!(report.detoured_mbps > 0.0);
        assert_eq!(field("dropped_announce"), Some(0usize.into()));
        assert_eq!(field("dropped_withdraw"), Some(0usize.into()));
        // ...and the per-phase wall-clock timings.
        for key in [
            "projection_us",
            "allocation_us",
            "guards_us",
            "injection_us",
            "bmp_ingest_us",
            "total_us",
        ] {
            assert!(epochs[0].field(key).is_some(), "missing {key}");
        }

        // The router's override state matches the injector's ledger.
        assert_eq!(
            override_divergence(&w.router, w.controller.active_overrides(), &[]),
            Vec::<String>::new()
        );
    }

    #[test]
    fn telemetry_records_mode_transitions_and_amends_verdicts() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);

        // Stale inputs: the detour the allocator wants is dropped and its
        // provenance says so.
        let stale = aged(w.controller.config().stale_input_secs * 1000, 0);
        let report = w.run(&peak, 30_000, stale).unwrap();
        assert!(report.degraded);
        assert_eq!(sink.events_named("controller.degraded.enter").len(), 1);
        assert!(report
            .explains
            .iter()
            .any(|e| e.verdict == ExplainVerdict::DroppedStaleInput));

        // Ancient inputs: fail-open enter (and degraded exit), with the
        // allocator's wish recorded as dropped by fail-open.
        let ancient = aged(w.controller.config().fail_open_secs * 1000, 0);
        let report = w.run(&peak, 60_000, ancient).unwrap();
        assert!(report.fail_open);
        assert_eq!(sink.events_named("controller.fail_open.enter").len(), 1);
        assert_eq!(sink.events_named("controller.degraded.exit").len(), 1);
        assert!(report
            .explains
            .iter()
            .all(|e| e.verdict != ExplainVerdict::Emitted));

        // Recovery: both modes exit.
        let report = w.epoch(&peak, 90_000);
        assert!(!report.fail_open && !report.degraded);
        assert_eq!(sink.events_named("controller.fail_open.exit").len(), 1);
    }

    #[test]
    fn epoch_event_counts_injection_drops() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle);
        w.controller.set_injection_loss(1.0, 7);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);

        let dropped = w.controller.injection_ledger().announces_dropped;
        assert!(dropped > 0, "the loss gate dropped the detour");
        let epochs = sink.events_named("epoch");
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].field("dropped_announce"), Some(&dropped.into()));
        assert_eq!(epochs[0].field("announced"), Some(&0usize.into()));
        assert_eq!(epochs[0].field("dropped_withdraw"), Some(&0usize.into()));
    }

    #[test]
    fn reports_are_identical_with_and_without_telemetry() {
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let run = |telemetry: bool| -> Vec<String> {
            let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
            if telemetry {
                let (handle, _sink) = TelemetryHandle::memory();
                w.controller.set_telemetry(handle);
            }
            (1..4)
                .map(|i| {
                    let r = w.epoch(&peak, 30_000 * i);
                    serde_json::to_string(&r).unwrap()
                })
                .collect()
        };
        assert_eq!(run(false), run(true), "telemetry must not perturb results");
    }

    #[test]
    fn drain_withdraws_all() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.epoch(&peak, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        w.controller
            .injector
            .apply(&mut w.router, &OverrideSet::new(), 60_000);
        assert!(w.controller.active_overrides().is_empty());
        assert!(!w.router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
        assert!(!w.router.fib_entry(&p("2.0.0.0/24")).unwrap().is_override);
    }
}
