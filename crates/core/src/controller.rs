//! The per-PoP control loop (paper §4).
//!
//! [`PopController`] owns the collector, the injector, and the epoch cycle.
//! It holds no cross-epoch decision state: each call to
//! [`run_epoch`](PopController::run_epoch) recomputes the full desired
//! override set from fresh routes and traffic and lets the injector apply
//! the diff. The paper argues this stateless design keeps the controller
//! simple and self-correcting — an operator can restart it at any time and
//! the next epoch converges to the same answer.
//!
//! [`run_epoch_guarded`](PopController::run_epoch_guarded) adds the
//! graceful-degradation guards around that loop. The paper's safety story
//! (§4.4) is *fail static*: a wedged controller stops changing routing, and
//! dropped override announcements revert to plain BGP. The guards extend
//! this to *degraded but alive* inputs: when the BMP feed or the traffic
//! estimates are stale, the controller refuses to grow its override
//! footprint (it may only hold or shrink it, re-validating every kept
//! detour target), and past a fail-open horizon it withdraws everything.

use std::collections::HashMap;

use serde::Serialize;

use ef_bgp::peer::PeerId;
use ef_bgp::route::EgressId;
use ef_bgp::router::BgpRouter;
use ef_bgp::{BmpMessage, Millis, ReconnectGovernor};
use ef_telemetry::{audit_overrides, ExplainRecord, ExplainVerdict, TelemetryHandle};

use crate::allocator::allocate;
use crate::collector::RouteCollector;
use crate::config::ControllerConfig;
use crate::injector::{InjectionLedger, Injector};
use crate::overrides::OverrideSet;
use crate::projection::{project_cached, Projection, ProjectionCache};
use crate::state::{InterfaceMap, TrafficView};

/// What one controller epoch observed and did, for telemetry and the
/// evaluation harness.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Simulated time of the epoch, ms.
    pub now_ms: u64,
    /// PoP this controller serves.
    pub pop: u16,
    /// Prefixes with at least one route in the collector.
    pub prefixes_known: usize,
    /// Total demand presented, Mbps.
    pub total_demand_mbps: f64,
    /// Demand with no route at all, Mbps.
    pub unrouted_mbps: f64,
    /// Interfaces projected over the limit before mitigation
    /// `(egress, projected utilization)`, worst first (ties by egress).
    pub overloaded_before: Vec<(u32, f64)>,
    /// Interfaces still over the limit after mitigation
    /// `(egress, residual utilization)`, worst first (ties by egress).
    pub residual_overloaded: Vec<(u32, f64)>,
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
    /// Projected (unmitigated) load per interface, Mbps.
    pub projected_load: HashMap<u32, f64>,
    /// Predicted post-mitigation load per interface, Mbps.
    pub post_load: HashMap<u32, f64>,
    /// Worst input age this epoch ran with, ms.
    pub input_age_ms: u64,
    /// The epoch ran in degraded mode (stale inputs: override set frozen
    /// to hold-or-shrink).
    pub degraded: bool,
    /// The epoch failed open (inputs past the trust horizon: every
    /// override withdrawn).
    pub fail_open: bool,
    /// Post-epoch audit: overrides believed announced but absent from the
    /// router's decision (before reconciliation repaired them).
    pub audit_not_installed: usize,
    /// Post-epoch audit: withdrawn overrides still winning in the router
    /// (before reconciliation repaired them).
    pub audit_leaked: usize,
    /// Decision provenance: one record per steering decision the allocator
    /// considered, with verdicts amended by the guards (hold-or-shrink,
    /// fail-open). Always populated — it is derived purely from simulation
    /// state, so reports stay byte-identical whether or not a telemetry
    /// sink is attached.
    pub explains: Vec<ExplainRecord>,
}

/// Input freshness for one guarded epoch. Ages are "now minus the time the
/// input was last refreshed"; [`EpochInputs::default`] means both inputs
/// are fresh (the plain [`run_epoch`](PopController::run_epoch) path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochInputs {
    /// Age of the newest BMP route state, ms.
    pub bmp_age_ms: u64,
    /// Age of the newest traffic estimate, ms.
    pub traffic_age_ms: u64,
}

impl EpochInputs {
    /// Both inputs refreshed this instant.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// The age that drives degradation decisions: the staler input bounds
    /// how much the combined view can be trusted.
    pub fn age_ms(&self) -> u64 {
        self.bmp_age_ms.max(self.traffic_age_ms)
    }
}

/// Why a guarded epoch was skipped instead of run. These are operational
/// conditions, not bugs: the controller's reaction is to do nothing this
/// cycle (fail static) and let the embedding decide whether to reattach or
/// restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochError {
    /// The injector's BGP session to the peering router is down. Every
    /// override is already implicitly withdrawn by BGP; nothing can be
    /// steered until [`PopController::reattach_injector`] succeeds.
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
    perf_overrides: OverrideSet,
    telemetry: TelemetryHandle,
    last_degraded: bool,
    last_fail_open: bool,
}

impl PopController {
    /// Creates a controller and attaches its BGP session to the PoP's
    /// router. The collector's peer→egress map is read from the router's
    /// current attachments.
    pub fn new(
        pop: u16,
        cfg: ControllerConfig,
        interfaces: InterfaceMap,
        router: &mut BgpRouter,
    ) -> Self {
        match Self::try_new(pop, cfg, interfaces, router) {
            Ok(ctl) => ctl,
            Err(e) => panic!("controller config invalid: {e}"),
        }
    }

    /// Fallible construction: rejects an invalid config instead of
    /// panicking (for embeddings that take config from outside).
    pub fn try_new(
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
            perf_overrides: OverrideSet::new(),
            telemetry: TelemetryHandle::disabled(),
            last_degraded: false,
            last_fail_open: false,
        })
    }

    /// Attaches (or detaches, with a disabled handle) the telemetry
    /// pipeline. Telemetry observes the epoch cycle — phase timings,
    /// decision provenance, mode transitions, override audits — but never
    /// influences it: all control decisions are computed before any
    /// telemetry call, and timers read 0 when disabled.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The stable peer id of this controller's injector session.
    pub fn injector_peer_id(&self) -> PeerId {
        PeerId(1_000_000 + self.pop as u64)
    }

    /// The PoP this controller serves.
    pub fn pop(&self) -> u16 {
        self.pop
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

    /// Feeds BMP messages from the router into the route collector. Call
    /// whenever the feed has data; at minimum once per epoch before
    /// [`run_epoch`](Self::run_epoch).
    pub fn ingest_bmp(&mut self, messages: impl IntoIterator<Item = BmpMessage>) {
        self.collector.ingest(messages);
    }

    /// Installs the §6 performance-override intents the capacity pass must
    /// honor from now on (empty set disables the extension).
    pub fn set_perf_overrides(&mut self, set: OverrideSet) {
        self.perf_overrides = set;
    }

    /// Runs one controller cycle against `traffic` (per-prefix Mbps),
    /// assuming both inputs are fresh. If the injector session is down the
    /// epoch is skipped (a no-op report, never a panic) — use
    /// [`run_epoch_guarded`](Self::run_epoch_guarded) to observe that
    /// condition as a typed error.
    pub fn run_epoch<T: TrafficView + ?Sized>(
        &mut self,
        traffic: &T,
        router: &mut BgpRouter,
        now: Millis,
    ) -> EpochReport {
        match self.run_epoch_guarded(traffic, router, now, EpochInputs::fresh()) {
            Ok(report) => report,
            Err(EpochError::InjectorDown) => self.skipped_report(traffic, now),
        }
    }

    /// Runs one controller cycle with explicit input freshness, applying
    /// the graceful-degradation guards:
    ///
    /// - inputs older than `stale_input_secs`: **degraded mode** — the
    ///   override set may hold or shrink but never grow, and every kept
    ///   override's detour target is re-validated (route still present,
    ///   projected target load still under the limit);
    /// - inputs older than `fail_open_secs`: **fail open** — every
    ///   override is withdrawn and the PoP runs plain BGP.
    ///
    /// Returns [`EpochError::InjectorDown`] (epoch skipped) when the
    /// injector session is down.
    pub fn run_epoch_guarded<T: TrafficView + ?Sized>(
        &mut self,
        traffic: &T,
        router: &mut BgpRouter,
        now: Millis,
        inputs: EpochInputs,
    ) -> Result<EpochReport, EpochError> {
        let epoch_timer = self.telemetry.timer();
        if !self.injector.session_up() {
            self.telemetry.counter("epoch.skipped", 1);
            self.telemetry.emit(
                self.pop,
                now,
                "epoch.skipped",
                &[("reason", "injector_down".into())],
            );
            return Err(EpochError::InjectorDown);
        }
        let age_ms = inputs.age_ms();
        let fail_open = age_ms >= self.cfg.fail_open_secs.saturating_mul(1000);
        let degraded = !fail_open && age_ms >= self.cfg.stale_input_secs.saturating_mul(1000);

        let projection_timer = self.telemetry.timer();
        let projection = project_cached(&mut self.projection_cache, &self.collector, traffic);
        let projection_us = projection_timer.elapsed_us();

        let allocation_timer = self.telemetry.timer();
        let mut outcome = allocate(
            &self.cfg,
            &self.interfaces,
            &self.collector,
            traffic,
            &projection,
            &self.perf_overrides,
            self.injector.announced(),
        );
        let allocation_us = allocation_timer.elapsed_us();

        let guard_timer = self.telemetry.timer();
        let mut explains = std::mem::take(&mut outcome.explains);
        let desired = if fail_open {
            // Nothing the allocator computed is trustworthy at this age.
            for rec in explains.iter_mut().filter(|r| r.emitted()) {
                rec.verdict = ExplainVerdict::DroppedFailOpen;
            }
            OverrideSet::new()
        } else if degraded {
            let kept = self.hold_or_shrink(&outcome.overrides, &projection);
            for rec in explains.iter_mut().filter(|r| r.emitted()) {
                let retained = rec
                    .prefix
                    .parse::<ef_net_types::Prefix>()
                    .map(|p| kept.contains(&p))
                    .unwrap_or(false);
                if !retained {
                    rec.verdict = ExplainVerdict::DroppedStaleInput;
                }
            }
            kept
        } else {
            std::mem::take(&mut outcome.overrides)
        };
        let guards_us = guard_timer.elapsed_us();

        self.note_mode_transitions(degraded, fail_open, age_ms, now);

        let injection_timer = self.telemetry.timer();
        let report = self.injector.apply(router, &desired, now);
        let injection_us = injection_timer.elapsed_us();

        // Pull the router's BMP echoes of our own changes immediately so
        // the collector's view stays current within the epoch.
        let bmp_timer = self.telemetry.timer();
        self.collector.ingest(router.drain_bmp());
        let bmp_ingest_us = bmp_timer.elapsed_us();

        // Post-epoch audit + reconciliation. This runs whether or not
        // telemetry is attached (the auditor's `emit` is the only
        // telemetry-gated part), so reports stay byte-identical with and
        // without a sink, and divergence is *repaired*, not just reported:
        // believed-announced-but-missing overrides are re-announced, leaked
        // override routes are force-withdrawn.
        let expected: Vec<_> = self
            .injector
            .announced()
            .iter_sorted()
            .into_iter()
            .map(|o| (o.prefix, o.target))
            .collect();
        let audit = audit_overrides(router, &expected, &report.sent.withdraw);
        let audit_not_installed = audit.not_installed.len();
        let audit_leaked = audit.leaked.len();
        if !audit.clean() {
            let not_installed: Vec<ef_net_types::Prefix> = audit
                .not_installed
                .iter()
                .filter_map(|f| f.prefix.parse().ok())
                .collect();
            let leaked: Vec<ef_net_types::Prefix> = audit
                .leaked
                .iter()
                .filter_map(|f| f.prefix.parse().ok())
                .collect();
            let (reannounced, force_withdrawn) =
                self.injector
                    .reconcile(router, &not_installed, &leaked, now);
            // Keep the collector's view current after the repair.
            self.collector.ingest(router.drain_bmp());
            self.telemetry.counter("reconcile.reannounced", reannounced);
            self.telemetry
                .counter("reconcile.force_withdrawn", force_withdrawn);
            self.telemetry.emit(
                self.pop,
                now,
                "reconcile",
                &[
                    ("findings", audit.failures().into()),
                    ("reannounced", reannounced.into()),
                    ("force_withdrawn", force_withdrawn.into()),
                ],
            );
        }
        audit.emit(&self.telemetry, self.pop, now);

        let active = self.injector.announced();
        if self.telemetry.enabled() {
            for rec in &explains {
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
            self.telemetry
                .counter("overrides.announced", report.sent.announce.len() as u64);
            self.telemetry
                .counter("overrides.withdrawn", report.sent.withdraw.len() as u64);
            if !report.is_clean() {
                self.telemetry.counter(
                    "inject.dropped_announce",
                    report.dropped_announce.len() as u64,
                );
                self.telemetry.counter(
                    "inject.dropped_withdraw",
                    report.dropped_withdraw.len() as u64,
                );
            }
            self.telemetry.gauge(
                &format!("pop{}.overrides_active", self.pop),
                active.len() as f64,
            );
            self.telemetry.gauge(
                &format!("pop{}.detoured_mbps", self.pop),
                active.total_moved_mbps(),
            );
            let total_us = epoch_timer.elapsed_us();
            self.telemetry.observe("epoch_duration_us", total_us as f64);
            self.telemetry.emit(
                self.pop,
                now,
                "epoch",
                &[
                    ("input_age_ms", age_ms.into()),
                    ("degraded", degraded.into()),
                    ("fail_open", fail_open.into()),
                    ("overrides_active", active.len().into()),
                    ("announced", report.sent.announce.len().into()),
                    ("withdrawn", report.sent.withdraw.len().into()),
                    ("projection_us", projection_us.into()),
                    ("allocation_us", allocation_us.into()),
                    ("guards_us", guards_us.into()),
                    ("injection_us", injection_us.into()),
                    ("bmp_ingest_us", bmp_ingest_us.into()),
                    ("total_us", total_us.into()),
                ],
            );
        }
        Ok(EpochReport {
            now_ms: now,
            pop: self.pop,
            prefixes_known: self.collector.prefix_count(),
            total_demand_mbps: projection.demand_total_mbps(),
            unrouted_mbps: projection.unrouted_mbps,
            overloaded_before: outcome
                .overloaded_before
                .iter()
                .map(|(e, u)| (e.0, *u))
                .collect(),
            residual_overloaded: outcome
                .residual_overloaded
                .iter()
                .map(|(e, u)| (e.0, *u))
                .collect(),
            overrides_active: active.len(),
            detoured_mbps: active.total_moved_mbps(),
            detoured_by_kind: active
                .moved_by_target_kind()
                .into_iter()
                .map(|(k, v)| (k.label().to_string(), v))
                .collect(),
            churn_announced: report.sent.announce.len(),
            churn_withdrawn: report.sent.withdraw.len(),
            projected_load: projection
                .load_mbps
                .iter()
                .map(|(e, v)| (e.0, *v))
                .collect(),
            post_load: outcome.post_load.iter().map(|(e, v)| (e.0, *v)).collect(),
            input_age_ms: age_ms,
            degraded,
            fail_open,
            audit_not_installed,
            audit_leaked,
            explains,
        })
    }

    /// Emits enter/exit events (and bumps transition counters) when the
    /// controller crosses into or out of degraded / fail-open mode. These
    /// replace the ad-hoc debug prints an operator would otherwise add: the
    /// transition, its trigger (input age), and the override footprint at
    /// the moment of crossing are all structured fields.
    fn note_mode_transitions(&mut self, degraded: bool, fail_open: bool, age_ms: u64, now: Millis) {
        let overrides_active = self.injector.announced().len();
        let fields = [
            ("input_age_ms", age_ms.into()),
            ("overrides_active", overrides_active.into()),
        ];
        if degraded != self.last_degraded {
            let name = if degraded {
                self.telemetry.counter("controller.degraded_transitions", 1);
                "controller.degraded.enter"
            } else {
                "controller.degraded.exit"
            };
            self.telemetry.emit(self.pop, now, name, &fields);
        }
        if fail_open != self.last_fail_open {
            let name = if fail_open {
                self.telemetry
                    .counter("controller.fail_open_transitions", 1);
                "controller.fail_open.enter"
            } else {
                "controller.fail_open.exit"
            };
            self.telemetry.emit(self.pop, now, name, &fields);
        }
        self.last_degraded = degraded;
        self.last_fail_open = fail_open;
    }

    /// Degraded-mode desired set: the intersection of what the allocator
    /// wants and what is already announced (never enlarge on stale inputs),
    /// with each survivor's detour target re-validated against the current
    /// (stale) route view and interface limits.
    fn hold_or_shrink(&self, desired: &OverrideSet, projection: &Projection) -> OverrideSet {
        let announced = self.injector.announced();
        let mut kept = OverrideSet::new();
        // Load already attracted to each target by overrides kept so far,
        // on top of the organic projection.
        let mut extra: HashMap<EgressId, f64> = HashMap::new();
        for o in desired.iter_sorted() {
            if !announced.contains(&o.prefix) {
                continue; // would enlarge the set
            }
            let target_has_route = self
                .collector
                .candidates(&o.prefix)
                .iter()
                .any(|r| r.egress == o.target && !r.is_override());
            if !target_has_route {
                continue; // detour target vanished from the (stale) view
            }
            let base = projection.load_mbps.get(&o.target).copied().unwrap_or(0.0);
            let added = extra.get(&o.target).copied().unwrap_or(0.0);
            if base + added + o.moved_mbps > self.limit_mbps(o.target) {
                continue; // target can no longer absorb this detour
            }
            *extra.entry(o.target).or_default() += o.moved_mbps;
            kept.insert(*o);
        }
        kept
    }

    /// The report for an epoch that could not run (injector down): nothing
    /// was observed or changed; BGP semantics already withdrew every
    /// override.
    fn skipped_report<T: TrafficView + ?Sized>(&self, traffic: &T, now: Millis) -> EpochReport {
        EpochReport {
            now_ms: now,
            pop: self.pop,
            prefixes_known: self.collector.prefix_count(),
            total_demand_mbps: crate::state::total_traffic_mbps(traffic),
            unrouted_mbps: 0.0,
            overloaded_before: Vec::new(),
            residual_overloaded: Vec::new(),
            overrides_active: 0,
            detoured_mbps: 0.0,
            detoured_by_kind: HashMap::new(),
            churn_announced: 0,
            churn_withdrawn: 0,
            projected_load: HashMap::new(),
            post_load: HashMap::new(),
            input_age_ms: 0,
            degraded: false,
            fail_open: true,
            audit_not_installed: 0,
            audit_leaked: 0,
            explains: Vec::new(),
        }
    }

    /// True while the injector's BGP session to the router is up.
    pub fn injector_up(&self) -> bool {
        self.injector.session_up()
    }

    /// Records a router-side loss of the injector session (the fault model
    /// or a real transport removed the controller pseudo-peer). All
    /// overrides are implicitly withdrawn by BGP; subsequent guarded
    /// epochs return [`EpochError::InjectorDown`] until a reattach
    /// succeeds. The loss is charged to the backoff governor, so a
    /// flapping session earns growing reconnect delays and, past the
    /// damping threshold, outright suppression until it cools.
    pub fn injector_session_lost(&mut self, now: Millis) {
        self.injector.session_lost();
        self.injector_governor.record_down(now);
    }

    /// Attempts a governed reattach of the injector session: a no-op
    /// (returning `false`) while the backoff governor still holds the
    /// session down. On a successful attach the governor is credited; on a
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
            Ok(inj) => {
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

    /// Re-establishes the injector session after a loss, immediately and
    /// unconditionally (operator-initiated restart: bypasses the backoff
    /// governor). The announced set starts empty (stateless restart); the
    /// next epoch recomputes and re-announces whatever the inputs justify.
    pub fn reattach_injector(&mut self, router: &mut BgpRouter, now: Millis) {
        self.injector = Injector::attach(router, self.injector_peer_id(), now);
        self.injector_governor.record_up(now);
    }

    /// Resynchronises the router with the injector's announced set via
    /// ROUTE-REFRESH on the live session — the recovery used when the
    /// *content* of the injector feed was damaged (partial loss, update
    /// corruption) but the session itself held. Returns `false` if the
    /// session is down or refresh was not negotiated; those cases are
    /// handled by the reattach and audit/reconcile paths instead.
    pub fn resync_injector(&mut self, router: &mut BgpRouter, now: Millis) -> bool {
        let ok = self.injector.resync_via_refresh(router, now);
        if ok {
            self.telemetry.counter("injector.refresh_resyncs", 1);
        }
        ok
    }

    /// Cumulative injection accounting: sends, drops, session refusals,
    /// and reconciliation repairs.
    pub fn injection_ledger(&self) -> &InjectionLedger {
        self.injector.ledger()
    }

    /// Configures the injector's deterministic partial-loss gate (the
    /// `InjectorPartialLoss` fault). `fraction == 0` disables it.
    pub fn set_injection_loss(&mut self, fraction: f64, seed: u64) {
        self.injector.set_loss(fraction, seed);
    }

    /// Updates an interface's usable capacity (provisioning change or
    /// fault-model link degradation). Unknown interfaces are ignored.
    pub fn set_interface_capacity(&mut self, egress: EgressId, capacity_mbps: f64) {
        if let Some(info) = self.interfaces.get_mut(&egress) {
            info.capacity_mbps = capacity_mbps;
        }
    }

    /// Withdraws every override (drain before maintenance).
    pub fn drain(&mut self, router: &mut BgpRouter, now: Millis) {
        self.injector.drain(router, now);
    }

    /// Utilization limit in Mbps for an interface, as the allocator sees it.
    pub fn limit_mbps(&self, egress: EgressId) -> f64 {
        self.interfaces
            .get(&egress)
            .map(|i| i.capacity_mbps * self.cfg.util_limit)
            .unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InterfaceInfo;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::peer::PeerKind;
    use ef_bgp::policy::Policy;
    use ef_bgp::router::{PeerAttachment, PeerStub, RouterConfig};
    use ef_net_types::{Asn, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    struct World {
        router: BgpRouter,
        #[allow(dead_code)]
        peer: PeerStub,
        #[allow(dead_code)]
        transit: PeerStub,
        controller: PopController,
    }

    /// One private peer (egress 1, 100 Mbps) + one transit (egress 2, big),
    /// both announcing the given prefixes.
    fn world(prefixes: &[&str]) -> World {
        let mut router = BgpRouter::new(RouterConfig {
            name: "pop0-pr0".into(),
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
        let interfaces = HashMap::from([
            (
                EgressId(1),
                InterfaceInfo::new(100.0, PeerKind::PrivatePeer),
            ),
            (
                EgressId(2),
                InterfaceInfo::new(100_000.0, PeerKind::Transit),
            ),
        ]);
        let mut controller =
            PopController::new(0, ControllerConfig::default(), interfaces, &mut router);
        controller.ingest_bmp(router.drain_bmp());
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
        let report = w.controller.run_epoch(&traffic, &mut w.router, 30_000);
        assert_eq!(report.overrides_active, 0);
        assert_eq!(report.churn_announced + report.churn_withdrawn, 0);
        assert!(report.overloaded_before.is_empty());
        assert_eq!(report.total_demand_mbps, 40.0);
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
        let report = w.controller.run_epoch(&peak, &mut w.router, 30_000);
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
        let report = w.controller.run_epoch(&off_peak, &mut w.router, 60_000);
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
        let first = w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(first.churn_announced, 1);
        for i in 2..6 {
            let again = w.controller.run_epoch(&peak, &mut w.router, 30_000 * i);
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
        let mut w = world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 10.0), (p("99.0.0.0/24"), 5.0)]);
        let report = w.controller.run_epoch(&traffic, &mut w.router, 30_000);
        assert_eq!(report.unrouted_mbps, 5.0);
    }

    #[test]
    fn limit_and_kind_helpers() {
        let w = world(&[]);
        assert!((w.controller.limit_mbps(EgressId(1)) - 95.0).abs() < 1e-9);
        assert_eq!(w.controller.limit_mbps(EgressId(77)), f64::INFINITY);
        let kind = |e| {
            w.controller
                .interfaces()
                .get(&EgressId(e))
                .map(|i| i.kind())
        };
        assert_eq!(kind(1), Some(PeerKind::PrivatePeer));
        assert_eq!(kind(77), None);
    }

    #[test]
    fn fresh_inputs_behave_like_run_epoch() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 30_000, EpochInputs::fresh())
            .unwrap();
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
        let stale = EpochInputs {
            bmp_age_ms: w.controller.config().stale_input_secs * 1000,
            traffic_age_ms: 0,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 30_000, stale)
            .unwrap();
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
        let first = w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(first.overrides_active, 1);
        // Inputs go stale while the overload persists: the standing
        // override is held (target still routed, still has room).
        let stale = EpochInputs {
            bmp_age_ms: 0,
            traffic_age_ms: w.controller.config().stale_input_secs * 1000 + 1,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 60_000, stale)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.overrides_active, 1, "standing override held");
        assert_eq!(report.churn_announced + report.churn_withdrawn, 0);
    }

    #[test]
    fn stale_inputs_drop_overrides_whose_target_vanished() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        let steered = *w
            .controller
            .active_overrides()
            .iter_sorted()
            .first()
            .unwrap();
        // The transit route under the detour disappears; the BMP withdraw
        // reaches the collector, but the traffic input is stale.
        w.transit.withdraw(&mut w.router, [steered.prefix], 50_000);
        w.controller.ingest_bmp(w.router.drain_bmp());
        let stale = EpochInputs {
            bmp_age_ms: 0,
            traffic_age_ms: w.controller.config().stale_input_secs * 1000,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 60_000, stale)
            .unwrap();
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
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        let ancient = EpochInputs {
            bmp_age_ms: w.controller.config().fail_open_secs * 1000,
            traffic_age_ms: 0,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 700_000, ancient)
            .unwrap();
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
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);

        // The router loses the controller pseudo-peer.
        let injector_peer = w.controller.injector_peer_id();
        w.router.remove_peer(injector_peer, 40_000);
        w.controller.injector_session_lost(40_000);
        assert!(!w.controller.injector_up());
        assert!(!w.router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);

        let err = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 60_000, EpochInputs::fresh())
            .unwrap_err();
        assert_eq!(err, EpochError::InjectorDown);
        // The infallible wrapper reports a skipped, failed-open epoch.
        let report = w.controller.run_epoch(&peak, &mut w.router, 90_000);
        assert!(report.fail_open);
        assert_eq!(report.overrides_active, 0);

        // Reattach: the next epoch restores the needed detour.
        w.controller.reattach_injector(&mut w.router, 100_000);
        assert!(w.controller.injector_up());
        let report = w.controller.run_epoch(&peak, &mut w.router, 120_000);
        assert_eq!(report.overrides_active, 1);
        assert_eq!(report.churn_announced, 1);
    }

    #[test]
    fn governed_reattach_waits_out_the_backoff_then_recovers() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
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
        let report = w.controller.run_epoch(&peak, &mut w.router, 90_000);
        assert_eq!(report.overrides_active, 1);
        assert_eq!(report.churn_announced, 1);
    }

    /// The acceptance scenario for reconciliation: divergence injected
    /// behind the controller's back is detected by the post-epoch audit and
    /// repaired in the same epoch, so the following audit is clean.
    #[test]
    fn reconciliation_repairs_injected_divergence_within_one_epoch() {
        use ef_bgp::message::{BgpMessage, UpdateMessage};
        use ef_bgp::wire::encode_message;

        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
        let overridden: Vec<_> = w
            .controller
            .active_overrides()
            .iter_sorted()
            .into_iter()
            .map(|o| (o.prefix, o.target))
            .collect();
        assert_eq!(overridden.len(), 1);
        let (prefix, _) = overridden[0];

        // Divergence 1 (not-installed): the router loses the override route
        // while the controller still believes it announced — modeled as a
        // withdraw arriving on the injector session without the injector's
        // knowledge.
        let withdraw =
            encode_message(&BgpMessage::Update(UpdateMessage::withdraw([prefix]))).unwrap();
        w.router
            .deliver(w.controller.injector_peer_id(), &withdraw, 40_000);
        assert!(!w.router.fib_entry(&prefix).unwrap().is_override);

        // Divergence 2 (leak): an override route the controller never asked
        // for shows up on the injector session.
        let stray = p("2.0.0.0/24");
        let mut attrs = ef_bgp::attrs::PathAttributes {
            origin: ef_bgp::attrs::Origin::Igp,
            next_hop: Some(EgressId(2).to_next_hop().unwrap()),
            ..Default::default()
        };
        attrs.add_community(ef_bgp::policy::OVERRIDE_MARKER);
        let announce =
            encode_message(&BgpMessage::Update(UpdateMessage::announce(stray, attrs))).unwrap();
        w.router
            .deliver(w.controller.injector_peer_id(), &announce, 41_000);
        assert!(w.router.fib_entry(&stray).unwrap().is_override);

        // The next epoch's audit finds both divergences and reconciliation
        // repairs them in place.
        w.controller.run_epoch(&peak, &mut w.router, 60_000);
        assert!(
            w.router.fib_entry(&prefix).unwrap().is_override,
            "missing override re-announced"
        );
        assert!(
            !w.router.fib_entry(&stray).unwrap().is_override,
            "leaked override force-withdrawn"
        );
        assert_eq!(w.controller.injection_ledger().reconcile_reannounced, 1);
        assert_eq!(w.controller.injection_ledger().reconcile_force_withdrawn, 1);

        // Post-repair the audit is clean: findings went to zero within one
        // epoch of the divergence being observable.
        let expected: Vec<_> = w
            .controller
            .active_overrides()
            .iter_sorted()
            .into_iter()
            .map(|o| (o.prefix, o.target))
            .collect();
        let audit = ef_telemetry::audit_overrides(&w.router, &expected, &[]);
        assert!(audit.clean(), "clean after repair: {audit:?}");
    }

    #[test]
    fn capacity_updates_feed_the_next_epoch() {
        let mut w = world(&["1.0.0.0/24"]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 60.0)]);
        let quiet = w.controller.run_epoch(&traffic, &mut w.router, 30_000);
        assert_eq!(quiet.overrides_active, 0);
        // The PNI loses half its capacity: 60 Mbps no longer fits 50.
        w.controller.set_interface_capacity(EgressId(1), 50.0);
        let report = w.controller.run_epoch(&traffic, &mut w.router, 60_000);
        assert_eq!(report.overrides_active, 1, "detour after capacity loss");
        // Restore: the stateless recompute reverts.
        w.controller.set_interface_capacity(EgressId(1), 100.0);
        let report = w.controller.run_epoch(&traffic, &mut w.router, 90_000);
        assert_eq!(report.overrides_active, 0);
    }

    #[test]
    fn telemetry_captures_epoch_events_explains_and_clean_audit() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle.clone());
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);
        let report = w.controller.run_epoch(&peak, &mut w.router, 30_000);
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
                    .any(|e| e.emitted() && e.prefix == o.prefix.to_string()),
                "override {} lacks provenance",
                o.prefix
            );
        }

        // The announce event carries the structured fields.
        let announces = sink.events_named("override.announce");
        assert_eq!(announces.len(), 1);
        assert_eq!(announces[0].str_field("kind"), Some("transit"));

        // The epoch event has the per-phase wall-clock timings.
        let epochs = sink.events_named("epoch");
        assert_eq!(epochs.len(), 1);
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

        // The audit ran and found the router state consistent.
        assert!(sink.events_named("audit.override_leaked").is_empty());
        assert!(sink.events_named("audit.override_not_installed").is_empty());
        // The controller writes the registry; snapshotting it into the
        // stream is the engine's job, once per epoch.
        assert!(sink.snapshots().is_empty());
        let metrics = handle.metrics().expect("telemetry enabled");
        assert_eq!(metrics.counters["audit.checked"], 1);
        assert_eq!(metrics.counters.get("audit.failures"), Some(&0));
        assert_eq!(metrics.counters["overrides.announced"], 1);
        assert_eq!(metrics.gauges["pop0.overrides_active"], 1.0);
        assert_eq!(metrics.gauges["pop0.audit_failures_last_epoch"], 0.0);
        assert_eq!(metrics.histograms["epoch_duration_us"].count, 1);
    }

    #[test]
    fn telemetry_records_mode_transitions_and_amends_verdicts() {
        let mut w = world(&["1.0.0.0/24", "2.0.0.0/24"]);
        let (handle, sink) = TelemetryHandle::memory();
        w.controller.set_telemetry(handle);
        let peak = HashMap::from([(p("1.0.0.0/24"), 80.0), (p("2.0.0.0/24"), 70.0)]);

        // Stale inputs: the detour the allocator wants is dropped and its
        // provenance says so.
        let stale = EpochInputs {
            bmp_age_ms: w.controller.config().stale_input_secs * 1000,
            traffic_age_ms: 0,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 30_000, stale)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(sink.events_named("controller.degraded.enter").len(), 1);
        assert!(report
            .explains
            .iter()
            .any(|e| e.verdict == ExplainVerdict::DroppedStaleInput));

        // Ancient inputs: fail-open enter (and degraded exit), with the
        // allocator's wish recorded as dropped by fail-open.
        let ancient = EpochInputs {
            bmp_age_ms: w.controller.config().fail_open_secs * 1000,
            traffic_age_ms: 0,
        };
        let report = w
            .controller
            .run_epoch_guarded(&peak, &mut w.router, 60_000, ancient)
            .unwrap();
        assert!(report.fail_open);
        assert_eq!(sink.events_named("controller.fail_open.enter").len(), 1);
        assert_eq!(sink.events_named("controller.degraded.exit").len(), 1);
        assert!(report
            .explains
            .iter()
            .all(|e| e.verdict != ExplainVerdict::Emitted));

        // Recovery: both modes exit.
        let report = w.controller.run_epoch(&peak, &mut w.router, 90_000);
        assert!(!report.fail_open && !report.degraded);
        assert_eq!(sink.events_named("controller.fail_open.exit").len(), 1);
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
                    let r = w.controller.run_epoch(&peak, &mut w.router, 30_000 * i);
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
        w.controller.run_epoch(&peak, &mut w.router, 30_000);
        assert_eq!(w.controller.active_overrides().len(), 1);
        w.controller.drain(&mut w.router, 60_000);
        assert!(w.controller.active_overrides().is_empty());
        assert!(!w.router.fib_entry(&p("1.0.0.0/24")).unwrap().is_override);
        assert!(!w.router.fib_entry(&p("2.0.0.0/24")).unwrap().is_override);
    }
}
