//! The live health monitor: per-epoch sampling, rule evaluation, and
//! alert emission.
//!
//! The simulation engine hands the monitor one [`EpochSignals`] per PoP
//! per epoch — a pure read of state the engine already computed. The
//! monitor derives a flat metric map, feeds its ring-buffer series and
//! quantile digests, runs the [`RuleEngine`], and emits `health.sample` /
//! `alert.fire` / `alert.clear` events into the telemetry stream.
//!
//! **Determinism contract**: the monitor only ever *reads* simulation
//! state and only ever *writes* to its own state and the telemetry sink.
//! Alerts never feed back into control decisions, so a run's `results/`
//! output is byte-identical with health on or off. The one wall-clock
//! input — the engine-measured epoch wall time, sampled as the
//! `epoch_wall_us` series — exists only when health is on and flows only
//! into the sink, same as telemetry phase timers.

use std::collections::BTreeMap;

use ef_telemetry::TelemetryHandle;
use serde::{Deserialize, Serialize};

use crate::rules::{Alert, AlertEdge, Comparison, RuleEngine, Severity, SloRule};
use crate::series::SeriesStore;

/// Everything the monitor reads from one PoP after one epoch. All fields
/// are deterministic simulation state; none involve the wall clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSignals {
    /// Simulated time at the end of the epoch, seconds.
    pub t_secs: u64,
    /// The PoP.
    pub pop: u16,
    /// Demand offered this tick, Mbps.
    pub offered_mbps: f64,
    /// Demand dropped at over-capacity interfaces this tick, Mbps.
    pub dropped_mbps: f64,
    /// Traffic currently detoured by overrides, Mbps.
    pub detoured_mbps: f64,
    /// Overrides active after the epoch.
    pub overrides_active: u64,
    /// Overrides announced + withdrawn this epoch.
    pub churn: u64,
    /// Interfaces still over their utilization limit after the epoch.
    pub residual_overloaded: u64,
    /// Controller ran degraded (held/shrunk on stale inputs).
    pub degraded: bool,
    /// Controller is failing open (withdrawing overrides).
    pub fail_open: bool,
    /// The epoch was skipped (injector unreachable).
    pub epoch_skipped: bool,
    /// A controller should be running here but is crashed.
    pub controller_missing: bool,
    /// Age of the freshest usable input pair, ms.
    pub input_age_ms: u64,
    /// Peering sessions currently down.
    pub sessions_down: u64,
    /// Cumulative established-session teardowns.
    pub session_resets_total: u64,
    /// Cumulative UPDATEs downgraded to treat-as-withdraw.
    pub updates_downgraded_total: u64,
    /// Cumulative injector announces/withdraws dropped by fault loss.
    pub injection_dropped_total: u64,
    /// Post-epoch audit findings this epoch (not-installed + leaked).
    pub audit_failures: u64,
    /// Per-interface utilization `(egress, load/capacity)`, egress order.
    pub iface_util: Vec<(u32, f64)>,
    /// Projected monthly egress spend at this epoch's carried rates, USD:
    /// Σ marginal `$ /Mbps` × carried Mbps over the PoP's interfaces.
    pub billing_burn_usd: f64,
}

/// Sentinel "PoP" id under which global-tier metrics and alerts are
/// keyed. Real PoP ids are dense from zero; `u16::MAX` can never collide
/// with one.
pub const GLOBAL_POP: u16 = u16::MAX;

/// What the monitor reads from the global steering tier after one epoch —
/// a pure copy of the tier's guard verdicts, same read-only contract as
/// [`EpochSignals`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalSignals {
    /// Simulated time at the end of the epoch, seconds.
    pub t_secs: u64,
    /// PoP reports delivered this epoch.
    pub delivered_reports: u64,
    /// PoP reports expected per epoch.
    pub expected_reports: u64,
    /// PoPs whose freshest report is at least one epoch old.
    pub stale_pops: u64,
    /// Largest report age across PoPs, epochs.
    pub max_report_age: u64,
    /// The epoch ran fail-static (below report quorum or tier down).
    pub fail_static: bool,
    /// Away-fraction direction flips this epoch (the thrash signal).
    pub flips: u64,
    /// Restores suppressed by the hold-down this epoch.
    pub suppressed_restores: u64,
    /// Demand the placement pass moved this epoch, Mbps.
    pub moved_mbps: f64,
}

/// Samples kept per ring series.
const RING_CAPACITY: usize = 512;
/// Centroids per quantile digest.
pub(crate) const DIGEST_BINS: usize = 64;
/// Recovered epochs required before any alert clears.
const CLEAR_EPOCHS: u32 = 2;
/// Per-PoP epochs to sample but not judge at the start of a run. A
/// cold-started controller has not placed its first overrides yet, so the
/// first epoch legitimately shows drops/overload; paging on the
/// convergence transient would make every run "dirty".
pub(crate) const WARMUP_EPOCHS: u64 = 2;

/// Selects the health tier for a scenario. The built-in rule set's
/// thresholds are fixed (see [`HealthConfig::rules`]); a config written
/// when they were settable still loads, its threshold keys ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {}

impl HealthConfig {
    /// The built-in rule set, in a stable declaration order.
    pub fn rules(&self) -> Vec<SloRule> {
        let rule =
            |name: &str, metric: &str, threshold: f64, sustain: u32, sev: Severity| SloRule {
                name: name.to_string(),
                metric: metric.to_string(),
                threshold,
                cmp: Comparison::Above,
                sustain_epochs: sustain,
                clear_epochs: CLEAR_EPOCHS,
                severity: sev,
            };
        vec![
            // The paper's first-order SLO: egress drops despite EF, above
            // 0.5 % of offered demand.
            rule(
                "drop_rate_ceiling",
                "drop_rate",
                0.005,
                1,
                Severity::Critical,
            ),
            // An interface past capacity even after detours.
            rule(
                "interface_overload",
                "iface_util_max",
                1.0,
                1,
                Severity::Warning,
            ),
            // Override churn storm: over 50 announce+withdraws per epoch,
            // sustained for 3 epochs.
            rule("churn_storm", "override_churn", 50.0, 3, Severity::Warning),
            // Watchdog: the controller is deciding on stale inputs. The
            // threshold sits between one and two 30 s epochs, so a stalled
            // feed fires on the second stale epoch.
            rule(
                "stale_inputs",
                "input_age_ms",
                45_000.0,
                1,
                Severity::Critical,
            ),
            // Watchdog: the controller process itself is gone.
            rule(
                "controller_down",
                "controller_down",
                0.5,
                1,
                Severity::Critical,
            ),
            // Watchdog: the BGP injector is unreachable (epochs skipped).
            rule("injector_down", "epoch_skipped", 0.5, 1, Severity::Critical),
            // Watchdog: overrides the post-epoch auditor cannot justify.
            rule(
                "override_audit",
                "audit_failures",
                0.5,
                1,
                Severity::Critical,
            ),
            // Peering session health.
            rule(
                "bgp_session_down",
                "sessions_down",
                0.5,
                1,
                Severity::Warning,
            ),
            // Session flap storm: three or more resets in one epoch.
            rule("session_flap", "session_resets", 2.5, 1, Severity::Warning),
            // Ingest corruption: UPDATEs downgraded to treat-as-withdraw.
            rule(
                "ingest_corruption",
                "updates_downgraded",
                0.5,
                1,
                Severity::Warning,
            ),
            // Injection loss: announces/withdraws dropped on the wire.
            rule(
                "injection_loss",
                "injection_drops",
                0.5,
                1,
                Severity::Critical,
            ),
            // Global tier (metrics exist only at the GLOBAL_POP key, so
            // these rules never fire for a real PoP and vice versa):
            // the tier is steering on reports at least an epoch old.
            rule(
                "global_reports_stale",
                "global_report_age",
                0.5,
                1,
                Severity::Critical,
            ),
            // The tier froze placements for lack of report quorum.
            rule(
                "global_fail_static",
                "global_fail_static",
                0.5,
                1,
                Severity::Critical,
            ),
            // Placements bouncing between PoPs on alternating reports: over
            // 4 away-fraction direction flips per epoch, sustained for 2.
            rule(
                "placement_thrash",
                "placement_flips",
                4.0,
                2,
                Severity::Warning,
            ),
        ]
    }
}

/// Samples one PoP's per-interface utilization series — the monitor's
/// only O(interfaces) work — into that PoP's store. Slot-addressed: the
/// interface list is fixed by the topology, so after the first epoch
/// each sample is a direct index, no string formatting or lookups. The
/// engine calls this from the parallel job that steps the PoP (the
/// stores are per-PoP, so the mutations are disjoint); the serial
/// [`HealthMonitor::observe_epoch_presampled`] pass then covers named
/// metrics and rules without re-walking the interface list.
pub fn sample_iface_util(store: &mut SeriesStore, signals: &EpochSignals) {
    for (slot, (egress, util)) in signals.iface_util.iter().enumerate() {
        store.record_slot(
            slot,
            || format!("iface{egress}.util"),
            signals.t_secs,
            *util,
        );
    }
}

/// Cumulative totals remembered per PoP so per-epoch deltas can be formed.
#[derive(Debug, Clone, Copy, Default)]
struct PrevTotals {
    session_resets: u64,
    updates_downgraded: u64,
    injection_dropped: u64,
}

/// The live health tier: series store + rule engine + alert emission.
#[derive(Debug)]
pub struct HealthMonitor {
    engine: RuleEngine,
    series: BTreeMap<u16, SeriesStore>,
    prev: BTreeMap<u16, PrevTotals>,
    epochs_seen: BTreeMap<u16, u64>,
    telemetry: TelemetryHandle,
}

impl HealthMonitor {
    /// A monitor over the config's built-in rules, emitting into
    /// `telemetry` (which may be disabled — the monitor still evaluates).
    pub fn new(cfg: HealthConfig, telemetry: TelemetryHandle) -> Self {
        let engine = RuleEngine::new(cfg.rules());
        HealthMonitor {
            engine,
            series: BTreeMap::new(),
            prev: BTreeMap::new(),
            epochs_seen: BTreeMap::new(),
            telemetry,
        }
    }

    /// Derives the flat metric vector the rules and series consume, in
    /// alphabetical key order (the order a `BTreeMap` would iterate, so
    /// telemetry field order is stable). Static keys and one Vec: this
    /// runs per PoP per epoch and must not churn allocations.
    /// `epoch_wall_us` (engine-measured wall time) is included only when
    /// measured, so its series never records a zero for a missing reading.
    pub fn metric_map(
        &self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
    ) -> Vec<(&'static str, f64)> {
        let prev = self.prev.get(&signals.pop).copied().unwrap_or_default();
        let drop_rate = if signals.offered_mbps > 0.0 {
            signals.dropped_mbps / signals.offered_mbps
        } else {
            0.0
        };
        let util_max = signals
            .iface_util
            .iter()
            .map(|(_, u)| *u)
            .fold(0.0_f64, f64::max);
        let bool_metric = |b: bool| if b { 1.0 } else { 0.0 };
        let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(17);
        m.push(("audit_failures", signals.audit_failures as f64));
        m.push(("billing_burn_usd", signals.billing_burn_usd));
        m.push(("controller_down", bool_metric(signals.controller_missing)));
        m.push(("detoured_mbps", signals.detoured_mbps));
        m.push(("drop_rate", drop_rate));
        m.push(("epoch_skipped", bool_metric(signals.epoch_skipped)));
        if let Some(us) = epoch_wall_us {
            m.push(("epoch_wall_us", us as f64));
        }
        m.push(("iface_util_max", util_max));
        m.push((
            "injection_drops",
            signals
                .injection_dropped_total
                .saturating_sub(prev.injection_dropped) as f64,
        ));
        m.push(("input_age_ms", signals.input_age_ms as f64));
        m.push(("override_churn", signals.churn as f64));
        m.push(("overrides_active", signals.overrides_active as f64));
        m.push(("residual_overloaded", signals.residual_overloaded as f64));
        m.push((
            "session_resets",
            signals
                .session_resets_total
                .saturating_sub(prev.session_resets) as f64,
        ));
        m.push(("sessions_down", signals.sessions_down as f64));
        m.push((
            "updates_downgraded",
            signals
                .updates_downgraded_total
                .saturating_sub(prev.updates_downgraded) as f64,
        ));
        m
    }

    /// Feeds one PoP's end-of-epoch signals. Updates series and digests,
    /// evaluates every rule, emits `health.sample` + `alert.*` telemetry,
    /// and returns the alert edges this epoch produced.
    pub fn observe_epoch(
        &mut self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
    ) -> Vec<AlertEdge> {
        self.observe_epoch_inner(signals, epoch_wall_us, true)
    }

    /// [`observe_epoch`](Self::observe_epoch) for a caller that already
    /// ran [`sample_iface_util`] on this PoP's store — the engine samples
    /// interface series inside the parallel job that steps each PoP, leaving
    /// only the named metrics and rule pass for this serial call.
    pub fn observe_epoch_presampled(
        &mut self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
    ) -> Vec<AlertEdge> {
        self.observe_epoch_inner(signals, epoch_wall_us, false)
    }

    fn observe_epoch_inner(
        &mut self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
        sample_ifaces: bool,
    ) -> Vec<AlertEdge> {
        let metrics = self.metric_map(signals, epoch_wall_us);
        let store = self
            .series
            .entry(signals.pop)
            .or_insert_with(|| SeriesStore::new(RING_CAPACITY, DIGEST_BINS));
        for (name, value) in &metrics {
            store.record(name, signals.t_secs, *value);
        }
        if sample_ifaces {
            sample_iface_util(store, signals);
        }
        self.prev.insert(
            signals.pop,
            PrevTotals {
                session_resets: signals.session_resets_total,
                updates_downgraded: signals.updates_downgraded_total,
                injection_dropped: signals.injection_dropped_total,
            },
        );
        let seen = self.epochs_seen.entry(signals.pop).or_insert(0);
        *seen += 1;
        // Cold-start warmup: sample and emit, but don't judge yet.
        let edges = if *seen <= WARMUP_EPOCHS {
            Vec::new()
        } else {
            self.engine.observe(signals.pop, signals.t_secs, &metrics)
        };
        self.emit(signals, &metrics, &edges);
        edges
    }

    /// Derives the global tier's flat metric vector, alphabetical key
    /// order like [`metric_map`](Self::metric_map).
    pub fn global_metric_map(&self, signals: &GlobalSignals) -> Vec<(&'static str, f64)> {
        let bool_metric = |b: bool| if b { 1.0 } else { 0.0 };
        vec![
            ("global_delivered_reports", signals.delivered_reports as f64),
            ("global_fail_static", bool_metric(signals.fail_static)),
            ("global_moved_mbps", signals.moved_mbps),
            ("global_report_age", signals.max_report_age as f64),
            ("global_stale_pops", signals.stale_pops as f64),
            ("placement_flips", signals.flips as f64),
            ("placement_suppressed", signals.suppressed_restores as f64),
        ]
    }

    /// Feeds the global steering tier's end-of-epoch guard verdicts,
    /// keyed under [`GLOBAL_POP`]. Same contract as
    /// [`observe_epoch`](Self::observe_epoch): series + rules + telemetry,
    /// nothing fed back. Global metrics exist only at this key, so the
    /// per-PoP rules never judge the global sample (their metrics are
    /// absent) and the global rules never judge a real PoP.
    pub fn observe_global(&mut self, signals: &GlobalSignals) -> Vec<AlertEdge> {
        let metrics = self.global_metric_map(signals);
        let store = self
            .series
            .entry(GLOBAL_POP)
            .or_insert_with(|| SeriesStore::new(RING_CAPACITY, DIGEST_BINS));
        for (name, value) in &metrics {
            store.record(name, signals.t_secs, *value);
        }
        let seen = self.epochs_seen.entry(GLOBAL_POP).or_insert(0);
        *seen += 1;
        let edges = if *seen <= WARMUP_EPOCHS {
            Vec::new()
        } else {
            self.engine.observe(GLOBAL_POP, signals.t_secs, &metrics)
        };
        self.emit_at(GLOBAL_POP, signals.t_secs, &metrics, &edges);
        edges
    }

    /// Writes the epoch's sample and any alert edges to the sink.
    fn emit(&self, signals: &EpochSignals, metrics: &[(&'static str, f64)], edges: &[AlertEdge]) {
        self.emit_at(signals.pop, signals.t_secs, metrics, edges);
    }

    fn emit_at(&self, pop: u16, t_secs: u64, metrics: &[(&'static str, f64)], edges: &[AlertEdge]) {
        if !self.telemetry.enabled() {
            return;
        }
        let now_ms = t_secs * 1000;
        let fields: Vec<(&str, ef_telemetry::FieldValue)> =
            metrics.iter().map(|(k, v)| (*k, (*v).into())).collect();
        self.telemetry.emit(pop, now_ms, "health.sample", &fields);
        for edge in edges {
            let alert = edge.alert();
            let name = if edge.is_fired() {
                "alert.fire"
            } else {
                "alert.clear"
            };
            self.telemetry.emit(
                pop,
                now_ms,
                name,
                &[
                    ("rule", alert.rule.as_str().into()),
                    ("severity", alert.severity.label().into()),
                    ("metric", alert.metric.as_str().into()),
                    ("threshold", alert.threshold.into()),
                    ("peak_value", alert.peak_value.into()),
                    ("fired_t_secs", alert.fired_t_secs.into()),
                ],
            );
        }
        let key = if pop == GLOBAL_POP {
            "global.alerts_firing".to_string()
        } else {
            format!("pop{pop}.alerts_firing")
        };
        self.telemetry.gauge(
            &key,
            self.engine.firing().iter().filter(|a| a.pop == pop).count() as f64,
        );
    }

    /// Alerts currently firing.
    pub fn firing(&self) -> Vec<&Alert> {
        self.engine.firing()
    }

    /// Every alert raised so far (cleared then firing).
    pub fn all_alerts(&self) -> Vec<Alert> {
        self.engine.all_alerts()
    }

    /// The series store for one PoP, if it has been sampled.
    pub fn series(&self, pop: u16) -> Option<&SeriesStore> {
        self.series.get(&pop)
    }

    /// Mutable per-PoP stores in the caller's PoP order (which must be
    /// ascending), creating any that do not exist yet. The stores are
    /// disjoint, so the engine can hand one to each PoP's parallel step
    /// worker for [`sample_iface_util`].
    pub fn pop_stores(&mut self, pops: &[u16]) -> Vec<&mut SeriesStore> {
        debug_assert!(
            pops.windows(2).all(|w| w[0] < w[1]),
            "pop ids must be ascending"
        );
        for &pop in pops {
            self.series
                .entry(pop)
                .or_insert_with(|| SeriesStore::new(RING_CAPACITY, DIGEST_BINS));
        }
        let mut out = Vec::with_capacity(pops.len());
        let mut want = pops.iter();
        let mut next = want.next();
        for (k, v) in self.series.iter_mut() {
            if let Some(&p) = next {
                if *k == p {
                    out.push(v);
                    next = want.next();
                }
            }
        }
        debug_assert_eq!(out.len(), pops.len());
        out
    }

    /// PoPs that have been sampled, ascending.
    pub fn pops(&self) -> Vec<u16> {
        self.series.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::MetricView;

    fn calm(pop: u16, t_secs: u64) -> EpochSignals {
        EpochSignals {
            t_secs,
            pop,
            offered_mbps: 1000.0,
            dropped_mbps: 0.0,
            iface_util: vec![(0, 0.7), (1, 0.5)],
            input_age_ms: 1000,
            ..EpochSignals::default()
        }
    }

    #[test]
    fn calm_epochs_raise_nothing() {
        let mut mon = HealthMonitor::new(HealthConfig::default(), TelemetryHandle::disabled());
        for t in 1..=20u64 {
            for pop in 0..2 {
                assert!(mon.observe_epoch(&calm(pop, t * 30), None).is_empty());
            }
        }
        assert!(mon.firing().is_empty());
        assert_eq!(mon.pops(), vec![0, 1]);
        let s = mon.series(0).unwrap();
        assert_eq!(s.get("drop_rate").unwrap().digest().count(), 20);
        assert!(s.get("iface0.util").is_some());
    }

    /// A monitor past its cold-start warmup at PoP 0 and at the global
    /// key, so the next epoch observed at either is judged.
    fn warmed(telemetry: TelemetryHandle) -> HealthMonitor {
        let mut mon = HealthMonitor::new(HealthConfig::default(), telemetry);
        for _ in 0..WARMUP_EPOCHS {
            assert!(mon.observe_epoch(&calm(0, 0), None).is_empty());
            assert!(mon.observe_global(&calm_global(0)).is_empty());
        }
        mon
    }

    fn calm_global(t_secs: u64) -> GlobalSignals {
        GlobalSignals {
            t_secs,
            delivered_reports: 4,
            expected_reports: 4,
            ..GlobalSignals::default()
        }
    }

    #[test]
    fn warmup_suppresses_cold_start_alerts() {
        let mut mon = HealthMonitor::new(HealthConfig::default(), TelemetryHandle::disabled());
        // A cold start: the first two epochs show convergence drops.
        let mut s = calm(0, 30);
        s.dropped_mbps = 100.0;
        assert!(mon.observe_epoch(&s, None).is_empty());
        let mut s = calm(0, 60);
        s.dropped_mbps = 100.0;
        assert!(mon.observe_epoch(&s, None).is_empty());
        // Series still sampled during warmup.
        assert_eq!(mon.series(0).unwrap().get("drop_rate").unwrap().len(), 2);
        // Past warmup, a breach fires normally.
        let mut s = calm(0, 90);
        s.dropped_mbps = 100.0;
        let edges = mon.observe_epoch(&s, None);
        assert!(edges.iter().any(|e| e.alert().rule == "drop_rate_ceiling"));
    }

    #[test]
    fn drops_fire_and_clear_through_telemetry() {
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = warmed(handle);
        mon.observe_epoch(&calm(0, 30), None);
        let mut bad = calm(0, 60);
        bad.dropped_mbps = 100.0;
        let edges = mon.observe_epoch(&bad, None);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].alert().rule, "drop_rate_ceiling");
        assert!(edges[0].is_fired());
        // Default clear_epochs = 2.
        assert!(mon.observe_epoch(&calm(0, 90), None).is_empty());
        let edges = mon.observe_epoch(&calm(0, 120), None);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].is_fired());
        let events = sink.events();
        let fires: Vec<_> = events.iter().filter(|e| e.name == "alert.fire").collect();
        let clears: Vec<_> = events.iter().filter(|e| e.name == "alert.clear").collect();
        assert_eq!(fires.len(), 1);
        assert_eq!(clears.len(), 1);
        assert_eq!(fires[0].str_field("rule"), Some("drop_rate_ceiling"));
        assert_eq!(fires[0].str_field("severity"), Some("critical"));
        let samples = events
            .iter()
            .filter(|e| e.name == "health.sample" && e.pop == 0)
            .count();
        assert_eq!(samples, 4 + WARMUP_EPOCHS as usize);
    }

    #[test]
    fn totals_become_deltas() {
        let mut mon = warmed(TelemetryHandle::disabled());
        let mut s = calm(0, 30);
        s.session_resets_total = 2;
        mon.observe_epoch(&s, None);
        // Same total next epoch: delta 0, no flap even though total > storm.
        let mut s2 = calm(0, 60);
        s2.session_resets_total = 2;
        let m = mon.metric_map(&s2, None);
        assert_eq!(m.metric("session_resets"), Some(0.0));
        // A burst of 6 resets within one epoch breaches the storm rule.
        let mut s3 = calm(0, 90);
        s3.session_resets_total = 8;
        let edges = mon.observe_epoch(&s3, None);
        assert!(edges.iter().any(|e| e.alert().rule == "session_flap"));
    }

    #[test]
    fn watchdog_rules_fire_on_their_signals() {
        let mut mon = warmed(TelemetryHandle::disabled());
        let mut s = calm(0, 30);
        s.controller_missing = true;
        s.epoch_skipped = true;
        s.audit_failures = 2;
        s.input_age_ms = 60_000;
        let edges = mon.observe_epoch(&s, None);
        let rules: Vec<_> = edges.iter().map(|e| e.alert().rule.as_str()).collect();
        assert!(rules.contains(&"controller_down"));
        assert!(rules.contains(&"injector_down"));
        assert!(rules.contains(&"override_audit"));
        assert!(rules.contains(&"stale_inputs"));
    }

    #[test]
    fn global_rules_fire_only_at_the_global_key() {
        let mut mon = warmed(TelemetryHandle::disabled());
        // A real PoP's sample never trips a global rule.
        assert!(mon.observe_epoch(&calm(0, 30), None).is_empty());
        // Stale reports + fail-static fire at the sentinel key.
        let edges = mon.observe_global(&GlobalSignals {
            t_secs: 30,
            delivered_reports: 1,
            expected_reports: 4,
            stale_pops: 3,
            max_report_age: 5,
            fail_static: true,
            ..GlobalSignals::default()
        });
        let rules: Vec<_> = edges.iter().map(|e| e.alert().rule.as_str()).collect();
        assert!(rules.contains(&"global_reports_stale"));
        assert!(rules.contains(&"global_fail_static"));
        for edge in &edges {
            assert_eq!(edge.alert().pop, GLOBAL_POP);
        }
        // A calm global epoch never trips a per-PoP rule (missing metrics
        // are skipped, not treated as zero breaches).
        let edges = mon.observe_global(&calm_global(60));
        assert!(edges.iter().all(|e| !e.is_fired()));
    }

    #[test]
    fn placement_thrash_needs_sustained_flips() {
        let mut mon = warmed(TelemetryHandle::disabled());
        let thrashy = |t: u64| GlobalSignals {
            flips: 6,
            ..calm_global(t)
        };
        // One thrashy epoch: sustained-for-2 rule holds its fire.
        let edges = mon.observe_global(&thrashy(30));
        assert!(!edges.iter().any(|e| e.alert().rule == "placement_thrash"));
        let edges = mon.observe_global(&thrashy(60));
        assert!(edges.iter().any(|e| e.alert().rule == "placement_thrash"));
    }

    #[test]
    fn global_sample_reaches_telemetry() {
        // Samples are emitted during warmup too: the first epoch reaches
        // the sink.
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        mon.observe_global(&GlobalSignals {
            moved_mbps: 123.0,
            ..calm_global(30)
        });
        let events = sink.events();
        let sample = events
            .iter()
            .find(|e| e.name == "health.sample")
            .expect("global health sample emitted");
        assert_eq!(sample.pop, GLOBAL_POP);
        assert!(matches!(
            sample.field("global_moved_mbps"),
            Some(ef_telemetry::FieldValue::F64(v)) if *v == 123.0
        ));
    }

    #[test]
    fn config_round_trips_and_defaults() {
        let cfg = HealthConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(json, "{}");
        let back: HealthConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // A config from when the thresholds were settable still loads.
        let old: HealthConfig =
            serde_json::from_str(r#"{"warmup_epochs":0,"drop_rate_ceiling":0.01}"#).unwrap();
        assert_eq!(old, cfg);
    }
}
