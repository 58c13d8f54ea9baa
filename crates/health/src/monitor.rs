//! The live health monitor: per-epoch sampling, rule evaluation, and
//! alert emission.
//!
//! The simulation engine hands the monitor one [`EpochSignals`] per PoP
//! per epoch — a pure read of state the engine already computed. The
//! monitor derives a flat metric sample, runs the [`RuleEngine`] over it,
//! and emits `health.sample` / `alert.fire` / `alert.clear` events into
//! the telemetry stream. Across epochs it keeps one [`PopRecord`] per PoP
//! (previous totals and an epoch count) and the rule engine's hysteresis
//! state; samples themselves live only in the stream.
//!
//! **Determinism contract**: the monitor only ever *reads* simulation
//! state and only ever *writes* to its own state and the telemetry sink.
//! Alerts never feed back into control decisions, so a run's `results/`
//! output is byte-identical with health on or off. The one wall-clock
//! input — the engine-measured epoch wall time, sampled as the
//! `epoch_wall_us` metric — exists only when health is on and flows only
//! into the sink, same as telemetry phase timers.

use std::collections::BTreeMap;

use ef_telemetry::TelemetryHandle;
use serde::{Deserialize, Serialize};

use crate::rules::{Alert, AlertEdge, RuleEngine, Severity, SloRule};
use crate::series::{PopRecord, Totals};

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

/// Per-PoP epochs to sample but not judge at the start of a run. A
/// cold-started controller has not placed its first overrides yet, so the
/// first epoch legitimately shows drops/overload; paging on the
/// convergence transient would make every run "dirty".
pub(crate) const WARMUP_EPOCHS: u64 = 2;

/// Selects the health tier for a scenario. The built-in rule set's
/// thresholds are fixed (see `HealthConfig::rules`); a config written
/// when they were settable still loads, its threshold keys ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {}

impl HealthConfig {
    /// The built-in rule set, in a stable declaration order.
    pub(crate) fn rules(&self) -> Vec<SloRule> {
        let rule =
            |name: &str, metric: &str, threshold: f64, sustain: u32, sev: Severity| SloRule {
                name: name.to_string(),
                metric: metric.to_string(),
                threshold,
                sustain_epochs: sustain,
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

/// Does nothing: [`HealthMonitor::observe_epoch`] derives the whole sample.
/// Kept, with [`HealthMonitor::pop_stores`] and
/// [`HealthMonitor::observe_epoch_presampled`], for callers written against
/// the old split of sampling and judging.
pub fn sample_iface_util(_record: &mut PopRecord, _signals: &EpochSignals) {}

/// The flat metric sample the rules consume and the stream carries, in
/// alphabetical key order (the order a `BTreeMap` would iterate, so
/// telemetry field order is stable). Static keys and one Vec: this runs
/// per PoP per epoch and must not churn allocations. Counters arrive as
/// run totals; `prev` turns them into per-epoch deltas.
fn metric_map(signals: &EpochSignals, prev: Totals) -> Vec<(&'static str, f64)> {
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
    let delta = |total: u64, base: u64| total.saturating_sub(base) as f64;
    // One spare slot for `epoch_wall_us`, added by the rule pass.
    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(16);
    m.push(("billing_burn_usd", signals.billing_burn_usd));
    m.push(("controller_down", bool_metric(signals.controller_missing)));
    m.push(("detoured_mbps", signals.detoured_mbps));
    m.push(("drop_rate", drop_rate));
    m.push(("epoch_skipped", bool_metric(signals.epoch_skipped)));
    m.push(("iface_util_max", util_max));
    m.push((
        "injection_drops",
        delta(signals.injection_dropped_total, prev.injection_dropped),
    ));
    m.push(("input_age_ms", signals.input_age_ms as f64));
    m.push(("override_churn", signals.churn as f64));
    m.push(("overrides_active", signals.overrides_active as f64));
    m.push(("residual_overloaded", signals.residual_overloaded as f64));
    m.push((
        "session_resets",
        delta(signals.session_resets_total, prev.session_resets),
    ));
    m.push(("sessions_down", signals.sessions_down as f64));
    m.push((
        "updates_downgraded",
        delta(signals.updates_downgraded_total, prev.updates_downgraded),
    ));
    m
}

/// The global tier's flat metric sample, alphabetical key order like
/// [`metric_map`].
fn global_metric_map(signals: &GlobalSignals) -> Vec<(&'static str, f64)> {
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

fn bool_metric(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The live health tier: one record per PoP, the rule engine, and alert
/// emission.
#[derive(Debug)]
pub struct HealthMonitor {
    engine: RuleEngine,
    /// Keyed by PoP id, the global tier under [`GLOBAL_POP`].
    records: BTreeMap<u16, PopRecord>,
    telemetry: TelemetryHandle,
}

impl HealthMonitor {
    /// A monitor over the config's built-in rules, emitting into
    /// `telemetry` (which may be disabled — the monitor still evaluates).
    pub fn new(cfg: HealthConfig, telemetry: TelemetryHandle) -> Self {
        HealthMonitor {
            engine: RuleEngine::new(cfg.rules()),
            records: BTreeMap::new(),
            telemetry,
        }
    }

    /// Feeds one PoP's end-of-epoch signals: derives the sample, evaluates
    /// every rule, emits `health.sample` + `alert.*` telemetry, and returns
    /// the alert edges this epoch produced. `epoch_wall_us` (engine-measured
    /// wall time) joins the sample only when measured, so the stream never
    /// carries a zero for a missing reading.
    pub fn observe_epoch(
        &mut self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
    ) -> Vec<AlertEdge> {
        let record = self.records.entry(signals.pop).or_default();
        let mut metrics = metric_map(signals, record.prev);
        if let Some(us) = epoch_wall_us {
            let at = metrics.partition_point(|(k, _)| *k < "epoch_wall_us");
            metrics.insert(at, ("epoch_wall_us", us as f64));
        }
        let seen = record.close_epoch(Totals::of(signals));
        self.judge(signals.pop, signals.t_secs, seen, &metrics)
    }

    /// The same as [`observe_epoch`](Self::observe_epoch); see
    /// [`sample_iface_util`].
    pub fn observe_epoch_presampled(
        &mut self,
        signals: &EpochSignals,
        epoch_wall_us: Option<u64>,
    ) -> Vec<AlertEdge> {
        self.observe_epoch(signals, epoch_wall_us)
    }

    /// Feeds the global steering tier's end-of-epoch guard verdicts,
    /// keyed under [`GLOBAL_POP`]. Same contract as
    /// [`observe_epoch`](Self::observe_epoch): rules + telemetry, nothing
    /// fed back. Global metrics exist only at this key, so the per-PoP
    /// rules never judge the global sample (their metrics are absent) and
    /// the global rules never judge a real PoP.
    pub fn observe_global(&mut self, signals: &GlobalSignals) -> Vec<AlertEdge> {
        let metrics = global_metric_map(signals);
        let record = self.records.entry(GLOBAL_POP).or_default();
        let seen = record.close_epoch(Totals::default());
        self.judge(GLOBAL_POP, signals.t_secs, seen, &metrics)
    }

    /// Runs the rules over the `seen`-th sample at `pop` (none during the
    /// cold-start warm-up) and writes the sample and any alert edges to
    /// the sink.
    fn judge(
        &mut self,
        pop: u16,
        t_secs: u64,
        seen: u64,
        metrics: &[(&'static str, f64)],
    ) -> Vec<AlertEdge> {
        let edges = if seen <= WARMUP_EPOCHS {
            Vec::new()
        } else {
            self.engine.observe(pop, t_secs, metrics)
        };
        if !self.telemetry.enabled() {
            return edges;
        }
        let now_ms = t_secs * 1000;
        let fields: Vec<(&str, ef_telemetry::FieldValue)> =
            metrics.iter().map(|(k, v)| (*k, (*v).into())).collect();
        self.telemetry.emit(pop, now_ms, "health.sample", &fields);
        for edge in &edges {
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
        edges
    }

    /// Every alert raised so far (cleared then firing).
    pub fn all_alerts(&self) -> Vec<Alert> {
        self.engine.all_alerts()
    }

    /// Mutable per-PoP records in the caller's PoP order (which must be
    /// ascending), creating any that do not exist yet.
    pub fn pop_stores(&mut self, pops: &[u16]) -> Vec<&mut PopRecord> {
        debug_assert!(
            pops.windows(2).all(|w| w[0] < w[1]),
            "pop ids must be ascending"
        );
        for &pop in pops {
            self.records.entry(pop).or_default();
        }
        let mut want = pops.iter().peekable();
        self.records
            .iter_mut()
            .filter_map(|(k, v)| want.next_if_eq(&k).map(|_| v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

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
        assert!(mon.all_alerts().is_empty());
        let seen: Vec<(u16, u64)> = mon
            .records
            .iter()
            .map(|(p, r)| (*p, r.epochs_seen))
            .collect();
        assert_eq!(seen, vec![(0, 20), (1, 20)]);
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
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        // A cold start: the first two epochs show convergence drops.
        let mut s = calm(0, 30);
        s.dropped_mbps = 100.0;
        assert!(mon.observe_epoch(&s, None).is_empty());
        let mut s = calm(0, 60);
        s.dropped_mbps = 100.0;
        assert!(mon.observe_epoch(&s, None).is_empty());
        // Still sampled and emitted during warmup.
        let samples = sink.events();
        let drops: Vec<_> = samples
            .iter()
            .filter(|e| e.name == "health.sample")
            .map(|e| e.field("drop_rate"))
            .collect();
        assert_eq!(drops.len(), 2);
        assert!(drops
            .iter()
            .all(|v| matches!(v, Some(ef_telemetry::FieldValue::F64(r)) if *r == 0.1)));
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
        // CLEAR_EPOCHS = 2.
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
        let m = metric_map(&s2, mon.records[&0].prev);
        assert!(m.contains(&("session_resets", 0.0)));
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
        s.input_age_ms = 60_000;
        let edges = mon.observe_epoch(&s, None);
        let rules: Vec<_> = edges.iter().map(|e| e.alert().rule.as_str()).collect();
        assert!(rules.contains(&"controller_down"));
        assert!(rules.contains(&"injector_down"));
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
    fn design_rule_table_matches_the_built_in_rules() {
        let doc = include_str!("../../../DESIGN.md");
        let section = &doc[doc.find("## 7. Health").expect("DESIGN.md has §7")..];
        // (rule, sustain, severity) from each row of §7's rule table.
        let rows: BTreeSet<(String, u32, String)> = section
            .lines()
            .skip_while(|l| !l.starts_with("| rule |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let sustain = cells[4].parse().expect("sustain is a number");
                (
                    cells[1].trim_matches('`').to_string(),
                    sustain,
                    cells[5].to_string(),
                )
            })
            .collect();
        let live: BTreeSet<(String, u32, String)> = HealthConfig::default()
            .rules()
            .into_iter()
            .map(|r| (r.name, r.sustain_epochs, r.severity.label().to_string()))
            .collect();
        assert_eq!(
            rows, live,
            "DESIGN.md §7's rule table must list every built-in rule, and only those"
        );
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
