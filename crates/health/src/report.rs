//! Offline run reports: judging a recorded telemetry stream after the
//! fact.
//!
//! `efctl report` reads a JSON-lines telemetry file and needs to judge
//! the run without the simulation crates loaded, so everything here works
//! from [`TelemetryRecord`]s alone. The monitor writes one
//! `health.sample` event per PoP per epoch carrying the full metric map,
//! and one `alert.fire` / `alert.clear` event per alert edge; [`analyze`]
//! rebuilds digests from the samples and takes the alert timeline from
//! the recorded `alert.*` events, the live monitor's own verdicts.

use std::collections::BTreeMap;

use ef_telemetry::{Event, FieldValue, TelemetryRecord};
use serde::{Deserialize, Serialize};

use crate::digest::QuantileDigest;
use crate::monitor::HealthConfig;
use crate::rules::{Alert, Severity};

/// Centroids per quantile digest.
const DIGEST_BINS: usize = 64;

/// Per-epoch phase-timing fields copied out of `epoch` events into
/// percentile rows (wall-clock, human-only).
const PHASE_FIELDS: [&str; 5] = [
    "projection_us",
    "allocation_us",
    "guards_us",
    "injection_us",
    "total_us",
];

/// Metrics worth a percentile row in the default report.
const SUMMARY_METRICS: [&str; 5] = [
    "drop_rate",
    "iface_util_max",
    "override_churn",
    "detoured_mbps",
    "input_age_ms",
];

/// One rule's verdict over the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloRow {
    /// Rule name.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Threshold.
    pub threshold: f64,
    /// Severity.
    pub severity: Severity,
    /// Alerts this rule raised during the run.
    pub alerts: u64,
    /// PoPs it fired at, ascending.
    pub pops_affected: Vec<u16>,
    /// Worst value the metric reached anywhere (0 when never sampled).
    pub worst_value: f64,
    /// True when the rule never fired.
    pub pass: bool,
}

/// Percentiles for one metric at one PoP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PercentileRow {
    /// The PoP.
    pub pop: u16,
    /// Metric name.
    pub metric: String,
    /// Samples observed.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// The whole offline judgment of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Distinct sampled epochs.
    pub epochs: u64,
    /// PoPs seen, ascending.
    pub pops: Vec<u16>,
    /// `health.sample` events consumed.
    pub samples: u64,
    /// Per-rule SLO verdicts, rule declaration order.
    pub slo: Vec<SloRow>,
    /// Percentile summaries, (pop, metric) order.
    pub percentiles: Vec<PercentileRow>,
    /// Alert timeline, fire order.
    pub alerts: Vec<Alert>,
}

impl HealthReport {
    /// Alerts still firing at end of stream.
    pub fn firing(&self) -> usize {
        self.alerts.iter().filter(|a| a.firing()).count()
    }

    /// True when no rule fired at all.
    pub fn clean(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// A numeric field from an event, whatever scalar variant it holds.
pub fn num_field(event: &Event, name: &str) -> Option<f64> {
    match event.field(name)? {
        FieldValue::U64(n) => Some(*n as f64),
        FieldValue::I64(n) => Some(*n as f64),
        FieldValue::F64(f) => Some(*f),
        FieldValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        FieldValue::Str(_) => None,
    }
}

fn severity_from_label(label: &str) -> Severity {
    match label {
        "critical" => Severity::Critical,
        "warning" => Severity::Warning,
        _ => Severity::Info,
    }
}

/// Rebuilds the alert timeline from recorded `alert.fire`/`alert.clear`
/// events, in stream order.
fn alerts_from_events(records: &[TelemetryRecord]) -> Vec<Alert> {
    let mut alerts: Vec<Alert> = Vec::new();
    for event in records.iter().filter_map(|r| r.as_event()) {
        match event.name.as_str() {
            "alert.fire" => {
                alerts.push(Alert {
                    rule: event.str_field("rule").unwrap_or("?").to_string(),
                    pop: event.pop,
                    severity: severity_from_label(event.str_field("severity").unwrap_or("info")),
                    metric: event.str_field("metric").unwrap_or("?").to_string(),
                    threshold: num_field(event, "threshold").unwrap_or(0.0),
                    fired_t_secs: num_field(event, "fired_t_secs").unwrap_or(0.0) as u64,
                    cleared_t_secs: None,
                    peak_value: num_field(event, "peak_value").unwrap_or(0.0),
                });
            }
            "alert.clear" => {
                let rule = event.str_field("rule").unwrap_or("?");
                if let Some(alert) = alerts
                    .iter_mut()
                    .rev()
                    .find(|a| a.firing() && a.rule == rule && a.pop == event.pop)
                {
                    alert.cleared_t_secs = Some(event.now_ms / 1000);
                    if let Some(peak) = num_field(event, "peak_value") {
                        alert.peak_value = peak;
                    }
                }
            }
            _ => {}
        }
    }
    alerts
}

/// Judges a telemetry stream: SLO table, percentile summary, and alert
/// timeline under the built-in rule set.
pub fn analyze(records: &[TelemetryRecord]) -> HealthReport {
    // Samples, sorted by (time, pop), the order the live monitor saw them.
    let mut samples: Vec<(u64, u16, BTreeMap<String, f64>)> = records
        .iter()
        .filter_map(|r| r.as_event())
        .filter(|e| e.name == "health.sample")
        .map(|e| {
            let metrics = e
                .fields
                .keys()
                .filter_map(|k| num_field(e, k).map(|v| (k.clone(), v)))
                .collect();
            (e.now_ms, e.pop, metrics)
        })
        .collect();
    samples.sort_by_key(|(now_ms, pop, _)| (*now_ms, *pop));

    // Digests per (pop, metric): the sampled map plus wall-clock phase
    // timings lifted from epoch events.
    let mut digests: BTreeMap<(u16, String), QuantileDigest> = BTreeMap::new();
    let mut observe = |pop: u16, metric: &str, value: f64| {
        digests
            .entry((pop, metric.to_string()))
            .or_insert_with(|| QuantileDigest::new(DIGEST_BINS))
            .observe(value);
    };
    for (_, pop, metrics) in &samples {
        for (k, v) in metrics {
            observe(*pop, k, *v);
        }
    }
    for event in records.iter().filter_map(|r| r.as_event()) {
        if event.name == "epoch" {
            for phase in PHASE_FIELDS {
                if let Some(us) = num_field(event, phase) {
                    observe(event.pop, &format!("epoch.{phase}"), us);
                }
            }
        }
    }

    let alerts = alerts_from_events(records);

    let mut pops: Vec<u16> = samples.iter().map(|(_, p, _)| *p).collect();
    pops.sort_unstable();
    pops.dedup();
    let mut epoch_times: Vec<u64> = samples.iter().map(|(t, _, _)| *t).collect();
    epoch_times.sort_unstable();
    epoch_times.dedup();

    let slo = HealthConfig::default()
        .rules()
        .iter()
        .map(|rule| {
            let mut pops_affected: Vec<u16> = alerts
                .iter()
                .filter(|a| a.rule == rule.name)
                .map(|a| a.pop)
                .collect();
            pops_affected.sort_unstable();
            pops_affected.dedup();
            let count = alerts.iter().filter(|a| a.rule == rule.name).count() as u64;
            let worst_value = digests
                .iter()
                .filter(|((_, m), _)| *m == rule.metric)
                .filter_map(|(_, d)| d.max())
                .fold(0.0_f64, f64::max);
            SloRow {
                rule: rule.name.clone(),
                metric: rule.metric.clone(),
                threshold: rule.threshold,
                severity: rule.severity,
                alerts: count,
                pops_affected,
                worst_value,
                pass: count == 0,
            }
        })
        .collect();

    let percentiles = digests
        .iter()
        .filter(|((_, metric), _)| {
            SUMMARY_METRICS.contains(&metric.as_str()) || metric.starts_with("epoch.")
        })
        .map(|((pop, metric), d)| PercentileRow {
            pop: *pop,
            metric: metric.clone(),
            count: d.count(),
            p50: d.quantile(0.5),
            p90: d.quantile(0.9),
            p99: d.quantile(0.99),
            max: d.max().unwrap_or(0.0),
        })
        .collect();

    HealthReport {
        epochs: epoch_times.len() as u64,
        pops,
        samples: samples.len() as u64,
        slo,
        percentiles,
        alerts,
    }
}

/// Human rendering of a report: SLO table, percentile table, timeline.
pub fn render_report(report: &HealthReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "run: {} epochs x {} pops, {} health samples\n\n",
        report.epochs,
        report.pops.len(),
        report.samples
    ));
    out.push_str(
        "SLO                   metric               threshold   worst       alerts  verdict\n",
    );
    for row in &report.slo {
        out.push_str(&format!(
            "{:<21} {:<20} {:<11.4} {:<11.4} {:<7} {}\n",
            row.rule,
            row.metric,
            row.threshold,
            row.worst_value,
            row.alerts,
            if row.pass { "pass" } else { "FAIL" },
        ));
    }
    out.push('\n');
    out.push_str("pop  metric                   n      p50         p90         p99         max\n");
    for row in &report.percentiles {
        out.push_str(&format!(
            "{:<4} {:<24} {:<6} {:<11.4} {:<11.4} {:<11.4} {:<11.4}\n",
            row.pop, row.metric, row.count, row.p50, row.p90, row.p99, row.max,
        ));
    }
    if report.alerts.is_empty() {
        out.push_str("\nno alerts fired\n");
    } else {
        out.push_str(&format!(
            "\nalert timeline ({} fired, {} still firing):\n",
            report.alerts.len(),
            report.firing()
        ));
        for alert in &report.alerts {
            out.push_str(&format!("  {}\n", alert.render()));
        }
    }
    out
}

/// One-line live rendering of a record for `efctl report --follow`; None
/// for records the live view does not show.
pub fn render_watch_line(record: &TelemetryRecord) -> Option<String> {
    let event = record.as_event()?;
    match event.name.as_str() {
        "health.sample" => {
            let drop = num_field(event, "drop_rate").unwrap_or(0.0);
            let util = num_field(event, "iface_util_max").unwrap_or(0.0);
            let churn = num_field(event, "override_churn").unwrap_or(0.0);
            let detour = num_field(event, "detoured_mbps").unwrap_or(0.0);
            Some(format!(
                "t={:<7} pop{:<3} drop_rate={:.4} util_max={:.2} churn={:.0} detoured={:.1} Mbps",
                format!("{}s", event.now_ms / 1000),
                event.pop,
                drop,
                util,
                churn,
                detour,
            ))
        }
        "alert.fire" | "alert.clear" => {
            let edge = if event.name == "alert.fire" {
                "FIRE "
            } else {
                "clear"
            };
            Some(format!(
                "t={:<7} pop{:<3} {} [{}] {} {}={:.4} vs {:.4}",
                format!("{}s", event.now_ms / 1000),
                event.pop,
                edge,
                event.str_field("severity").unwrap_or("?"),
                event.str_field("rule").unwrap_or("?"),
                event.str_field("metric").unwrap_or("?"),
                num_field(event, "peak_value").unwrap_or(0.0),
                num_field(event, "threshold").unwrap_or(0.0),
            ))
        }
        "fault.start" | "fault.end" => Some(format!(
            "t={:<7} pop{:<3} {} kind={}",
            format!("{}s", event.now_ms / 1000),
            event.pop,
            event.name,
            event.str_field("kind").unwrap_or("?"),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{EpochSignals, HealthMonitor};
    use ef_telemetry::TelemetryHandle;

    fn signals(pop: u16, t: u64, dropped: f64) -> EpochSignals {
        EpochSignals {
            t_secs: t,
            pop,
            offered_mbps: 1000.0,
            dropped_mbps: dropped,
            iface_util: vec![(0, 0.8)],
            input_age_ms: 500,
            ..EpochSignals::default()
        }
    }

    fn stream_with_incident() -> Vec<TelemetryRecord> {
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        for t in 1..=10u64 {
            let dropped = if (4..=5).contains(&t) { 50.0 } else { 0.0 };
            mon.observe_epoch(&signals(0, t * 30, dropped), None);
            mon.observe_epoch(&signals(1, t * 30, 0.0), None);
        }
        sink.records()
    }

    #[test]
    fn report_from_recorded_alerts() {
        let records = stream_with_incident();
        let report = analyze(&records);
        assert_eq!(report.pops, vec![0, 1]);
        assert_eq!(report.epochs, 10);
        assert_eq!(report.samples, 20);
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].rule, "drop_rate_ceiling");
        assert_eq!(report.alerts[0].fired_t_secs, 120);
        assert_eq!(report.alerts[0].cleared_t_secs, Some(210));
        assert_eq!(report.firing(), 0);
        assert!(!report.clean());
        let row = report
            .slo
            .iter()
            .find(|r| r.rule == "drop_rate_ceiling")
            .unwrap();
        assert!(!row.pass);
        assert_eq!(row.pops_affected, vec![0]);
        assert!((row.worst_value - 0.05).abs() < 1e-9);
        // Every other rule passes.
        assert!(report
            .slo
            .iter()
            .filter(|r| r.rule != "drop_rate_ceiling")
            .all(|r| r.pass));
        let text = render_report(&report);
        assert!(text.contains("FAIL"));
        assert!(text.contains("drop_rate_ceiling"));
        assert!(text.contains("alert timeline"));
    }

    #[test]
    fn recomputed_timeline_matches_recorded() {
        // The timeline `analyze` rebuilds from the stream is the live
        // monitor's own, alert for alert.
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        for t in 1..=12u64 {
            let dropped = if (4..=5).contains(&t) { 50.0 } else { 0.0 };
            let stuck = if t >= 9 { 40.0 } else { 0.0 };
            mon.observe_epoch(&signals(0, t * 30, dropped), None);
            mon.observe_epoch(&signals(1, t * 30, stuck), None);
        }
        let report = analyze(&sink.records());
        assert_eq!(report.alerts, mon.all_alerts());
        assert_eq!(report.alerts.len(), 2);
        assert_eq!(report.firing(), 1);
    }

    #[test]
    fn clean_run_is_clean() {
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        for t in 1..=5u64 {
            mon.observe_epoch(&signals(0, t * 30, 0.0), None);
        }
        let report = analyze(&sink.records());
        assert!(report.clean());
        assert!(report.slo.iter().all(|r| r.pass));
        assert!(render_report(&report).contains("no alerts fired"));
    }

    #[test]
    fn watch_lines_render_samples_and_alerts() {
        let records = stream_with_incident();
        let lines: Vec<String> = records.iter().filter_map(render_watch_line).collect();
        assert!(lines.iter().any(|l| l.contains("drop_rate=0.0500")));
        assert!(lines
            .iter()
            .any(|l| l.contains("FIRE ") && l.contains("drop_rate_ceiling")));
        assert!(lines
            .iter()
            .any(|l| l.contains("clear") && l.contains("drop_rate_ceiling")));
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let report = analyze(&[]);
        assert_eq!(report.samples, 0);
        assert_eq!(report.epochs, 0);
        assert!(report.clean());
    }
}
