//! Offline run reports: judging a recorded telemetry stream after the
//! fact.
//!
//! `efctl report` reads a JSON-lines telemetry file and needs to judge
//! the run without the simulation crates loaded, so everything here works
//! from [`TelemetryRecord`]s alone. The monitor writes one
//! `health.sample` event per PoP per epoch carrying the full metric map,
//! and one `alert.fire` / `alert.clear` event per alert edge; [`analyze`]
//! reads exact percentiles off each (PoP, metric) series of the samples
//! and takes the alert timeline from the recorded `alert.*` events, the
//! live monitor's own verdicts.

use std::collections::BTreeMap;

use ef_telemetry::{Event, FieldValue, TelemetryRecord};
use serde::{Deserialize, Serialize};

use crate::monitor::HealthConfig;
use crate::rules::{Alert, Severity};

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
    pub(crate) fn firing(&self) -> usize {
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

/// Quantile `q` of an ascending slice, Hyndman–Fan type 7: linear
/// interpolation between the order statistics around rank `q·(n−1)`.
/// 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    // An exact rank, the last one included, reads one order statistic.
    if frac == 0.0 {
        return sorted[lo];
    }
    sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac
}

/// Judges a telemetry stream: SLO table, percentile summary, and alert
/// timeline under the built-in rule set.
pub fn analyze(records: &[TelemetryRecord]) -> HealthReport {
    // Every (pop, metric) series: the sampled map plus wall-clock phase
    // timings lifted from epoch events. NaN is skipped.
    let mut series: BTreeMap<(u16, String), Vec<f64>> = BTreeMap::new();
    let mut observe = |pop: u16, metric: &str, value: f64| {
        let values = series.entry((pop, metric.to_string())).or_default();
        if !value.is_nan() {
            values.push(value);
        }
    };
    let mut pops: Vec<u16> = Vec::new();
    let mut epoch_times: Vec<u64> = Vec::new();
    for event in records.iter().filter_map(|r| r.as_event()) {
        match event.name.as_str() {
            "health.sample" => {
                pops.push(event.pop);
                epoch_times.push(event.now_ms);
                for k in event.fields.keys() {
                    if let Some(v) = num_field(event, k) {
                        observe(event.pop, k, v);
                    }
                }
            }
            "epoch" => {
                for phase in PHASE_FIELDS {
                    if let Some(us) = num_field(event, phase) {
                        observe(event.pop, &format!("epoch.{phase}"), us);
                    }
                }
            }
            _ => {}
        }
    }
    for values in series.values_mut() {
        values.sort_unstable_by(f64::total_cmp);
    }
    let samples = pops.len() as u64;
    pops.sort_unstable();
    pops.dedup();
    epoch_times.sort_unstable();
    epoch_times.dedup();

    let alerts = alerts_from_events(records);

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
            let worst_value = series
                .iter()
                .filter(|((_, m), _)| *m == rule.metric)
                .filter_map(|(_, values)| values.last().copied())
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

    let percentiles = series
        .iter()
        .filter(|((_, metric), _)| {
            SUMMARY_METRICS.contains(&metric.as_str()) || metric.starts_with("epoch.")
        })
        .map(|((pop, metric), values)| PercentileRow {
            pop: *pop,
            metric: metric.clone(),
            count: values.len() as u64,
            p50: quantile(values, 0.5),
            p90: quantile(values, 0.9),
            p99: quantile(values, 0.99),
            max: values.last().copied().unwrap_or(0.0),
        })
        .collect();

    HealthReport {
        epochs: epoch_times.len() as u64,
        pops,
        samples,
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

    /// A hand-built `health.sample` carrying one metric.
    fn sample(pop: u16, now_ms: u64, metric: &str, value: f64) -> TelemetryRecord {
        TelemetryRecord::Event(Event {
            name: "health.sample".into(),
            pop,
            now_ms,
            fields: BTreeMap::from([(metric.to_string(), FieldValue::F64(value))]),
            wall_us: None,
        })
    }

    fn row<'a>(report: &'a HealthReport, pop: u16, metric: &str) -> &'a PercentileRow {
        report
            .percentiles
            .iter()
            .find(|r| r.pop == pop && r.metric == metric)
            .unwrap_or_else(|| panic!("no {metric} row at pop {pop}"))
    }

    #[test]
    fn empty_series_reads_zero() {
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(quantile(&[], q), 0.0);
        }
    }

    #[test]
    fn single_value_is_every_quantile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&[7.0], q), 7.0);
        }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&values, 0.5), 50.5);
        let p90 = quantile(&values, 0.9);
        assert!((p90 - 90.1).abs() < 1e-9, "p90={p90}");
    }

    #[test]
    fn large_series_quantiles_are_exact() {
        // A permutation of 0.0, 0.1, …, 999.9, sorted.
        let mut values: Vec<f64> = (0..10_000)
            .map(|i| (i * 7919 % 10_000) as f64 / 10.0)
            .collect();
        values.sort_unstable_by(f64::total_cmp);
        let p50 = quantile(&values, 0.5);
        assert!((p50 - 499.95).abs() < 1e-9, "p50={p50}");
        let p99 = quantile(&values, 0.99);
        assert!((p99 - 989.901).abs() < 1e-9, "p99={p99}");
    }

    #[test]
    fn shuffled_input_gives_the_same_quantiles() {
        // Percentiles do not depend on the order records arrive in.
        let records = stream_with_incident();
        let mut reversed = records.clone();
        reversed.reverse();
        let (forward, backward) = (analyze(&records), analyze(&reversed));
        assert!(!forward.percentiles.is_empty());
        assert_eq!(forward.percentiles, backward.percentiles);
        assert_eq!(forward.slo, backward.slo);
    }

    #[test]
    fn nan_samples_are_skipped() {
        let records = [
            sample(0, 30_000, "drop_rate", 1.0),
            sample(0, 60_000, "drop_rate", f64::NAN),
            sample(0, 90_000, "drop_rate", 3.0),
        ];
        let report = analyze(&records);
        let row = row(&report, 0, "drop_rate");
        assert_eq!(row.count, 2);
        assert_eq!((row.p50, row.max), (2.0, 3.0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = analyze(&stream_with_incident());
        assert!(!report.percentiles.is_empty());
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    /// 27 calm epochs and 3 incident epochs at one PoP: the median is the
    /// calm value, and the tails interpolate between the order statistics.
    #[test]
    fn mostly_zero_series_reads_zero_median_and_exact_tails() {
        let (handle, sink) = TelemetryHandle::memory();
        let mut mon = HealthMonitor::new(HealthConfig::default(), handle);
        for t in 1..=30u64 {
            let dropped = match t {
                8 | 19 => 50.0,
                25 => 200.0,
                _ => 0.0,
            };
            mon.observe_epoch(&signals(0, t * 30, dropped), None);
        }
        let report = analyze(&sink.records());
        let row = row(&report, 0, "drop_rate");
        assert_eq!(row.count, 30);
        assert_eq!(row.p50, 0.0);
        // Ranks 26.1 and 28.71 of 27 zeros, 0.05, 0.05, 0.2.
        assert!((row.p90 - 0.005).abs() < 1e-12, "p90={}", row.p90);
        assert!((row.p99 - 0.1565).abs() < 1e-12, "p99={}", row.p99);
        assert_eq!(row.max, 0.2);
    }

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
