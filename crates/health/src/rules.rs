//! Declarative SLO rules and the alerting engine.
//!
//! A [`SloRule`] names a metric, a ceiling, and hysteresis: the metric
//! must sit above the ceiling for `sustain_epochs` consecutive epochs
//! before the rule fires, and at or below it for [`CLEAR_EPOCHS`]
//! consecutive epochs before it clears. Breach is a *strict* inequality —
//! a value sitting exactly on the threshold never fires and never flaps.
//!
//! The [`RuleEngine`] evaluates every rule against every PoP's metric
//! sample each epoch and returns the *edges* ([`AlertEdge`]): a typed
//! [`Alert`] when a rule transitions to firing, and the same alert with
//! its `cleared_t_secs` filled in when it recovers. Evaluation order is
//! rule-declaration order then PoP order, so edge sequences are
//! deterministic.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// How bad a firing rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Worth a look; the run is still meeting its SLOs.
    Info,
    /// An SLO is at risk (e.g. churn storm, interface overload).
    Warning,
    /// An SLO is being violated (e.g. sustained drops, dead controller).
    Critical,
}

impl Severity {
    /// Short lowercase label for rendering.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Recovered epochs required before any alert clears.
pub(crate) const CLEAR_EPOCHS: u32 = 2;

/// One declarative SLO / alert rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SloRule {
    /// Stable rule name (`drop_rate_ceiling`, `controller_down`, …).
    pub name: String,
    /// Metric key in the per-epoch sample this rule watches.
    pub metric: String,
    /// Ceiling the metric must stay at or below.
    pub threshold: f64,
    /// Consecutive breaching epochs required before firing (min 1).
    pub sustain_epochs: u32,
    /// Severity attached to alerts from this rule.
    pub severity: Severity,
}

impl SloRule {
    /// True when `value` breaches this rule's threshold. Strict
    /// inequality: a value exactly on the threshold is compliant.
    pub(crate) fn breaches(&self, value: f64) -> bool {
        value > self.threshold
    }
}

/// A fired (and possibly cleared) alert instance for one rule at one PoP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Rule that fired.
    pub rule: String,
    /// PoP the breach was observed at.
    pub pop: u16,
    /// Severity inherited from the rule.
    pub severity: Severity,
    /// Metric key the rule watches.
    pub metric: String,
    /// Threshold that was breached.
    pub threshold: f64,
    /// Simulated time the alert fired, seconds.
    pub fired_t_secs: u64,
    /// Simulated time the alert cleared, seconds (None while firing).
    pub cleared_t_secs: Option<u64>,
    /// Worst metric value observed while the alert was active.
    pub peak_value: f64,
}

impl Alert {
    /// True while the alert has not cleared.
    pub(crate) fn firing(&self) -> bool {
        self.cleared_t_secs.is_none()
    }

    /// One-line human rendering.
    pub(crate) fn render(&self) -> String {
        let state = match self.cleared_t_secs {
            Some(t) => format!("cleared t={t}s"),
            None => "firing".to_string(),
        };
        format!(
            "[{}] {} pop{} fired t={}s ({}) {}={:.4} vs {:.4}",
            self.severity.label(),
            self.rule,
            self.pop,
            self.fired_t_secs,
            state,
            self.metric,
            self.peak_value,
            self.threshold,
        )
    }
}

/// A state transition the engine reports: an alert started or stopped
/// firing this epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertEdge {
    /// The rule crossed into firing.
    Fired(Alert),
    /// The rule recovered; the alert carries its `cleared_t_secs`.
    Cleared(Alert),
}

impl AlertEdge {
    /// The alert inside, either way.
    pub(crate) fn alert(&self) -> &Alert {
        match self {
            AlertEdge::Fired(a) | AlertEdge::Cleared(a) => a,
        }
    }

    /// True for the firing edge.
    pub fn is_fired(&self) -> bool {
        matches!(self, AlertEdge::Fired(_))
    }
}

/// Hysteresis state for one (rule, pop) pair.
#[derive(Debug, Clone, Default)]
struct RuleState {
    breach_run: u32,
    ok_run: u32,
    firing: Option<Alert>,
}

/// Evaluates a fixed rule set against per-epoch metric samples.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleEngine {
    rules: Vec<SloRule>,
    /// Keyed by (rule index, pop) — BTreeMap for deterministic iteration.
    states: BTreeMap<(usize, u16), RuleState>,
    /// Completed (cleared) alerts, in clear order.
    history: Vec<Alert>,
}

impl RuleEngine {
    /// An engine over the given rules.
    pub(crate) fn new(rules: Vec<SloRule>) -> Self {
        RuleEngine {
            rules,
            states: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// Feeds one PoP's metric sample for epoch time `t_secs` and returns
    /// the edges (fired / cleared alerts) this observation produced. A
    /// rule whose metric is absent from the sample is skipped entirely:
    /// its runs neither grow nor reset, so a metric one key lacks (the
    /// global tier's at a real PoP) cannot clear an alert by going missing.
    /// A linear scan finds each metric: a sample holds ~16 entries.
    pub(crate) fn observe(
        &mut self,
        pop: u16,
        t_secs: u64,
        metrics: &[(&str, f64)],
    ) -> Vec<AlertEdge> {
        let mut edges = Vec::new();
        for (idx, rule) in self.rules.iter().enumerate() {
            let Some(&(_, value)) = metrics.iter().find(|(k, _)| *k == rule.metric) else {
                continue;
            };
            let state = self.states.entry((idx, pop)).or_default();
            if rule.breaches(value) {
                state.breach_run += 1;
                state.ok_run = 0;
                match &mut state.firing {
                    Some(alert) if value > alert.peak_value => {
                        alert.peak_value = value;
                    }
                    None if state.breach_run >= rule.sustain_epochs.max(1) => {
                        let alert = Alert {
                            rule: rule.name.clone(),
                            pop,
                            severity: rule.severity,
                            metric: rule.metric.clone(),
                            threshold: rule.threshold,
                            fired_t_secs: t_secs,
                            cleared_t_secs: None,
                            peak_value: value,
                        };
                        state.firing = Some(alert.clone());
                        edges.push(AlertEdge::Fired(alert));
                    }
                    _ => {}
                }
            } else {
                state.ok_run += 1;
                state.breach_run = 0;
                if state.ok_run < CLEAR_EPOCHS {
                    continue;
                }
                if let Some(mut alert) = state.firing.take() {
                    alert.cleared_t_secs = Some(t_secs);
                    self.history.push(alert.clone());
                    edges.push(AlertEdge::Cleared(alert));
                }
            }
        }
        edges
    }

    /// Alerts currently firing, sorted by (rule order, pop).
    pub(crate) fn firing(&self) -> Vec<&Alert> {
        self.states
            .values()
            .filter_map(|s| s.firing.as_ref())
            .collect()
    }

    /// Every alert ever raised: cleared ones in clear order, then the
    /// still-firing set.
    pub(crate) fn all_alerts(&self) -> Vec<Alert> {
        let mut out = self.history.clone();
        out.extend(self.firing().into_iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(sustain: u32) -> SloRule {
        SloRule {
            name: "drop_rate_ceiling".into(),
            metric: "drop_rate".into(),
            threshold: 0.005,
            sustain_epochs: sustain,
            severity: Severity::Critical,
        }
    }

    fn metrics(v: f64) -> [(&'static str, f64); 1] {
        [("drop_rate", v)]
    }

    #[test]
    fn fire_sustain_clear_hysteresis() {
        let mut eng = RuleEngine::new(vec![rule(2)]);
        // First breach: not sustained yet, no edge.
        assert!(eng.observe(0, 30, &metrics(0.02)).is_empty());
        // Second consecutive breach: fires.
        let edges = eng.observe(0, 60, &metrics(0.03));
        assert_eq!(edges.len(), 1);
        assert!(edges[0].is_fired());
        assert_eq!(edges[0].alert().fired_t_secs, 60);
        // Still breaching: no new edge, peak tracks the worst value.
        assert!(eng.observe(0, 90, &metrics(0.05)).is_empty());
        assert_eq!(eng.firing()[0].peak_value, 0.05);
        // One recovered epoch: not enough to clear.
        assert!(eng.observe(0, 120, &metrics(0.001)).is_empty());
        assert_eq!(eng.firing().len(), 1);
        // Second recovered epoch: clears.
        let edges = eng.observe(0, 150, &metrics(0.001));
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].is_fired());
        assert_eq!(edges[0].alert().cleared_t_secs, Some(150));
        assert_eq!(edges[0].alert().peak_value, 0.05);
        assert!(eng.firing().is_empty());
        assert_eq!(eng.all_alerts().len(), 1);
    }

    #[test]
    fn boundary_value_never_fires() {
        let mut eng = RuleEngine::new(vec![rule(1)]);
        // Exactly on the threshold, repeatedly: strict inequality, so the
        // rule neither fires nor accumulates a breach run.
        for t in 0..20u64 {
            assert!(eng.observe(0, t * 30, &metrics(0.005)).is_empty());
        }
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn no_flapping_on_alternating_recovery() {
        let mut eng = RuleEngine::new(vec![rule(1)]);
        let edges = eng.observe(0, 30, &metrics(0.02));
        assert!(edges[0].is_fired());
        // Alternate recovered / breaching: ok_run never reaches
        // CLEAR_EPOCHS, so the single alert stays up instead of flapping
        // fire/clear pairs.
        for t in 2..10u64 {
            let v = if t % 2 == 0 { 0.001 } else { 0.02 };
            assert!(eng.observe(0, t * 30, &metrics(v)).is_empty());
        }
        assert_eq!(eng.firing().len(), 1);
        assert_eq!(eng.all_alerts().len(), 1);
    }

    #[test]
    fn interrupted_breach_resets_sustain() {
        let mut eng = RuleEngine::new(vec![rule(3)]);
        assert!(eng.observe(0, 30, &metrics(0.02)).is_empty());
        assert!(eng.observe(0, 60, &metrics(0.02)).is_empty());
        // Recovery resets the streak before the third breach.
        assert!(eng.observe(0, 90, &metrics(0.001)).is_empty());
        assert!(eng.observe(0, 120, &metrics(0.02)).is_empty());
        assert!(eng.observe(0, 150, &metrics(0.02)).is_empty());
        let edges = eng.observe(0, 180, &metrics(0.02));
        assert_eq!(edges.len(), 1);
        assert!(edges[0].is_fired());
    }

    #[test]
    fn missing_metric_neither_breaches_nor_clears() {
        let mut eng = RuleEngine::new(vec![rule(1)]);
        assert!(eng.observe(0, 30, &metrics(0.02))[0].is_fired());
        // Epochs where the metric is absent leave the alert untouched.
        for t in 2..5u64 {
            assert!(eng.observe(0, t * 30, &[]).is_empty());
        }
        assert_eq!(eng.firing().len(), 1);
    }

    #[test]
    fn pops_are_tracked_independently() {
        let mut eng = RuleEngine::new(vec![rule(1)]);
        assert!(eng.observe(0, 30, &metrics(0.02))[0].is_fired());
        assert!(eng.observe(1, 30, &metrics(0.001)).is_empty());
        let firing = eng.firing();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].pop, 0);
    }

    #[test]
    fn below_rules_and_renders() {
        // Values at or below the ceiling are compliant; only above breaches.
        let ceiling = rule(1);
        assert!(!ceiling.breaches(0.004));
        assert!(!ceiling.breaches(0.005));
        assert!(ceiling.breaches(0.0051));
        let alert = Alert {
            rule: "headroom_floor".into(),
            pop: 2,
            severity: Severity::Warning,
            metric: "headroom".into(),
            threshold: 10.0,
            fired_t_secs: 60,
            cleared_t_secs: None,
            peak_value: 3.0,
        };
        let line = alert.render();
        assert!(line.contains("[warning]"));
        assert!(line.contains("headroom_floor pop2"));
        assert!(line.contains("firing"));
        assert!(alert.firing());
    }

    #[test]
    fn alerts_round_trip_through_json() {
        let alert = Alert {
            rule: "r".into(),
            pop: 1,
            severity: Severity::Critical,
            metric: "m".into(),
            threshold: 1.0,
            fired_t_secs: 30,
            cleared_t_secs: Some(90),
            peak_value: 2.0,
        };
        let json = serde_json::to_string(&alert).unwrap();
        let back: Alert = serde_json::from_str(&json).unwrap();
        assert_eq!(back, alert);
    }
}
