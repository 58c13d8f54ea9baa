//! Run reports: distilled, human-readable summaries of a finished
//! simulation, shared by `efctl` and downstream tooling.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsStore;

/// Per-PoP rollup of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopReport {
    /// PoP id.
    pub pop: u16,
    /// Epochs observed.
    pub epochs: usize,
    /// Mean offered demand, Mbps.
    pub mean_offered_mbps: f64,
    /// Mean fraction of traffic detoured.
    pub mean_detour_frac: f64,
    /// Peak fraction of traffic detoured.
    pub peak_detour_frac: f64,
    /// Maximum simultaneous overrides.
    pub peak_overrides: usize,
    /// Total BGP updates sent (announces + withdrawals).
    pub total_churn: usize,
    /// Total traffic dropped, Mbps·epochs.
    pub dropped_mbps_epochs: f64,
    /// Epochs where the controller reported unresolved overload.
    pub residual_epochs: usize,
}

/// Whole-run rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-PoP rows, sorted by PoP id.
    pub pops: Vec<PopReport>,
    /// Offered traffic across the run, Mbps·epochs.
    pub offered_mbps_epochs: f64,
    /// Dropped traffic across the run, Mbps·epochs.
    pub dropped_mbps_epochs: f64,
    /// Detoured traffic across the run, Mbps·epochs.
    pub detoured_mbps_epochs: f64,
    /// Interfaces that ever exceeded capacity.
    pub interfaces_over_capacity: usize,
    /// Total interfaces observed.
    pub interfaces_total: usize,
    /// Completed detour episodes.
    pub episodes: usize,
    /// Median episode duration, seconds (0 when no episodes).
    pub median_episode_secs: u64,
}

impl RunReport {
    /// Builds the report from a run's metrics.
    pub fn from_metrics(metrics: &MetricsStore) -> Self {
        let mut by_pop: HashMap<u16, Vec<&crate::metrics::PopEpochRecord>> = HashMap::new();
        for r in &metrics.pop_epochs {
            by_pop.entry(r.pop).or_default().push(r);
        }
        let mut pops: Vec<PopReport> = by_pop
            .into_iter()
            .map(|(pop, records)| {
                let n = records.len().max(1) as f64;
                let fracs: Vec<f64> = records
                    .iter()
                    .map(|r| r.detoured_mbps / r.offered_mbps.max(1.0))
                    .collect();
                PopReport {
                    pop,
                    epochs: records.len(),
                    mean_offered_mbps: records.iter().map(|r| r.offered_mbps).sum::<f64>() / n,
                    mean_detour_frac: fracs.iter().sum::<f64>() / n,
                    peak_detour_frac: fracs.iter().cloned().fold(0.0, f64::max),
                    peak_overrides: records
                        .iter()
                        .map(|r| r.overrides_active)
                        .max()
                        .unwrap_or(0),
                    total_churn: records
                        .iter()
                        .map(|r| r.churn_announced + r.churn_withdrawn)
                        .sum(),
                    dropped_mbps_epochs: records.iter().map(|r| r.dropped_mbps).sum(),
                    residual_epochs: records.iter().filter(|r| r.residual_overloaded > 0).count(),
                }
            })
            .collect();
        pops.sort_by_key(|r| r.pop);

        let mut durations: Vec<u64> = metrics.episodes.iter().map(|e| e.duration_secs()).collect();
        durations.sort_unstable();

        RunReport {
            offered_mbps_epochs: metrics.pop_epochs.iter().map(|r| r.offered_mbps).sum(),
            dropped_mbps_epochs: metrics.pop_epochs.iter().map(|r| r.dropped_mbps).sum(),
            detoured_mbps_epochs: metrics.pop_epochs.iter().map(|r| r.detoured_mbps).sum(),
            interfaces_over_capacity: metrics
                .interfaces
                .values()
                .filter(|s| s.epochs_over_capacity > 0)
                .count(),
            interfaces_total: metrics.interfaces.len(),
            episodes: metrics.episodes.len(),
            median_episode_secs: durations.get(durations.len() / 2).copied().unwrap_or(0),
            pops,
        }
    }

    /// Drop fraction across the whole run.
    pub(crate) fn drop_fraction(&self) -> f64 {
        self.dropped_mbps_epochs / self.offered_mbps_epochs.max(1e-9)
    }

    /// Detour fraction across the whole run.
    pub(crate) fn detour_fraction(&self) -> f64 {
        self.detoured_mbps_epochs / self.offered_mbps_epochs.max(1e-9)
    }

    /// Renders the per-PoP table plus the outcome summary as text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{:>5} {:>8} {:>14} {:>12} {:>12} {:>10} {:>8}",
            "pop", "epochs", "offered(Mbps)", "mean detour", "peak detour", "overrides", "churn"
        )
        .unwrap();
        for r in &self.pops {
            writeln!(
                out,
                "{:>5} {:>8} {:>14.0} {:>11.2}% {:>11.2}% {:>10} {:>8}",
                r.pop,
                r.epochs,
                r.mean_offered_mbps,
                r.mean_detour_frac * 100.0,
                r.peak_detour_frac * 100.0,
                r.peak_overrides,
                r.total_churn
            )
            .unwrap();
        }
        writeln!(
            out,
            "\ndropped: {:.4}% of offered | detoured: {:.2}% | interfaces over capacity: {}/{} | episodes: {} (median {}s)",
            self.drop_fraction() * 100.0,
            self.detour_fraction() * 100.0,
            self.interfaces_over_capacity,
            self.interfaces_total,
            self.episodes,
            self.median_episode_secs
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario;

    #[test]
    fn report_summarizes_a_real_run() {
        let mut engine = scenario()
            .small_topology(29)
            .duration_secs(3600)
            .epoch_secs(300)
            .engine();
        engine.run();
        let metrics = engine.take_metrics();
        let report = RunReport::from_metrics(&metrics);

        assert_eq!(report.pops.len(), 4);
        assert!(report.offered_mbps_epochs > 0.0);
        for row in &report.pops {
            assert_eq!(row.epochs, 12);
            assert!(row.mean_offered_mbps > 0.0);
            assert!(row.peak_detour_frac >= row.mean_detour_frac - 1e-12);
        }
        // Render contains every PoP row and the summary line.
        let text = report.render();
        assert!(text.contains("dropped:"));
        assert_eq!(text.lines().count(), 1 + 4 + 2);
    }

    #[test]
    fn fractions_on_empty_metrics_are_zero() {
        let report = RunReport::from_metrics(&MetricsStore::new());
        assert_eq!(report.drop_fraction(), 0.0);
        assert_eq!(report.detour_fraction(), 0.0);
        assert_eq!(report.median_episode_secs, 0);
        assert!(report.pops.is_empty());
    }

    #[test]
    fn report_serde_round_trip() {
        let mut engine = scenario()
            .small_topology(31)
            .duration_secs(600)
            .epoch_secs(300)
            .engine();
        engine.run();
        let report = RunReport::from_metrics(&engine.take_metrics());
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.pops.len(), back.pops.len());
        assert_eq!(report.episodes, back.episodes);
    }
}
