//! The monitor's one record per PoP.
//!
//! Judging an epoch needs only two things from earlier epochs: the
//! previous cumulative totals, so counters such as session resets become
//! per-epoch deltas, and the number of epochs seen, for the cold-start
//! warm-up. A [`PopRecord`] keeps those two. Nothing else about past
//! epochs is kept: `efctl report` rebuilds percentiles from the recorded
//! stream.

use crate::monitor::EpochSignals;

/// Cumulative counters as of a PoP's last observed epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Totals {
    pub(crate) session_resets: u64,
    pub(crate) updates_downgraded: u64,
    pub(crate) injection_dropped: u64,
}

impl Totals {
    /// The cumulative counters `signals` carries.
    pub(crate) fn of(signals: &EpochSignals) -> Self {
        Totals {
            session_resets: signals.session_resets_total,
            updates_downgraded: signals.updates_downgraded_total,
            injection_dropped: signals.injection_dropped_total,
        }
    }
}

/// What the monitor remembers about one PoP (or the global tier).
#[derive(Debug, Default, PartialEq)]
pub struct PopRecord {
    /// Totals as of the last observed epoch, the base for this epoch's deltas.
    pub(crate) prev: Totals,
    /// Epochs observed so far.
    pub(crate) epochs_seen: u64,
}

impl PopRecord {
    /// Closes one observed epoch: `totals` become the base for the next
    /// epoch's deltas. Returns the number of epochs seen, this one included.
    pub(crate) fn close_epoch(&mut self, totals: Totals) -> u64 {
        self.prev = totals;
        self.epochs_seen += 1;
        self.epochs_seen
    }
}

#[cfg(test)]
mod tests {
    use ef_telemetry::TelemetryHandle;

    use super::*;
    use crate::monitor::{HealthConfig, HealthMonitor};

    #[test]
    fn record_keeps_latest_totals_and_counts_every_epoch() {
        // The record keeps only the latest totals, but counts every epoch.
        let mut mon = HealthMonitor::new(HealthConfig::default(), TelemetryHandle::disabled());
        for t in 1..=10u64 {
            mon.observe_epoch(
                &EpochSignals {
                    t_secs: t * 30,
                    pop: 3,
                    session_resets_total: t,
                    injection_dropped_total: 2 * t,
                    ..EpochSignals::default()
                },
                None,
            );
        }
        let record = &mon.pop_stores(&[3])[0];
        assert_eq!(record.epochs_seen, 10);
        assert_eq!(
            record.prev,
            Totals {
                session_resets: 10,
                updates_downgraded: 0,
                injection_dropped: 20,
            }
        );
    }

    #[test]
    fn pop_stores_hands_out_records_in_pop_order() {
        let mut mon = HealthMonitor::new(HealthConfig::default(), TelemetryHandle::disabled());
        let mut records = mon.pop_stores(&[1, 4]);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| **r == PopRecord::default()));
        records[1].epochs_seen = 7;
        // A later call creates the missing records and hands out existing
        // ones untouched, all in the caller's ascending PoP order.
        let records = mon.pop_stores(&[0, 4, 9]);
        let seen: Vec<u64> = records.iter().map(|r| r.epochs_seen).collect();
        assert_eq!(seen, vec![0, 7, 0]);
    }
}
