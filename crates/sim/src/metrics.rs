//! Metric collection: compact aggregates per interface plus full series for
//! explicitly flagged interfaces, detour episode tracking, and per-epoch
//! PoP records.
//!
//! The aggregates are shaped by what the paper's figures need: utilization
//! histograms (CDFs over interface-intervals), overload epoch counts (hours
//! overloaded per day), drop volumes, detour volume series, episode
//! durations, and override churn.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ef_bgp::route::EgressId;
use ef_net_types::Prefix;
use ef_topology::PopId;

/// Number of utilization histogram buckets: bucket `i` covers
/// `[i/50, (i+1)/50)`, so the range reaches 2× capacity with 2 % grain.
pub const UTIL_BUCKETS: usize = 100;

/// Running aggregates for one interface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterfaceStats {
    /// The interface.
    pub egress: u32,
    /// Owning PoP.
    pub pop: u16,
    /// Capacity, Mbps.
    pub capacity_mbps: f64,
    /// Interconnect kind label.
    pub kind: String,
    /// Utilization histogram over epochs (bucket = util × 50, clamped).
    pub util_histogram: Vec<u32>,
    /// Epochs with load > capacity.
    pub epochs_over_capacity: u32,
    /// Epochs with load > limit × capacity (the controller's trigger).
    pub epochs_over_limit: u32,
    /// Total epochs observed.
    pub epochs_total: u32,
    /// Peak utilization seen.
    pub peak_util: f64,
    /// Total traffic dropped (Mbps·epoch, i.e. sum of per-epoch excess).
    pub dropped_mbps_epochs: f64,
}

impl InterfaceStats {
    fn new(pop: u16, egress: u32, capacity_mbps: f64, kind: String) -> Self {
        InterfaceStats {
            egress,
            pop,
            capacity_mbps,
            kind,
            util_histogram: vec![0; UTIL_BUCKETS],
            epochs_over_capacity: 0,
            epochs_over_limit: 0,
            epochs_total: 0,
            peak_util: 0.0,
            dropped_mbps_epochs: 0.0,
        }
    }

    fn record(&mut self, load_mbps: f64, limit: f64) {
        let util = load_mbps / self.capacity_mbps;
        let bucket = ((util * 50.0) as usize).min(UTIL_BUCKETS - 1);
        self.util_histogram[bucket] += 1;
        self.epochs_total += 1;
        if util > 1.0 {
            self.epochs_over_capacity += 1;
            self.dropped_mbps_epochs += load_mbps - self.capacity_mbps;
        }
        if util > limit {
            self.epochs_over_limit += 1;
        }
        if util > self.peak_util {
            self.peak_util = util;
        }
    }

    /// Hours over capacity per simulated day, given the epoch length.
    pub fn overload_hours_per_day(&self, epoch_secs: u64) -> f64 {
        if self.epochs_total == 0 {
            return 0.0;
        }
        let days = (self.epochs_total as f64 * epoch_secs as f64) / 86_400.0;
        (self.epochs_over_capacity as f64 * epoch_secs as f64 / 3600.0) / days
    }
}

/// One interface's end-of-run 95/5 bill: the billable rate at the cost
/// model's percentile over the run's closed billing windows, priced by the
/// interface's peering class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterfaceBill {
    /// Owning PoP.
    pub pop: u16,
    /// The interface.
    pub egress: u32,
    /// Peering-class label (`settlement-free` / `pni` / `transit` /
    /// `ixp-rs`).
    pub class: String,
    /// Billable rate at the billing percentile, Mbps.
    pub billable_mbps: f64,
    /// The monthly bill: fixed port cost plus metered component, USD.
    pub monthly_usd: f64,
}

/// One completed detour episode: a prefix was overridden continuously.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetourEpisode {
    /// PoP.
    pub pop: u16,
    /// Steered prefix.
    pub prefix: String,
    /// Start, seconds of simulated time.
    pub start_secs: u64,
    /// End (exclusive), seconds.
    pub end_secs: u64,
}

impl DetourEpisode {
    /// Episode length, seconds.
    pub fn duration_secs(&self) -> u64 {
        self.end_secs - self.start_secs
    }
}

/// Per-epoch record for one PoP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopEpochRecord {
    /// Time, seconds.
    pub t_secs: u64,
    /// PoP.
    pub pop: u16,
    /// Total offered demand, Mbps.
    pub offered_mbps: f64,
    /// Demand carried by overridden prefixes, Mbps.
    pub detoured_mbps: f64,
    /// Demand detoured per target interconnect kind (label → Mbps).
    #[serde(default)]
    pub detoured_by_kind: std::collections::HashMap<String, f64>,
    /// Active overrides.
    pub overrides_active: usize,
    /// Announcements sent this epoch.
    pub churn_announced: usize,
    /// Withdrawals sent this epoch.
    pub churn_withdrawn: usize,
    /// Interfaces over the controller limit *before* mitigation.
    pub overloaded_before: usize,
    /// Interfaces the controller could not relieve.
    pub residual_overloaded: usize,
    /// Traffic dropped this epoch across the PoP, Mbps.
    pub dropped_mbps: f64,
    /// Labels of fault-schedule events active at this PoP this epoch
    /// (empty on sunny-day epochs), in schedule order.
    #[serde(default)]
    pub active_faults: Vec<String>,
    /// The controller ran this epoch in degraded (stale-input) mode.
    #[serde(default)]
    pub degraded: bool,
    /// The controller failed open this epoch (inputs past the trust
    /// horizon, or the injector session was down).
    #[serde(default)]
    pub fail_open: bool,
}

/// Metric sink for one simulation run.
#[derive(Debug, Default)]
pub struct MetricsStore {
    /// Aggregates per interface.
    pub interfaces: HashMap<EgressId, InterfaceStats>,
    /// Full `(t_secs, load_mbps)` series for flagged interfaces.
    pub series: HashMap<EgressId, Vec<(u64, f64)>>,
    flagged: Vec<EgressId>,
    /// Per-PoP per-epoch records.
    pub pop_epochs: Vec<PopEpochRecord>,
    /// End-of-run 95/5 bills, one row per billed interface, sorted by
    /// `(pop, egress)` — a canonical order regardless of merge order, so
    /// billing output is byte-identical at any thread count.
    pub billing: Vec<InterfaceBill>,
    /// Completed detour episodes.
    pub episodes: Vec<DetourEpisode>,
    /// Open episodes: (pop, prefix) → start time.
    open_episodes: HashMap<(PopId, Prefix), u64>,
}

impl MetricsStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an interface so loads can be recorded against it.
    pub fn register_interface(
        &mut self,
        pop: PopId,
        egress: EgressId,
        capacity_mbps: f64,
        kind: &str,
    ) {
        self.interfaces
            .entry(egress)
            .or_insert_with(|| InterfaceStats::new(pop.0, egress.0, capacity_mbps, kind.into()));
    }

    /// Requests full time-series recording for an interface.
    pub fn flag_interface(&mut self, egress: EgressId) {
        if !self.flagged.contains(&egress) {
            self.flagged.push(egress);
        }
    }

    /// Records one epoch's load on an interface.
    pub fn record_interface(&mut self, t_secs: u64, egress: EgressId, load_mbps: f64, limit: f64) {
        if let Some(stats) = self.interfaces.get_mut(&egress) {
            stats.record(load_mbps, limit);
        }
        if self.flagged.contains(&egress) {
            self.series
                .entry(egress)
                .or_default()
                .push((t_secs, load_mbps));
        }
    }

    /// Records a PoP epoch summary.
    pub fn record_pop_epoch(&mut self, record: PopEpochRecord) {
        self.pop_epochs.push(record);
    }

    /// Updates episode tracking with the set of prefixes currently
    /// overridden at a PoP.
    pub fn update_episodes(
        &mut self,
        pop: PopId,
        t_secs: u64,
        active: impl IntoIterator<Item = Prefix>,
    ) {
        let active: std::collections::HashSet<Prefix> = active.into_iter().collect();
        // Close episodes that ended.
        let ended: Vec<(PopId, Prefix)> = self
            .open_episodes
            .keys()
            .filter(|(p, prefix)| *p == pop && !active.contains(prefix))
            .copied()
            .collect();
        for key in ended {
            if let Some(start) = self.open_episodes.remove(&key) {
                self.episodes.push(DetourEpisode {
                    pop: pop.0,
                    prefix: key.1.to_string(),
                    start_secs: start,
                    end_secs: t_secs,
                });
            }
        }
        // Open new ones.
        for prefix in active {
            self.open_episodes.entry((pop, prefix)).or_insert(t_secs);
        }
    }

    /// Closes every open episode at simulation end.
    pub fn finish(&mut self, t_secs: u64) {
        let open: Vec<((PopId, Prefix), u64)> = self.open_episodes.drain().collect();
        for ((pop, prefix), start) in open {
            self.episodes.push(DetourEpisode {
                pop: pop.0,
                prefix: prefix.to_string(),
                start_secs: start,
                end_secs: t_secs,
            });
        }
        self.episodes
            .sort_by_key(|e| (e.pop, e.start_secs, e.prefix.clone()));
    }

    /// Merges another store (used to combine per-PoP parallel runs).
    pub fn merge(&mut self, other: MetricsStore) {
        for (e, stats) in other.interfaces {
            self.interfaces.entry(e).or_insert(stats);
        }
        for (e, s) in other.series {
            self.series.entry(e).or_default().extend(s);
        }
        self.pop_epochs.extend(other.pop_epochs);
        self.episodes.extend(other.episodes);
        self.billing.extend(other.billing);
        self.billing.sort_by_key(|b| (b.pop, b.egress));
        for (k, v) in other.open_episodes {
            self.open_episodes.insert(k, v);
        }
    }

    /// Total monthly spend across billed interfaces, summed in the
    /// canonical `(pop, egress)` order.
    pub fn total_monthly_usd(&self) -> f64 {
        self.billing.iter().map(|b| b.monthly_usd).sum()
    }

    /// Monthly spend on metered (transit) interfaces only, canonical order.
    pub fn transit_monthly_usd(&self) -> f64 {
        self.billing
            .iter()
            .filter(|b| b.class == "transit")
            .map(|b| b.monthly_usd)
            .sum()
    }

    /// Interfaces sorted by fraction of epochs over capacity, worst first.
    pub fn worst_interfaces(&self) -> Vec<&InterfaceStats> {
        let mut v: Vec<&InterfaceStats> = self.interfaces.values().collect();
        v.sort_by(|a, b| {
            let fa = a.epochs_over_capacity as f64 / a.epochs_total.max(1) as f64;
            let fb = b.epochs_over_capacity as f64 / b.epochs_total.max(1) as f64;
            fb.total_cmp(&fa).then(a.egress.cmp(&b.egress))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn interface_stats_accumulate() {
        let mut m = MetricsStore::new();
        m.register_interface(PopId(0), EgressId(1), 100.0, "private");
        m.record_interface(0, EgressId(1), 50.0, 0.95); // 0.5
        m.record_interface(30, EgressId(1), 98.0, 0.95); // over limit
        m.record_interface(60, EgressId(1), 120.0, 0.95); // over capacity
        let s = &m.interfaces[&EgressId(1)];
        assert_eq!(s.epochs_total, 3);
        assert_eq!(s.epochs_over_limit, 2);
        assert_eq!(s.epochs_over_capacity, 1);
        assert!((s.peak_util - 1.2).abs() < 1e-9);
        assert!((s.dropped_mbps_epochs - 20.0).abs() < 1e-9);
        // Buckets are 2 % wide: two epochs above 90 %, one above 110 %.
        assert_eq!(s.util_histogram[45..].iter().sum::<u32>(), 2);
        assert_eq!(s.util_histogram[55..].iter().sum::<u32>(), 1);
    }

    #[test]
    fn overload_hours_per_day() {
        let mut m = MetricsStore::new();
        m.register_interface(PopId(0), EgressId(1), 100.0, "private");
        // 2880 epochs of 30 s = one day; 120 epochs over capacity = 1 hour.
        for i in 0..2880u64 {
            let load = if i < 120 { 150.0 } else { 10.0 };
            m.record_interface(i * 30, EgressId(1), load, 0.95);
        }
        let s = &m.interfaces[&EgressId(1)];
        assert!((s.overload_hours_per_day(30) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flagged_interfaces_record_series() {
        let mut m = MetricsStore::new();
        m.register_interface(PopId(0), EgressId(1), 100.0, "private");
        m.register_interface(PopId(0), EgressId(2), 100.0, "transit");
        m.flag_interface(EgressId(1));
        m.record_interface(0, EgressId(1), 10.0, 0.95);
        m.record_interface(0, EgressId(2), 10.0, 0.95);
        m.record_interface(30, EgressId(1), 20.0, 0.95);
        assert_eq!(m.series[&EgressId(1)], vec![(0, 10.0), (30, 20.0)]);
        assert!(!m.series.contains_key(&EgressId(2)));
    }

    #[test]
    fn episode_lifecycle() {
        let mut m = MetricsStore::new();
        let pop = PopId(3);
        m.update_episodes(pop, 0, [p("1.0.0.0/24")]);
        m.update_episodes(pop, 30, [p("1.0.0.0/24"), p("2.0.0.0/24")]);
        m.update_episodes(pop, 60, [p("2.0.0.0/24")]); // 1.0 closes
        m.finish(90); // 2.0 closes at end
        assert_eq!(m.episodes.len(), 2);
        let one = m
            .episodes
            .iter()
            .find(|e| e.prefix == "1.0.0.0/24")
            .unwrap();
        assert_eq!((one.start_secs, one.end_secs), (0, 60));
        assert_eq!(one.duration_secs(), 60);
        let two = m
            .episodes
            .iter()
            .find(|e| e.prefix == "2.0.0.0/24")
            .unwrap();
        assert_eq!((two.start_secs, two.end_secs), (30, 90));
    }

    #[test]
    fn reopening_same_prefix_is_a_new_episode() {
        let mut m = MetricsStore::new();
        let pop = PopId(0);
        m.update_episodes(pop, 0, [p("1.0.0.0/24")]);
        m.update_episodes(pop, 30, []);
        m.update_episodes(pop, 90, [p("1.0.0.0/24")]);
        m.finish(120);
        assert_eq!(m.episodes.len(), 2);
        assert_eq!(m.episodes[0].duration_secs(), 30);
        assert_eq!(m.episodes[1].duration_secs(), 30);
    }

    #[test]
    fn histogram_clamps_loads_beyond_twice_capacity() {
        let mut m = MetricsStore::new();
        m.register_interface(PopId(0), EgressId(1), 100.0, "private");
        // 199 % lands in the last regular bucket; 200 %, 300 %, and an
        // absurd 50× all clamp into the final bucket instead of indexing
        // out of bounds.
        m.record_interface(0, EgressId(1), 199.0, 0.95);
        m.record_interface(30, EgressId(1), 200.0, 0.95);
        m.record_interface(60, EgressId(1), 300.0, 0.95);
        m.record_interface(90, EgressId(1), 5_000.0, 0.95);
        let s = &m.interfaces[&EgressId(1)];
        assert_eq!(s.util_histogram.len(), UTIL_BUCKETS);
        assert_eq!(s.util_histogram[UTIL_BUCKETS - 1], 4);
        assert_eq!(s.epochs_over_capacity, 4);
        assert!((s.peak_util - 50.0).abs() < 1e-9);
    }

    #[test]
    fn continuous_override_spans_epoch_boundaries_as_one_episode() {
        let mut m = MetricsStore::new();
        let pop = PopId(1);
        // The same prefix is active for five consecutive epochs: episode
        // tracking must coalesce them, not open one per epoch.
        for t in (0..150).step_by(30) {
            m.update_episodes(pop, t, [p("1.0.0.0/24")]);
        }
        assert!(m.episodes.is_empty(), "still open");
        m.update_episodes(pop, 150, []);
        assert_eq!(m.episodes.len(), 1);
        assert_eq!(m.episodes[0].duration_secs(), 150);
        m.finish(180);
        assert_eq!(m.episodes.len(), 1, "finish does not duplicate it");
    }

    #[test]
    fn fail_open_withdrawal_closes_every_episode_at_once() {
        let mut m = MetricsStore::new();
        let pop = PopId(2);
        let active = [p("1.0.0.0/24"), p("2.0.0.0/24"), p("3.0.0.0/24")];
        m.update_episodes(pop, 0, active);
        m.update_episodes(pop, 30, active);
        // Fail-open withdraws the whole override set in one epoch.
        m.update_episodes(pop, 60, []);
        assert_eq!(m.episodes.len(), 3);
        assert!(m.episodes.iter().all(|e| e.end_secs == 60));
        // Churn bookkeeping for that epoch records the mass withdrawal.
        m.record_pop_epoch(PopEpochRecord {
            t_secs: 60,
            pop: 2,
            offered_mbps: 100.0,
            detoured_mbps: 0.0,
            detoured_by_kind: Default::default(),
            overrides_active: 0,
            churn_announced: 0,
            churn_withdrawn: active.len(),
            overloaded_before: 1,
            residual_overloaded: 1,
            dropped_mbps: 0.0,
            active_faults: vec!["bmp_stall".into()],
            degraded: false,
            fail_open: true,
        });
        let rec = m.pop_epochs.last().unwrap();
        assert_eq!(rec.churn_withdrawn, 3);
        assert!(rec.fail_open);
        // Recovery afterwards opens fresh episodes, not resumed ones.
        m.update_episodes(pop, 90, [p("1.0.0.0/24")]);
        m.finish(120);
        assert_eq!(m.episodes.len(), 4);
        let reopened = m
            .episodes
            .iter()
            .find(|e| e.prefix == "1.0.0.0/24" && e.start_secs == 90)
            .unwrap();
        assert_eq!(reopened.end_secs, 120);
    }

    #[test]
    fn merge_combines_stores() {
        let mut a = MetricsStore::new();
        a.register_interface(PopId(0), EgressId(1), 100.0, "private");
        a.record_interface(0, EgressId(1), 50.0, 0.95);
        let mut b = MetricsStore::new();
        b.register_interface(PopId(1), EgressId(2), 100.0, "transit");
        b.record_interface(0, EgressId(2), 60.0, 0.95);
        b.record_pop_epoch(PopEpochRecord {
            t_secs: 0,
            pop: 1,
            offered_mbps: 60.0,
            detoured_mbps: 0.0,
            detoured_by_kind: Default::default(),
            overrides_active: 0,
            churn_announced: 0,
            churn_withdrawn: 0,
            overloaded_before: 0,
            residual_overloaded: 0,
            dropped_mbps: 0.0,
            active_faults: Vec::new(),
            degraded: false,
            fail_open: false,
        });
        a.merge(b);
        assert_eq!(a.interfaces.len(), 2);
        assert_eq!(a.pop_epochs.len(), 1);
    }

    #[test]
    fn worst_interfaces_sorts_by_overload() {
        let mut m = MetricsStore::new();
        m.register_interface(PopId(0), EgressId(1), 100.0, "private");
        m.register_interface(PopId(0), EgressId(2), 100.0, "private");
        m.record_interface(0, EgressId(1), 150.0, 0.95);
        m.record_interface(0, EgressId(2), 50.0, 0.95);
        let worst = m.worst_interfaces();
        assert_eq!(worst[0].egress, 1);
    }
}
