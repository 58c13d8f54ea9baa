//! Ring-buffer time series over health metrics.
//!
//! A [`RingSeries`] keeps the last `capacity` samples of one metric (for
//! `efctl report --follow`-style recent views) plus a [`QuantileDigest`]
//! over the *whole* run (for percentile summaries) — the ring forgets, the
//! digest does not. A [`SeriesStore`] is a sorted map of named series, one store
//! per PoP inside the monitor.

use std::collections::{BTreeMap, VecDeque};

use crate::digest::QuantileDigest;

/// One metric's recent samples plus its whole-run quantile digest.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSeries {
    /// Most recent `(t_secs, value)` samples, oldest first.
    points: VecDeque<(u64, f64)>,
    /// Ring capacity.
    capacity: usize,
    /// Whole-run streaming quantiles.
    digest: QuantileDigest,
}

impl RingSeries {
    /// An empty series keeping `capacity` recent points and a digest of
    /// `digest_bins` centroids. The backing buffer grows on demand rather
    /// than preallocating `capacity` — a store holds hundreds of series
    /// (one per interface), and paying the full ring footprint up front
    /// measurably drags on runs much shorter than the ring.
    pub fn new(capacity: usize, digest_bins: usize) -> Self {
        RingSeries {
            points: VecDeque::new(),
            capacity: capacity.max(1),
            digest: QuantileDigest::new(digest_bins),
        }
    }

    /// Appends a sample, evicting the oldest point past capacity.
    pub fn push(&mut self, t_secs: u64, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back((t_secs, value));
        self.digest.observe(value);
    }

    /// Recent samples, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Number of samples currently held in the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no sample was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whole-run quantile digest.
    pub fn digest(&self) -> &QuantileDigest {
        &self.digest
    }
}

/// Named series for one PoP (BTreeMap so iteration is deterministic),
/// plus a slot-indexed vector for dense per-interface series whose
/// count scales with the topology — those are recorded by position so
/// the per-epoch sampling loop never hashes or compares a string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesStore {
    series: BTreeMap<String, RingSeries>,
    /// Slot-addressed series `(name, series)`, in slot order. Populated
    /// in ascending slot order on first use (the slot layout is fixed by
    /// the topology, so the order never changes afterwards).
    indexed: Vec<(String, RingSeries)>,
    capacity: usize,
    digest_bins: usize,
}

impl SeriesStore {
    /// An empty store whose series keep `capacity` points and
    /// `digest_bins` digest centroids.
    pub fn new(capacity: usize, digest_bins: usize) -> Self {
        SeriesStore {
            series: BTreeMap::new(),
            indexed: Vec::new(),
            capacity: capacity.max(1),
            digest_bins: digest_bins.max(2),
        }
    }

    /// Appends a sample to the named series (creating it on first use).
    /// The steady-state path (series already exists) allocates nothing —
    /// this runs once per metric per PoP per epoch.
    pub fn record(&mut self, name: &str, t_secs: u64, value: f64) {
        if let Some(series) = self.series.get_mut(name) {
            series.push(t_secs, value);
            return;
        }
        let mut series = RingSeries::new(self.capacity, self.digest_bins);
        series.push(t_secs, value);
        self.series.insert(name.to_string(), series);
    }

    /// Appends a sample to the slot-addressed series at `slot`. The hit
    /// path is a bounds check and a direct index — no string work at all.
    /// `name` is materialized only the first time a slot is seen; slots
    /// must arrive in ascending order on first use (they do: the monitor
    /// walks the interface list in slot order every epoch).
    pub fn record_slot(
        &mut self,
        slot: usize,
        name: impl FnOnce() -> String,
        t_secs: u64,
        value: f64,
    ) {
        if let Some((_, series)) = self.indexed.get_mut(slot) {
            series.push(t_secs, value);
            return;
        }
        debug_assert_eq!(slot, self.indexed.len(), "slots must be created in order");
        let mut series = RingSeries::new(self.capacity, self.digest_bins);
        series.push(t_secs, value);
        self.indexed.push((name(), series));
    }

    /// Looks up a series by name (named first, then slot-addressed).
    pub fn get(&self, name: &str) -> Option<&RingSeries> {
        self.series
            .get(name)
            .or_else(|| self.indexed.iter().find(|(n, _)| n == name).map(|(_, s)| s))
    }

    /// All series — named and slot-addressed — sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RingSeries)> {
        let mut all: Vec<(&str, &RingSeries)> = self
            .series
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .chain(self.indexed.iter().map(|(k, v)| (k.as_str(), v)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(b.0));
        all.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_but_digest_remembers() {
        let mut s = RingSeries::new(3, 32);
        for t in 0..10u64 {
            s.push(t * 30, t as f64);
        }
        assert_eq!(s.len(), 3);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(210, 7.0), (240, 8.0), (270, 9.0)]);
        // The digest still covers all ten observations.
        assert_eq!(s.digest().count(), 10);
        assert_eq!(s.digest().min(), Some(0.0));
        assert_eq!(s.digest().max(), Some(9.0));
    }

    #[test]
    fn store_creates_series_lazily_and_sorts() {
        let mut store = SeriesStore::new(8, 16);
        store.record("drop_rate", 30, 0.01);
        store.record("iface_util_max", 30, 0.8);
        store.record("drop_rate", 60, 0.02);
        assert_eq!(store.get("drop_rate").unwrap().len(), 2);
        assert!(store.get("missing").is_none());
        let names: Vec<_> = store.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["drop_rate", "iface_util_max"]);
    }
}
