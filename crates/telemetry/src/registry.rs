//! The metrics registry: counters, gauges, and histograms.
//!
//! Names are dotted strings (`overrides.announced`, `pop3.detoured_mbps`).
//! The registry is `Sync` (a single mutex over three sorted maps) so
//! per-PoP controller threads can share one handle; contention is trivial
//! because instrumented code touches it a handful of times per epoch.
//!
//! [`MetricsRegistry::snapshot`] clones the current state into a
//! serializable [`MetricsSnapshot`]; the simulation engine emits one per
//! epoch into the event stream, under the `GLOBAL_POP` sentinel, once every
//! PoP and tier has written that epoch's values.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Default histogram bounds for microsecond durations: powers of ten from
/// 10 µs to 10 s. Values land in the first bucket whose bound they do not
/// exceed; beyond the last bound they land in the overflow bucket.
const DURATION_US_BOUNDS: [f64; 7] = [
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
];

/// A fixed-bound histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds of each bucket, ascending.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket, plus one overflow bucket at the end
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) assuming
    /// observations are uniform within their bucket, interpolating between
    /// the bucket's bounds. Deterministic: depends only on the recorded
    /// counts. Returns 0 when empty; overflow-bucket ranks clamp to the
    /// last finite bound (the histogram has no upper edge past it).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n;
            if rank <= next as f64 {
                let last = self.bounds.len() - 1;
                if idx > last {
                    // Overflow bucket: no upper edge to interpolate toward.
                    return self.bounds[last];
                }
                let lo = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let hi = self.bounds[idx];
                let into = (rank - seen as f64) / n as f64;
                return lo + (hi - lo) * into;
            }
            seen = next;
        }
        self.bounds[self.bounds.len() - 1]
    }
}

/// A point-in-time copy of the registry, serializable for the event stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Shared counters / gauges / histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // The writers probe with the borrowed name first: a key is allocated
    // once, on first use, not on every call.

    /// Adds `by` to a counter (creating it at zero).
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(count) = inner.counters.get_mut(name) {
            *count += by;
        } else {
            inner.counters.insert(name.to_string(), by);
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(gauge) = inner.gauges.get_mut(name) {
            *gauge = value;
        } else {
            inner.gauges.insert(name.to_string(), value);
        }
    }

    /// Records a histogram observation with the default microsecond
    /// duration bounds (10 µs to 10 s, powers of ten).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, &DURATION_US_BOUNDS, value);
    }

    /// Records a histogram observation, creating the histogram with the
    /// given bounds on first use (later calls keep the original bounds).
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(hist) = inner.histograms.get_mut(name) {
            hist.observe(value);
        } else {
            let mut hist = Histogram::new(bounds);
            hist.observe(value);
            inner.histograms.insert(name.to_string(), hist);
        }
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Reads a single counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Reads a single gauge, when set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_replace() {
        let reg = MetricsRegistry::new();
        reg.inc("overrides.announced", 2);
        reg.inc("overrides.announced", 3);
        reg.set_gauge("pop0.detoured_mbps", 10.0);
        reg.set_gauge("pop0.detoured_mbps", 4.5);
        assert_eq!(reg.counter_value("overrides.announced"), 5);
        assert_eq!(reg.gauge_value("pop0.detoured_mbps"), Some(4.5));
        assert_eq!(reg.counter_value("missing"), 0);
        assert_eq!(reg.gauge_value("missing"), None);
    }

    #[test]
    fn rewrites_of_existing_keys_keep_bounds_and_key_set() {
        let reg = MetricsRegistry::new();
        reg.inc("c", 1);
        reg.set_gauge("g", 1.0);
        reg.observe_with("h", &[1.0, 2.0], 0.5);
        let keys = |snap: &MetricsSnapshot| {
            (
                snap.counters.keys().cloned().collect::<Vec<_>>(),
                snap.gauges.keys().cloned().collect::<Vec<_>>(),
                snap.histograms.keys().cloned().collect::<Vec<_>>(),
            )
        };
        let before = keys(&reg.snapshot());
        for i in 0..3 {
            reg.inc("c", 2);
            reg.set_gauge("g", i as f64);
            // Other bounds on an existing histogram are ignored.
            reg.observe_with("h", &[100.0], 1.5);
        }
        let snap = reg.snapshot();
        assert_eq!(keys(&snap), before);
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.gauges["g"], 2.0);
        let h = &snap.histograms["h"];
        assert_eq!(h.bounds, vec![1.0, 2.0]);
        assert_eq!(h.counts, vec![1, 3, 0]);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 1, 1, 2]);
        assert_eq!(h.count, 5);
        assert!((h.mean() - 5555.5 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_one_bucket() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        for _ in 0..4 {
            h.observe(50.0); // all land in the (10, 100] bucket
        }
        // Ranks interpolate uniformly across the bucket's width.
        assert!((h.quantile(0.25) - 32.5).abs() < 1e-9);
        assert!((h.quantile(0.5) - 55.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 100.0).abs() < 1e-9);
        // q clamps rather than panics.
        assert!((h.quantile(-1.0) - h.quantile(0.0)).abs() < 1e-9);
        assert!((h.quantile(2.0) - h.quantile(1.0)).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_overflow_to_last_bound() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5000.0);
        h.observe(9000.0);
        // p99 lands in the overflow bucket: clamp to the last bound.
        assert_eq!(h.quantile(0.99), 10.0);
        // The low tail still interpolates inside its finite bucket.
        assert!(h.quantile(0.01) <= 1.0);
        // Repeated calls are deterministic.
        assert_eq!(h.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn snapshot_is_a_deterministic_copy() {
        let reg = MetricsRegistry::new();
        reg.inc("b", 1);
        reg.inc("a", 1);
        reg.observe("epoch_us", 42.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            vec!["a", "b"],
            "sorted keys"
        );
        assert_eq!(snap.histograms["epoch_us"].count, 1);
        // Snapshots serialize identically across repeated calls.
        let a = serde_json::to_string(&snap).unwrap();
        let b = serde_json::to_string(&reg.snapshot()).unwrap();
        assert_eq!(a, b);
        let back: MetricsSnapshot = serde_json::from_str(&a).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        reg.inc("ticks", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value("ticks"), 400);
    }
}
