//! Streaming quantile digest (Ben-Haim & Tom-Tov style streaming
//! histogram).
//!
//! Fixed-bound histograms ([`ef_telemetry::Histogram`]) need the value
//! range up front; run-health metrics like drop rate or interface
//! utilization do not have one. A [`QuantileDigest`] keeps weighted
//! centroids and batches its work: an observation is a plain append to
//! a pending buffer (plus min/max/count upkeep); once the buffer fills
//! to several caps' worth, one flush sorts it, merges it into the
//! centroid list, and rebins the result into equal-mass buckets back
//! under `max_bins`. The amortized cost per insert is O(log batch) with
//! no per-insert memmove — the monitor inserts one sample per series
//! per epoch and the interface-series count scales with the topology,
//! so this is the tier's hottest loop. Flush points and merges depend
//! only on the sequence of observed values — no randomness, no wall
//! clock — so two identical runs produce identical digests and
//! identical quantiles.

use serde::{Deserialize, Serialize};

/// A bounded-memory streaming histogram with interpolated quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileDigest {
    /// Weighted centroids `(value, count)`, sorted by value ascending.
    bins: Vec<(f64, u64)>,
    /// Observations not yet merged into `bins` (flushed every
    /// `max_bins` inserts — a deterministic schedule).
    #[serde(default)]
    pending: Vec<f64>,
    /// Maximum number of centroids kept.
    max_bins: usize,
    /// Smallest value ever observed (`f64::INFINITY` when empty).
    min: f64,
    /// Largest value ever observed (`f64::NEG_INFINITY` when empty).
    max: f64,
    /// Total observation count.
    count: u64,
}

impl QuantileDigest {
    /// An empty digest holding at most `max_bins` centroids (minimum 2).
    pub fn new(max_bins: usize) -> Self {
        QuantileDigest {
            bins: Vec::new(),
            pending: Vec::new(),
            max_bins: max_bins.max(2),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observed value (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Records one observation. NaN is ignored — a poisoned sample must
    /// not poison every later quantile. The hot path is a buffer append;
    /// sorting, merging, and compression happen once per `max_bins`
    /// observations, in a private flush.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.count += 1;
        self.pending.push(value);
        // Batch several caps' worth before flushing: the compress pass is
        // O(n log n) in the merged length, so a larger batch amortizes it
        // further at a small, bounded memory cost per series.
        if self.pending.len() >= self.max_bins * 4 {
            self.flush();
        }
    }

    /// Sorts the pending buffer, merges it into the sorted centroid list
    /// (coalescing exactly-equal values), and compresses back under the
    /// centroid cap.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable_by(f64::total_cmp);
        self.bins = Self::merge_sorted(&self.bins, &self.pending);
        self.pending.clear();
        if self.bins.len() > self.max_bins {
            self.compress();
        }
    }

    /// Two-pointer merge of sorted centroids with a sorted value slice,
    /// coalescing equal values into one weighted centroid.
    fn merge_sorted(bins: &[(f64, u64)], values: &[f64]) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(bins.len() + values.len());
        let push = |v: f64, c: u64, out: &mut Vec<(f64, u64)>| match out.last_mut() {
            Some(last) if last.0 == v => last.1 += c,
            _ => out.push((v, c)),
        };
        let (mut i, mut j) = (0, 0);
        while i < bins.len() && j < values.len() {
            if bins[i].0 <= values[j] {
                push(bins[i].0, bins[i].1, &mut out);
                i += 1;
            } else {
                push(values[j], 1, &mut out);
                j += 1;
            }
        }
        for &(v, c) in &bins[i..] {
            push(v, c, &mut out);
        }
        for &v in &values[j..] {
            push(v, 1, &mut out);
        }
        out
    }

    /// Rebins the centroid list down to at most `max_bins` equal-mass
    /// buckets in one O(n) walk: a bucket closes whenever cumulative mass
    /// crosses the next `total/max_bins` boundary, and each closed bucket
    /// becomes the weighted mean of the centroids it absorbed. Equal-mass
    /// buckets bound quantile error by one bucket of mass (1/max_bins of
    /// the observations) regardless of the value distribution, and a
    /// centroid heavier than one bucket keeps its identity rather than
    /// smearing into neighbors. No sorting, no randomness — a pure
    /// function of the centroid list, so the digest stays deterministic.
    fn compress(&mut self) {
        if self.bins.len() <= self.max_bins {
            return;
        }
        let total: u64 = self.bins.iter().map(|&(_, c)| c).sum();
        let max_bins = self.max_bins as u128;
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(self.max_bins);
        let mut sum = 0.0;
        let mut mass = 0u64;
        let mut cum = 0u64;
        for &(v, c) in &self.bins {
            sum += v * c as f64;
            mass += c;
            cum += c;
            // Close the current bucket once cumulative mass reaches the
            // next equal-mass boundary. The final boundary equals `total`,
            // so the last centroid always closes the last bucket.
            let boundary = ((out.len() as u128 + 1) * total as u128).div_ceil(max_bins) as u64;
            if cum >= boundary {
                out.push((sum / mass as f64, mass));
                sum = 0.0;
                mass = 0;
            }
        }
        self.bins = out;
    }

    /// Interpolated quantile `q` in `[0, 1]`. Returns 0.0 when empty.
    /// Results are clamped to the true observed `[min, max]`, so merged
    /// centroids cannot report a value outside what was actually seen.
    /// Quantile reads are cold (end-of-run reports, live views) — when
    /// observations are still pending, a merged view is built here rather
    /// than forcing a flush on the hot insert path.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if self.pending.is_empty() {
            return self.quantile_over(&self.bins, q);
        }
        let mut sorted = self.pending.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let merged = Self::merge_sorted(&self.bins, &sorted);
        self.quantile_over(&merged, q)
    }

    /// The interpolation walk over one sorted centroid list.
    fn quantile_over(&self, bins: &[(f64, u64)], q: f64) -> f64 {
        if bins.len() == 1 {
            return bins[0].0;
        }
        // Rank of the requested quantile among `count` observations.
        let target = q * (self.count - 1) as f64;
        // Walk centroids, treating each as holding its mass at its center;
        // interpolate between adjacent centers by cumulative rank.
        let mut cum = 0.0;
        for i in 0..bins.len() {
            let (v, c) = bins[i];
            // Center rank of this bin: first rank + half the mass.
            let center = cum + (c as f64 - 1.0) / 2.0;
            if target <= center || i == bins.len() - 1 {
                if i == 0 || target >= center {
                    return v.clamp(self.min, self.max);
                }
                let (pv, pc) = bins[i - 1];
                let prev_center = cum - pc as f64 + (pc as f64 - 1.0) / 2.0;
                let span = center - prev_center;
                let frac = if span > 0.0 {
                    (target - prev_center) / span
                } else {
                    0.0
                };
                return (pv + (v - pv) * frac).clamp(self.min, self.max);
            }
            cum += c as f64;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_reads_zero() {
        let d = QuantileDigest::new(8);
        assert_eq!(d.count(), 0);
        assert_eq!(d.quantile(0.5), 0.0);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn single_value_is_every_quantile() {
        let mut d = QuantileDigest::new(8);
        d.observe(7.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(d.quantile(q), 7.0);
        }
    }

    #[test]
    fn exact_quantiles_without_compression() {
        let mut d = QuantileDigest::new(128);
        for v in 1..=100 {
            d.observe(v as f64);
        }
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 100.0);
        let p50 = d.quantile(0.5);
        assert!((p50 - 50.5).abs() < 1.0, "p50={p50}");
        let p90 = d.quantile(0.9);
        assert!((p90 - 90.1).abs() < 1.0, "p90={p90}");
    }

    #[test]
    fn compressed_quantiles_stay_close_and_bounded() {
        let mut d = QuantileDigest::new(16);
        for i in 0..10_000 {
            // Deterministic pseudo-uniform sequence in [0, 1000).
            d.observe((i * 7919 % 10_000) as f64 / 10.0);
        }
        assert_eq!(d.count(), 10_000);
        let p50 = d.quantile(0.5);
        assert!((p50 - 500.0).abs() < 50.0, "p50={p50}");
        let p99 = d.quantile(0.99);
        assert!((p99 - 990.0).abs() < 50.0, "p99={p99}");
        assert!(d.quantile(0.0) >= d.min().unwrap());
        assert!(d.quantile(1.0) <= d.max().unwrap());
    }

    #[test]
    fn identical_streams_yield_identical_digests() {
        let mut a = QuantileDigest::new(8);
        let mut b = QuantileDigest::new(8);
        for i in 0..1000 {
            let v = ((i * 31) % 97) as f64;
            a.observe(v);
            b.observe(v);
        }
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn nan_observations_are_ignored() {
        let mut d = QuantileDigest::new(8);
        d.observe(1.0);
        d.observe(f64::NAN);
        d.observe(3.0);
        assert_eq!(d.count(), 2);
        assert_eq!(d.quantile(1.0), 3.0);
    }

    #[test]
    fn round_trips_through_json() {
        let mut d = QuantileDigest::new(4);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            d.observe(v);
        }
        let json = serde_json::to_string(&d).unwrap();
        let back: QuantileDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
