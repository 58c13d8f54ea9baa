//! Windowed per-prefix rate estimation from flow samples.
//!
//! Edge Fabric's traffic collector aggregates sampled flows into
//! per-prefix egress rates over a sliding window of about a minute
//! (paper §4.1), preferring a slightly stale but stable estimate over a
//! noisy instantaneous one. [`RateEstimator`] reproduces that: scaled
//! sample bytes land in per-second buckets; the estimate for a prefix is
//! the windowed byte count divided by the window length.
//!
//! The simulator does not use it: its window is one epoch, so
//! `PopRuntime` turns each epoch's samples into rates directly with
//! [`FlowSample::mbps_over`], the same expression. Only the benchmark's
//! traced replay still imports this type, and it goes when that replay
//! does.

use std::collections::HashMap;

use crate::sampler::{bytes_to_mbps, FlowSample};

/// Sliding-window rate estimator keyed by prefix index.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window_secs: u64,
    /// Ring of per-second buckets: `buckets[s % window]` holds
    /// `(second_stamp, per-prefix bytes)`.
    buckets: Vec<(u64, HashMap<u32, u64>)>,
}

impl RateEstimator {
    /// Creates an estimator with the given window (seconds, ≥1).
    pub fn new(window_secs: u64) -> Self {
        assert!(window_secs >= 1, "window must be at least one second");
        RateEstimator {
            window_secs,
            buckets: (0..window_secs)
                .map(|_| (u64::MAX, HashMap::new()))
                .collect(),
        }
    }

    /// The window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Ingests samples observed during second `now_secs`.
    pub fn ingest(&mut self, now_secs: u64, samples: &[FlowSample]) {
        let idx = (now_secs % self.window_secs) as usize;
        let bucket = &mut self.buckets[idx];
        if bucket.0 != now_secs {
            bucket.0 = now_secs;
            bucket.1.clear();
        }
        for s in samples {
            *bucket.1.entry(s.prefix_idx).or_default() += s.scaled_bytes;
        }
    }

    /// All per-prefix estimates at `now_secs`, Mbps. Prefixes with no
    /// samples in the window are absent (the controller treats them as
    /// negligible, exactly as production does).
    pub fn all_rates_mbps(&self, now_secs: u64) -> HashMap<u32, f64> {
        let mut bytes: HashMap<u32, u64> = HashMap::new();
        for (stamp, map) in &self.buckets {
            if self.in_window(now_secs, *stamp) {
                for (prefix, b) in map {
                    *bytes.entry(*prefix).or_default() += b;
                }
            }
        }
        bytes
            .into_iter()
            .map(|(p, b)| (p, bytes_to_mbps(b, self.window_secs)))
            .collect()
    }

    fn in_window(&self, now_secs: u64, stamp: u64) -> bool {
        stamp != u64::MAX && stamp <= now_secs && now_secs - stamp < self.window_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(prefix_idx: u32, scaled_bytes: u64) -> FlowSample {
        FlowSample {
            prefix_idx,
            count: 1,
            scaled_bytes,
        }
    }

    /// One prefix's estimate at `now_secs`; 0 when it has no samples in
    /// the window.
    fn rate(est: &RateEstimator, now_secs: u64, prefix_idx: u32) -> f64 {
        est.all_rates_mbps(now_secs)
            .get(&prefix_idx)
            .copied()
            .unwrap_or(0.0)
    }

    #[test]
    fn single_second_estimate() {
        let mut est = RateEstimator::new(10);
        // 12.5 MB in one second of a 10 s window = 10 Mbps average.
        est.ingest(0, &[sample(1, 12_500_000)]);
        assert!((rate(&est, 0, 1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn steady_stream_converges_to_true_rate() {
        let mut est = RateEstimator::new(10);
        // 1.25 MB/s = 10 Mbps, sustained.
        for t in 0..20 {
            est.ingest(t, &[sample(1, 1_250_000)]);
        }
        assert!((rate(&est, 19, 1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn old_samples_age_out() {
        let mut est = RateEstimator::new(5);
        est.ingest(0, &[sample(1, 1_000_000)]);
        assert!(rate(&est, 0, 1) > 0.0);
        assert_eq!(rate(&est, 5, 1), 0.0, "outside the window");
    }

    #[test]
    fn future_buckets_do_not_leak_backwards() {
        let mut est = RateEstimator::new(5);
        est.ingest(10, &[sample(1, 1_000_000)]);
        assert_eq!(rate(&est, 8, 1), 0.0);
    }

    #[test]
    fn multiple_prefixes_tracked_independently() {
        let mut est = RateEstimator::new(4);
        est.ingest(0, &[sample(1, 4_000_000), sample(2, 8_000_000)]);
        let rates = est.all_rates_mbps(0);
        assert!((rates[&2] / rates[&1] - 2.0).abs() < 1e-9);
        assert!(!rates.contains_key(&3));
    }

    #[test]
    fn reingesting_same_second_accumulates() {
        let mut est = RateEstimator::new(4);
        est.ingest(0, &[sample(1, 1_000_000)]);
        est.ingest(0, &[sample(1, 1_000_000)]);
        let one = rate(&est, 0, 1);
        let mut est2 = RateEstimator::new(4);
        est2.ingest(0, &[sample(1, 2_000_000)]);
        assert!((one - rate(&est2, 0, 1)).abs() < 1e-12);
    }

    #[test]
    fn ring_reuse_clears_stale_bucket() {
        let mut est = RateEstimator::new(3);
        est.ingest(0, &[sample(1, 3_000_000)]);
        // Second 3 maps onto the same ring slot as second 0.
        est.ingest(3, &[sample(2, 3_000_000)]);
        assert_eq!(rate(&est, 3, 1), 0.0, "old bucket contents cleared");
        assert!(rate(&est, 3, 2) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one second")]
    fn zero_window_rejected() {
        RateEstimator::new(0);
    }

    #[test]
    fn sampled_pipeline_estimates_within_a_few_percent() {
        // End-to-end: sampler → estimator over a 30 s window must land
        // within a few percent for a PoP-scale prefix, the accuracy the
        // controller's projections rely on.
        use crate::sampler::{SamplerConfig, SflowSampler};
        let mut sampler = SflowSampler::new(SamplerConfig::default());
        let mut est = RateEstimator::new(30);
        let true_mbps = 2500.0;
        for t in 0..30u64 {
            let samples = sampler.sample_all([(7u32, true_mbps)], 1.0);
            est.ingest(t, &samples);
        }
        let got = rate(&est, 29, 7);
        let rel = (got - true_mbps).abs() / true_mbps;
        assert!(rel < 0.05, "estimate {got} off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn sampled_pipeline_misses_tiny_prefixes() {
        use crate::sampler::{SamplerConfig, SflowSampler};
        let mut sampler = SflowSampler::new(SamplerConfig::default());
        let mut est = RateEstimator::new(30);
        for t in 0..30u64 {
            let samples = sampler.sample_all([(9u32, 0.01)], 1.0);
            est.ingest(t, &samples);
        }
        // 10 kbps is far below the sampling floor; the estimate is either
        // zero or wildly quantized — the controller treats it as noise.
        let got = rate(&est, 29, 9);
        assert!(got < 2.0, "tiny prefix estimate {got} stays negligible");
    }
}
