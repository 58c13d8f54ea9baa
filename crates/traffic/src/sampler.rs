//! sFlow-style packet-sampling collector.
//!
//! Production routers export 1-in-N packet samples; Edge Fabric's traffic
//! collector scales them back up into per-prefix rates (paper §4.1). The
//! simulator has no packets, so the sampler inverts the math: given a true
//! rate `r` over an interval `dt`, the number of exported samples is
//! Poisson-distributed with mean `r·dt / (pkt_bytes·8) / N`, and each
//! sample represents `pkt_bytes · N` bytes. Estimates built from these
//! samples carry exactly the sampling error a production collector sees —
//! including the "small prefixes are invisible" effect.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// 1-in-N packet sampling rate (N).
    pub sample_rate: u32,
    /// Mean packet size in bytes (egress video traffic skews large).
    pub packet_bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sample_rate: 1000,
            packet_bytes: 1200,
            seed: 1,
        }
    }
}

/// The exported samples for one prefix over one interval, pre-aggregated:
/// `count` packets were sampled, together representing `scaled_bytes`
/// (`count × packet_bytes × N`) of traffic. Aggregation is lossless for
/// rate estimation — the Poisson count carries all the sampling error —
/// while keeping memory O(prefixes) instead of O(samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSample {
    /// Index of the destination prefix.
    pub prefix_idx: u32,
    /// Number of packets sampled in the interval.
    pub count: u64,
    /// Bytes represented after upscaling (`count × packet_bytes × N`).
    pub scaled_bytes: u64,
}

impl FlowSample {
    /// The rate these samples stand for when spread over `window_secs`,
    /// Mbps. Every sampled rate the controller reads is this expression.
    pub fn mbps_over(&self, window_secs: u64) -> f64 {
        bytes_to_mbps(self.scaled_bytes, window_secs)
    }
}

/// `bytes` spread over `window_secs`, Mbps.
pub(crate) fn bytes_to_mbps(bytes: u64, window_secs: u64) -> f64 {
    bytes as f64 * 8.0 / 1e6 / window_secs as f64
}

/// The sampling process for one collector.
#[derive(Debug)]
pub struct SflowSampler {
    cfg: SamplerConfig,
    rng: StdRng,
}

impl SflowSampler {
    /// Creates a sampler. Panics on a zero `sample_rate` or
    /// `packet_bytes`: either makes the Poisson mean infinite and every
    /// sample zero bytes, so the collector would read all-zero rates.
    pub fn new(cfg: SamplerConfig) -> Self {
        assert!(
            cfg.sample_rate >= 1 && cfg.packet_bytes >= 1,
            "sample_rate and packet_bytes must be at least 1"
        );
        SflowSampler {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Samples one prefix's traffic over `dt_secs` at true rate `mbps`.
    /// Returns the aggregated sample record, or `None` when no packet was
    /// sampled (common for small prefixes — they are invisible to the
    /// collector, exactly as in production).
    pub fn sample_prefix(
        &mut self,
        prefix_idx: u32,
        mbps: f64,
        dt_secs: f64,
    ) -> Option<FlowSample> {
        if mbps <= 0.0 || dt_secs <= 0.0 {
            return None;
        }
        let bytes = mbps * 1e6 / 8.0 * dt_secs;
        let packets = bytes / self.cfg.packet_bytes as f64;
        let lambda = packets / self.cfg.sample_rate as f64;
        let n = poisson(&mut self.rng, lambda);
        if n == 0 {
            return None;
        }
        let scaled = self.cfg.packet_bytes as u64 * self.cfg.sample_rate as u64;
        Some(FlowSample {
            prefix_idx,
            count: n,
            scaled_bytes: n * scaled,
        })
    }

    /// Samples a whole demand vector, one record per visible prefix.
    pub fn sample_all(
        &mut self,
        demand: impl IntoIterator<Item = (u32, f64)>,
        dt_secs: f64,
    ) -> Vec<FlowSample> {
        demand
            .into_iter()
            .filter_map(|(prefix_idx, mbps)| self.sample_prefix(prefix_idx, mbps, dt_secs))
            .collect()
    }
}

/// Poisson sampling: Knuth's product method for small λ, a rounded normal
/// approximation for large λ (error negligible at λ > 30 for our use).
fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Box–Muller normal approximation N(λ, λ).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (lambda + z * lambda.sqrt()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_yields_no_samples() {
        let mut s = SflowSampler::new(SamplerConfig::default());
        assert!(s.sample_prefix(0, 0.0, 60.0).is_none());
        assert!(s.sample_prefix(0, 10.0, 0.0).is_none());
    }

    #[test]
    fn sample_count_tracks_rate() {
        let mut s = SflowSampler::new(SamplerConfig::default());
        // 1000 Mbps for 60 s = 7.5 GB = 6.25M packets of 1200 B → λ = 6250.
        let n = s.sample_prefix(0, 1000.0, 60.0).unwrap().count as f64;
        assert!(
            (n - 6250.0).abs() < 500.0,
            "sample count {n} far from expectation 6250"
        );
    }

    #[test]
    fn upscaled_bytes_reconstruct_rate() {
        let cfg = SamplerConfig::default();
        let mut s = SflowSampler::new(cfg);
        let dt = 60.0;
        let true_mbps = 500.0;
        let sample = s.sample_prefix(0, true_mbps, dt).unwrap();
        let est_mbps = sample.scaled_bytes as f64 * 8.0 / dt / 1e6;
        let rel = (est_mbps - true_mbps).abs() / true_mbps;
        assert!(rel < 0.10, "estimate off by {:.1}%", rel * 100.0);
        assert_eq!(
            sample.scaled_bytes,
            sample.count * u64::from(cfg.packet_bytes) * u64::from(cfg.sample_rate)
        );
    }

    #[test]
    fn tiny_prefixes_are_often_invisible() {
        // 0.05 Mbps for 30 s ≈ 156 packets → λ ≈ 0.16: most intervals
        // export nothing, the real-world small-prefix blindness.
        let mut s = SflowSampler::new(SamplerConfig::default());
        let mut empty = 0;
        for _ in 0..100 {
            if s.sample_prefix(7, 0.05, 30.0).is_none() {
                empty += 1;
            }
        }
        assert!(empty > 70, "only {empty}/100 intervals were empty");
    }

    #[test]
    fn sample_all_keeps_per_prefix_records() {
        let mut s = SflowSampler::new(SamplerConfig::default());
        let samples = s.sample_all(vec![(1, 800.0), (2, 400.0)], 30.0);
        assert_eq!(samples.len(), 2);
        let one = samples.iter().find(|f| f.prefix_idx == 1).unwrap();
        let two = samples.iter().find(|f| f.prefix_idx == 2).unwrap();
        assert!(one.count > two.count, "heavier prefix samples more packets");
    }

    #[test]
    #[should_panic(expected = "must be at least 1")]
    fn zero_sample_rate_rejected() {
        SflowSampler::new(SamplerConfig {
            sample_rate: 0,
            ..SamplerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "must be at least 1")]
    fn zero_packet_bytes_rejected() {
        SflowSampler::new(SamplerConfig {
            packet_bytes: 0,
            ..SamplerConfig::default()
        });
    }

    #[test]
    fn determinism_per_seed() {
        let a = SflowSampler::new(SamplerConfig::default()).sample_prefix(0, 100.0, 30.0);
        let b = SflowSampler::new(SamplerConfig::default()).sample_prefix(0, 100.0, 30.0);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = StdRng::seed_from_u64(5);
        for lambda in [0.5, 5.0, 200.0] {
            let n = 3000;
            let mean: f64 = (0..n)
                .map(|_| poisson(&mut rng, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            let rel = (mean - lambda).abs() / lambda;
            assert!(rel < 0.12, "λ={lambda}: sample mean {mean}");
        }
    }
}
