//! The P² (Piecewise-Parabolic) streaming quantile estimator
//! (Jain & Chlamtac, 1985).
//!
//! Measurement collectors digest millions of RTT samples per PoP; storing
//! them is out of the question. P² maintains five markers and estimates any
//! single quantile in O(1) memory with no allocation per sample — the same
//! trade production telemetry pipelines make.

/// Streaming estimator for one quantile `p` (e.g. 0.5 for the median).
#[derive(Debug, Clone)]
pub(crate) struct P2Quantile {
    p: f64,
    /// Marker heights (estimates at the marker positions).
    q: [f64; 5],
    /// Marker positions (1-based sample ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    count: usize,
    /// First five samples before the estimator initializes.
    boot: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for quantile `p ∈ (0, 1)`.
    pub(crate) fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile {p} out of (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            boot: [0.0; 5],
        }
    }

    /// Convenience: a median estimator.
    pub(crate) fn median() -> Self {
        Self::new(0.5)
    }

    /// Number of samples observed.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Feeds one sample.
    pub(crate) fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.boot[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.boot.sort_by(|a, b| a.total_cmp(b));
                self.q = self.boot;
            }
            return;
        }
        self.count += 1;

        // Find the cell k containing x, adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate of the quantile. For fewer than five samples,
    /// returns the exact empirical quantile of what has been seen (or
    /// `None` for zero samples).
    pub(crate) fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                let mut v = self.boot[..c].to_vec();
                v.sort_by(|a, b| a.total_cmp(b));
                let idx = ((c as f64 - 1.0) * self.p).round() as usize;
                Some(v[idx])
            }
            _ => Some(self.q[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(mut v: Vec<f64>, p: f64) -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[((v.len() as f64 - 1.0) * p).round() as usize]
    }

    #[test]
    fn empty_has_no_estimate() {
        assert_eq!(P2Quantile::median().estimate(), None);
    }

    #[test]
    fn small_samples_are_exact() {
        let mut q = P2Quantile::median();
        for x in [3.0, 1.0, 2.0] {
            q.observe(x);
        }
        assert_eq!(q.estimate(), Some(2.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn median_of_uniform_converges() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = P2Quantile::median();
        for _ in 0..50_000 {
            q.observe(rng.gen_range(0.0..100.0));
        }
        let est = q.estimate().unwrap();
        assert!((est - 50.0).abs() < 2.0, "median estimate {est}");
    }

    #[test]
    fn p90_of_exponential_converges() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = P2Quantile::new(0.9);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x: f64 = -rng.gen::<f64>().ln() * 10.0;
            q.observe(x);
            all.push(x);
        }
        let est = q.estimate().unwrap();
        let exact = exact_quantile(all, 0.9);
        assert!(
            (est - exact).abs() / exact < 0.05,
            "p90 {est} vs exact {exact}"
        );
    }

    #[test]
    fn bimodal_distribution_median() {
        // RTT-like: a 20 ms mode and a 70 ms mode, 70/30 split.
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = P2Quantile::median();
        for _ in 0..30_000 {
            let x = if rng.gen_bool(0.7) {
                20.0 + rng.gen_range(-3.0..3.0)
            } else {
                70.0 + rng.gen_range(-5.0..5.0)
            };
            q.observe(x);
        }
        let est = q.estimate().unwrap();
        assert!(
            (15.0..30.0).contains(&est),
            "median in the heavy mode: {est}"
        );
    }

    #[test]
    fn constant_stream() {
        let mut q = P2Quantile::median();
        for _ in 0..100 {
            q.observe(42.0);
        }
        assert_eq!(q.estimate(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "out of (0,1)")]
    fn quantile_must_be_interior() {
        P2Quantile::new(1.0);
    }

    proptest! {
        /// The estimate always lies within the observed range.
        #[test]
        fn prop_estimate_within_range(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..400),
            p in 0.05f64..0.95,
        ) {
            let mut q = P2Quantile::new(p);
            for x in &xs {
                q.observe(*x);
            }
            let est = q.estimate().unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }

        /// On large uniform streams the error stays small.
        #[test]
        fn prop_uniform_accuracy(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = P2Quantile::median();
            for _ in 0..5_000 {
                q.observe(rng.gen_range(0.0..1.0));
            }
            let est = q.estimate().unwrap();
            prop_assert!((est - 0.5).abs() < 0.08, "median {est}");
        }
    }
}
