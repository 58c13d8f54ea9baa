//! Benchmark-owned arithmetic: exact percentiles, the simulation digest's
//! hash and a seeded shuffle. None of the program's own quantile
//! routines are used, so collapsing them cannot move a benchmark number.

/// Exact nearest-rank percentile: the smallest sample with at least
/// `pct` % of the samples at or below it. `pct` in (0, 100].
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the mean of the two middle samples for even counts —
/// used for set-up repetitions, where there are three to five samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a, 64 bit. Floats go in by `to_bits`, so two digests agree only
/// when every recorded number is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's only random source (key shuffles).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // 96 % of 20 is 19.2 → rank 20.
        assert_eq!(percentile(&v, 96.0), 20.0);
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_one_sample() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.5], 95.0), 7.5);
        assert_eq!(percentile(&[2.0, 2.0, 2.0, 9.0], 75.0), 2.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.hex(), "cbf29ce484222325");
        h.bytes(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.hex(), "85944171f73967e8");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<u32>>());
    }
}
