//! The offered-demand model: what each prefix *actually* asks of each PoP
//! at each instant.
//!
//! Rate = (deployment average for the `(PoP, prefix)` pair)
//!      × (diurnal multiplier phased by the prefix's home region)
//!      × (slow multiplicative noise, deterministic in the seed).
//!
//! The noise term is a sum of two incommensurate sinusoids with
//! prefix-specific phases — smooth enough that 30-second controller cycles
//! see a quasi-static demand (as the paper assumes), but varied enough that
//! projections are never exactly right.

use ef_topology::{Deployment, PopId, Region};

use crate::diurnal::DiurnalCurve;

/// One prefix's offered demand at a PoP at some instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandPoint {
    /// Index into the deployment universe's prefix list.
    pub prefix_idx: u32,
    /// Offered rate, Mbps.
    pub mbps: f64,
}

/// Deterministic offered-demand generator over a deployment.
#[derive(Debug, Clone)]
pub struct DemandModel {
    curve: DiurnalCurve,
    /// Noise amplitude (0 disables noise).
    noise_amplitude: f64,
    /// Per-prefix home region, precomputed from the deployment.
    prefix_region: Vec<Region>,
    /// Per-prefix noise phases `(p1, p2)`, radians, derived from
    /// `(seed, prefix index)` once instead of once per prefix per epoch.
    noise_phase: Vec<(f64, f64)>,
}

impl DemandModel {
    /// Builds a model over `deployment` with default curve and ±10% noise.
    pub fn new(deployment: &Deployment, seed: u64) -> Self {
        Self::with_curve(deployment, seed, DiurnalCurve::default(), 0.10)
    }

    /// Builds a model with explicit curve and noise amplitude.
    pub(crate) fn with_curve(
        deployment: &Deployment,
        seed: u64,
        curve: DiurnalCurve,
        noise_amplitude: f64,
    ) -> Self {
        let prefix_region: Vec<Region> = deployment
            .universe
            .prefixes
            .iter()
            .map(|p| deployment.universe.origin_of(p).region)
            .collect();
        let noise_phase = (0..prefix_region.len() as u64)
            .map(|prefix_idx| {
                let phase = splitmix(seed ^ prefix_idx);
                (
                    (phase & 0xFFFF) as f64 / 65536.0 * std::f64::consts::TAU,
                    ((phase >> 16) & 0xFFFF) as f64 / 65536.0 * std::f64::consts::TAU,
                )
            })
            .collect();
        DemandModel {
            curve,
            noise_amplitude,
            prefix_region,
            noise_phase,
        }
    }

    /// Fills `table` with every universe prefix's rate multiplier at
    /// `utc_secs`, indexed by prefix index (the buffer is cleared first, so
    /// one can be reused across epochs). A multiplier does not depend on
    /// the PoP, so one table serves every PoP's [`Self::offered_into`]. It
    /// is a pure function of the model and `utc_secs`, so the engine fills
    /// the next epoch's table on a worker while the PoPs step this one.
    pub fn multipliers_into(&self, utc_secs: u64, table: &mut Vec<f64>) {
        // The time angles and the diurnal factor do not depend on the
        // prefix (the latter only on its region): compute them once.
        let angles = noise_angles(utc_secs);
        let mut diurnal = [0.0f64; Region::ALL.len()];
        for region in Region::ALL {
            diurnal[region as usize] = self.curve.multiplier_at_secs(utc_secs, region);
        }
        table.clear();
        table.extend(
            self.prefix_region
                .iter()
                .enumerate()
                .map(|(idx, region)| diurnal[*region as usize] * self.noise(idx, angles)),
        );
    }

    /// Fills `out` with the offered demand for every prefix served by
    /// `pop`, from a multiplier table [`Self::multipliers_into`] filled:
    /// one multiply per prefix. The buffer is cleared first, so one can be
    /// reused across epochs.
    pub fn offered_into(
        &self,
        deployment: &Deployment,
        pop: PopId,
        table: &[f64],
        out: &mut Vec<DemandPoint>,
    ) {
        out.clear();
        out.extend(deployment.pop(pop).served.iter().map(|s| DemandPoint {
            prefix_idx: s.prefix_idx,
            mbps: s.avg_mbps * table[s.prefix_idx as usize],
        }));
    }

    /// Offered demand for every prefix served by `pop` at `utc_secs`.
    pub fn offered(&self, deployment: &Deployment, pop: PopId, utc_secs: u64) -> Vec<DemandPoint> {
        let mut table = Vec::new();
        self.multipliers_into(utc_secs, &mut table);
        let mut out = Vec::new();
        self.offered_into(deployment, pop, &table, &mut out);
        out
    }

    /// Smooth multiplicative noise in `[1-a, 1+a]`, deterministic in
    /// `(seed, prefix)`, continuous in time (`angles` from
    /// [`noise_angles`]).
    fn noise(&self, prefix_idx: usize, (a1, a2): (f64, f64)) -> f64 {
        if self.noise_amplitude == 0.0 {
            return 1.0;
        }
        let (p1, p2) = self.noise_phase[prefix_idx];
        let s = 0.6 * (a1 + p1).sin() + 0.4 * (a2 + p2).sin();
        1.0 + self.noise_amplitude * s
    }
}

/// The two noise sinusoids' time angles at `utc_secs`. Periods of ~37 and
/// ~101 minutes: slow against 30 s cycles.
fn noise_angles(utc_secs: u64) -> (f64, f64) {
    let t = utc_secs as f64;
    (
        t / 2220.0 * std::f64::consts::TAU,
        t / 6060.0 * std::f64::consts::TAU,
    )
}

/// SplitMix64 — tiny, deterministic hash for phase derivation.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_topology::{generate, GenConfig};

    fn dep() -> Deployment {
        generate(&GenConfig::small(3))
    }

    #[test]
    fn offered_is_deterministic() {
        let d = dep();
        let m = DemandModel::new(&d, 42);
        let a = m.offered(&d, PopId(0), 3600);
        let b = m.offered(&d, PopId(0), 3600);
        assert_eq!(a, b);
    }

    /// The model as first written: every term re-derived per prefix per
    /// call. `offered` must reproduce it to the bit.
    fn reference_multiplier(
        d: &Deployment,
        curve: DiurnalCurve,
        seed: u64,
        amplitude: f64,
        prefix_idx: u32,
        utc_secs: u64,
    ) -> f64 {
        use std::f64::consts::TAU;
        let region = d
            .universe
            .origin_of(&d.universe.prefixes[prefix_idx as usize])
            .region;
        let diurnal = curve.multiplier_at_secs(utc_secs, region);
        if amplitude == 0.0 {
            return diurnal * 1.0;
        }
        let phase = splitmix(seed ^ u64::from(prefix_idx));
        let p1 = (phase & 0xFFFF) as f64 / 65536.0 * TAU;
        let p2 = ((phase >> 16) & 0xFFFF) as f64 / 65536.0 * TAU;
        let t = utc_secs as f64;
        let s = 0.6 * (t / 2220.0 * TAU + p1).sin() + 0.4 * (t / 6060.0 * TAU + p2).sin();
        diurnal * (1.0 + amplitude * s)
    }

    /// One prefix's multiplier, read out of a freshly filled table.
    fn multiplier(m: &DemandModel, prefix_idx: u32, utc_secs: u64) -> f64 {
        let mut table = Vec::new();
        m.multipliers_into(utc_secs, &mut table);
        table[prefix_idx as usize]
    }

    #[test]
    fn offered_is_bit_identical_to_per_prefix_derivation() {
        let d = dep();
        let curve = DiurnalCurve::default();
        for amplitude in [0.10, 0.0] {
            let m = DemandModel::with_curve(&d, 42, curve, amplitude);
            // One table and one demand buffer refilled at every `t`, as
            // the engine reuses them.
            let mut table = vec![f64::NAN; 3];
            let mut from_table = vec![
                DemandPoint {
                    prefix_idx: u32::MAX,
                    mbps: f64::NAN,
                };
                3
            ];
            for t in [0u64, 30, 3_600, 47_910, 86_370, 200_000] {
                m.multipliers_into(t, &mut table);
                assert_eq!(table.len(), d.universe.prefixes.len());
                for pop in &d.pops {
                    m.offered_into(&d, pop.id, &table, &mut from_table);
                    let offered = m.offered(&d, pop.id, t);
                    assert_eq!(from_table.len(), pop.served.len());
                    assert_eq!(offered.len(), pop.served.len());
                    for ((point, direct), s) in from_table.iter().zip(&offered).zip(&pop.served) {
                        assert_eq!(point.prefix_idx, s.prefix_idx);
                        assert_eq!(direct.prefix_idx, s.prefix_idx);
                        let reference = s.avg_mbps
                            * reference_multiplier(&d, curve, 42, amplitude, s.prefix_idx, t);
                        assert_eq!(point.mbps.to_bits(), direct.mbps.to_bits());
                        assert_eq!(point.mbps.to_bits(), reference.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn offered_covers_served_prefixes() {
        let d = dep();
        let m = DemandModel::new(&d, 42);
        let offered = m.offered(&d, PopId(1), 0);
        assert_eq!(offered.len(), d.pop(PopId(1)).served.len());
        assert!(offered.iter().all(|p| p.mbps > 0.0));
    }

    #[test]
    fn demand_rises_into_the_regional_peak() {
        let d = dep();
        // No noise: isolate the diurnal effect.
        let m = DemandModel::with_curve(&d, 1, DiurnalCurve::default(), 0.0);
        let pop = d
            .pops
            .iter()
            .find(|p| p.region == Region::Europe)
            .expect("an EU PoP exists");
        // For an EU-origin prefix the peak is 19:00 UTC, the trough 07:00.
        let eu_prefix = pop
            .served
            .iter()
            .map(|s| s.prefix_idx)
            .find(|pi| {
                d.universe
                    .origin_of(&d.universe.prefixes[*pi as usize])
                    .region
                    == Region::Europe
            })
            .expect("an EU prefix is served");
        let peak = multiplier(&m, eu_prefix, 19 * 3600);
        let trough = multiplier(&m, eu_prefix, 7 * 3600);
        assert!(peak / trough > 5.0, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn noise_is_bounded_and_smooth() {
        let d = dep();
        let m = DemandModel::new(&d, 9);
        let mut prev = None;
        for t in (0..7200).step_by(30) {
            let v = multiplier(&m, 0, t);
            if let Some(p) = prev {
                let rel: f64 = (v - p) / p;
                assert!(
                    rel.abs() < 0.25,
                    "30s demand step jumped {:.1}%",
                    rel * 100.0
                );
            }
            prev = Some(v);
        }
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let d = dep();
        let a = multiplier(&DemandModel::new(&d, 1), 5, 1234);
        let b = multiplier(&DemandModel::new(&d, 2), 5, 1234);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_noise_is_pure_diurnal() {
        let d = dep();
        let m = DemandModel::with_curve(&d, 1, DiurnalCurve::default(), 0.0);
        let region = d.universe.origin_of(&d.universe.prefixes[0]).region;
        let expect = DiurnalCurve::default().multiplier_at_secs(555, region);
        assert!((multiplier(&m, 0, 555) - expect).abs() < 1e-12);
    }
}
