//! Alternate-path measurement (paper §6.1).
//!
//! Production Edge Fabric marks a random sliver of flows with DSCP values
//! that policy routing pins to each *alternate* route, so servers measure
//! every available path with live traffic while >99 % of users stay on the
//! BGP-selected path. The simulator reproduces the pipeline: per epoch,
//! each `(prefix, route)` pair receives a number of measurement samples
//! proportional to the sliced traffic, each sample drawn from the latent
//! [`rtt::PathPerfModel`](crate::rtt::PathPerfModel) — sampled at the *alternate path's*
//! current utilization, digested by a P² median estimator.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;

use crate::quantile::P2Quantile;
use crate::rtt::PathPerfModel;

/// Identifies one measured path: a prefix via an egress interface. Keys
/// order by prefix, then egress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathKey {
    /// Destination prefix index.
    pub prefix_idx: u32,
    /// Egress interface.
    pub egress: EgressId,
}

/// Fraction of a prefix's flows sliced onto *each* alternate path. The
/// paper uses ~0.5 %; the sliver must stay small enough not to shift load
/// noticeably.
const SLICE_FRACTION: f64 = 0.005;

/// Measurement samples generated per sliced Mbps per epoch (flows are the
/// sampling unit in production; this scales sample volume).
const SAMPLES_PER_MBPS: f64 = 0.5;

/// Cap on samples per path per epoch (collector budget).
const MAX_SAMPLES_PER_PATH: usize = 64;

/// RNG seed for sample draws, mixed with the PoP id.
const SEED: u64 = 77;

/// Accumulated digest for one path.
#[derive(Debug, Clone)]
pub struct PathDigest {
    /// Path identity.
    pub key: PathKey,
    /// Interconnect kind of the egress.
    pub kind: PeerKind,
    /// Streaming median of experienced RTT.
    median: P2Quantile,
}

impl PathDigest {
    /// Median RTT estimate (ms), if any samples arrived.
    pub(crate) fn median_rtt_ms(&self) -> Option<f64> {
        self.median.estimate()
    }

    /// Number of samples digested.
    pub fn samples(&self) -> usize {
        self.median.count()
    }
}

/// One candidate path for measurement, as presented by the controller.
#[derive(Debug, Clone, Copy)]
pub struct CandidatePath {
    /// Egress interface of this route.
    pub egress: EgressId,
    /// Interconnect kind.
    pub kind: PeerKind,
}

/// The per-PoP alternate-path measurement subsystem.
#[derive(Debug)]
pub struct AltPathMeasurer {
    pop: u16,
    /// In key order, so one prefix's paths are adjacent and in egress
    /// order.
    pub(crate) digests: BTreeMap<PathKey, PathDigest>,
    rng: StdRng,
}

impl AltPathMeasurer {
    /// Creates a measurer for one PoP.
    pub fn new(pop: u16) -> Self {
        AltPathMeasurer {
            rng: StdRng::seed_from_u64(SEED ^ ((pop as u64) << 32)),
            pop,
            digests: BTreeMap::new(),
        }
    }

    /// Runs one epoch of measurement.
    ///
    /// `entries` lists, per prefix: its current demand and every candidate
    /// route (preferred first is conventional but not required — every
    /// listed path is measured). `utilization` maps egress interfaces to
    /// their current load factor so congestion shows up in the samples.
    pub fn collect_epoch(
        &mut self,
        model: &PathPerfModel,
        entries: &[(u32, f64, Vec<CandidatePath>)],
        utilization: &HashMap<EgressId, f64>,
    ) {
        for (prefix_idx, demand_mbps, paths) in entries {
            let sliced = demand_mbps * SLICE_FRACTION;
            let n = ((sliced * SAMPLES_PER_MBPS).ceil() as usize).clamp(1, MAX_SAMPLES_PER_PATH);
            for path in paths {
                let key = PathKey {
                    prefix_idx: *prefix_idx,
                    egress: path.egress,
                };
                let base = model.base_rtt_ms(self.pop, *prefix_idx, path.egress, path.kind);
                let util = utilization.get(&path.egress).copied().unwrap_or(0.0);
                let digest = self.digests.entry(key).or_insert_with(|| PathDigest {
                    key,
                    kind: path.kind,
                    median: P2Quantile::median(),
                });
                for _ in 0..n {
                    let rtt = model.sample_rtt_ms(base, util, &mut self.rng);
                    digest.median.observe(rtt);
                }
            }
        }
    }

    /// Every prefix with at least one digest, ascending.
    pub fn measured_prefixes(&self) -> impl Iterator<Item = u32> + '_ {
        let mut last = None;
        self.digests.keys().filter_map(move |key| {
            let fresh = last != Some(key.prefix_idx);
            last = Some(key.prefix_idx);
            fresh.then_some(key.prefix_idx)
        })
    }

    /// Every digest, sorted by `(prefix, egress)` for deterministic output.
    pub fn report(&self) -> Vec<&PathDigest> {
        self.digests.values().collect()
    }

    /// Drops all state (e.g. at a day boundary).
    pub fn reset(&mut self) {
        self.digests.clear();
    }
}

#[cfg(test)]
impl AltPathMeasurer {
    /// Makes `key`'s digest one that has seen exactly `rtts`, for tests
    /// that need medians no model draws: ties, and digests with none.
    pub(crate) fn set_digest(&mut self, key: PathKey, rtts: &[f64]) {
        let mut median = P2Quantile::median();
        for &rtt in rtts {
            median.observe(rtt);
        }
        self.digests.insert(
            key,
            PathDigest {
                key,
                kind: PeerKind::Transit,
                median,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::PerfConfig;

    fn model() -> PathPerfModel {
        PathPerfModel::new(PerfConfig::default())
    }

    /// The digest of one measured path, looked up in the report.
    fn digest(m: &AltPathMeasurer, prefix_idx: u32, egress: EgressId) -> Option<&PathDigest> {
        let key = PathKey { prefix_idx, egress };
        m.report().into_iter().find(|d| d.key == key)
    }

    fn paths() -> Vec<CandidatePath> {
        vec![
            CandidatePath {
                egress: EgressId(1),
                kind: PeerKind::PrivatePeer,
            },
            CandidatePath {
                egress: EgressId(2),
                kind: PeerKind::Transit,
            },
        ]
    }

    #[test]
    fn every_candidate_path_gets_measured() {
        let mut m = AltPathMeasurer::new(0);
        let entries = vec![(7u32, 1000.0, paths())];
        m.collect_epoch(&model(), &entries, &HashMap::new());
        assert_eq!(m.report().len(), 2, "both paths of the one prefix");
        assert!(digest(&m, 7, EgressId(1)).is_some());
        assert_eq!(m.measured_prefixes().collect::<Vec<_>>(), vec![7]);
        // A prefix offered with no candidate path leaves no digest.
        m.collect_epoch(&model(), &[(8u32, 1000.0, Vec::new())], &HashMap::new());
        assert_eq!(m.measured_prefixes().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn medians_converge_to_latent_base() {
        let mdl = model();
        let mut m = AltPathMeasurer::new(0);
        let entries = vec![(7u32, 1000.0, paths())];
        for _ in 0..50 {
            m.collect_epoch(&mdl, &entries, &HashMap::new());
        }
        let d = digest(&m, 7, EgressId(1)).unwrap();
        let base = mdl.base_rtt_ms(0, 7, EgressId(1), PeerKind::PrivatePeer);
        let med = d.median_rtt_ms().unwrap();
        assert!(
            (med - base).abs() < 3.0,
            "median {med} should track base {base}"
        );
        assert!(d.samples() >= 50);
    }

    #[test]
    fn congested_paths_measure_slower() {
        let mdl = model();
        let mut m = AltPathMeasurer::new(0);
        let entries = vec![(7u32, 1000.0, paths())];
        let mut util = HashMap::new();
        util.insert(EgressId(1), 1.2); // preferred path overloaded
        for _ in 0..30 {
            m.collect_epoch(&mdl, &entries, &util);
        }
        let hot = digest(&m, 7, EgressId(1)).unwrap().median_rtt_ms().unwrap();
        let base = mdl.base_rtt_ms(0, 7, EgressId(1), PeerKind::PrivatePeer);
        assert!(
            hot > base + 40.0,
            "congestion visible: {hot} vs base {base}"
        );
    }

    #[test]
    fn sample_budget_scales_with_demand_but_is_capped() {
        let mdl = model();
        let mut small = AltPathMeasurer::new(0);
        small.collect_epoch(&mdl, &[(1u32, 1.0, paths())], &HashMap::new());
        let small_n = small.report()[0].samples();

        let mut big = AltPathMeasurer::new(0);
        big.collect_epoch(&mdl, &[(1u32, 100_000.0, paths())], &HashMap::new());
        let big_n = big.report()[0].samples();

        assert!(small_n >= 1);
        assert!(big_n > small_n);
        assert!(big_n <= MAX_SAMPLES_PER_PATH);
    }

    #[test]
    fn report_is_sorted_and_reset_clears() {
        let mdl = model();
        let mut m = AltPathMeasurer::new(0);
        let entries = vec![(9u32, 10.0, paths()), (3u32, 10.0, paths())];
        m.collect_epoch(&mdl, &entries, &HashMap::new());
        let keys: Vec<(u32, u32)> = m
            .report()
            .iter()
            .map(|d| (d.key.prefix_idx, d.key.egress.0))
            .collect();
        assert_eq!(keys, vec![(3, 1), (3, 2), (9, 1), (9, 2)]);
        assert_eq!(m.measured_prefixes().collect::<Vec<_>>(), vec![3, 9]);
        m.reset();
        assert!(m.report().is_empty());
        assert_eq!(m.measured_prefixes().count(), 0);
    }
}
