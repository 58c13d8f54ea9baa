//! Preferred-vs-alternate path comparison (backs the §6 evaluation).
//!
//! Given the measurement digests and the BGP-preferred egress per prefix,
//! computes how much better (or worse) the best alternate path is than the
//! path BGP chose — the distribution the paper uses to argue that a
//! capacity-only controller leaves performance on the table for a small but
//! real tail of prefixes.

use std::collections::HashMap;

use serde::Serialize;

use ef_bgp::route::EgressId;

use crate::measurement::AltPathMeasurer;

/// Comparison result for one prefix at one PoP.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PathComparison {
    /// Destination prefix index.
    pub prefix_idx: u32,
    /// The BGP-preferred egress.
    pub preferred_egress: u32,
    /// Median RTT on the preferred path, ms.
    pub preferred_median_ms: f64,
    /// The best-performing alternate egress.
    pub best_alt_egress: u32,
    /// Median RTT on that alternate, ms.
    pub best_alt_median_ms: f64,
    /// `preferred − best_alt` (positive ⇒ an alternate is faster).
    pub improvement_ms: f64,
    /// Number of alternates measured.
    pub alternates: usize,
}

/// Compares every measured prefix against its preferred path.
///
/// `preferred` maps prefix index → the egress BGP chose. Prefixes with no
/// measured alternate (single-path) are skipped, as are prefixes whose
/// preferred path has no median. The best alternate is the lowest median,
/// the lowest egress among equal medians. Output is in prefix order.
pub fn compare_paths(
    measurer: &AltPathMeasurer,
    preferred: &HashMap<u32, EgressId>,
) -> Vec<PathComparison> {
    // The digests are in (prefix, egress) order: each prefix's paths are
    // one run, walked once.
    let mut medians = measurer
        .digests
        .iter()
        .filter_map(|(key, d)| d.median_rtt_ms().map(|m| (*key, m)))
        .peekable();
    let mut out = Vec::new();
    while let Some(&(first, _)) = medians.peek() {
        let prefix_idx = first.prefix_idx;
        let pref_egress = preferred.get(&prefix_idx).copied();
        let mut pref_median = None;
        let mut best: Option<(EgressId, f64)> = None;
        let mut alternates = 0;
        while let Some((key, m)) = medians.next_if(|(key, _)| key.prefix_idx == prefix_idx) {
            if Some(key.egress) == pref_egress {
                pref_median = Some(m);
                continue;
            }
            alternates += 1;
            if best.is_none_or(|(_, best_m)| m.total_cmp(&best_m).is_lt()) {
                best = Some((key.egress, m));
            }
        }
        let (Some(pref_egress), Some(pref_median), Some((best_egress, best_median))) =
            (pref_egress, pref_median, best)
        else {
            continue;
        };
        out.push(PathComparison {
            prefix_idx,
            preferred_egress: pref_egress.0,
            preferred_median_ms: pref_median,
            best_alt_egress: best_egress.0,
            best_alt_median_ms: best_median,
            improvement_ms: pref_median - best_median,
            alternates,
        });
    }
    out
}

/// Summary statistics over a comparison set, for experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonSummary {
    /// Number of prefixes compared.
    pub prefixes: usize,
    /// Fraction whose preferred path is within 3 ms of the best alternate
    /// (the "BGP is fine" mass).
    pub frac_equivalent: f64,
    /// Fraction where some alternate is ≥ 20 ms faster (the §6 tail).
    pub frac_alt_wins_20ms: f64,
    /// Fraction where the preferred path is ≥ 20 ms faster (alternates are
    /// much worse — detours would hurt).
    pub frac_pref_wins_20ms: f64,
    /// Median improvement across prefixes, ms.
    pub median_improvement_ms: f64,
}

/// Builds the summary.
pub fn summarize(comparisons: &[PathComparison]) -> ComparisonSummary {
    let n = comparisons.len();
    if n == 0 {
        return ComparisonSummary {
            prefixes: 0,
            frac_equivalent: 0.0,
            frac_alt_wins_20ms: 0.0,
            frac_pref_wins_20ms: 0.0,
            median_improvement_ms: 0.0,
        };
    }
    let mut diffs: Vec<f64> = comparisons.iter().map(|c| c.improvement_ms).collect();
    diffs.sort_by(|a, b| a.total_cmp(b));
    ComparisonSummary {
        prefixes: n,
        frac_equivalent: comparisons
            .iter()
            .filter(|c| c.improvement_ms.abs() <= 3.0)
            .count() as f64
            / n as f64,
        frac_alt_wins_20ms: comparisons
            .iter()
            .filter(|c| c.improvement_ms >= 20.0)
            .count() as f64
            / n as f64,
        frac_pref_wins_20ms: comparisons
            .iter()
            .filter(|c| c.improvement_ms <= -20.0)
            .count() as f64
            / n as f64,
        median_improvement_ms: diffs[n / 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{AltPathMeasurer, CandidatePath, PathDigest, PathKey};
    use crate::rtt::{PathPerfModel, PerfConfig};
    use ef_bgp::peer::PeerKind;
    use proptest::prelude::*;

    fn run_measurement(prefixes: u32) -> (AltPathMeasurer, HashMap<u32, EgressId>) {
        let model = PathPerfModel::new(PerfConfig::default());
        let mut m = AltPathMeasurer::new(0);
        let entries: Vec<(u32, f64, Vec<CandidatePath>)> = (0..prefixes)
            .map(|p| {
                (
                    p,
                    500.0,
                    vec![
                        CandidatePath {
                            egress: EgressId(1),
                            kind: PeerKind::PrivatePeer,
                        },
                        CandidatePath {
                            egress: EgressId(2),
                            kind: PeerKind::Transit,
                        },
                    ],
                )
            })
            .collect();
        for _ in 0..20 {
            m.collect_epoch(&model, &entries, &HashMap::new());
        }
        let preferred: HashMap<u32, EgressId> = (0..prefixes).map(|p| (p, EgressId(1))).collect();
        (m, preferred)
    }

    #[test]
    fn comparisons_cover_measured_prefixes() {
        let (m, preferred) = run_measurement(50);
        let cmp = compare_paths(&m, &preferred);
        assert_eq!(cmp.len(), 50);
        for c in &cmp {
            assert_eq!(c.preferred_egress, 1);
            assert_eq!(c.best_alt_egress, 2);
            assert_eq!(c.alternates, 1);
            assert!(
                (c.improvement_ms - (c.preferred_median_ms - c.best_alt_median_ms)).abs() < 1e-9
            );
        }
    }

    #[test]
    fn most_prefixes_prefer_bgp_choice_but_a_tail_does_not() {
        let (m, preferred) = run_measurement(800);
        let cmp = compare_paths(&m, &preferred);
        let summary = summarize(&cmp);
        // The peer path usually wins (median improvement negative), but the
        // engineered ~5% fast-transit tail shows up.
        assert!(summary.median_improvement_ms < 0.0);
        assert!(
            (0.01..0.15).contains(&summary.frac_alt_wins_20ms),
            "tail fraction {}",
            summary.frac_alt_wins_20ms
        );
    }

    #[test]
    fn unmeasured_preferred_path_is_skipped() {
        let (m, _) = run_measurement(5);
        // Claim a preferred egress that was never measured.
        let preferred: HashMap<u32, EgressId> = (0..5).map(|p| (p, EgressId(99))).collect();
        assert!(compare_paths(&m, &preferred).is_empty());
    }

    /// The map-and-sort implementation the walk replaced, kept as its
    /// oracle: group the digests with a median by prefix, pick each
    /// group's fastest alternate with `min_by` (first wins among equal
    /// medians, in egress order), then sort by prefix.
    fn reference(
        measurer: &AltPathMeasurer,
        preferred: &HashMap<u32, EgressId>,
    ) -> Vec<PathComparison> {
        let mut report = measurer.report();
        report.sort_by_key(|d| (d.key.prefix_idx, d.key.egress));
        let mut by_prefix: HashMap<u32, Vec<(&PathDigest, f64)>> = HashMap::new();
        for d in report {
            if let Some(m) = d.median_rtt_ms() {
                by_prefix.entry(d.key.prefix_idx).or_default().push((d, m));
            }
        }
        let mut out = Vec::new();
        for (prefix_idx, digests) in by_prefix {
            let Some(&pref_egress) = preferred.get(&prefix_idx) else {
                continue;
            };
            let Some(&(_, pref_median)) = digests.iter().find(|(d, _)| d.key.egress == pref_egress)
            else {
                continue;
            };
            let alts: Vec<&(&PathDigest, f64)> = digests
                .iter()
                .filter(|(d, _)| d.key.egress != pref_egress)
                .collect();
            let Some((best, best_median)) = alts
                .iter()
                .map(|(d, m)| (*d, *m))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                continue;
            };
            out.push(PathComparison {
                prefix_idx,
                preferred_egress: pref_egress.0,
                preferred_median_ms: pref_median,
                best_alt_egress: best.key.egress.0,
                best_alt_median_ms: best_median,
                improvement_ms: pref_median - best_median,
                alternates: alts.len(),
            });
        }
        out.sort_by_key(|c| c.prefix_idx);
        out
    }

    proptest! {
        /// Random measurers: medians from four values (so alternates tie),
        /// digests with no median, single-path prefixes, and preferred
        /// egresses that are unmeasured or absent.
        #[test]
        fn prop_walk_equals_map_and_sort(
            paths in proptest::collection::vec(
                (0u32..12, 0u32..5, proptest::option::of(1u8..5)),
                0..48,
            ),
            preferred in proptest::collection::hash_map(0u32..14, 0u32..6, 0..14),
        ) {
            let mut m = AltPathMeasurer::new(0);
            for (prefix_idx, egress, median) in paths {
                let rtts: Vec<f64> = median.map(|k| vec![10.0 * f64::from(k)]).unwrap_or_default();
                m.set_digest(PathKey { prefix_idx, egress: EgressId(egress) }, &rtts);
            }
            let preferred: HashMap<u32, EgressId> =
                preferred.into_iter().map(|(p, e)| (p, EgressId(e))).collect();
            let report = m.report();
            prop_assert!(report.windows(2).all(|w| w[0].key < w[1].key));
            prop_assert_eq!(compare_paths(&m, &preferred), reference(&m, &preferred));
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[]);
        assert_eq!(s.prefixes, 0);
        assert_eq!(s.median_improvement_ms, 0.0);
    }
}
