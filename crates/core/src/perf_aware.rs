//! Performance-aware overrides (paper §6.2).
//!
//! The capacity controller only reacts to congestion; §6 closes the loop on
//! *latency*: alternate-path measurements (see `ef-perf`) reveal the small
//! tail of prefixes whose BGP-preferred path is substantially slower than
//! an available alternate, and this module turns those findings into
//! [`Override`]s with [`OverrideReason::Performance`]. The capacity
//! allocator treats them as prior intents: it charges their demand to
//! their targets and never re-steers those prefixes for capacity.
//!
//! Guardrails follow the paper's caution: only act on comparisons with
//! enough samples, only when the improvement clears a threshold (20 ms —
//! large enough to matter, far above measurement noise), and only onto
//! alternates that actually exist in the current route table.

use std::collections::HashMap;

use ef_bgp::route::EgressId;
use ef_net_types::Prefix;

use crate::collector::RouteCollector;
use crate::overrides::{Override, OverrideReason, OverrideSet};

/// Minimum median improvement (ms) before a prefix is steered.
const IMPROVEMENT_THRESHOLD_MS: f64 = 20.0;

/// Minimum measurement samples on both paths.
pub const MIN_SAMPLES: usize = 30;

/// One measured comparison, already mapped into controller vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredComparison {
    /// The prefix.
    pub prefix: Prefix,
    /// The fastest measured alternate.
    pub best_alt: EgressId,
    /// Median RTT improvement of the alternate, ms (positive = faster).
    pub improvement_ms: f64,
    /// Samples behind the weaker of the two medians.
    pub samples: usize,
}

/// Builds the performance override set from measurement comparisons.
///
/// Comparisons that fail the guardrails — too little improvement, too few
/// samples, an alternate that no longer exists in `routes` — are skipped.
pub fn build_perf_overrides(
    routes: &RouteCollector,
    comparisons: impl IntoIterator<Item = MeasuredComparison>,
) -> OverrideSet {
    let mut set = OverrideSet::new();
    let eligible = comparisons
        .into_iter()
        .filter(|c| c.improvement_ms >= IMPROVEMENT_THRESHOLD_MS && c.samples >= MIN_SAMPLES)
        .filter_map(|c| {
            // The alternate must still be a live, organic route.
            routes
                .candidates(&c.prefix)
                .iter()
                .find(|r| !r.is_override() && r.egress == c.best_alt)
                .map(|r| (c, r.source.kind))
        });
    for (c, kind) in eligible {
        set.insert(Override {
            prefix: c.prefix,
            target: c.best_alt,
            target_kind: kind,
            reason: OverrideReason::Performance,
            moved_mbps: 0.0, // charged by the allocator from live traffic
        });
    }
    set
}

/// Convenience: adapts `ef-perf` [`PathComparison`](ef_perf::compare::PathComparison)s (keyed by prefix
/// index) into [`MeasuredComparison`]s using an index→prefix mapping.
pub fn adapt_comparisons<'a>(
    comparisons: &'a [ef_perf::compare::PathComparison],
    index_to_prefix: &'a HashMap<u32, Prefix>,
    samples: usize,
) -> impl Iterator<Item = MeasuredComparison> + 'a {
    comparisons.iter().filter_map(move |c| {
        index_to_prefix
            .get(&c.prefix_idx)
            .map(|prefix| MeasuredComparison {
                prefix: *prefix,
                best_alt: EgressId(c.best_alt_egress),
                improvement_ms: c.improvement_ms,
                samples,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::bmp::{BmpMessage, BmpPeerHeader};
    use ef_bgp::message::UpdateMessage;
    use ef_bgp::peer::{PeerId, PeerKind};
    use ef_net_types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn collector_with(prefixes: &[&str]) -> RouteCollector {
        let mut c = RouteCollector::new(HashMap::from([
            (PeerId(1), EgressId(1)),
            (PeerId(2), EgressId(2)),
        ]));
        for prefix in prefixes {
            for (peer, asn, kind) in [
                (1u64, 65001u32, PeerKind::PrivatePeer),
                (2, 65010, PeerKind::Transit),
            ] {
                let mut attrs = PathAttributes {
                    local_pref: Some(kind.default_local_pref()),
                    as_path: AsPath::sequence([Asn(asn)]),
                    ..Default::default()
                };
                attrs.add_community(kind.tag_community());
                c.ingest([BmpMessage::RouteMonitoring {
                    peer: BmpPeerHeader {
                        peer: PeerId(peer),
                        peer_asn: Asn(asn),
                        peer_bgp_id: "10.0.0.1".parse().unwrap(),
                        timestamp_ms: 0,
                    },
                    update: UpdateMessage::announce(p(prefix), attrs),
                }]);
            }
        }
        c
    }

    fn cmp(prefix: &str, improvement: f64, samples: usize) -> MeasuredComparison {
        MeasuredComparison {
            prefix: p(prefix),
            best_alt: EgressId(2),
            improvement_ms: improvement,
            samples,
        }
    }

    #[test]
    fn clears_threshold_and_builds_override() {
        let routes = collector_with(&["1.0.0.0/24"]);
        let set = build_perf_overrides(&routes, [cmp("1.0.0.0/24", 35.0, 100)]);
        assert_eq!(set.len(), 1);
        let o = set.get(&p("1.0.0.0/24")).unwrap();
        assert_eq!(o.target, EgressId(2));
        assert_eq!(o.target_kind, PeerKind::Transit);
        assert_eq!(o.reason, OverrideReason::Performance);
    }

    #[test]
    fn below_threshold_is_ignored() {
        let routes = collector_with(&["1.0.0.0/24"]);
        let set = build_perf_overrides(&routes, [cmp("1.0.0.0/24", 19.9, 100)]);
        assert!(set.is_empty());
    }

    #[test]
    fn too_few_samples_is_ignored() {
        let routes = collector_with(&["1.0.0.0/24"]);
        let set = build_perf_overrides(&routes, [cmp("1.0.0.0/24", 50.0, 5)]);
        assert!(set.is_empty());
    }

    #[test]
    fn stale_alternate_is_ignored() {
        // Comparison names egress 7, which no live route uses.
        let routes = collector_with(&["1.0.0.0/24"]);
        let mut c = cmp("1.0.0.0/24", 50.0, 100);
        c.best_alt = EgressId(7);
        let set = build_perf_overrides(&routes, [c]);
        assert!(set.is_empty());
    }

    #[test]
    fn adapt_maps_indices_to_prefixes() {
        let comparisons = vec![ef_perf::compare::PathComparison {
            prefix_idx: 7,
            preferred_egress: 1,
            preferred_median_ms: 50.0,
            best_alt_egress: 2,
            best_alt_median_ms: 20.0,
            improvement_ms: 30.0,
            alternates: 1,
        }];
        let map = HashMap::from([(7u32, p("9.9.9.0/24"))]);
        let adapted: Vec<MeasuredComparison> = adapt_comparisons(&comparisons, &map, 64).collect();
        assert_eq!(adapted.len(), 1);
        assert_eq!(adapted[0].prefix, p("9.9.9.0/24"));
        assert_eq!(adapted[0].improvement_ms, 30.0);
        // Unmapped indices vanish.
        let empty: Vec<MeasuredComparison> =
            adapt_comparisons(&comparisons, &HashMap::new(), 64).collect();
        assert!(empty.is_empty());
    }
}
