//! Canonical ordering of a PoP's demand for the controller's traffic table.
//!
//! The controller reads demand in canonical [`Prefix`] order (float sums
//! are accumulated in that order; see `edge_fabric::state::TrafficView`),
//! but demand arrives in `Pop::served` order and estimator rates in hash
//! order. A PoP's served prefixes are a fixed list, so the order is worked
//! out once and each epoch's [`TrafficTable`] is one linear gather.

use edge_fabric::state::TrafficTable;
use ef_net_types::Prefix;
use ef_traffic::demand::DemandPoint;

/// Sort state behind [`PopRuntime`](crate::runtime::PopRuntime)'s
/// per-epoch traffic table.
#[derive(Debug, Default)]
pub(crate) struct TrafficOrder {
    /// `prefix_idx` of every point of the demand slice `perm` was sorted
    /// for, in slice order.
    layout: Vec<u32>,
    /// Positions into a demand slice with that layout, in canonical prefix
    /// order.
    perm: Vec<u32>,
    /// Universe index → rank in canonical prefix order, for the sampled
    /// arm; built on its first use.
    rank: Vec<u32>,
    /// The sampled arm's `(prefix index, Mbps)` sort scratch.
    visible: Vec<(u32, f64)>,
}

impl TrafficOrder {
    /// Makes `perm` valid for `demand`: a no-op while `demand` lists the
    /// same prefix indices in the same positions as last time (one compare
    /// pass), a re-sort otherwise. Returns whether it re-sorted.
    fn sync_layout(&mut self, prefix_of: &[Prefix], demand: &[DemandPoint]) -> bool {
        let same_layout = demand.len() == self.layout.len()
            && demand
                .iter()
                .zip(&self.layout)
                .all(|(point, &idx)| point.prefix_idx == idx);
        if same_layout {
            return false;
        }
        self.layout.clear();
        self.layout.extend(demand.iter().map(|d| d.prefix_idx));
        self.perm.clear();
        self.perm.extend(0..demand.len() as u32);
        let layout = &self.layout;
        self.perm
            .sort_unstable_by_key(|&pos| prefix_of[layout[pos as usize] as usize]);
        true
    }

    /// Refills `table` from exact per-prefix `demand`, each rate scaled by
    /// `keep`.
    pub(crate) fn fill_exact(
        &mut self,
        prefix_of: &[Prefix],
        demand: &[DemandPoint],
        keep: f64,
        table: &mut TrafficTable,
    ) {
        self.sync_layout(prefix_of, demand);
        table.refill(self.perm.iter().map(|&pos| {
            let point = &demand[pos as usize];
            (prefix_of[point.prefix_idx as usize], point.mbps * keep)
        }));
    }

    /// Refills `table` from the estimator's `(prefix index, Mbps)` rates
    /// (any order, one entry per index), each scaled by `keep`. Only the
    /// visible prefixes are sorted, by a `u32` rank instead of by `Prefix`.
    pub(crate) fn fill_sampled(
        &mut self,
        prefix_of: &[Prefix],
        rates: impl IntoIterator<Item = (u32, f64)>,
        keep: f64,
        table: &mut TrafficTable,
    ) {
        if self.rank.len() != prefix_of.len() {
            let mut by_prefix: Vec<u32> = (0..prefix_of.len() as u32).collect();
            by_prefix.sort_unstable_by_key(|&idx| prefix_of[idx as usize]);
            self.rank.clear();
            self.rank.resize(prefix_of.len(), 0);
            for (rank, &idx) in by_prefix.iter().enumerate() {
                self.rank[idx as usize] = rank as u32;
            }
        }
        self.visible.clear();
        self.visible.extend(rates);
        let rank = &self.rank;
        self.visible
            .sort_unstable_by_key(|&(idx, _)| rank[idx as usize]);
        table.refill(
            self.visible
                .iter()
                .map(|&(idx, mbps)| (prefix_of[idx as usize], mbps * keep)),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// A universe whose index order is not prefix order: v6 /48s interleave
    /// v4 /24s, and the v4 addresses descend.
    fn universe() -> Vec<Prefix> {
        (0..12u32)
            .map(|i| {
                if i.is_multiple_of(2) {
                    Prefix::V6 {
                        addr: (0x2001_0db8_u128 << 96) | (u128::from(i) << 80),
                        len: 48,
                    }
                } else {
                    Prefix::V4 {
                        addr: 0x0a00_0000 + (100 - i) * 256,
                        len: 24,
                    }
                }
            })
            .collect()
    }

    fn demand(indices: &[u32]) -> Vec<DemandPoint> {
        indices
            .iter()
            .map(|&prefix_idx| DemandPoint {
                prefix_idx,
                mbps: 10.0 + f64::from(prefix_idx),
            })
            .collect()
    }

    /// What the table must hold: the demand keyed by prefix, sorted.
    fn sorted_by_prefix(prefix_of: &[Prefix], rates: &[(u32, f64)]) -> Vec<(Prefix, f64)> {
        let mut expect: Vec<(Prefix, f64)> = rates
            .iter()
            .map(|&(idx, mbps)| (prefix_of[idx as usize], mbps))
            .collect();
        expect.sort_by_key(|(p, _)| *p);
        expect
    }

    /// Fills a table from `points`, checks it, and reports whether the
    /// permutation had to be re-sorted for them.
    fn exact(order: &mut TrafficOrder, prefix_of: &[Prefix], points: &[DemandPoint]) -> bool {
        let resorted = order.sync_layout(prefix_of, points);
        let mut table = TrafficTable::new();
        order.fill_exact(prefix_of, points, 1.0, &mut table);
        let rates: Vec<(u32, f64)> = points.iter().map(|d| (d.prefix_idx, d.mbps)).collect();
        assert_eq!(table.entries(), sorted_by_prefix(prefix_of, &rates));
        resorted
    }

    #[test]
    fn exact_table_is_in_prefix_order_not_universe_order() {
        let prefix_of = universe();
        assert!(
            prefix_of.windows(2).any(|w| w[0] > w[1]),
            "fixture must not already be sorted"
        );
        let mut order = TrafficOrder::default();
        assert!(exact(&mut order, &prefix_of, &demand(&[7, 0, 3, 10, 1, 4])));
    }

    #[test]
    fn same_layout_reuses_the_permutation() {
        let prefix_of = universe();
        let mut order = TrafficOrder::default();
        let mut points = demand(&[7, 0, 3, 10, 1, 4]);
        assert!(exact(&mut order, &prefix_of, &points));
        // New rates (zero and negative included), same prefixes in the
        // same positions: the global tier edits `mbps` in place like this.
        for (i, point) in points.iter_mut().enumerate() {
            point.mbps = i as f64 * 3.5 - 4.0;
        }
        assert!(
            !exact(&mut order, &prefix_of, &points),
            "second epoch re-sorted an unchanged layout"
        );
    }

    #[test]
    fn a_different_layout_rebuilds_the_permutation() {
        let prefix_of = universe();
        let mut order = TrafficOrder::default();
        assert!(exact(&mut order, &prefix_of, &demand(&[7, 0, 3, 10, 1, 4])));
        let shorter = demand(&[7, 0, 3, 10]);
        assert!(exact(&mut order, &prefix_of, &shorter));
        let longer = demand(&[7, 0, 3, 10, 1, 4, 9, 2]);
        assert!(exact(&mut order, &prefix_of, &longer));
        let same_length_other_indices = demand(&[7, 0, 3, 10, 1, 4, 2, 9]);
        assert!(exact(&mut order, &prefix_of, &same_length_other_indices));
        assert!(!exact(&mut order, &prefix_of, &same_length_other_indices));
    }

    #[test]
    fn partial_loss_scales_every_rate() {
        let prefix_of = universe();
        let points = demand(&[5, 2, 8]);
        let mut table = TrafficTable::new();
        TrafficOrder::default().fill_exact(&prefix_of, &points, 0.25, &mut table);
        let rates: Vec<(u32, f64)> = points
            .iter()
            .map(|d| (d.prefix_idx, d.mbps * 0.25))
            .collect();
        assert_eq!(table.entries(), sorted_by_prefix(&prefix_of, &rates));
    }

    #[test]
    fn sampled_table_equals_sort_by_prefix_of_all_rates() {
        use ef_traffic::estimator::RateEstimator;
        use ef_traffic::sampler::FlowSample;

        let prefix_of = universe();
        let mut estimator = RateEstimator::new(60);
        let mut order = TrafficOrder::default();
        let mut table = TrafficTable::new();
        // Two epochs with different visible sets (the estimator's window
        // forgets index 11 and learns index 6), reusing one table.
        for (t, seen) in [
            (0u64, vec![11u32, 2, 5, 8, 1]),
            (90, vec![6, 5, 1, 0, 9, 2]),
        ] {
            let samples: Vec<FlowSample> = seen
                .iter()
                .map(|&prefix_idx| FlowSample {
                    prefix_idx,
                    count: 1,
                    scaled_bytes: 1_000_000 * (1 + u64::from(prefix_idx)),
                })
                .collect();
            estimator.ingest(t, &samples);
            let rates: HashMap<u32, f64> = estimator.all_rates_mbps(t);
            assert_eq!(rates.len(), seen.len());
            order.fill_sampled(&prefix_of, rates.clone(), 1.0, &mut table);
            let rates: Vec<(u32, f64)> = rates.into_iter().collect();
            assert_eq!(table.entries(), sorted_by_prefix(&prefix_of, &rates));
        }
    }
}
