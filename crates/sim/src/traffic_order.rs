//! Canonical ordering of a PoP's demand for the controller's traffic table.
//!
//! The controller reads demand in canonical [`Prefix`] order (float sums
//! are accumulated in that order; see `edge_fabric::TrafficView`),
//! but demand arrives in `Pop::served` order. A PoP's served prefixes are a
//! fixed list, so the order is worked out once and each epoch's
//! [`TrafficTable`] is one linear gather, for exact and sampled rates alike.

use edge_fabric::TrafficTable;
use ef_net_types::Prefix;
use ef_traffic::demand::DemandPoint;
use ef_traffic::sampler::SflowSampler;

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
    /// The sampled arm's rate per demand position, in slice order; `None`
    /// where the sampler saw no packet.
    sampled: Vec<Option<f64>>,
    /// Simulated second of the last sampled fill.
    sampled_at: Option<u64>,
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
        // Equal indices sort next to each other. A sampled table keys one
        // rate per position, where a per-prefix estimator would have summed
        // a repeated prefix's samples, so a served list must not repeat one.
        debug_assert!(
            self.perm
                .windows(2)
                .all(|w| layout[w[0] as usize] != layout[w[1] as usize]),
            "demand lists a prefix index twice"
        );
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

    /// Refills `table` from one epoch of sFlow samples of `demand` taken at
    /// `t_secs`: each point is sampled in slice order (so the sampler's
    /// random stream does not depend on the prefix order), read as a rate
    /// over the epoch and scaled by `keep`. Points the sampler missed are
    /// absent, as they are from a production collector's table.
    ///
    /// This is the paper's windowed estimate (§4.1) with a one-epoch
    /// window. The window holds only this epoch's samples because sampled
    /// fills are at least an epoch apart, which is checked in debug builds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_sampled(
        &mut self,
        prefix_of: &[Prefix],
        demand: &[DemandPoint],
        sampler: &mut SflowSampler,
        t_secs: u64,
        epoch_secs: u64,
        keep: f64,
        table: &mut TrafficTable,
    ) {
        let window_secs = epoch_secs.max(1);
        if let Some(last) = self.sampled_at {
            debug_assert!(
                t_secs >= last + window_secs,
                "sampled fills at {last} s and {t_secs} s share a {window_secs} s window"
            );
        }
        self.sampled_at = Some(t_secs);
        self.sync_layout(prefix_of, demand);
        self.sampled.clear();
        self.sampled.extend(demand.iter().map(|point| {
            sampler
                .sample_prefix(point.prefix_idx, point.mbps, epoch_secs as f64)
                .map(|sample| sample.mbps_over(window_secs))
        }));
        let sampled = &self.sampled;
        table.refill(self.perm.iter().filter_map(|&pos| {
            let mbps = sampled[pos as usize]?;
            let idx = demand[pos as usize].prefix_idx;
            Some((prefix_of[idx as usize], mbps * keep))
        }));
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use ef_traffic::estimator::RateEstimator;
    use ef_traffic::sampler::SamplerConfig;

    use super::*;
    use edge_fabric::TrafficView;

    /// A universe of `n` prefixes whose index order is not prefix order:
    /// v6 /48s interleave v4 /24s, and the v4 addresses descend.
    fn universe(n: u32) -> Vec<Prefix> {
        (0..n)
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
        assert_eq!(
            table.sorted_entries(&mut Vec::new()),
            sorted_by_prefix(prefix_of, &rates)
        );
        resorted
    }

    #[test]
    fn exact_table_is_in_prefix_order_not_universe_order() {
        let prefix_of = universe(12);
        assert!(
            prefix_of.windows(2).any(|w| w[0] > w[1]),
            "fixture must not already be sorted"
        );
        let mut order = TrafficOrder::default();
        assert!(exact(&mut order, &prefix_of, &demand(&[7, 0, 3, 10, 1, 4])));
    }

    #[test]
    fn same_layout_reuses_the_permutation() {
        let prefix_of = universe(12);
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
        let prefix_of = universe(12);
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
        let prefix_of = universe(12);
        let points = demand(&[5, 2, 8]);
        let mut table = TrafficTable::new();
        TrafficOrder::default().fill_exact(&prefix_of, &points, 0.25, &mut table);
        let rates: Vec<(u32, f64)> = points
            .iter()
            .map(|d| (d.prefix_idx, d.mbps * 0.25))
            .collect();
        assert_eq!(
            table.sorted_entries(&mut Vec::new()),
            sorted_by_prefix(&prefix_of, &rates)
        );
    }

    fn sampler(seed: u64) -> SflowSampler {
        SflowSampler::new(SamplerConfig {
            seed,
            ..SamplerConfig::default()
        })
    }

    /// The sampled table as the windowed estimator builds it, the oracle
    /// for [`TrafficOrder::fill_sampled`]: sample every point, ingest into
    /// a one-epoch window, read every rate, sort by prefix, scale by
    /// `keep`.
    struct Estimated {
        sampler: SflowSampler,
        estimator: RateEstimator,
        epoch_secs: u64,
    }

    impl Estimated {
        fn new(seed: u64, epoch_secs: u64) -> Self {
            Estimated {
                sampler: sampler(seed),
                estimator: RateEstimator::new(epoch_secs),
                epoch_secs,
            }
        }

        fn table(
            &mut self,
            prefix_of: &[Prefix],
            demand: &[DemandPoint],
            t_secs: u64,
            keep: f64,
        ) -> Vec<(Prefix, f64)> {
            let samples = self.sampler.sample_all(
                demand.iter().map(|d| (d.prefix_idx, d.mbps)),
                self.epoch_secs as f64,
            );
            self.estimator.ingest(t_secs, &samples);
            let mut rates: Vec<(Prefix, f64)> = self
                .estimator
                .all_rates_mbps(t_secs)
                .into_iter()
                .map(|(idx, mbps)| (prefix_of[idx as usize], mbps * keep))
                .collect();
            rates.sort_by_key(|(p, _)| *p);
            rates
        }
    }

    /// Rates as bit patterns, so equality is bitwise.
    fn bits(entries: &[(Prefix, f64)]) -> Vec<(Prefix, u64)> {
        entries
            .iter()
            .map(|&(p, mbps)| (p, mbps.to_bits()))
            .collect()
    }

    #[test]
    fn sampled_table_equals_sort_by_prefix_of_all_rates() {
        let prefix_of = universe(12);
        let mut oracle = Estimated::new(3, 60);
        let mut live = sampler(3);
        let mut order = TrafficOrder::default();
        let mut table = TrafficTable::new();
        // Two epochs with different visible sets (index 11 goes dark and
        // index 6 lights up), reusing one table. 100+ Mbps is always
        // sampled; 0 Mbps never is.
        for (t, seen) in [
            (0u64, vec![11u32, 2, 5, 8, 1]),
            (90, vec![6, 5, 1, 0, 9, 2]),
        ] {
            let points: Vec<DemandPoint> = [7u32, 0, 3, 10, 1, 4, 11, 2, 5, 8, 6, 9]
                .iter()
                .map(|&prefix_idx| DemandPoint {
                    prefix_idx,
                    mbps: if seen.contains(&prefix_idx) {
                        100.0 * (1.0 + f64::from(prefix_idx))
                    } else {
                        0.0
                    },
                })
                .collect();
            let expect = oracle.table(&prefix_of, &points, t, 1.0);
            assert_eq!(expect.len(), seen.len());
            order.fill_sampled(&prefix_of, &points, &mut live, t, 60, 1.0, &mut table);
            assert_eq!(bits(table.sorted_entries(&mut Vec::new())), bits(&expect));
        }
    }

    /// A random layout over `members.len()` indices: the indices whose flag
    /// is set, ordered by their random key.
    fn layout(members: &[(bool, u32)]) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..members.len() as u32)
            .filter(|&i| members[i as usize].0)
            .collect();
        indices.sort_by_key(|&i| (members[i as usize].1, i));
        indices
    }

    /// Offered rates: negative, zero, too small to sample reliably, and
    /// always sampled.
    fn rate() -> impl Strategy<Value = f64> {
        prop_oneof![Just(-2.5), Just(0.0), 0.001f64..1.0, 1.0f64..5_000.0,]
    }

    const UNIVERSE: usize = 24;

    proptest! {
        /// Bitwise equal to the estimator pipeline over several epochs on
        /// one `TrafficOrder`, with the served layout changing midway.
        #[test]
        fn prop_sampled_table_equals_estimator_pipeline(
            first in proptest::collection::vec((any::<bool>(), any::<u32>()), UNIVERSE),
            second in proptest::collection::vec((any::<bool>(), any::<u32>()), UNIVERSE),
            epochs in proptest::collection::vec(
                (
                    proptest::collection::vec(rate(), UNIVERSE),
                    prop_oneof![Just(1.0), Just(0.5)],
                ),
                2..7,
            ),
            seed in any::<u64>(),
        ) {
            let prefix_of = universe(UNIVERSE as u32);
            let epoch_secs = 30;
            let mut oracle = Estimated::new(seed, epoch_secs);
            let mut live = sampler(seed);
            let mut order = TrafficOrder::default();
            let mut table = TrafficTable::new();
            let change_at = epochs.len() / 2;
            for (epoch, (rates, keep)) in epochs.iter().enumerate() {
                let t = epoch as u64 * epoch_secs;
                let members = if epoch < change_at { &first } else { &second };
                let points: Vec<DemandPoint> = layout(members)
                    .into_iter()
                    .map(|prefix_idx| DemandPoint { prefix_idx, mbps: rates[prefix_idx as usize] })
                    .collect();
                let expect = oracle.table(&prefix_of, &points, t, *keep);
                order.fill_sampled(&prefix_of, &points, &mut live, t, epoch_secs, *keep, &mut table);
                prop_assert_eq!(bits(table.sorted_entries(&mut Vec::new())), bits(&expect));
            }
        }
    }
}
