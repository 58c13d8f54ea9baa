//! Output verification: which pop-epochs count as failed, and the digest
//! that says two runs simulated the same thing.

use crate::layers::{MetricsStore, PopEpochRecord};
use crate::stats::Fnv1a;

/// Why a pop-epoch (the benchmark's unit of work) counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFailure {
    /// A rate is negative, not finite, or exceeds what was offered.
    Implausible,
    /// offered ≠ carried + dropped over the PoP's interfaces.
    Conservation,
    /// The controller ran degraded or failed open with no fault to blame.
    UnexplainedDegradation,
}

/// Relative slack on conservation: float sums in different orders.
const CONSERVATION_TOLERANCE: f64 = 1e-6;

/// Classifies one pop-epoch. `loads` is `(load_mbps, capacity_mbps)` per
/// interface when the benchmark can see them (the health tier exposes
/// them).
pub fn classify(record: &PopEpochRecord, loads: Option<&[(f64, f64)]>) -> Option<OpFailure> {
    let offered = record.offered_mbps;
    let within =
        |v: f64| v.is_finite() && v >= 0.0 && v <= offered * (1.0 + CONSERVATION_TOLERANCE);
    let plausible = offered.is_finite()
        && offered > 0.0
        && within(record.dropped_mbps)
        && within(record.detoured_mbps);
    if !plausible {
        return Some(OpFailure::Implausible);
    }
    if let Some(loads) = loads {
        let carried: f64 = loads.iter().map(|(load, cap)| load.min(*cap)).sum();
        if (offered - carried - record.dropped_mbps).abs() > CONSERVATION_TOLERANCE * offered {
            return Some(OpFailure::Conservation);
        }
    }
    if (record.degraded || record.fail_open) && record.active_faults.is_empty() {
        return Some(OpFailure::UnexplainedDegradation);
    }
    None
}

/// FNV-1a over every `PopEpochRecord`, detour episode and billing row of
/// the given stores, in store order. Episodes are sorted first: within an
/// epoch the program closes them in `HashMap` order.
pub fn sim_digest<'a>(stores: impl IntoIterator<Item = &'a MetricsStore>) -> String {
    let mut h = Fnv1a::default();
    let mut episodes = Vec::new();
    let mut bills = Vec::new();
    for store in stores {
        for r in &store.pop_epochs {
            digest_record(&mut h, r);
        }
        episodes.extend(
            store
                .episodes
                .iter()
                .map(|e| (e.pop, e.start_secs, e.end_secs, e.prefix.as_str())),
        );
        bills.extend(store.billing.iter());
    }
    episodes.sort_unstable();
    for (pop, start, end, prefix) in episodes {
        h.u64(u64::from(pop));
        h.u64(start);
        h.u64(end);
        h.str(prefix);
    }
    for b in bills {
        h.u64(u64::from(b.pop));
        h.u64(u64::from(b.egress));
        h.str(&b.class);
        h.f64(b.billable_mbps);
        h.f64(b.monthly_usd);
    }
    h.hex()
}

fn digest_record(h: &mut Fnv1a, r: &PopEpochRecord) {
    h.u64(r.t_secs);
    h.u64(u64::from(r.pop));
    h.f64(r.offered_mbps);
    h.f64(r.detoured_mbps);
    let mut kinds: Vec<(&String, &f64)> = r.detoured_by_kind.iter().collect();
    kinds.sort_unstable_by_key(|(k, _)| *k);
    for (kind, mbps) in kinds {
        h.str(kind);
        h.f64(*mbps);
    }
    for n in [
        r.overrides_active,
        r.churn_announced,
        r.churn_withdrawn,
        r.overloaded_before,
        r.residual_overloaded,
    ] {
        h.u64(n as u64);
    }
    h.f64(r.dropped_mbps);
    for label in &r.active_faults {
        h.str(label);
    }
    h.u64(u64::from(r.degraded) | u64::from(r.fail_open) << 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{generate, GenConfig, ScenarioBuilder, SimEngine};
    use crate::workloads::Workload;

    fn record() -> PopEpochRecord {
        PopEpochRecord {
            t_secs: 60,
            pop: 1,
            offered_mbps: 1000.0,
            detoured_mbps: 50.0,
            detoured_by_kind: Default::default(),
            overrides_active: 3,
            churn_announced: 1,
            churn_withdrawn: 0,
            overloaded_before: 1,
            residual_overloaded: 0,
            dropped_mbps: 10.0,
            active_faults: Vec::new(),
            degraded: false,
            fail_open: false,
        }
    }

    #[test]
    fn a_clean_pop_epoch_passes() {
        assert_eq!(classify(&record(), None), None);
        // 600 of 610 carried on a 600 link, 390 on the other: 10 dropped.
        let loads = [(610.0, 600.0), (390.0, 1000.0)];
        assert_eq!(classify(&record(), Some(&loads)), None);
    }

    #[test]
    fn lost_traffic_breaks_conservation() {
        // 100 Mbps went to no interface at all.
        let loads = [(510.0, 500.0), (390.0, 1000.0)];
        assert_eq!(
            classify(&record(), Some(&loads)),
            Some(OpFailure::Conservation)
        );
    }

    #[test]
    fn implausible_rates_fail() {
        let mut r = record();
        r.dropped_mbps = f64::NAN;
        assert_eq!(classify(&r, None), Some(OpFailure::Implausible));
        let mut r = record();
        r.detoured_mbps = 1000.5;
        assert_eq!(classify(&r, None), Some(OpFailure::Implausible));
        let mut r = record();
        r.offered_mbps = 0.0;
        assert_eq!(classify(&r, None), Some(OpFailure::Implausible));
    }

    #[test]
    fn degradation_needs_an_active_fault() {
        let mut r = record();
        r.fail_open = true;
        assert_eq!(classify(&r, None), Some(OpFailure::UnexplainedDegradation));
        r.active_faults = vec!["bmp_stall".into()];
        assert_eq!(classify(&r, None), None);
        let mut r = record();
        r.degraded = true;
        assert_eq!(classify(&r, None), Some(OpFailure::UnexplainedDegradation));
    }

    fn small_engine(demand_seed: u64) -> SimEngine {
        let gen = GenConfig {
            seed: 3,
            n_pops: 2,
            n_ases: 20,
            n_prefixes: 200,
            total_avg_gbps: 200.0,
            ..GenConfig::default()
        };
        let deployment = generate(&gen);
        let mut cfg = Workload::Steady.sim_config(3, demand_seed, 96, &deployment);
        cfg.gen = gen;
        ScenarioBuilder::from_config(cfg).engine_with(deployment)
    }

    fn digest_after(engine: &mut SimEngine, epochs: u64) -> String {
        for _ in 0..epochs {
            engine.step();
        }
        sim_digest(engine.pops.iter().map(|p| &p.metrics))
    }

    #[test]
    fn digest_repeats_on_a_2x200_world_and_sees_every_change() {
        let a = digest_after(&mut small_engine(5), 24);
        let b = digest_after(&mut small_engine(5), 24);
        assert_eq!(a, b, "same inputs, same digest");
        assert_eq!(a.len(), 16);
        assert_ne!(a, digest_after(&mut small_engine(6), 24), "demand seed");
        assert_ne!(a, digest_after(&mut small_engine(5), 25), "one more epoch");
        // The merged end-of-run store digests too, and differs: `finish`
        // closes the episodes still open.
        let mut engine = small_engine(5);
        let live = digest_after(&mut engine, 96);
        let merged = engine.take_metrics();
        assert_eq!(merged.pop_epochs.len(), 2 * 96);
        let full = sim_digest([&merged]);
        assert_eq!(full, sim_digest([&merged]));
        assert!(merged.episodes.is_empty() || full != live);
    }

    #[test]
    fn digest_is_sensitive_to_a_single_bit() {
        let mut store = MetricsStore::new();
        store.record_pop_epoch(record());
        let a = sim_digest([&store]);
        let mut store = MetricsStore::new();
        let mut r = record();
        r.dropped_mbps = f64::from_bits(r.dropped_mbps.to_bits() + 1);
        store.record_pop_epoch(r);
        assert_ne!(a, sim_digest([&store]));
    }
}
