//! The one view of a run the root tests compare and pin.

use std::collections::BTreeMap;

use ef_sim::MetricsStore;

/// Everything a run's `MetricsStore` records, as JSON text: per-PoP
/// epochs, detour episodes, bills, and the per-interface aggregates and
/// series keyed by interface (the store keeps those in hash maps).
pub fn run_view(store: &MetricsStore) -> String {
    let interfaces: BTreeMap<u32, _> = store.interfaces.iter().map(|(e, s)| (e.0, s)).collect();
    let series: BTreeMap<u32, _> = store.series.iter().map(|(e, s)| (e.0, s)).collect();
    serde_json::to_string(&(
        &store.pop_epochs,
        &store.episodes,
        &store.billing,
        &interfaces,
        &series,
    ))
    .expect("metrics serialize")
}
