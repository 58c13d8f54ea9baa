//! Performance-aware Edge Fabric (paper §6).
//!
//! Runs alternate-path measurement slices over a deployment, reports how
//! often BGP's preferred path is *not* the best-performing one, then turns
//! on §6.2 steering and shows the tail of prefixes being moved to their
//! faster alternates without creating congestion.
//!
//! Run with: `cargo run --release --example performance_aware`

use std::collections::HashMap;

use ef_bgp::route::EgressId;
use ef_perf::compare::{compare_paths, summarize};
use ef_sim::{scenario, PerfSimConfig, ScenarioBuilder};
use ef_topology::GenConfig;

fn main() {
    let cfg = scenario()
        .topology(GenConfig {
            n_pops: 6,
            n_ases: 150,
            n_prefixes: 900,
            total_avg_gbps: 2000.0,
            ..GenConfig::default()
        })
        .hours(2)
        .epoch_secs(30)
        .perf(PerfSimConfig {
            steer: false, // measure first, steer later
        })
        .build();

    println!("== Phase 1: measurement only (§6.1) ==");
    let mut engine = ScenarioBuilder::from_config(cfg.clone()).engine();
    engine.run();

    // Compare preferred vs alternates at each PoP.
    let mut all_summaries = Vec::new();
    for pop in &engine.pops {
        let Some(measurer) = pop.measurer.as_ref() else {
            continue;
        };
        // Preferred egress per measured prefix, from the live FIB.
        let preferred: HashMap<u32, EgressId> = measurer
            .report()
            .iter()
            .filter_map(|d| {
                let prefix = engine.prefix_of(d.key.prefix_idx);
                pop.router
                    .fib_entry(&prefix)
                    .map(|e| (d.key.prefix_idx, e.egress))
            })
            .collect();
        let comparisons = compare_paths(measurer, &preferred);
        let summary = summarize(&comparisons);
        println!(
            "{:<12} prefixes measured: {:>4}  equivalent: {:>5.1}%  alt >=20ms faster: {:>4.1}%  pref >=20ms faster: {:>4.1}%",
            pop.pop.name,
            summary.prefixes,
            summary.frac_equivalent * 100.0,
            summary.frac_alt_wins_20ms * 100.0,
            summary.frac_pref_wins_20ms * 100.0
        );
        all_summaries.push(summary);
    }
    let mean_tail: f64 = all_summaries
        .iter()
        .map(|s| s.frac_alt_wins_20ms)
        .sum::<f64>()
        / all_summaries.len().max(1) as f64;
    println!(
        "\nAcross PoPs, ~{:.1}% of measured prefixes have an alternate >=20 ms faster",
        mean_tail * 100.0
    );
    println!("than the BGP-preferred path — the tail §6 targets.\n");

    println!("== Phase 2: steering enabled (§6.2) ==");
    let mut engine = ScenarioBuilder::from_config(cfg)
        .perf(PerfSimConfig { steer: true })
        .engine();
    engine.run();
    let metrics = engine.take_metrics();

    let perf_overrides: usize = engine
        .pops
        .iter()
        .filter_map(|p| p.controller.as_ref())
        .map(|c| {
            c.active_overrides()
                .iter_sorted()
                .iter()
                .filter(|o| o.reason == edge_fabric::OverrideReason::Performance)
                .count()
        })
        .sum();
    let cap_overrides: usize = engine
        .pops
        .iter()
        .filter_map(|p| p.controller.as_ref())
        .map(|c| {
            c.active_overrides()
                .iter_sorted()
                .iter()
                .filter(|o| o.reason == edge_fabric::OverrideReason::Capacity)
                .count()
        })
        .sum();
    println!(
        "active overrides at end of run: {perf_overrides} performance, {cap_overrides} capacity"
    );

    let over_cap = metrics
        .interfaces
        .values()
        .filter(|s| s.epochs_over_capacity > 0)
        .count();
    println!(
        "interfaces ever over capacity with steering on: {over_cap} / {} — perf",
        metrics.interfaces.len()
    );
    println!("steering must not create congestion; the capacity pass vets every move.");
}
