//! Global deployment: a 20-PoP, paper-scale (laptop-sized) edge.
//!
//! Generates the default deployment, prints the Table-1-style interconnect
//! summary and route diversity, then simulates three evening hours with the
//! controller enabled and reports what Edge Fabric did at each PoP.
//!
//! Run with: `cargo run --release --example global_deployment`

use ef_sim::scenario;
use ef_topology::{pop_summaries, route_diversity};

fn main() {
    // Three hours around the first regional evening peaks.
    let cfg = scenario().hours(3).epoch_secs(30).build();

    println!("== Building deployment (seed {}) ==", cfg.gen.seed);
    // The tables read the generated routes, which the engine takes over
    // when it is built, so they print first.
    let deployment = ef_topology::generate(&cfg.gen);
    let dep = &deployment;
    println!(
        "{} PoPs, {} BGP adjacencies, {} egress interfaces, {} prefixes from {} eyeball ASes\n",
        dep.pops.len(),
        dep.peer_count(),
        dep.interface_count(),
        dep.universe.prefixes.len(),
        dep.universe.ases.len()
    );

    println!("-- Table 1: PoP interconnection characteristics --");
    println!(
        "{:<12} {:>3} {:>4} {:>8} {:>7} {:>7} {:>6} {:>10} {:>10}",
        "pop", "reg", "PRs", "transit", "private", "public", "rs", "cap(Gbps)", "avg(Gbps)"
    );
    for row in pop_summaries(dep) {
        println!(
            "{:<12} {:>3} {:>4} {:>8} {:>7} {:>7} {:>6} {:>10.0} {:>10.1}",
            row.name,
            row.region,
            row.routers,
            row.transit_peers,
            row.private_peers,
            row.public_peers,
            row.route_server_peers,
            row.capacity_gbps,
            row.avg_demand_gbps
        );
    }

    println!("\n-- Fig 2 shape: traffic-weighted route diversity --");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7}",
        "pop", ">=1", ">=2", ">=3", ">=4"
    );
    for d in route_diversity(dep) {
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            d.name,
            d.frac_traffic_ge[0] * 100.0,
            d.frac_traffic_ge[1] * 100.0,
            d.frac_traffic_ge[2] * 100.0,
            d.frac_traffic_ge[3] * 100.0
        );
    }

    println!(
        "\n== Simulating {} epochs of 30 s with Edge Fabric enabled ==",
        3 * 120
    );
    let mut engine = ef_sim::ScenarioBuilder::from_config(cfg).engine_with(deployment);
    engine.run();
    assert!(
        engine.all_sessions_up(),
        "all BGP sessions survived the run"
    );
    let metrics = engine.take_metrics();

    // Per-PoP rollup.
    println!("\n-- Controller activity per PoP --");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "pop", "peak detour", "mean detour", "overrides", "announces", "withdraws"
    );
    for pop in &engine.deployment.pops {
        let records: Vec<_> = metrics
            .pop_epochs
            .iter()
            .filter(|r| r.pop == pop.id.0)
            .collect();
        if records.is_empty() {
            continue;
        }
        let peak = records
            .iter()
            .map(|r| r.detoured_mbps / r.offered_mbps.max(1.0))
            .fold(0.0f64, f64::max);
        let mean = records
            .iter()
            .map(|r| r.detoured_mbps / r.offered_mbps.max(1.0))
            .sum::<f64>()
            / records.len() as f64;
        let max_ov = records
            .iter()
            .map(|r| r.overrides_active)
            .max()
            .unwrap_or(0);
        let announces: usize = records.iter().map(|r| r.churn_announced).sum();
        let withdraws: usize = records.iter().map(|r| r.churn_withdrawn).sum();
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>10} {:>9} {:>9}",
            pop.name,
            peak * 100.0,
            mean * 100.0,
            max_ov,
            announces,
            withdraws
        );
    }

    // Overload outcome.
    let interfaces_over_cap = metrics
        .interfaces
        .values()
        .filter(|s| s.epochs_over_capacity > 0)
        .count();
    let total_drops: f64 = metrics.pop_epochs.iter().map(|r| r.dropped_mbps).sum();
    let total_offered: f64 = metrics.pop_epochs.iter().map(|r| r.offered_mbps).sum();
    println!(
        "\nInterfaces that ever exceeded capacity: {} / {}",
        interfaces_over_cap,
        metrics.interfaces.len()
    );
    println!(
        "Traffic dropped: {:.4}% of offered (Edge Fabric keeps drops to transients)",
        100.0 * total_drops / total_offered
    );
    println!(
        "Detour episodes completed: {} (median duration {}s)",
        metrics.episodes.len(),
        median_duration(&metrics)
    );
}

fn median_duration(metrics: &ef_sim::MetricsStore) -> u64 {
    let mut durations: Vec<u64> = metrics.episodes.iter().map(|e| e.duration_secs()).collect();
    if durations.is_empty() {
        return 0;
    }
    durations.sort_unstable();
    durations[durations.len() / 2]
}
