//! The 95/5 billing meter end to end through the simulator: every
//! interface gets one bill row, priced by its peering class, byte-identical
//! across runs, and strictly observational (turning the meter off changes
//! nothing but the bills themselves).

use ef_sim::{scenario, ScenarioBuilder, SimConfig};

fn short(seed: u64) -> ScenarioBuilder {
    scenario()
        .small_topology(seed)
        .duration_secs(1800)
        .epoch_secs(60)
}

fn run(cfg: SimConfig) -> ef_sim::MetricsStore {
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    engine.run();
    engine.take_metrics()
}

#[test]
fn every_interface_gets_one_bill_priced_by_class() {
    let cfg = short(7).build();
    let deployment = ef_topology::generate(&cfg.gen);
    let n_interfaces: usize = deployment.pops.iter().map(|p| p.interfaces.len()).sum();
    let metrics = run(cfg);
    assert_eq!(metrics.billing.len(), n_interfaces);
    // Canonical order: sorted by (pop, egress).
    let keys: Vec<(u16, u32)> = metrics.billing.iter().map(|b| (b.pop, b.egress)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "billing rows not in canonical order");
    // Class pricing: the small world uses the default cost model —
    // $1/Mbps transit, $2500/month PNI ports, free public + route-server.
    for bill in &metrics.billing {
        match bill.class.as_str() {
            "transit" => assert!(
                (bill.monthly_usd - bill.billable_mbps).abs() < 1e-9,
                "transit bills $1 × p95"
            ),
            "pni" => assert!(
                (bill.monthly_usd - 2500.0).abs() < 1e-9,
                "a PNI port is a fixed cost, independent of use"
            ),
            "settlement-free" | "ixp-rs" => {
                assert_eq!(bill.monthly_usd, 0.0, "{} is free", bill.class)
            }
            other => panic!("unknown peering class label {other}"),
        }
    }
    // The small world actually pushes traffic through transit somewhere.
    assert!(
        metrics.transit_monthly_usd() > 0.0,
        "no transit spend recorded at all"
    );
    assert!(metrics.total_monthly_usd() > metrics.transit_monthly_usd());
}

#[test]
fn bills_are_byte_identical_across_runs() {
    let bills = |cfg: SimConfig| serde_json::to_string(&run(cfg).billing).unwrap();
    let a = bills(short(7).build());
    let b = bills(short(7).build());
    assert_eq!(a, b, "same-seed bills diverged");
}

#[test]
fn billing_meter_is_strictly_observational() {
    // Turning the meter off must change nothing except the bills.
    let with = run(short(7).build());
    let without = run(short(7).billing(false).build());
    assert!(without.billing.is_empty());
    assert!(!with.billing.is_empty());
    let core =
        |m: &ef_sim::MetricsStore| serde_json::to_string(&(&m.pop_epochs, &m.episodes)).unwrap();
    assert_eq!(core(&with), core(&without), "the meter leaked into results");
}

#[test]
fn cost_aware_arm_never_drops_more_than_cost_blind() {
    // The tiebreak only reorders equal-preference feasible alternates, so
    // it may save money but must not cost packets.
    let blind = run(short(7).build());
    let aware = run(short(7).cost_aware(true).build());
    let dropped =
        |m: &ef_sim::MetricsStore| -> f64 { m.pop_epochs.iter().map(|r| r.dropped_mbps).sum() };
    assert!(
        dropped(&aware) <= dropped(&blind) + 1e-6,
        "cost-aware steering dropped more traffic: {} vs {}",
        dropped(&aware),
        dropped(&blind)
    );
}
