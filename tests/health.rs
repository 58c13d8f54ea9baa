//! The health tier's read-only contract: enabling per-epoch sampling and
//! SLO alerting must not change a single byte of a run's results — alerts
//! are derived observations, never inputs. The tier also has to actually
//! observe: a faulted run must raise alerts, a calm run must stay silent.

mod common;

use ef_health::HealthConfig;
use ef_sim::{scenario, ScenarioBuilder, SimConfig};

/// Serialized fingerprint of everything a run records.
fn fingerprint(cfg: SimConfig) -> String {
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    engine.run();
    common::run_view(&engine.take_metrics())
}

/// The 15-minute small-world scenario every check here varies.
fn short(seed: u64) -> ScenarioBuilder {
    scenario()
        .small_topology(seed)
        .duration_secs(900)
        .epoch_secs(60)
}

/// A mixed fault schedule over the short scenario's deployment.
fn chaos_schedule(cfg: &SimConfig) -> ef_chaos::FaultSchedule {
    let deployment = ef_topology::generate(&cfg.gen);
    let profile = ef_chaos::ChaosProfile {
        duration_secs: cfg.duration_secs,
        warmup_secs: 120,
        events: 6,
        min_fault_secs: 120,
        max_fault_secs: 240,
        kinds: Vec::new(),
    };
    ef_chaos::generate(&profile, &ef_sim::chaos_surface(&deployment), 5)
        .expect("schedule generates")
}

#[test]
fn health_on_matches_health_off() {
    let off = fingerprint(short(11).build());
    let on = fingerprint(short(11).health(HealthConfig::default()).build());
    assert_eq!(on, off, "health sampling changed the results");
}

#[test]
fn health_on_matches_health_off_under_chaos() {
    // Hardest case: faults drive every alert path (fire, sustain, clear)
    // while the run's own results must stay untouched.
    let schedule = chaos_schedule(&short(11).build());
    let cfg = short(11).chaos(schedule).build();
    let off = fingerprint(cfg.clone());
    let on = fingerprint(
        ScenarioBuilder::from_config(cfg)
            .health(HealthConfig::default())
            .build(),
    );
    assert_eq!(on, off, "health tier changed the results under chaos");
}

#[test]
fn health_telemetry_emission_is_read_only_too() {
    // With a sink attached the monitor also *writes* (sample + alert
    // events); emission must be as inert as evaluation.
    let plain = fingerprint(short(11).build());
    let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
    let observed = fingerprint(
        short(11)
            .health(HealthConfig::default())
            .telemetry(handle)
            .build(),
    );
    assert_eq!(plain, observed, "health telemetry changed the results");
    assert!(
        sink.events().iter().any(|e| e.name == "health.sample"),
        "the observed run actually sampled"
    );
}

#[test]
fn global_fault_raises_global_alerts_under_the_sentinel_pop() {
    // 3 of the small world's 4 PoPs stop reporting: the tier must go
    // fail-static and the health tier must say so — keyed to the global
    // sentinel, not to any real PoP.
    let events: Vec<ef_chaos::FaultEvent> = (0..3)
        .map(|j| ef_chaos::FaultEvent {
            t_start_secs: 300,
            duration_secs: 300,
            target: ef_chaos::FaultTarget::Global { pop: Some(j) },
            kind: ef_chaos::FaultKind::ReportPartition,
        })
        .collect();
    let mut engine = short(11)
        .global(ef_global::GlobalConfig::default())
        .chaos(ef_chaos::FaultSchedule::new(events).expect("valid schedule"))
        .health(HealthConfig::default())
        .engine();
    engine.run();
    let monitor = engine.health_monitor().expect("health tier enabled");
    let alerts = monitor.all_alerts();
    let global_alerts: Vec<_> = alerts
        .iter()
        .filter(|a| a.pop == ef_health::GLOBAL_POP)
        .collect();
    assert!(
        global_alerts.iter().any(|a| a.rule == "global_fail_static"),
        "partition below quorum must raise global_fail_static, got {global_alerts:?}"
    );
    assert!(
        global_alerts
            .iter()
            .any(|a| a.rule == "global_reports_stale"),
        "dark PoPs age out and must raise global_reports_stale, got {global_alerts:?}"
    );
}

#[test]
fn chaotic_run_raises_alerts_and_calm_run_does_not() {
    let mut calm = short(11).health(HealthConfig::default()).engine();
    calm.run();
    let monitor = calm.health_monitor().expect("health tier enabled");
    assert!(
        monitor.all_alerts().is_empty(),
        "calm run raised: {:?}",
        monitor.all_alerts()
    );

    let schedule = chaos_schedule(&short(11).build());
    let cfg = short(11).chaos(schedule).build();
    let mut chaotic = ScenarioBuilder::from_config(cfg)
        .health(HealthConfig::default())
        .engine();
    chaotic.run();
    let monitor = chaotic.health_monitor().expect("health tier enabled");
    assert!(
        !monitor.all_alerts().is_empty(),
        "a six-fault run raised no alerts"
    );
}
