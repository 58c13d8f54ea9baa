//! Seed determinism: the same scenario seed must reproduce byte-identical
//! metrics, with and without fault injection. Every experiment's
//! credibility rests on this (the paper comparisons attribute arm
//! differences to the controller, which only holds if nothing else in the
//! run is nondeterministic).

mod common;

use ef_sim::{scenario, ScenarioBuilder, SimConfig};

fn run(cfg: SimConfig) -> ef_sim::MetricsStore {
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    engine.run();
    engine.take_metrics()
}

/// Serialized fingerprint of everything a run records.
fn fingerprint(cfg: SimConfig) -> String {
    common::run_view(&run(cfg))
}

/// The 15-minute small-world scenario every check here varies.
fn short(seed: u64) -> ScenarioBuilder {
    scenario()
        .small_topology(seed)
        .duration_secs(900)
        .epoch_secs(60)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = fingerprint(short(11).build());
    let b = fingerprint(short(11).build());
    assert_eq!(a, b, "two runs of the same seed diverged");
}

#[test]
fn same_seed_runs_with_chaos_are_byte_identical() {
    // Whole-prefix forwarding, then split forwarding — the hardest case
    // for the epoch caches: faults invalidate them mid-run (peer failures,
    // controller crash-resync, capacity loss) while prefix splitting
    // doubles the lookup units per prefix.
    for split_depth in [0, 1] {
        let base = short(11)
            .tune_controller(|c| c.split_depth = split_depth)
            .build();
        let schedule = chaos_schedule(&base);
        let cfg = ScenarioBuilder::from_config(base).chaos(schedule).build();
        let a = fingerprint(cfg.clone());
        let b = fingerprint(cfg);
        assert_eq!(
            a, b,
            "two chaotic runs of the same seed diverged (split_depth {split_depth})"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(short(11).build());
    let b = fingerprint(short(12).build());
    assert_ne!(a, b, "different demand seeds produced identical runs");
}

#[test]
fn baseline_arm_is_deterministic_too() {
    let a = fingerprint(short(11).baseline().build());
    let b = fingerprint(short(11).baseline().build());
    assert_eq!(a, b);
}

/// The chaos schedule the chaotic checks here share.
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
fn caches_off_matches_caches_on_at_full_table_shape() {
    // The equivalence itself is asserted in situ: debug builds check every
    // cached hop against a fresh trie walk and every memoized projection
    // against the stateless recompute. This run makes those checks cover
    // the journal path. One PoP, a table large against the per-epoch
    // override churn, split forwarding: each epoch's FIB delta is a small
    // share of the 10 000 lookup units, so the cache invalidates from the
    // router's change journal (the small worlds above mostly take the
    // forget-everything fallback). A day in 24 epochs crosses the diurnal
    // peak.
    const PREFIXES: usize = 5_000;
    let cfg = scenario()
        .topology(ef_topology::GenConfig {
            seed: 7,
            n_pops: 1,
            n_ases: PREFIXES / 10,
            n_prefixes: PREFIXES,
            total_avg_gbps: 100.0,
            ..ef_topology::GenConfig::default()
        })
        .duration_secs(86_400)
        .epoch_secs(3_600)
        .exact_rates()
        .tune_controller(|c| c.split_depth = 1)
        .build();

    let churn: Vec<usize> = run(cfg)
        .pop_epochs
        .iter()
        .map(|r| r.churn_announced + r.churn_withdrawn)
        .collect();
    assert!(
        churn.iter().filter(|&&c| c > 0).count() >= 3,
        "overrides move the FIB in several epochs: {churn:?}"
    );
    assert!(
        churn.iter().all(|&c| c < PREFIXES / 4),
        "every epoch's delta stays a small share of the table: {churn:?}"
    );
}

/// A global-tier configuration aggressive enough to actually engage in
/// the 15-minute small world: a 4x flash crowd on the NA population
/// forces drops, which the steering backend answers with placements.
fn global_cfg(backend: ef_global::BackendKind) -> ef_global::GlobalConfig {
    ef_global::GlobalConfig {
        backend: Some(backend),
        step: 0.1,
        ..Default::default()
    }
    .with_flash_crowd(ef_global::FlashCrowdSpec {
        population: "NA".into(),
        t_start_secs: 240,
        duration_secs: 480,
        multiplier: 4.0,
    })
}

#[test]
fn global_tier_runs_are_byte_identical() {
    // Both steering backends: the user->PoP layer sits above every PoP
    // and reshuffles demand between them, so any nondeterminism in it
    // (map iteration, report ordering) would corrupt every arm of E14/E18.
    for backend in [
        ef_global::BackendKind::Dns { ttl_epochs: 2 },
        ef_global::BackendKind::Anycast {
            convergence_epochs: 2,
        },
    ] {
        let a = fingerprint(short(11).global(global_cfg(backend)).build());
        let b = fingerprint(short(11).global(global_cfg(backend)).build());
        assert_eq!(a, b, "global-tier runs diverged ({backend:?})");
    }
}

/// A deterministic hand-written schedule hitting every global fault kind
/// inside the crowd window: stale replays, a lie, a partition, and a
/// controller crash all while placements are in flight.
fn global_chaos() -> ef_chaos::FaultSchedule {
    ef_chaos::FaultSchedule::new(vec![
        ef_chaos::FaultEvent {
            t_start_secs: 300,
            duration_secs: 180,
            target: ef_chaos::FaultTarget::Global { pop: Some(0) },
            kind: ef_chaos::FaultKind::ReportStaleness { epochs: 3 },
        },
        ef_chaos::FaultEvent {
            t_start_secs: 300,
            duration_secs: 240,
            target: ef_chaos::FaultTarget::Global { pop: Some(1) },
            kind: ef_chaos::FaultKind::HeadroomLie { factor: 20.0 },
        },
        ef_chaos::FaultEvent {
            t_start_secs: 420,
            duration_secs: 120,
            target: ef_chaos::FaultTarget::Global { pop: Some(2) },
            kind: ef_chaos::FaultKind::ReportPartition,
        },
        ef_chaos::FaultEvent {
            t_start_secs: 600,
            duration_secs: 120,
            target: ef_chaos::FaultTarget::Global { pop: None },
            kind: ef_chaos::FaultKind::GlobalControllerCrash,
        },
    ])
    .expect("valid global schedule")
}

#[test]
fn global_chaos_runs_are_byte_identical() {
    // The fault interpretation path (report history replay, partition
    // masking, crash epochs) and the guard state it drives must be as
    // reproducible as the sunny-day tier, for both steering backends.
    for backend in [
        ef_global::BackendKind::Dns { ttl_epochs: 2 },
        ef_global::BackendKind::Anycast {
            convergence_epochs: 2,
        },
    ] {
        let cfg = || {
            short(11)
                .global(global_cfg(backend))
                .chaos(global_chaos())
                .build()
        };
        let a = fingerprint(cfg());
        let b = fingerprint(cfg());
        assert_eq!(a, b, "global-chaos runs diverged ({backend:?})");
    }
}

#[test]
fn global_chaos_telemetry_invariance() {
    // Guard provenance (placement records, fault edges at the sentinel
    // PoP) is emitted only when a sink listens; the emission must not
    // perturb what the guards decided.
    let dns = ef_global::BackendKind::Dns { ttl_epochs: 2 };
    let plain = fingerprint(
        short(11)
            .global(global_cfg(dns))
            .chaos(global_chaos())
            .build(),
    );
    let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
    let observed = fingerprint(
        short(11)
            .global(global_cfg(dns))
            .chaos(global_chaos())
            .telemetry(handle)
            .build(),
    );
    assert_eq!(
        plain, observed,
        "telemetry sink changed results under global chaos"
    );
    let globals: Vec<_> = sink
        .events()
        .iter()
        .filter(|e| e.pop == ef_health::GLOBAL_POP && e.name == "fault.start")
        .map(|e| e.str_field("kind").unwrap_or_default().to_string())
        .collect();
    for kind in [
        "report_staleness",
        "headroom_lie",
        "report_partition",
        "global_controller_crash",
    ] {
        assert!(
            globals.iter().any(|k| k == kind),
            "missing fault.start edge for {kind}, got {globals:?}"
        );
    }
}

#[test]
fn global_tier_telemetry_invariance() {
    // Placement provenance is emitted only when a sink is attached; the
    // emission path must not perturb the placement itself.
    let dns = ef_global::BackendKind::Dns { ttl_epochs: 2 };
    let plain = fingerprint(short(11).global(global_cfg(dns)).build());
    let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
    let observed = fingerprint(short(11).global(global_cfg(dns)).telemetry(handle).build());
    assert_eq!(
        plain, observed,
        "telemetry sink changed results with the global tier on"
    );
    assert!(
        !sink.placements().is_empty(),
        "the crowd-stressed run actually emitted placement records"
    );
}

#[test]
fn telemetry_sink_never_changes_results() {
    // Attaching a telemetry sink is pure observation: the run's recorded
    // metrics must be byte-identical with and without one, sunny-day and
    // under chaos. This is the determinism half of the telemetry contract
    // (the sink gets wall-clock timings and thread-interleaved records;
    // none of that may leak into results).
    let plain = fingerprint(short(11).build());
    let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
    let observed = fingerprint(short(11).telemetry(handle).build());
    assert_eq!(
        plain, observed,
        "telemetry sink changed the recorded metrics"
    );
    assert!(
        !sink.is_empty(),
        "the observed run actually produced telemetry"
    );

    // Same check under a fault schedule, where the controller's degraded
    // and fail-open paths emit far more telemetry.
    let schedule = chaos_schedule(&short(11).build());
    let cfg = short(11).chaos(schedule).build();
    let plain = fingerprint(cfg.clone());
    let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
    let observed = fingerprint(ScenarioBuilder::from_config(cfg).telemetry(handle).build());
    assert_eq!(
        plain, observed,
        "telemetry sink changed the recorded metrics under chaos"
    );
    assert!(
        sink.events().iter().any(|e| e.name == "fault.start"),
        "chaotic observed run logged its faults"
    );
}
