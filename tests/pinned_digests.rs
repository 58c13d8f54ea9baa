//! Pinned simulator behaviour: an FNV-1a 64 digest of everything a run's
//! `MetricsStore` records, for four small worlds, checked against the
//! digests committed under `tests/pinned/`.
//!
//! A change that is meant to leave the simulation alone (a refactor, a
//! telemetry change, a speed-up) must leave every digest where it is. A
//! change that means to move results updates the `.digest` file it moved
//! and says why; the failure message prints the new value.
//!
//! The worlds:
//! * `global_partition` — `efctl chaos --profile global-partition --pops 6
//!   --prefixes 300 --hours 1 --epoch 60 --events 6 --chaos-seed 3`;
//! * `global_split` — `efctl run --global --split --cripple 0 --pops 6
//!   --prefixes 300 --hours 1 --epoch 60`;
//! * `calm_trace` — `efctl trace --seed 3 --pops 4 --prefixes 200 --hours
//!   0.5 --epoch 60`: health tier and a telemetry sink attached;
//! * `churn` — the benchmark's `churn` shape at small scale (sampled rates,
//!   perf steering, faults of every per-PoP kind) plus a nested same-kind
//!   pair, with a telemetry sink attached.

mod common;

use ef_chaos::{ChaosProfile, FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_global::GlobalConfig;
use ef_sim::{scenario, MetricsStore, PerfSimConfig, ScenarioBuilder};
use ef_telemetry::TelemetryHandle;
use ef_topology::{Deployment, GenConfig};

/// The world `efctl` generates for `--seed`, `--pops`, `--prefixes`,
/// `--hours` and `--epoch`.
fn cli_world(seed: u64, pops: usize, prefixes: usize, duration_secs: u64) -> ScenarioBuilder {
    scenario()
        .topology(GenConfig {
            seed,
            n_pops: pops,
            n_prefixes: prefixes,
            n_ases: (prefixes / 8).clamp(8, 400),
            total_avg_gbps: 400.0 * pops as f64,
            ..GenConfig::default()
        })
        .duration_secs(duration_secs)
        .epoch_secs(60)
}

fn run(builder: ScenarioBuilder, deployment: Option<Deployment>) -> MetricsStore {
    let cfg = builder.build();
    let deployment = deployment.unwrap_or_else(|| ef_topology::generate(&cfg.gen));
    let mut engine = ScenarioBuilder::from_config(cfg).engine_with(deployment);
    engine.run();
    engine.take_metrics()
}

fn global_partition() -> MetricsStore {
    let cfg = cli_world(7, 6, 300, 3600).build();
    let deployment = ef_topology::generate(&cfg.gen);
    let profile = ChaosProfile {
        duration_secs: cfg.duration_secs,
        warmup_secs: cfg.duration_secs / 6,
        events: 6,
        min_fault_secs: 120,
        max_fault_secs: cfg.duration_secs / 4,
        kinds: FaultKind::GLOBAL_LABELS.map(String::from).to_vec(),
    };
    let schedule = ef_chaos::generate(&profile, &ef_sim::chaos_surface(&deployment), 3)
        .expect("schedule generates");
    let builder = ScenarioBuilder::from_config(cfg)
        .chaos(schedule)
        .global(GlobalConfig::default());
    run(builder, Some(deployment))
}

fn global_split() -> MetricsStore {
    let cfg = cli_world(7, 6, 300, 3600)
        .tune_controller(|c| {
            c.withdraw_hysteresis = 0.0;
            c.split_depth = 1;
        })
        .global(GlobalConfig::dns(1))
        .build();
    let mut deployment = ef_topology::generate(&cfg.gen);
    deployment.cap_pop_capacity_to_demand(ef_topology::PopId(0), 1.2);
    run(ScenarioBuilder::from_config(cfg), Some(deployment))
}

fn calm_trace() -> MetricsStore {
    let (handle, _sink) = TelemetryHandle::memory();
    let builder = cli_world(3, 4, 200, 1800)
        .health(ef_health::HealthConfig::default())
        .telemetry(handle);
    run(builder, None)
}

fn churn() -> MetricsStore {
    let cfg = cli_world(5, 4, 200, 7200)
        .epoch_secs(120)
        .sample_rate(1000)
        .billing(false)
        .perf(PerfSimConfig { steer: true })
        .build();
    let deployment = ef_topology::generate(&cfg.gen);
    let profile = ChaosProfile {
        duration_secs: cfg.duration_secs,
        warmup_secs: 10 * cfg.epoch_secs,
        events: 16,
        min_fault_secs: 2 * cfg.epoch_secs,
        max_fault_secs: 15 * cfg.epoch_secs,
        kinds: Vec::new(),
    };
    let generated = ef_chaos::generate(&profile, &ef_sim::chaos_surface(&deployment), 5)
        .expect("schedule generates");
    // Two same-kind windows on one PoP, the inner one closing first.
    let crash = |t_start_secs, duration_secs| FaultEvent {
        t_start_secs,
        duration_secs,
        target: FaultTarget::Pop { pop: 1 },
        kind: FaultKind::ControllerCrash,
    };
    let mut events = generated.events;
    events.extend([crash(3_007, 1_200), crash(3_051, 600)]);
    let schedule = FaultSchedule::new(events).expect("valid schedule");
    let (handle, _sink) = TelemetryHandle::memory();
    let builder = ScenarioBuilder::from_config(cfg)
        .chaos(schedule)
        .telemetry(handle);
    run(builder, Some(deployment))
}

/// FNV-1a 64 over the store's [`common::run_view`].
fn digest(store: &MetricsStore) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in common::run_view(store).bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn pinned_worlds_keep_their_digests() {
    let worlds = [
        ("global_partition", global_partition()),
        ("global_split", global_split()),
        ("calm_trace", calm_trace()),
        ("churn", churn()),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/pinned");
    let mut moved = Vec::new();
    for (name, store) in worlds {
        assert!(!store.pop_epochs.is_empty(), "{name} ran no epochs");
        let path = dir.join(format!("{name}.digest"));
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let got = digest(&store);
        if pinned.trim() != got {
            moved.push(format!("{name}: pinned {} now {got}", pinned.trim()));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
