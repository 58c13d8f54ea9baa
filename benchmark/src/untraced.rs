//! The untraced run: a closed loop with one driver thread calling
//! `SimEngine::step` back to back (the engine's own per-PoP workers are
//! part of the program under test), then the end-to-end metrics and the
//! output checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::checks::{classify, sim_digest, OpFailure};
use crate::layers::{
    generate, Deployment, PopRuntime, ScenarioBuilder, SimConfig, SimEngine, Sink, TelemetryHandle,
    TelemetryRecord,
};
use crate::report::{note, Check, Metric, Report};
use crate::stats::{median, percentile};
use crate::workloads::{Params, Workload};

/// A telemetry sink that only counts: the program still produces every
/// record, the benchmark just does not keep them.
pub struct CountingSink(pub Arc<AtomicU64>);

impl Sink for CountingSink {
    fn write(&self, _record: &TelemetryRecord) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The inputs the program receives, and how long it took to make the
/// topology (the first half of `setup_s`).
pub struct Inputs {
    pub cfg: SimConfig,
    pub deployment: Deployment,
    pub generate_secs: f64,
    /// Records the scenario's telemetry handle has produced so far.
    pub telemetry_records: Arc<AtomicU64>,
}

pub fn make_inputs(params: &Params) -> Inputs {
    let gen = params.workload.gen_config(params.world);
    let start = Instant::now();
    let deployment = generate(&gen);
    let generate_secs = start.elapsed().as_secs_f64();
    let mut cfg =
        params
            .workload
            .sim_config(params.world, params.seed, params.epochs(), &deployment);
    let telemetry_records = Arc::new(AtomicU64::new(0));
    if params.workload == Workload::Wide {
        cfg.telemetry =
            TelemetryHandle::with_sink(Box::new(CountingSink(telemetry_records.clone())));
    }
    Inputs {
        cfg,
        deployment,
        generate_secs,
        telemetry_records,
    }
}

/// One set-up: topology generation plus engine construction.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub generate_secs: f64,
    /// `SimEngine::with_deployment`: sessions up, table load,
    /// `compact_rib`, first BMP ingest.
    pub build_secs: f64,
}

impl SetupTime {
    pub fn total_secs(&self) -> f64 {
        self.generate_secs + self.build_secs
    }
}

/// Builds the engine `reps` times (dropping each before the next, so
/// peak memory is one engine's) and returns the last with every
/// repetition's set-up time.
pub fn set_up(params: &Params, reps: usize) -> (SimEngine, Arc<AtomicU64>, Vec<SetupTime>) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let inputs = make_inputs(params);
        let start = Instant::now();
        let engine = ScenarioBuilder::from_config(inputs.cfg).engine_with(inputs.deployment);
        times.push(SetupTime {
            generate_secs: inputs.generate_secs,
            build_secs: start.elapsed().as_secs_f64(),
        });
        built = Some((engine, inputs.telemetry_records));
    }
    let (engine, telemetry_records) = built.expect("at least one set-up repetition");
    (engine, telemetry_records, times)
}

/// `(load, capacity)` per interface of one PoP after its step, when the
/// health tier exposes them.
pub fn interface_loads(pop: &PopRuntime) -> Option<Vec<(f64, f64)>> {
    let signals = pop.health_signals()?;
    Some(
        signals
            .iface_util
            .iter()
            .zip(&pop.pop.interfaces)
            .map(|((_, util), iface)| (util * iface.capacity_mbps, iface.capacity_mbps))
            .collect(),
    )
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process, KiB (`VmRSS`).
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

pub fn run(params: &Params) -> Report {
    let epochs = params.epochs();
    let (mut engine, telemetry_records, setups) = set_up(params, params.setup_reps());
    let setup_secs: Vec<f64> = setups.iter().map(SetupTime::total_secs).collect();
    let pops = engine.pops.len();
    let rib_routes = engine.pops[0].router.rib_route_count();
    let n_prefixes = engine.deployment.universe.prefixes.len();

    let mut step_ms = Vec::with_capacity(epochs as usize);
    let mut failures: Vec<(u64, u16, OpFailure)> = Vec::new();
    let mut moved_epochs = 0u64;
    let mut half_digest = String::new();
    for epoch in 0..epochs {
        let start = Instant::now();
        engine.step();
        step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        // Verification reads below are outside the timed step.
        for pop in &engine.pops {
            let record = pop
                .metrics
                .pop_epochs
                .last()
                .expect("every step records a pop-epoch");
            let loads = interface_loads(pop);
            if let Some(failure) = classify(record, loads.as_deref()) {
                failures.push((epoch, record.pop, failure));
            }
        }
        if engine
            .global
            .as_ref()
            .is_some_and(|g| g.moved_last_mbps() > 0.0)
        {
            moved_epochs += 1;
        }
        if epoch + 1 == epochs / 2 {
            half_digest = sim_digest(engine.pops.iter().map(|p| &p.metrics));
        }
    }
    let session_resets = engine.session_resets();
    let alerts = engine
        .health_monitor()
        .map_or(0, |m| m.all_alerts().len() as u64);
    let metrics = engine.take_metrics();
    let records = &metrics.pop_epochs;
    let attempted = records.len() as u64;

    let offered: f64 = records.iter().map(|r| r.offered_mbps).sum();
    let dropped: f64 = records.iter().map(|r| r.dropped_mbps).sum();
    let detoured: f64 = records.iter().map(|r| r.detoured_mbps).sum();
    let churn: usize = records
        .iter()
        .map(|r| r.churn_announced + r.churn_withdrawn)
        .sum();
    let overrides: usize = records.iter().map(|r| r.overrides_active).sum();
    let degraded = records.iter().filter(|r| r.degraded).count();
    let fail_open = records.iter().filter(|r| r.fail_open).count();
    let faulted = records
        .iter()
        .filter(|r| !r.active_faults.is_empty())
        .count();
    let telemetry = telemetry_records.load(Ordering::Relaxed);

    let step_total_s: f64 = step_ms.iter().sum::<f64>() / 1e3;
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("pop_epochs_per_s", attempted as f64 / step_total_s, "1/s"),
        Metric::new("epoch_ms_p50", percentile(&step_ms, 50.0), "ms"),
        Metric::new("epoch_ms_p95", percentile(&step_ms, 95.0), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("dropped_ppm", 1e6 * dropped / offered, "ppm"),
        Metric::new("detoured_pct", 100.0 * detoured / offered, "%"),
        Metric::new(
            "override_churn_per_kpe",
            1e3 * churn as f64 / attempted as f64,
            "1/kpe",
        ),
    ];

    let mut checks = vec![
        Check::new(
            "every pop-epoch recorded",
            attempted == epochs * pops as u64,
        ),
        Check::new("no failed pop-epochs", failures.is_empty()),
        Check::new("overrides were installed", overrides > 0),
        Check::new(
            "telemetry records exactly where a sink is attached (wide)",
            (telemetry > 0) == (params.workload == Workload::Wide),
        ),
    ];
    match params.workload {
        Workload::Steady => {
            checks.push(Check::new(
                "calm: never degraded or failed open",
                degraded + fail_open == 0,
            ));
        }
        Workload::Churn => {
            checks.push(Check::new("some pop-epoch ran degraded", degraded > 0));
            checks.push(Check::new("some pop-epoch failed open", fail_open > 0));
            checks.push(Check::new("sessions were reset", session_resets > 0));
            checks.push(Check::new("faults were active", faulted > 0));
        }
        Workload::Wide => {
            checks.push(Check::new(
                "the global tier moved traffic",
                moved_epochs > 0,
            ));
            checks.push(Check::new("a health alert fired", alerts > 0));
            checks.push(Check::new("the blackout was active", faulted > 0));
        }
        Workload::Fulltable => {
            checks.push(Check::new(
                "the RIB holds a route per prefix",
                rib_routes >= n_prefixes,
            ));
        }
    }

    let mut notes = vec![
        note("epochs", epochs),
        note("pops", pops),
        note("prefixes", n_prefixes),
        note(
            "samples_beyond_p95",
            step_ms.len() - (0.95 * step_ms.len() as f64).ceil() as usize,
        ),
        note("setup_repetitions", setup_secs.len()),
        note("sim_digest", sim_digest([&metrics])),
        note("half_digest", half_digest),
        note("degraded_pe", degraded),
        note("fail_open_pe", fail_open),
        note("faulted_pe", faulted),
        note("session_resets", session_resets),
        note("health_alerts", alerts),
        note("global_moved_epochs", moved_epochs),
        note("telemetry_records", telemetry),
    ];
    for (epoch, pop, failure) in failures.iter().take(5) {
        notes.push(note(
            format!("failed_op.e{epoch}.p{pop}"),
            format!("{failure:?}"),
        ));
    }

    Report {
        params: *params,
        traced: false,
        attempted,
        failed: failures.len() as u64,
        metrics: end_to_end,
        checks,
        notes,
    }
}
