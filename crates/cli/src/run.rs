//! `efctl run` and `efctl chaos`: one scenario run, without or with a
//! fault schedule, summarised as JSON on stdout and as the per-PoP table
//! on stderr. `--out` dumps the distilled epoch records for downstream
//! analysis (CI compares these dumps byte for byte).

use std::fmt::Write as _;

use ef_global::{BackendKind, GlobalConfig};
use ef_sim::{MetricsStore, RunReport, ScenarioBuilder};

use crate::{json, Args, Output};

fn arm(args: &Args) -> &'static str {
    if args.baseline {
        "baseline BGP"
    } else {
        "edge fabric"
    }
}

/// Writes the run's epoch records and detour episodes to `--out`, if set.
fn dump(args: &Args, metrics: &MetricsStore, out: &mut Output) -> Result<(), String> {
    let Some(path) = &args.out else {
        return Ok(());
    };
    #[derive(serde::Serialize)]
    struct Dump<'a> {
        pop_epochs: &'a [ef_sim::PopEpochRecord],
        episodes: &'a [ef_sim::DetourEpisode],
    }
    let text = serde_json::to_string_pretty(&Dump {
        pop_epochs: &metrics.pop_epochs,
        episodes: &metrics.episodes,
    })
    .map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    writeln!(out.stderr, "[wrote {path}]").unwrap();
    Ok(())
}

/// `efctl run`: Edge Fabric, or plain BGP with `--baseline`, over the
/// generated world. `--global` adds the user→PoP steering tier and
/// reports each population's placement.
pub(crate) fn run(args: &Args) -> Result<Output, String> {
    let mut out = Output::default();
    let mut builder = args
        .scenario()
        .controller_enabled(!args.baseline)
        .tune_controller(|c| {
            c.withdraw_hysteresis = args.hysteresis;
            if args.split {
                c.split_depth = 1;
            }
        });
    if args.global {
        builder = builder.global(match args.backend.as_deref() {
            Some("anycast") => GlobalConfig {
                backend: Some(BackendKind::Anycast {
                    convergence_epochs: 1,
                }),
                ..GlobalConfig::default()
            },
            _ => GlobalConfig::dns(1),
        });
    }
    let sim = builder.build();
    let mut deployment = ef_topology::generate(&sim.gen);
    if let Some(victim) = args.cripple {
        // Peak demand runs ~1.8x average, so 1.2x average cannot carry
        // the evening peak — the tier must move users.
        let applied = deployment.cap_pop_capacity_to_demand(ef_topology::PopId(victim as u16), 1.2);
        writeln!(
            out.stderr,
            "crippled pop{victim}: capacity scaled by {applied:.2}"
        )
        .unwrap();
    }
    let mut engine = ScenarioBuilder::from_config(sim).engine_with(deployment);
    engine.run();
    let placements = engine
        .global
        .as_ref()
        .map_or_else(Vec::new, |g| g.placements());
    let metrics = engine.take_metrics();
    let report = RunReport::from_metrics(&metrics);

    #[derive(serde::Serialize)]
    struct Summary<'a> {
        arm: &'a str,
        report: &'a RunReport,
        placements: &'a [ef_global::PlacementSummary],
    }
    out.stdout = json(&Summary {
        arm: arm(args),
        report: &report,
        placements: &placements,
    })?;

    writeln!(out.stderr, "arm: {}", arm(args)).unwrap();
    out.stderr.push_str(&report.render());
    if let Some(global) = &engine.global {
        writeln!(out.stderr, "backend: {}", global.backend_name()).unwrap();
        writeln!(
            out.stderr,
            "{:<10} {:>14} {:>12} {:>10}",
            "population", "baseline(Mbps)", "moved(Mbps)", "max away"
        )
        .unwrap();
        for p in &placements {
            let away_max = p.away.iter().fold(0.0f64, |a, f| a.max(*f));
            writeln!(
                out.stderr,
                "{:<10} {:>14.0} {:>12.0} {:>9.0}%",
                p.population,
                p.baseline_mbps.iter().sum::<f64>(),
                p.moved_mbps,
                away_max * 100.0
            )
            .unwrap();
        }
    }
    dump(args, &metrics, &mut out)?;
    Ok(out)
}

/// `efctl chaos`: a run under a fault schedule read from `--schedule` or
/// generated from `--chaos-seed` / `--events` / `--profile`.
pub(crate) fn chaos(args: &Args) -> Result<Output, String> {
    let mut out = Output::default();
    let cfg = args.scenario().controller_enabled(!args.baseline).build();
    let deployment = ef_topology::generate(&cfg.gen);
    let schedule = match &args.schedule {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ef_chaos::FaultSchedule::from_json(&text)?
        }
        None => {
            // `adversarial` narrows sampling to the hostile-ingest kinds
            // the RFC 7606 / recovery hardening defends against;
            // `global-partition` samples only the global-tier kinds
            // (report partitions, stale replays, controller crashes,
            // headroom lies); the default samples every per-PoP kind.
            let kinds: &[&str] = match args.profile.as_deref() {
                Some("adversarial") => &[
                    "update_corruption",
                    "session_flap_storm",
                    "injector_partial_loss",
                ],
                Some("global-partition") => &ef_chaos::FaultKind::GLOBAL_LABELS,
                _ => &[],
            };
            let profile = ef_chaos::ChaosProfile {
                duration_secs: cfg.duration_secs,
                warmup_secs: cfg.duration_secs / 6,
                events: args.events,
                min_fault_secs: (2 * cfg.epoch_secs).max(60),
                max_fault_secs: (cfg.duration_secs / 4).max((2 * cfg.epoch_secs).max(60)),
                kinds: kinds.iter().map(|k| k.to_string()).collect(),
            };
            ef_chaos::generate(
                &profile,
                &ef_sim::chaos_surface(&deployment),
                args.chaos_seed,
            )?
        }
    };
    if schedule.horizon_secs() > cfg.duration_secs {
        return Err(format!(
            "schedule runs to t={}s but the scenario ends at {}s",
            schedule.horizon_secs(),
            cfg.duration_secs
        ));
    }
    schedule.check_epoch(cfg.epoch_secs)?;

    let arm = arm(args);
    writeln!(out.stderr, "arm: {arm} under {} fault(s)", schedule.len()).unwrap();
    writeln!(
        out.stderr,
        "{:>20} {:>6} {:>8} {:>8}",
        "fault", "pop", "start", "secs"
    )
    .unwrap();
    for e in &schedule.events {
        writeln!(
            out.stderr,
            "{:>20} {:>6} {:>8} {:>8}",
            e.kind.label(),
            match e.target.pop() {
                Some(p) => p.to_string(),
                None => match e.target.global_pop() {
                    Some(p) => format!("g:{p}"),
                    None => "global".to_string(),
                },
            },
            e.t_start_secs,
            e.duration_secs
        )
        .unwrap();
    }

    let n_faults = schedule.len();
    let mut builder = ScenarioBuilder::from_config(cfg).chaos(schedule);
    if args.profile.as_deref() == Some("global-partition") {
        // Global-tier faults are no-ops without the tier they break.
        builder = builder.global(GlobalConfig::default());
    }
    let mut engine = builder.engine_with(deployment);
    engine.run();
    let metrics = engine.take_metrics();

    let faulted = metrics
        .pop_epochs
        .iter()
        .filter(|r| !r.active_faults.is_empty())
        .count();
    let degraded = metrics.pop_epochs.iter().filter(|r| r.degraded).count();
    let fail_open = metrics.pop_epochs.iter().filter(|r| r.fail_open).count();
    let report = RunReport::from_metrics(&metrics);

    #[derive(serde::Serialize)]
    struct Summary<'a> {
        arm: &'a str,
        faults: usize,
        fault_epochs: usize,
        degraded_epochs: usize,
        fail_open_epochs: usize,
        report: &'a RunReport,
    }
    out.stdout = json(&Summary {
        arm,
        faults: n_faults,
        fault_epochs: faulted,
        degraded_epochs: degraded,
        fail_open_epochs: fail_open,
        report: &report,
    })?;

    out.stderr.push_str(&report.render());
    writeln!(
        out.stderr,
        "fault epochs: {faulted} ({degraded} degraded, {fail_open} fail-open)"
    )
    .unwrap();
    dump(args, &metrics, &mut out)?;
    Ok(out)
}
