//! Epoch-engine throughput sweep.
//!
//! Runs the seeded scenario at each (#PoPs × #prefixes) sweep point and
//! reports pop-epochs/second plus mean per-phase wall time from the
//! controller's `epoch` telemetry events, then re-times the point with the
//! health tier and (at the smoke point) the cost path attached to gate
//! their overhead.
//!
//! Output: `results/BENCH_epoch.json`. With `--smoke`, only the smallest
//! point runs and results land in `results/BENCH_epoch_smoke.json`; the
//! throughput gate then compares against the committed `BENCH_epoch.json`
//! baseline (failing below half of it: the 2x headroom absorbs
//! machine-to-machine variance in CI). Every gate ([`failed_gates`]) is
//! judged before the binary exits 1 naming all that failed; the smoke
//! report is written either way, the committed full-sweep report only when
//! every gate passed.

use std::time::Instant;

use ef_bench::{results_dir, write_json};
use ef_sim::{scenario, ScenarioBuilder, SimConfig};
use ef_telemetry::{Event, FieldValue, TelemetryHandle};
use ef_topology::{generate, Deployment, GenConfig};
use serde::{Deserialize, Serialize};

const SEED: u64 = 7;
const EPOCH_SECS: u64 = 30;
const DURATION_SECS: u64 = 1800;
const SMOKE_DURATION_SECS: u64 = 600;

/// Sweep points: (n_pops, n_prefixes). The first is the smoke point.
const SWEEP: [(usize, usize); 3] = [(2, 400), (4, 1200), (4, 6000)];

/// Single-PoP prefix-count axis, up to full-table scale, a few epochs
/// each — the interesting number is wall seconds per epoch as the table
/// grows.
const PREFIX_AXIS: [usize; 4] = [50_000, 100_000, 250_000, 500_000];
const AXIS_EPOCHS: u64 = 3;
/// The largest axis point must hold one epoch in single-digit seconds.
const AXIS_EPOCH_WALL_LIMIT_SECS: f64 = 10.0;

#[derive(Serialize, Deserialize)]
struct PhaseUs {
    projection_us: f64,
    allocation_us: f64,
    guards_us: f64,
    injection_us: f64,
    bmp_ingest_us: f64,
    total_us: f64,
}

#[derive(Serialize, Deserialize)]
struct ArmResult {
    wall_secs: f64,
    pop_epochs_per_sec: f64,
    phase_us: PhaseUs,
}

/// The engine re-run with the health tier sampling every epoch.
#[derive(Serialize, Deserialize)]
struct HealthArm {
    wall_secs: f64,
    pop_epochs_per_sec: f64,
    /// Fractional wall-clock cost vs. the health-off arm,
    /// comparing the fastest rep of each arm. On a shared machine whose
    /// speed flips between modes lasting seconds, any single rep (or
    /// paired ratio) is contaminated whenever one of its runs crosses a
    /// slow mode; with enough interleaved reps, the *fastest* rep of
    /// each arm lands in the fast mode, so the minima compare like with
    /// like and the difference is the true steady-state cost.
    overhead_frac: f64,
}

#[derive(Serialize, Deserialize)]
struct SweepPoint {
    n_pops: usize,
    n_prefixes: usize,
    n_ases: usize,
    pop_epochs: u64,
    /// The epoch engine, bare. Keyed `incremental` because the committed
    /// `BENCH_epoch.json` baseline the smoke gate reads uses that key.
    incremental: ArmResult,
    /// None only in baselines recorded before the health tier existed.
    #[serde(default)]
    health: Option<HealthArm>,
    /// None only in baselines recorded before the cost model existed.
    #[serde(default)]
    cost: Option<CostArm>,
}

/// The full cost path (95/5 billing meter sampling every epoch plus
/// cost-aware band scans over a non-uniform price ladder) timed against
/// the same scenario with billing off and the tiebreak disabled. Same
/// fastest-rep-of-interleaved-arms estimator as [`HealthArm`].
#[derive(Serialize, Deserialize)]
struct CostArm {
    wall_secs: f64,
    pop_epochs_per_sec: f64,
    /// Fractional wall-clock cost vs. the cost-free arm.
    overhead_frac: f64,
}

/// One point on the single-PoP prefix-count axis.
#[derive(Serialize, Deserialize)]
struct PrefixAxisPoint {
    n_prefixes: usize,
    epochs: u64,
    /// Topology + engine construction (includes the full-table load).
    build_secs: f64,
    /// Timed engine run (construction excluded).
    wall_secs: f64,
    /// Wall seconds per epoch — the headline scale number.
    epoch_wall_secs: f64,
    pop_epochs_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    seed: u64,
    epoch_secs: u64,
    duration_secs: u64,
    points: Vec<SweepPoint>,
    /// Empty in baselines recorded before the axis existed.
    #[serde(default)]
    prefix_axis: Vec<PrefixAxisPoint>,
}

fn config(n_pops: usize, n_prefixes: usize, duration_secs: u64) -> SimConfig {
    let n_ases = (n_prefixes / 10).max(20);
    scenario()
        .topology(GenConfig {
            seed: SEED,
            n_pops,
            n_ases,
            n_prefixes,
            total_avg_gbps: 100.0 * n_pops as f64,
            ..GenConfig::small(SEED)
        })
        .duration_secs(duration_secs)
        .epoch_secs(EPOCH_SECS)
        .exact_rates()
        // Splitting doubles the lookup units per prefix — the hardest case
        // for the FIB cache, and the configuration the determinism suite
        // pins.
        .tune_controller(|c| c.split_depth = 1)
        .build()
}

fn mean_field(events: &[Event], key: &str) -> f64 {
    let vals: Vec<f64> = events
        .iter()
        .filter_map(|e| match e.field(key) {
            Some(FieldValue::U64(n)) => Some(*n as f64),
            Some(FieldValue::I64(n)) => Some(*n as f64),
            Some(FieldValue::F64(f)) => Some(*f),
            _ => None,
        })
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Per-phase means from an untimed telemetry pass (the memory sink skews
/// absolute numbers, so these are for relative attribution only).
fn phase_profile(cfg: &SimConfig, deployment: &Deployment) -> PhaseUs {
    let (handle, sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(cfg.clone())
        .telemetry(handle)
        .engine_with(deployment.clone());
    engine.run();
    let epochs = sink.events_named("epoch");
    PhaseUs {
        projection_us: mean_field(&epochs, "projection_us"),
        allocation_us: mean_field(&epochs, "allocation_us"),
        guards_us: mean_field(&epochs, "guards_us"),
        injection_us: mean_field(&epochs, "injection_us"),
        bmp_ingest_us: mean_field(&epochs, "bmp_ingest_us"),
        total_us: mean_field(&epochs, "total_us"),
    }
}

/// One telemetry-free timed run; returns wall seconds.
fn timed_wall(cfg: &SimConfig, deployment: &Deployment, health: bool) -> f64 {
    let mut builder = ScenarioBuilder::from_config(cfg.clone());
    if health {
        builder = builder.health(ef_health::HealthConfig::default());
    }
    let mut engine = builder.engine_with(deployment.clone());
    let start = Instant::now();
    engine.run();
    start.elapsed().as_secs_f64()
}

/// Timed repetitions per arm; arms are interleaved so drift (thermal,
/// noisy neighbors) hits both equally, and the fastest rep is kept — the
/// standard steady-state estimator under one-sided noise. Small sweep
/// points finish one rep in tens of milliseconds, far too short to
/// resolve the few-percent health-cost gate on a shared machine, so reps
/// continue past the minimum until the reference arm has accumulated
/// `TIMED_TARGET_SECS` of measured wall time (bounded by the cap).
const TIMED_REPS_MIN: usize = 3;
const TIMED_REPS_MAX: usize = 21;
const TIMED_TARGET_SECS: f64 = 4.0;

fn run_point(n_pops: usize, n_prefixes: usize, duration_secs: u64) -> SweepPoint {
    let cfg = config(n_pops, n_prefixes, duration_secs);
    let deployment = generate(&cfg.gen);
    let pop_epochs = cfg.epochs() * n_pops as u64;
    eprintln!("[perf-scaling] {n_pops} PoPs x {n_prefixes} prefixes: phase profile...");
    let phase_us = phase_profile(&cfg, &deployment);
    let mut bare_reps: Vec<f64> = Vec::new();
    let mut hea_reps: Vec<f64> = Vec::new();
    loop {
        // Alternate arm order each rep: whichever arm runs second inherits
        // the first's cache/allocator aftermath, so a fixed order would
        // bias the few-percent health comparison.
        let (w, h) = if bare_reps.len().is_multiple_of(2) {
            let w = timed_wall(&cfg, &deployment, false);
            (w, timed_wall(&cfg, &deployment, true))
        } else {
            let h = timed_wall(&cfg, &deployment, true);
            (timed_wall(&cfg, &deployment, false), h)
        };
        bare_reps.push(w);
        hea_reps.push(h);
        eprintln!(
            "[perf-scaling] {n_pops} PoPs x {n_prefixes} prefixes: rep {}: bare {:.1} ms, health {:.1} ms",
            bare_reps.len(),
            w * 1e3,
            h * 1e3
        );
        let rep = bare_reps.len();
        let bare_total: f64 = bare_reps.iter().sum();
        if rep >= TIMED_REPS_MIN && (bare_total >= TIMED_TARGET_SECS || rep >= TIMED_REPS_MAX) {
            break;
        }
    }
    let bare_wall = bare_reps.iter().copied().fold(f64::INFINITY, f64::min);
    let hea_wall = hea_reps.iter().copied().fold(f64::INFINITY, f64::min);
    let health = HealthArm {
        wall_secs: hea_wall,
        pop_epochs_per_sec: pop_epochs as f64 / hea_wall,
        overhead_frac: hea_wall / bare_wall - 1.0,
    };
    SweepPoint {
        n_pops,
        n_prefixes,
        n_ases: cfg.gen.n_ases,
        pop_epochs,
        incremental: ArmResult {
            wall_secs: bare_wall,
            pop_epochs_per_sec: pop_epochs as f64 / bare_wall,
            phase_us,
        },
        health: Some(health),
        cost: None,
    }
}

fn run_axis_point(n_prefixes: usize) -> PrefixAxisPoint {
    let cfg = config(1, n_prefixes, AXIS_EPOCHS * EPOCH_SECS);
    eprintln!("[perf-scaling] prefix axis: 1 PoP x {n_prefixes} prefixes...");
    let build_start = Instant::now();
    let deployment = generate(&cfg.gen);
    let mut engine = ScenarioBuilder::from_config(cfg.clone()).engine_with(deployment);
    let build_secs = build_start.elapsed().as_secs_f64();
    let start = Instant::now();
    engine.run();
    let wall_secs = start.elapsed().as_secs_f64();
    let epochs = cfg.epochs();
    let point = PrefixAxisPoint {
        n_prefixes,
        epochs,
        build_secs,
        wall_secs,
        epoch_wall_secs: wall_secs / epochs as f64,
        pop_epochs_per_sec: epochs as f64 / wall_secs,
    };
    eprintln!(
        "[perf-scaling] prefix axis: {n_prefixes} prefixes: build {:.1}s, {:.2}s/epoch",
        point.build_secs, point.epoch_wall_secs
    );
    point
}

/// Times the cost path at a sweep point: billing off + tiebreak off
/// against the 95/5 meter sampling every epoch + cost-aware band scans.
/// The default ladder is uniform, so the tiebreak provably picks the same
/// targets (pinned by `uniform_prices_make_cost_aware_a_noop`) — both
/// arms do byte-identical steering work over one shared world, and the
/// difference is purely the cost machinery. Interleaved fastest-rep
/// minima, as in [`run_point`].
fn measure_cost_overhead(cfg: &SimConfig) -> CostArm {
    let plain_cfg = ScenarioBuilder::from_config(cfg.clone())
        .billing(false)
        .build();
    let cost_cfg = ScenarioBuilder::from_config(cfg.clone())
        .billing(true)
        .cost_aware(true)
        .build();
    let world = generate(&cfg.gen);
    let timed = |cfg: &SimConfig, world: &Deployment| {
        let mut engine = ScenarioBuilder::from_config(cfg.clone()).engine_with(world.clone());
        let start = Instant::now();
        engine.run();
        start.elapsed().as_secs_f64()
    };
    let pop_epochs = cfg.epochs() * cfg.gen.n_pops as u64;
    let (mut plain_wall, mut cost_wall) = (f64::INFINITY, f64::INFINITY);
    let mut plain_total = 0.0;
    let mut rep = 0usize;
    loop {
        let (p, c) = if rep.is_multiple_of(2) {
            let p = timed(&plain_cfg, &world);
            (p, timed(&cost_cfg, &world))
        } else {
            let c = timed(&cost_cfg, &world);
            (timed(&plain_cfg, &world), c)
        };
        plain_wall = plain_wall.min(p);
        cost_wall = cost_wall.min(c);
        plain_total += p;
        rep += 1;
        eprintln!(
            "[perf-scaling] cost-path rep {rep}: plain {:.1} ms, cost {:.1} ms",
            p * 1e3,
            c * 1e3
        );
        if rep >= TIMED_REPS_MIN && (plain_total >= TIMED_TARGET_SECS || rep >= TIMED_REPS_MAX) {
            break;
        }
    }
    CostArm {
        wall_secs: cost_wall,
        pop_epochs_per_sec: pop_epochs as f64 / cost_wall,
        overhead_frac: cost_wall / plain_wall - 1.0,
    }
}

/// Limit of the cost and health gates, as a fraction of epoch throughput.
const OVERHEAD_LIMIT: f64 = 0.05;

/// Judges every gate on `report`, printing one line each, and returns the
/// lines of those that failed:
///
/// * cost: billing + cost-aware allocation must cost under 5% of epoch
///   throughput at the smoke point;
/// * health: per-epoch health sampling likewise. Only the smoke point's
///   dozens of interleaved tens-of-milliseconds reps let the per-arm
///   minima land in the same machine-speed mode; the larger points run a
///   handful of multi-second reps, whose speed drift can fabricate tens of
///   percent either way, so their overhead is recorded but not gated;
/// * throughput: the smoke point at no less than half of `baseline`'s, when
///   the baseline has that point;
/// * full table: the largest prefix-axis point holds one epoch in
///   single-digit seconds.
fn failed_gates(report: &BenchReport, baseline: Option<&BenchReport>) -> Vec<String> {
    let smoke = &report.points[0];
    let mut gates: Vec<(bool, String)> = Vec::new();
    if let Some(cost) = &smoke.cost {
        gates.push((
            cost.overhead_frac < OVERHEAD_LIMIT,
            format!(
                "cost: billing + cost-aware allocation costs {:.1}% of epoch throughput (limit 5%)",
                cost.overhead_frac * 100.0
            ),
        ));
    }
    if let Some(health) = &smoke.health {
        gates.push((
            health.overhead_frac < OVERHEAD_LIMIT,
            format!(
                "health: sampling costs {:.1}% of epoch throughput at {} PoPs x {} prefixes (limit 5%)",
                health.overhead_frac * 100.0,
                smoke.n_pops,
                smoke.n_prefixes
            ),
        ));
    }
    let reference = baseline.and_then(|b| {
        b.points
            .iter()
            .find(|p| p.n_pops == smoke.n_pops && p.n_prefixes == smoke.n_prefixes)
    });
    if let Some(reference) = reference {
        let (measured, base) = (
            smoke.incremental.pop_epochs_per_sec,
            reference.incremental.pop_epochs_per_sec,
        );
        gates.push((
            measured >= base / 2.0,
            format!(
                "throughput: {measured:.1} pop-epochs/s, baseline {base:.1} (floor half of it)"
            ),
        ));
    }
    if let Some(full) = report.prefix_axis.last() {
        gates.push((
            full.epoch_wall_secs < AXIS_EPOCH_WALL_LIMIT_SECS,
            format!(
                "full table: a {}-prefix epoch takes {:.2}s (limit {AXIS_EPOCH_WALL_LIMIT_SECS}s)",
                full.n_prefixes, full.epoch_wall_secs
            ),
        ));
    }
    for (pass, line) in &gates {
        println!("gate {} {line}", if *pass { "pass" } else { "FAIL" });
    }
    gates
        .into_iter()
        .filter(|(pass, _)| !pass)
        .map(|(_, line)| line)
        .collect()
}

/// Exits 1 naming every failed gate, if any failed.
fn exit_on_failure(failed: &[String]) {
    if failed.is_empty() {
        return;
    }
    for gate in failed {
        eprintln!("[perf-scaling] FAIL {gate}");
    }
    std::process::exit(1);
}

fn print_table(points: &[SweepPoint]) {
    println!("Epoch-engine throughput");
    println!(
        "{:>6} {:>9} {:>14} {:>13} {:>12} {:>12}",
        "pops", "prefixes", "ep/s", "health ep/s", "proj us", "total us"
    );
    for p in points {
        println!(
            "{:>6} {:>9} {:>14.1} {:>13.1} {:>12.1} {:>12.1}",
            p.n_pops,
            p.n_prefixes,
            p.incremental.pop_epochs_per_sec,
            p.health.as_ref().map_or(0.0, |h| h.pop_epochs_per_sec),
            p.incremental.phase_us.projection_us,
            p.incremental.phase_us.total_us,
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        // Regression gate: compare against the committed full-sweep
        // baseline, read before running so a broken run cannot clobber it.
        let baseline_path = results_dir().join("BENCH_epoch.json");
        let baseline: Option<BenchReport> = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok());
        if baseline.is_none() {
            eprintln!(
                "[perf-scaling] no committed baseline at {baseline_path:?}; throughput gate passes vacuously"
            );
        }

        let (n_pops, n_prefixes) = SWEEP[0];
        let mut point = run_point(n_pops, n_prefixes, SMOKE_DURATION_SECS);
        point.cost = Some(measure_cost_overhead(&config(
            n_pops,
            n_prefixes,
            SMOKE_DURATION_SECS,
        )));
        print_table(std::slice::from_ref(&point));
        let report = BenchReport {
            seed: SEED,
            epoch_secs: EPOCH_SECS,
            duration_secs: SMOKE_DURATION_SECS,
            points: vec![point],
            prefix_axis: Vec::new(),
        };
        let failed = failed_gates(&report, baseline.as_ref());
        write_json("BENCH_epoch_smoke", &report);
        exit_on_failure(&failed);
        return;
    }

    let mut points: Vec<SweepPoint> = SWEEP
        .iter()
        .map(|&(n_pops, n_prefixes)| run_point(n_pops, n_prefixes, DURATION_SECS))
        .collect();
    // Cost-path overhead is measured (and gated) at the smoke-size point
    // only; the larger points' few multi-second reps cannot resolve it.
    points[0].cost = Some(measure_cost_overhead(&config(
        SWEEP[0].0,
        SWEEP[0].1,
        DURATION_SECS,
    )));
    print_table(&points);

    let prefix_axis: Vec<PrefixAxisPoint> =
        PREFIX_AXIS.iter().map(|&n| run_axis_point(n)).collect();
    println!("Single-PoP prefix-count axis");
    println!(
        "{:>9} {:>10} {:>10} {:>12}",
        "prefixes", "build s", "epoch s", "epochs/s"
    );
    for p in &prefix_axis {
        println!(
            "{:>9} {:>10.2} {:>10.2} {:>12.2}",
            p.n_prefixes, p.build_secs, p.epoch_wall_secs, p.pop_epochs_per_sec
        );
    }
    let report = BenchReport {
        seed: SEED,
        epoch_secs: EPOCH_SECS,
        duration_secs: DURATION_SECS,
        points,
        prefix_axis,
    };
    // A report that failed a gate is not a baseline to commit.
    exit_on_failure(&failed_gates(&report, None));
    write_json("BENCH_epoch", &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed full sweep, which passed every gate.
    fn committed() -> BenchReport {
        let json = std::fs::read_to_string(results_dir().join("BENCH_epoch.json"))
            .expect("committed BENCH_epoch.json");
        serde_json::from_str(&json).expect("a BenchReport")
    }

    fn names(failed: &[String]) -> Vec<&str> {
        failed.iter().filter_map(|f| f.split(':').next()).collect()
    }

    #[test]
    fn every_failed_gate_is_named() {
        let baseline = committed();
        let mut report = committed();
        assert!(failed_gates(&report, Some(&baseline)).is_empty());
        let smoke = &mut report.points[0];
        smoke.incremental.pop_epochs_per_sec /= 3.0;
        smoke.health.as_mut().expect("health arm").overhead_frac = 0.07;
        report.prefix_axis.last_mut().expect("axis").epoch_wall_secs = 12.0;
        let failed = failed_gates(&report, Some(&baseline));
        assert_eq!(names(&failed), ["health", "throughput", "full table"]);
        // A failed cost gate, judged first, hides none of the others.
        report.points[0]
            .cost
            .as_mut()
            .expect("cost arm")
            .overhead_frac = 0.06;
        let failed = failed_gates(&report, Some(&baseline));
        assert_eq!(
            names(&failed),
            ["cost", "health", "throughput", "full table"]
        );
        // Without a baseline there is no throughput gate.
        assert_eq!(
            names(&failed_gates(&report, None)),
            ["cost", "health", "full table"]
        );
    }
}
