//! The Edge Fabric benchmark. `benchmark/run.sh` builds and runs this;
//! see `benchmark/README.md` for what it measures and why.
//!
//! With `--workload NAME` it runs that workload once in this process —
//! untraced (`--trace 0`, the end-to-end metrics) or traced (`--trace 1`,
//! the per-layer ledger) — prints a table on stderr, writes
//! `<out>/<workload>.json` or `<out>/<workload>-traced.json`, and prints
//! the result as the last line of stdout. Without `--workload` it runs
//! every workload both ways, each in a child process of its own so that
//! `VmHWM` is per workload, and cross-checks the two runs' digests.

mod checks;
mod layers;
mod report;
mod stats;
mod trace;
mod traced;
mod untraced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Params, Workload};

const USAGE: &str = "usage: ef-benchmark [--workload steady|churn|wide|fulltable] [--seed N] \
[--seconds S] [--trace 0|1] [--world N] [--quick] [--out DIR]";

/// `--seconds` when none is given: `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 12.0;
/// `--seconds` under `--quick`: every workload at 1/20 length.
const QUICK_SECONDS: f64 = DEFAULT_SECONDS / 20.0;
/// Topology (and fault-schedule) seed when `--world` is not given.
const DEFAULT_WORLD: u64 = 7;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    world: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        traced: false,
        world: DEFAULT_WORLD,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.seconds = QUICK_SECONDS;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--world" => args.world = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn out_file(out: &Path, workload: Workload, traced: bool) -> PathBuf {
    out.join(format!(
        "{}{}.json",
        workload.name(),
        if traced { "-traced" } else { "" }
    ))
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let params = Params {
        workload,
        world: args.world,
        seed: args.seed,
        seconds: args.seconds,
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let report = if args.traced {
        traced::run(&params, &args.out)
    } else {
        untraced::run(&params)
    };
    eprint!("{}", report.table());
    let path = out_file(&args.out, workload, args.traced);
    if let Err(e) = std::fs::write(&path, report.out_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of a note in an out file (`"key": "value"`).
fn note_in(path: &Path, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let after = text.split(&format!("\"{key}\": \"")).nth(1)?;
    Some(after.split('"').next()?.to_string())
}

/// Every workload, untraced then traced, one child process per run.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--world", &args.world.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failures.push(format!(
                    "{} {}: {status:?}",
                    workload.name(),
                    if traced { "traced" } else { "untraced" }
                ));
            }
        }
        // The two children are different processes driving the program in
        // different ways; at the traced run's last epoch they must agree.
        let untraced = note_in(&out_file(&args.out, workload, false), "half_digest");
        let traced = note_in(&out_file(&args.out, workload, true), "half_digest");
        if untraced.is_none() || untraced != traced {
            failures.push(format!(
                "{}: half-day digests differ: untraced {untraced:?}, traced {traced:?}",
                workload.name()
            ));
        }
    }
    if args.seconds < DEFAULT_SECONDS {
        eprintln!(
            "note: --seconds {} is shorter than the benchmark's {DEFAULT_SECONDS}; \
             these numbers are not comparable with a baseline",
            args.seconds
        );
    }
    if failures.is_empty() {
        eprintln!("all workloads correct; results in {}", args.out.display());
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("FAILED {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}
