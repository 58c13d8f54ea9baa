//! Library backing `efctl`: argument parsing and command implementations,
//! kept out of `main.rs` so they are unit-testable.
//!
//! `efctl` is the operator's front door to the reproduction:
//!
//! ```text
//! efctl gen        [--seed N] [--pops N] [--prefixes N] [--out FILE]
//! efctl table1     [--seed N] [--pops N]
//! efctl diversity  [--seed N] [--pops N]
//! efctl run        [--seed N] [--hours H] [--baseline] [--hysteresis X]
//!                  [--epoch SECS] [--out FILE]
//! efctl chaos      [--seed N] [--hours H] [--schedule FILE]
//!                  [--chaos-seed N] [--events N] [--baseline] [--out FILE]
//! efctl trace      [--seed N] [--hours H] [--epoch SECS] [--limit N]
//! efctl explain PREFIX [--seed N] [--hours H] [--epoch SECS]
//! efctl global     [--seed N] [--hours H] [--backend dns|anycast]
//!                  [--cripple POP] [--epoch SECS] [--out FILE]
//! efctl help
//! ```
//!
//! Every command keeps its stdout machine-parseable (JSON, or JSON lines
//! for `trace`); human-readable tables and progress notes go to stderr so
//! `efctl ... | jq` always works. `--quiet` silences the stderr half.

use std::fmt::Write as _;

use ef_net_types::Prefix;
use ef_telemetry::{ExplainRecord, TelemetryHandle, TelemetryRecord};
use ef_topology::stats::{pop_summaries, route_diversity};
use ef_topology::{generate, GenConfig};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a deployment and dump it as JSON.
    Gen(CommonArgs),
    /// Print the Table-1-style PoP summary.
    Table1(CommonArgs),
    /// Print traffic-weighted route diversity.
    Diversity(CommonArgs),
    /// Run a simulation scenario and print/dump a report.
    Run(RunArgs),
    /// Run a scenario under a fault schedule (from file or generated).
    Chaos(ChaosArgs),
    /// Run a scenario with telemetry captured and dump the record stream.
    Trace(TraceArgs),
    /// Run a scenario and show decision provenance for one prefix.
    Explain(ExplainArgs),
    /// Run a scenario with the global steering tier and dump placements.
    Global(GlobalArgs),
    /// Judge a captured telemetry file: SLO table, percentiles, alerts.
    Report(ReportArgs),
    /// Tail a telemetry file as one-line health/alert/fault views.
    Watch(WatchArgs),
    /// Show usage.
    Help,
}

/// Options shared by deployment-shaped commands.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Generator seed.
    pub seed: u64,
    /// Number of PoPs.
    pub pops: usize,
    /// Number of prefixes.
    pub prefixes: usize,
    /// Optional output path for JSON.
    pub out: Option<String>,
    /// Suppress the human-readable stderr stream.
    pub quiet: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            seed: 7,
            pops: 20,
            prefixes: 3000,
            out: None,
            quiet: false,
        }
    }
}

/// Options for `efctl run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Deployment options.
    pub common: CommonArgs,
    /// Simulated duration in hours.
    pub hours: f64,
    /// Run without the controller (baseline BGP).
    pub baseline: bool,
    /// Withdraw hysteresis (0 = paper-stateless).
    pub hysteresis: f64,
    /// Enable prefix splitting (§7 future work).
    pub split: bool,
    /// Enable the global demand shifter (future-work layer).
    pub global: bool,
    /// Controller epoch seconds.
    pub epoch_secs: u64,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            common: CommonArgs::default(),
            hours: 3.0,
            baseline: false,
            hysteresis: 0.0,
            split: false,
            global: false,
            epoch_secs: 30,
        }
    }
}

/// Options for `efctl chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// Deployment options.
    pub common: CommonArgs,
    /// Simulated duration in hours.
    pub hours: f64,
    /// Run without the controller (fault exposure of plain BGP).
    pub baseline: bool,
    /// Controller epoch seconds.
    pub epoch_secs: u64,
    /// JSON fault schedule to run (see `ef_chaos::FaultSchedule`); when
    /// absent, a schedule is generated from `chaos_seed`/`events`.
    pub schedule: Option<String>,
    /// Seed for the generated schedule.
    pub chaos_seed: u64,
    /// Number of generated fault events.
    pub events: usize,
    /// Named kind filter for generated schedules. `adversarial` samples
    /// only the hostile-ingest kinds (update corruption, session flap
    /// storms, partial injection loss); absent means every kind.
    pub profile: Option<String>,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs {
            common: CommonArgs::default(),
            hours: 1.0,
            baseline: false,
            epoch_secs: 30,
            schedule: None,
            chaos_seed: 1,
            events: 8,
            profile: None,
        }
    }
}

/// Options for `efctl trace`: a scenario run with a memory sink attached,
/// dumped as JSON lines.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Deployment options (`--out` redirects the JSON lines to a file).
    pub common: CommonArgs,
    /// Simulated duration in hours.
    pub hours: f64,
    /// Controller epoch seconds.
    pub epoch_secs: u64,
    /// Cap on the number of records printed (0 = everything).
    pub limit: usize,
    /// Only records from this PoP.
    pub pop: Option<u16>,
    /// Only records from this epoch index (`t_secs / epoch_secs`).
    pub epoch: Option<u64>,
    /// Only records of this kind: an event name (`epoch`,
    /// `health.sample`, ...) or a record category (`event`, `metrics`,
    /// `explain`, `placement`).
    pub kind: Option<String>,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            common: CommonArgs::default(),
            hours: 0.5,
            epoch_secs: 30,
            limit: 0,
            pop: None,
            epoch: None,
            kind: None,
        }
    }
}

/// Options for `efctl explain PREFIX`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainArgs {
    /// Deployment options.
    pub common: CommonArgs,
    /// Simulated duration in hours.
    pub hours: f64,
    /// Controller epoch seconds.
    pub epoch_secs: u64,
    /// The prefix to explain. A covering or covered prefix also matches,
    /// so `efctl explain 10.0.0.0/8` shows every decision inside that /8.
    pub prefix: String,
    /// Also run the global steering tier and render its placement
    /// provenance alongside the per-prefix decisions.
    pub global: bool,
}

impl Default for ExplainArgs {
    fn default() -> Self {
        ExplainArgs {
            common: CommonArgs::default(),
            hours: 0.5,
            epoch_secs: 30,
            prefix: String::new(),
            global: false,
        }
    }
}

/// Options for `efctl report FILE`: judge a captured JSON-lines
/// telemetry stream offline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The telemetry JSON-lines file to judge.
    pub file: String,
    /// Exit with an error when any alert fired during the run.
    pub fail_on_alerts: bool,
    /// Suppress the human-readable stderr stream.
    pub quiet: bool,
}

/// Options for `efctl watch FILE`: tail a telemetry stream as one-line
/// health views. With `--once` the file is read to EOF and the command
/// exits; without it, `efctl` follows the file live.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchArgs {
    /// The telemetry JSON-lines file to tail.
    pub file: String,
    /// Read to EOF and exit instead of following.
    pub once: bool,
    /// Suppress the human-readable stderr stream.
    pub quiet: bool,
}

/// Options for `efctl global`: a scenario run with the user→PoP steering
/// tier enabled, reporting per-population placement state.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalArgs {
    /// Deployment options (`--out` redirects the JSON to a file).
    pub common: CommonArgs,
    /// Simulated duration in hours.
    pub hours: f64,
    /// Controller epoch seconds.
    pub epoch_secs: u64,
    /// Steering backend: `dns` or `anycast`.
    pub backend: String,
    /// Cripple this PoP's capacity to 1.2× its average demand before the
    /// run, so the evening peak forces the tier to steer.
    pub cripple: Option<usize>,
}

impl Default for GlobalArgs {
    fn default() -> Self {
        GlobalArgs {
            common: CommonArgs::default(),
            hours: 2.0,
            epoch_secs: 60,
            backend: "dns".into(),
            cripple: None,
        }
    }
}

/// What a command produced: machine-readable stdout (JSON / JSON lines)
/// and human-readable stderr (tables, notes). `main` prints each half to
/// its stream; tests assert on them separately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Output {
    /// Machine-parseable result, printed to stdout.
    pub stdout: String,
    /// Human-readable rendering and notes, printed to stderr.
    pub stderr: String,
}

/// Usage text.
pub const USAGE: &str = "\
efctl — Edge Fabric reproduction CLI

Machine-readable JSON goes to stdout; human tables and notes go to
stderr (silence them with --quiet).

USAGE:
  efctl gen        [--seed N] [--pops N] [--prefixes N] [--out FILE]
  efctl table1     [--seed N] [--pops N] [--prefixes N]
  efctl diversity  [--seed N] [--pops N] [--prefixes N]
  efctl run        [--seed N] [--pops N] [--prefixes N] [--hours H]
                   [--baseline] [--hysteresis X] [--split] [--global]
                   [--epoch SECS] [--out FILE]
  efctl chaos      [--seed N] [--pops N] [--prefixes N] [--hours H]
                   [--schedule FILE] [--chaos-seed N] [--events N]
                   [--profile adversarial|global-partition] [--baseline]
                   [--epoch SECS] [--out FILE]

Chaos fault kinds: peer_failure, link_capacity_loss, bmp_stall,
sflow_loss, controller_crash, injector_loss, flash_crowd,
update_corruption (mangled UPDATEs, handled per RFC 7606),
session_flap_storm (flaps governed by backoff + damping), and
injector_partial_loss (dropped injections, retried + reconciled).
--profile adversarial samples only the last three.
--profile global-partition enables the global steering tier and
samples only the faults that break it: report_partition,
report_staleness, global_controller_crash, headroom_lie.
  efctl trace      [--seed N] [--pops N] [--prefixes N] [--hours H]
                   [--epoch SECS] [--limit N] [--pop N] [--at-epoch N]
                   [--kind NAME] [--out FILE]
  efctl explain PREFIX [--seed N] [--pops N] [--prefixes N]
                   [--hours H] [--epoch SECS] [--global]
  efctl global     [--seed N] [--pops N] [--prefixes N] [--hours H]
                   [--backend dns|anycast] [--cripple POP]
                   [--epoch SECS] [--out FILE]
  efctl report FILE [--fail-on-alerts]
  efctl watch  FILE [--once]
  efctl help

`global` runs with the user->PoP steering tier above per-PoP Edge
Fabric and prints each population's placement (away-fractions per PoP,
demand moved). --cripple caps one PoP's capacity below its peak demand
so the tier has something to do.

`trace` runs with the health tier attached, so the stream includes
health.sample and alert.* events. --pop / --at-epoch / --kind narrow
the dump (--kind takes an event name like epoch or health.sample, or a
record category: event, metrics, explain, placement).

`report` replays a captured JSON-lines telemetry file through the
health tier: SLO pass/fail table, per-PoP percentiles, and the alert
timeline (JSON on stdout, tables on stderr). --fail-on-alerts exits
nonzero when any alert fired — CI's calm-run gate. `watch` renders the
same file as a one-line-per-event live view; --once stops at EOF.

All commands accept --quiet.
";

/// Parsing failure with a human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Parses `argv[1..]` into a [`Command`].
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => Ok(Command::Gen(parse_common(rest)?)),
        "table1" => Ok(Command::Table1(parse_common(rest)?)),
        "diversity" => Ok(Command::Diversity(parse_common(rest)?)),
        "run" => Ok(Command::Run(parse_run(rest)?)),
        "chaos" => Ok(Command::Chaos(parse_chaos(rest)?)),
        "trace" => Ok(Command::Trace(parse_trace(rest)?)),
        "explain" => Ok(Command::Explain(parse_explain(rest)?)),
        "global" => Ok(Command::Global(parse_global(rest)?)),
        "report" => Ok(Command::Report(parse_report(rest)?)),
        "watch" => Ok(Command::Watch(parse_watch(rest)?)),
        other => Err(ParseError(format!(
            "unknown command {other:?}; try 'efctl help'"
        ))),
    }
}

fn take_value<'a>(
    flag: &str,
    iter: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, ParseError> {
    iter.next()
        .map(|s| s.as_str())
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("{flag}: cannot parse {value:?}")))
}

/// `--epoch SECS`: a zero-second epoch is a usage error, like `--hours 0`
/// (a run is counted in epochs, so it would have no length).
fn parse_epoch(value: &str) -> Result<u64, ParseError> {
    match parse_num("--epoch", value)? {
        0 => Err(ParseError("--epoch must be positive".into())),
        secs => Ok(secs),
    }
}

/// `--hours H`: the run length must be a finite positive number. `nan`
/// and `inf` parse as floats, but converted to seconds they would give a
/// zero-epoch run and one of `u64::MAX` seconds.
fn parse_hours(value: &str) -> Result<f64, ParseError> {
    let hours: f64 = parse_num("--hours", value)?;
    if hours.is_finite() && hours > 0.0 {
        Ok(hours)
    } else {
        Err(ParseError(format!(
            "--hours must be a finite positive number, got {value:?}"
        )))
    }
}

fn parse_common(args: &[String]) -> Result<CommonArgs, ParseError> {
    let mut out = CommonArgs::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => out.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pops" => out.pops = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--prefixes" => out.prefixes = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--out" => out.out = Some(take_value(flag, &mut iter)?.to_string()),
            "--quiet" => out.quiet = true,
            other => return Err(ParseError(format!("unknown flag {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_run(args: &[String]) -> Result<RunArgs, ParseError> {
    let mut out = RunArgs::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => out.common.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pops" => out.common.pops = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--prefixes" => out.common.prefixes = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--out" => out.common.out = Some(take_value(flag, &mut iter)?.to_string()),
            "--quiet" => out.common.quiet = true,
            "--hours" => out.hours = parse_hours(take_value(flag, &mut iter)?)?,
            "--baseline" => out.baseline = true,
            "--split" => out.split = true,
            "--global" => out.global = true,
            "--hysteresis" => out.hysteresis = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--epoch" => out.epoch_secs = parse_epoch(take_value(flag, &mut iter)?)?,
            other => return Err(ParseError(format!("unknown flag {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_chaos(args: &[String]) -> Result<ChaosArgs, ParseError> {
    let mut out = ChaosArgs::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => out.common.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pops" => out.common.pops = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--prefixes" => out.common.prefixes = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--out" => out.common.out = Some(take_value(flag, &mut iter)?.to_string()),
            "--quiet" => out.common.quiet = true,
            "--hours" => out.hours = parse_hours(take_value(flag, &mut iter)?)?,
            "--baseline" => out.baseline = true,
            "--epoch" => out.epoch_secs = parse_epoch(take_value(flag, &mut iter)?)?,
            "--schedule" => out.schedule = Some(take_value(flag, &mut iter)?.to_string()),
            "--chaos-seed" => out.chaos_seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--events" => out.events = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--profile" => out.profile = Some(take_value(flag, &mut iter)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?}"))),
        }
    }
    if out.events == 0 && out.schedule.is_none() {
        return Err(ParseError(
            "--events must be positive (or pass --schedule)".into(),
        ));
    }
    if let Some(profile) = &out.profile {
        if profile != "adversarial" && profile != "global-partition" {
            return Err(ParseError(format!(
                "unknown profile {profile:?}; known profiles: adversarial, global-partition"
            )));
        }
        if out.schedule.is_some() {
            return Err(ParseError(
                "--profile only applies to generated schedules; drop --schedule".into(),
            ));
        }
    }
    Ok(out)
}

fn parse_trace(args: &[String]) -> Result<TraceArgs, ParseError> {
    let mut out = TraceArgs::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => out.common.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pops" => out.common.pops = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--prefixes" => out.common.prefixes = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--out" => out.common.out = Some(take_value(flag, &mut iter)?.to_string()),
            "--quiet" => out.common.quiet = true,
            "--hours" => out.hours = parse_hours(take_value(flag, &mut iter)?)?,
            "--epoch" => out.epoch_secs = parse_epoch(take_value(flag, &mut iter)?)?,
            "--limit" => out.limit = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pop" => out.pop = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            "--at-epoch" => out.epoch = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            "--kind" => out.kind = Some(take_value(flag, &mut iter)?.to_string()),
            other => return Err(ParseError(format!("unknown flag {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_report(args: &[String]) -> Result<ReportArgs, ParseError> {
    let mut file = None;
    let mut fail_on_alerts = false;
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--fail-on-alerts" => fail_on_alerts = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return Err(ParseError(format!("unknown flag {flag:?}")))
            }
            positional => {
                if file.is_some() {
                    return Err(ParseError(format!(
                        "report takes one file, got a second: {positional:?}"
                    )));
                }
                file = Some(positional.to_string());
            }
        }
    }
    let file = file.ok_or_else(|| {
        ParseError("report needs a telemetry file, e.g. 'efctl report run.jsonl'".into())
    })?;
    Ok(ReportArgs {
        file,
        fail_on_alerts,
        quiet,
    })
}

fn parse_watch(args: &[String]) -> Result<WatchArgs, ParseError> {
    let mut file = None;
    let mut once = false;
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--once" => once = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with("--") => {
                return Err(ParseError(format!("unknown flag {flag:?}")))
            }
            positional => {
                if file.is_some() {
                    return Err(ParseError(format!(
                        "watch takes one file, got a second: {positional:?}"
                    )));
                }
                file = Some(positional.to_string());
            }
        }
    }
    let file = file.ok_or_else(|| {
        ParseError("watch needs a telemetry file, e.g. 'efctl watch run.jsonl'".into())
    })?;
    Ok(WatchArgs { file, once, quiet })
}

fn parse_global(args: &[String]) -> Result<GlobalArgs, ParseError> {
    let mut out = GlobalArgs::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => out.common.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--pops" => out.common.pops = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--prefixes" => out.common.prefixes = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--out" => out.common.out = Some(take_value(flag, &mut iter)?.to_string()),
            "--quiet" => out.common.quiet = true,
            "--hours" => out.hours = parse_hours(take_value(flag, &mut iter)?)?,
            "--epoch" => out.epoch_secs = parse_epoch(take_value(flag, &mut iter)?)?,
            "--backend" => out.backend = take_value(flag, &mut iter)?.to_string(),
            "--cripple" => out.cripple = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            other => return Err(ParseError(format!("unknown flag {other:?}"))),
        }
    }
    if out.backend != "dns" && out.backend != "anycast" {
        return Err(ParseError(format!(
            "--backend must be dns or anycast, got {:?}",
            out.backend
        )));
    }
    if out.cripple.is_some_and(|p| p >= out.common.pops) {
        return Err(ParseError(format!(
            "--cripple {} is out of range for {} PoPs",
            out.cripple.unwrap_or(0),
            out.common.pops
        )));
    }
    Ok(out)
}

fn parse_explain(args: &[String]) -> Result<ExplainArgs, ParseError> {
    let mut out = ExplainArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => out.common.seed = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--pops" => out.common.pops = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--prefixes" => out.common.prefixes = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--quiet" => out.common.quiet = true,
            "--hours" => out.hours = parse_hours(take_value(arg, &mut iter)?)?,
            "--epoch" => out.epoch_secs = parse_epoch(take_value(arg, &mut iter)?)?,
            "--global" => out.global = true,
            flag if flag.starts_with("--") => {
                return Err(ParseError(format!("unknown flag {flag:?}")))
            }
            positional => {
                if !out.prefix.is_empty() {
                    return Err(ParseError(format!(
                        "explain takes one prefix, got {:?} and {positional:?}",
                        out.prefix
                    )));
                }
                out.prefix = positional.to_string();
            }
        }
    }
    if out.prefix.is_empty() {
        return Err(ParseError(
            "explain needs a prefix, e.g. 'efctl explain 10.0.0.0/24'".into(),
        ));
    }
    if out.prefix.parse::<Prefix>().is_err() {
        return Err(ParseError(format!(
            "cannot parse prefix {:?} (expected a.b.c.d/len)",
            out.prefix
        )));
    }
    Ok(out)
}

fn gen_config(common: &CommonArgs) -> GenConfig {
    GenConfig {
        seed: common.seed,
        n_pops: common.pops,
        n_prefixes: common.prefixes,
        // Scale companion parameters with size so small worlds stay sane.
        n_ases: (common.prefixes / 8).clamp(8, 400),
        total_avg_gbps: 400.0 * common.pops as f64,
        ..GenConfig::default()
    }
}

/// Sort key for telemetry records: simulated time, then PoP. Records from
/// different PoPs arrive in thread-scheduling order; sorting restores a
/// stable reading order for the dumped stream.
fn record_key(r: &TelemetryRecord) -> (u64, u16) {
    match r {
        TelemetryRecord::Event(e) => (e.now_ms, e.pop),
        TelemetryRecord::Explain { pop, now_ms, .. } => (*now_ms, *pop),
        TelemetryRecord::Metrics { pop, now_ms, .. } => (*now_ms, *pop),
        TelemetryRecord::Placement { pop, now_ms, .. } => (*now_ms, *pop),
    }
}

/// Runs a telemetry-captured scenario and returns the collected records
/// in `(now_ms, pop)` order. The health tier rides along so the stream
/// carries `health.sample` / `alert.*` events; `global` adds the user→PoP
/// steering tier (and its placement provenance) on top.
fn traced_run(
    common: &CommonArgs,
    hours: f64,
    epoch_secs: u64,
    global: bool,
) -> Result<Vec<TelemetryRecord>, String> {
    let (handle, sink) = TelemetryHandle::memory();
    let mut builder = ef_sim::scenario()
        .topology(gen_config(common))
        .duration_secs((hours * 3600.0) as u64)
        .epoch_secs(epoch_secs)
        .health(ef_health::HealthConfig::default())
        .telemetry(handle);
    if global {
        builder = builder.global(ef_global::GlobalConfig::default());
    }
    let mut engine = builder.engine();
    engine.run();
    let mut records = sink.records();
    records.sort_by_key(record_key);
    Ok(records)
}

/// True when a record matches a `--kind` filter: an event's name, or a
/// record-category label.
fn record_matches_kind(r: &TelemetryRecord, kind: &str) -> bool {
    match r {
        TelemetryRecord::Event(e) => kind == "event" || e.name == kind,
        TelemetryRecord::Explain { .. } => kind == "explain",
        TelemetryRecord::Metrics { .. } => kind == "metrics",
        TelemetryRecord::Placement { .. } => kind == "placement",
    }
}

/// Reads a JSON-lines telemetry file, skipping lines that do not parse
/// (a live writer may leave a torn final line). Returns the records and
/// the number of skipped lines.
fn load_records(path: &str) -> Result<(Vec<TelemetryRecord>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TelemetryRecord>(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Follows a telemetry JSON-lines file live, rendering watchable events
/// as they are appended (the no-`--once` arm of `efctl watch`). Polls
/// every `poll_ms`; runs until the process is killed. Lines are written
/// straight to stdout because the tail never "finishes" into an
/// [`Output`].
pub fn watch_follow(path: &str, poll_ms: u64) -> Result<(), String> {
    use std::io::{BufRead as _, Seek as _, Write as _};
    let mut offset = 0u64;
    loop {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        };
        let len = file.metadata().map_err(|e| e.to_string())?.len();
        if len < offset {
            // Truncated/rotated: start over.
            offset = 0;
        }
        if len > offset {
            file.seek(std::io::SeekFrom::Start(offset))
                .map_err(|e| e.to_string())?;
            let mut reader = std::io::BufReader::new(file);
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
                if n == 0 || !line.ends_with('\n') {
                    // EOF or a torn line the writer is still appending:
                    // leave it for the next poll.
                    break;
                }
                offset += n as u64;
                if let Ok(record) = serde_json::from_str::<TelemetryRecord>(line.trim_end()) {
                    if let Some(rendered) = ef_health::render_watch_line(&record) {
                        println!("{rendered}");
                    }
                }
            }
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// Executes a command, returning its stdout/stderr halves.
pub fn execute(cmd: Command) -> Result<Output, String> {
    let quiet = match &cmd {
        Command::Gen(c) | Command::Table1(c) | Command::Diversity(c) => c.quiet,
        Command::Run(a) => a.common.quiet,
        Command::Chaos(a) => a.common.quiet,
        Command::Trace(a) => a.common.quiet,
        Command::Explain(a) => a.common.quiet,
        Command::Global(a) => a.common.quiet,
        Command::Report(a) => a.quiet,
        Command::Watch(a) => a.quiet,
        Command::Help => false,
    };
    let mut out = execute_inner(cmd)?;
    if quiet {
        out.stderr.clear();
    }
    Ok(out)
}

fn execute_inner(cmd: Command) -> Result<Output, String> {
    let mut out = Output::default();
    match cmd {
        Command::Help => {
            out.stdout = USAGE.to_string();
        }
        Command::Gen(common) => {
            let dep = generate(&gen_config(&common));
            let errors = dep.validate();
            if !errors.is_empty() {
                return Err(format!(
                    "generated deployment failed validation: {errors:?}"
                ));
            }
            let json = serde_json::to_string_pretty(&dep).map_err(|e| e.to_string())?;
            if let Some(path) = &common.out {
                std::fs::write(path, &json).map_err(|e| e.to_string())?;
                writeln!(
                    out.stderr,
                    "wrote deployment (seed {}, {} PoPs, {} prefixes) to {path}",
                    common.seed, common.pops, common.prefixes
                )
                .unwrap();
            } else {
                out.stdout = json;
                out.stdout.push('\n');
            }
        }
        Command::Table1(common) => {
            let dep = generate(&gen_config(&common));
            let rows = pop_summaries(&dep);
            out.stdout = serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?;
            out.stdout.push('\n');
            writeln!(
                out.stderr,
                "{:<12} {:>3} {:>4} {:>8} {:>8} {:>7} {:>6} {:>10} {:>10}",
                "pop", "reg", "PRs", "transit", "private", "public", "rs", "cap(Gbps)", "avg(Gbps)"
            )
            .unwrap();
            for r in &rows {
                writeln!(
                    out.stderr,
                    "{:<12} {:>3} {:>4} {:>8} {:>8} {:>7} {:>6} {:>10.0} {:>10.1}",
                    r.name,
                    r.region,
                    r.routers,
                    r.transit_peers,
                    r.private_peers,
                    r.public_peers,
                    r.route_server_peers,
                    r.capacity_gbps,
                    r.avg_demand_gbps
                )
                .unwrap();
            }
        }
        Command::Diversity(common) => {
            let dep = generate(&gen_config(&common));
            let rows = route_diversity(&dep);
            out.stdout = serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?;
            out.stdout.push('\n');
            writeln!(
                out.stderr,
                "{:<12} {:>8} {:>8} {:>8} {:>8}",
                "pop", ">=1", ">=2", ">=3", ">=4"
            )
            .unwrap();
            for d in &rows {
                writeln!(
                    out.stderr,
                    "{:<12} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                    d.name,
                    d.frac_traffic_ge[0] * 100.0,
                    d.frac_traffic_ge[1] * 100.0,
                    d.frac_traffic_ge[2] * 100.0,
                    d.frac_traffic_ge[3] * 100.0
                )
                .unwrap();
            }
        }
        Command::Run(args) => {
            let mut builder = ef_sim::scenario()
                .topology(gen_config(&args.common))
                .duration_secs((args.hours * 3600.0) as u64)
                .epoch_secs(args.epoch_secs)
                .controller_enabled(!args.baseline)
                .tune_controller(|c| {
                    c.withdraw_hysteresis = args.hysteresis;
                    if args.split {
                        c.split_depth = 1;
                    }
                });
            if args.global {
                builder = builder.global(ef_global::GlobalConfig::default());
            }
            let mut engine = builder.engine();
            engine.run();
            let metrics = engine.take_metrics();
            let report = ef_sim::RunReport::from_metrics(&metrics);
            let arm = if args.baseline {
                "baseline BGP"
            } else {
                "edge fabric"
            };

            #[derive(serde::Serialize)]
            struct Summary<'a> {
                arm: &'a str,
                report: &'a ef_sim::RunReport,
            }
            out.stdout = serde_json::to_string_pretty(&Summary {
                arm,
                report: &report,
            })
            .map_err(|e| e.to_string())?;
            out.stdout.push('\n');

            writeln!(out.stderr, "arm: {arm}").unwrap();
            out.stderr.push_str(&report.render());

            if let Some(path) = &args.common.out {
                // Dump the distilled epoch records for downstream analysis.
                #[derive(serde::Serialize)]
                struct Dump<'a> {
                    pop_epochs: &'a [ef_sim::PopEpochRecord],
                    episodes: &'a [ef_sim::DetourEpisode],
                }
                let json = serde_json::to_string_pretty(&Dump {
                    pop_epochs: &metrics.pop_epochs,
                    episodes: &metrics.episodes,
                })
                .map_err(|e| e.to_string())?;
                std::fs::write(path, json).map_err(|e| e.to_string())?;
                writeln!(out.stderr, "[wrote {path}]").unwrap();
            }
        }
        Command::Chaos(args) => {
            let cfg = ef_sim::scenario()
                .topology(gen_config(&args.common))
                .duration_secs((args.hours * 3600.0) as u64)
                .epoch_secs(args.epoch_secs)
                .controller_enabled(!args.baseline)
                .build();
            let deployment = generate(&cfg.gen);
            let schedule = match &args.schedule {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    ef_chaos::FaultSchedule::from_json(&text)?
                }
                None => {
                    // `adversarial` narrows sampling to the hostile-ingest
                    // kinds the RFC 7606 / recovery hardening defends
                    // against; `global-partition` samples only the
                    // global-tier kinds (report partitions, stale replays,
                    // controller crashes, headroom lies); the default
                    // samples every per-PoP kind.
                    let kinds = match args.profile.as_deref() {
                        Some("adversarial") => vec![
                            "update_corruption".to_string(),
                            "session_flap_storm".to_string(),
                            "injector_partial_loss".to_string(),
                        ],
                        Some("global-partition") => ef_chaos::FaultKind::GLOBAL_LABELS
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        _ => Vec::new(),
                    };
                    let profile = ef_chaos::ChaosProfile {
                        duration_secs: cfg.duration_secs,
                        warmup_secs: cfg.duration_secs / 6,
                        events: args.events,
                        min_fault_secs: (2 * cfg.epoch_secs).max(60),
                        max_fault_secs: (cfg.duration_secs / 4).max((2 * cfg.epoch_secs).max(60)),
                        kinds,
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

            let arm = if args.baseline {
                "baseline BGP"
            } else {
                "edge fabric"
            };
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
            let mut builder = ef_sim::ScenarioBuilder::from_config(cfg).chaos(schedule);
            if args.profile.as_deref() == Some("global-partition") {
                // Global-tier faults are no-ops without the tier they break.
                builder = builder.global(ef_global::GlobalConfig::default());
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
            let report = ef_sim::RunReport::from_metrics(&metrics);

            #[derive(serde::Serialize)]
            struct Summary<'a> {
                arm: &'a str,
                faults: usize,
                fault_epochs: usize,
                degraded_epochs: usize,
                fail_open_epochs: usize,
                report: &'a ef_sim::RunReport,
            }
            out.stdout = serde_json::to_string_pretty(&Summary {
                arm,
                faults: n_faults,
                fault_epochs: faulted,
                degraded_epochs: degraded,
                fail_open_epochs: fail_open,
                report: &report,
            })
            .map_err(|e| e.to_string())?;
            out.stdout.push('\n');

            out.stderr.push_str(&report.render());
            writeln!(
                out.stderr,
                "fault epochs: {faulted} ({degraded} degraded, {fail_open} fail-open)"
            )
            .unwrap();

            if let Some(path) = &args.common.out {
                #[derive(serde::Serialize)]
                struct Dump<'a> {
                    pop_epochs: &'a [ef_sim::PopEpochRecord],
                    episodes: &'a [ef_sim::DetourEpisode],
                }
                let json = serde_json::to_string_pretty(&Dump {
                    pop_epochs: &metrics.pop_epochs,
                    episodes: &metrics.episodes,
                })
                .map_err(|e| e.to_string())?;
                std::fs::write(path, json).map_err(|e| e.to_string())?;
                writeln!(out.stderr, "[wrote {path}]").unwrap();
            }
        }
        Command::Trace(args) => {
            let all = traced_run(&args.common, args.hours, args.epoch_secs, false)?;
            let total = all.len();
            let records: Vec<&TelemetryRecord> = all
                .iter()
                .filter(|r| {
                    let (now_ms, pop) = record_key(r);
                    args.pop.is_none_or(|p| p == pop)
                        && args
                            .epoch
                            .is_none_or(|e| (now_ms / 1000) / args.epoch_secs == e)
                        && args
                            .kind
                            .as_deref()
                            .is_none_or(|k| record_matches_kind(r, k))
                })
                .collect();
            let matched = records.len();
            let shown = if args.limit > 0 {
                args.limit.min(matched)
            } else {
                matched
            };
            let mut lines = String::new();
            for r in records.iter().take(shown) {
                lines.push_str(&serde_json::to_string(r).map_err(|e| e.to_string())?);
                lines.push('\n');
            }
            let events = records.iter().filter(|r| r.as_event().is_some()).count();
            let explains = records.iter().filter(|r| r.as_explain().is_some()).count();
            let placements = records
                .iter()
                .filter(|r| r.as_placement().is_some())
                .count();
            let snapshots = matched - events - explains - placements;
            if let Some(path) = &args.common.out {
                std::fs::write(path, &lines).map_err(|e| e.to_string())?;
                writeln!(out.stderr, "[wrote {shown} records to {path}]").unwrap();
            } else {
                out.stdout = lines;
            }
            writeln!(
                out.stderr,
                "{matched} of {total} telemetry records ({events} events, {explains} explains, \
                 {placements} placements, {snapshots} metric snapshots); showing {shown}"
            )
            .unwrap();
        }
        Command::Report(args) => {
            let (records, skipped) = load_records(&args.file)?;
            if skipped > 0 {
                writeln!(out.stderr, "[skipped {skipped} unparseable line(s)]").unwrap();
            }
            let report = ef_health::analyze(&records);
            out.stdout = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            out.stdout.push('\n');
            out.stderr.push_str(&ef_health::render_report(&report));
            if args.fail_on_alerts && !report.clean() {
                let names: Vec<String> = report
                    .alerts
                    .iter()
                    .map(|a| format!("{}@pop{}", a.rule, a.pop))
                    .collect();
                return Err(format!(
                    "{} alert(s) fired during the run: {}",
                    report.alerts.len(),
                    names.join(", ")
                ));
            }
        }
        Command::Watch(args) => {
            // `--once` reads to EOF here; live following happens in main,
            // which re-renders appended lines with the same helper.
            let (records, skipped) = load_records(&args.file)?;
            let mut shown = 0usize;
            for r in &records {
                if let Some(line) = ef_health::render_watch_line(r) {
                    out.stdout.push_str(&line);
                    out.stdout.push('\n');
                    shown += 1;
                }
            }
            if skipped > 0 {
                writeln!(out.stderr, "[skipped {skipped} unparseable line(s)]").unwrap();
            }
            writeln!(
                out.stderr,
                "{shown} watchable event(s) in {} record(s)",
                records.len()
            )
            .unwrap();
        }
        Command::Global(args) => {
            let cfg = match args.backend.as_str() {
                "anycast" => ef_global::GlobalConfig::anycast(2),
                _ => ef_global::GlobalConfig::dns(2),
            };
            let sim = ef_sim::scenario()
                .topology(gen_config(&args.common))
                .duration_secs((args.hours * 3600.0) as u64)
                .epoch_secs(args.epoch_secs)
                .global(cfg)
                .build();
            let mut deployment = generate(&sim.gen);
            if let Some(victim) = args.cripple {
                // Peak demand runs ~1.8x average, so 1.2x average cannot
                // carry the evening peak — the tier must move users.
                let applied =
                    deployment.cap_pop_capacity_to_demand(ef_topology::PopId(victim as u16), 1.2);
                writeln!(
                    out.stderr,
                    "crippled pop{victim}: capacity scaled by {applied:.2}"
                )
                .unwrap();
            }
            let mut engine = ef_sim::ScenarioBuilder::from_config(sim).engine_with(deployment);
            engine.run();
            let (backend, placements) = match engine.global.as_ref() {
                Some(g) => (g.backend_name(), g.placements()),
                None => ("shape_only", Vec::new()),
            };
            let metrics = engine.take_metrics();
            let dropped: f64 = metrics.pop_epochs.iter().map(|r| r.dropped_mbps).sum();

            #[derive(serde::Serialize)]
            struct Summary<'a> {
                backend: &'a str,
                dropped_mbps_epochs: f64,
                placements: &'a [ef_global::PlacementSummary],
            }
            let json = serde_json::to_string_pretty(&Summary {
                backend,
                dropped_mbps_epochs: dropped,
                placements: &placements,
            })
            .map_err(|e| e.to_string())?;

            writeln!(out.stderr, "backend: {backend}").unwrap();
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
            writeln!(out.stderr, "total dropped: {dropped:.0} Mbps-epochs").unwrap();

            if let Some(path) = &args.common.out {
                std::fs::write(path, &json).map_err(|e| e.to_string())?;
                writeln!(out.stderr, "[wrote {path}]").unwrap();
            } else {
                out.stdout = json;
                out.stdout.push('\n');
            }
        }
        Command::Explain(args) => {
            let query: Prefix = args
                .prefix
                .parse()
                .map_err(|_| format!("cannot parse prefix {:?}", args.prefix))?;
            let records = traced_run(&args.common, args.hours, args.epoch_secs, args.global)?;

            #[derive(serde::Serialize)]
            struct Row<'a> {
                pop: u16,
                now_ms: u64,
                explain: &'a ExplainRecord,
            }
            let mut rows: Vec<(u16, u64, &ExplainRecord)> = Vec::new();
            for r in &records {
                if let Some((pop, now_ms, rec)) = r.as_explain() {
                    let matches = rec
                        .prefix
                        .parse::<Prefix>()
                        .map(|p| query.contains(&p) || p.contains(&query))
                        .unwrap_or(false);
                    if matches {
                        rows.push((pop, now_ms, rec));
                    }
                }
            }
            let json_rows = rows
                .iter()
                .map(|(pop, now_ms, explain)| Row {
                    pop: *pop,
                    now_ms: *now_ms,
                    explain,
                })
                .collect::<Vec<_>>();
            if args.global {
                // With the global tier on, pair the per-prefix decisions
                // with the tier's population-level placement provenance.
                #[derive(serde::Serialize)]
                struct PlacementRow<'a> {
                    pop: u16,
                    now_ms: u64,
                    placement: &'a ef_telemetry::PlacementRecord,
                }
                #[derive(serde::Serialize)]
                struct WithPlacements<'a> {
                    explains: Vec<Row<'a>>,
                    placements: Vec<PlacementRow<'a>>,
                }
                let placements: Vec<PlacementRow> = records
                    .iter()
                    .filter_map(|r| r.as_placement())
                    .map(|(pop, now_ms, placement)| PlacementRow {
                        pop,
                        now_ms,
                        placement,
                    })
                    .collect();
                writeln!(out.stderr, "{} placement action(s):", placements.len()).unwrap();
                for p in &placements {
                    writeln!(
                        out.stderr,
                        "t={}s {}",
                        p.now_ms / 1000,
                        p.placement.render()
                    )
                    .unwrap();
                }
                out.stdout = serde_json::to_string_pretty(&WithPlacements {
                    explains: json_rows,
                    placements,
                })
                .map_err(|e| e.to_string())?;
            } else {
                out.stdout = serde_json::to_string_pretty(&json_rows).map_err(|e| e.to_string())?;
            }
            out.stdout.push('\n');

            if rows.is_empty() {
                writeln!(
                    out.stderr,
                    "no steering decisions touched {} in this scenario",
                    args.prefix
                )
                .unwrap();
            } else {
                writeln!(
                    out.stderr,
                    "{} decision(s) touching {}:",
                    rows.len(),
                    args.prefix
                )
                .unwrap();
                for (pop, now_ms, rec) in &rows {
                    writeln!(
                        out.stderr,
                        "t={}s pop{}: {}",
                        now_ms / 1000,
                        pop,
                        rec.render()
                    )
                    .unwrap();
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    #[test]
    fn gen_defaults_and_flags() {
        match parse_args(&argv("gen")).unwrap() {
            Command::Gen(c) => assert_eq!(c, CommonArgs::default()),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("gen --seed 11 --pops 4 --prefixes 100 --out d.json")).unwrap() {
            Command::Gen(c) => {
                assert_eq!(c.seed, 11);
                assert_eq!(c.pops, 4);
                assert_eq!(c.prefixes, 100);
                assert_eq!(c.out.as_deref(), Some("d.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_flags() {
        match parse_args(&argv(
            "run --hours 2 --baseline --hysteresis 0.03 --split --global --epoch 60",
        ))
        .unwrap()
        {
            Command::Run(r) => {
                assert_eq!(r.hours, 2.0);
                assert!(r.baseline);
                assert_eq!(r.hysteresis, 0.03);
                assert!(r.split);
                assert!(r.global);
                assert_eq!(r.epoch_secs, 60);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("run")).unwrap() {
            Command::Run(r) => {
                assert!(!r.split);
                assert!(!r.global);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quiet_parses_everywhere() {
        for cmd in [
            "gen --quiet",
            "table1 --quiet",
            "run --quiet",
            "chaos --quiet",
            "trace --quiet",
            "explain 1.0.0.0/24 --quiet",
            "global --quiet",
            "report run.jsonl --quiet",
            "watch run.jsonl --quiet",
        ] {
            let parsed = parse_args(&argv(cmd)).unwrap();
            let quiet = match parsed {
                Command::Gen(c) | Command::Table1(c) | Command::Diversity(c) => c.quiet,
                Command::Run(a) => a.common.quiet,
                Command::Chaos(a) => a.common.quiet,
                Command::Trace(a) => a.common.quiet,
                Command::Explain(a) => a.common.quiet,
                Command::Global(a) => a.common.quiet,
                Command::Report(a) => a.quiet,
                Command::Watch(a) => a.quiet,
                Command::Help => false,
            };
            assert!(quiet, "{cmd}");
        }
    }

    #[test]
    fn global_flags() {
        match parse_args(&argv(
            "global --seed 3 --pops 6 --hours 1.5 --backend anycast --cripple 2 --epoch 30",
        ))
        .unwrap()
        {
            Command::Global(g) => {
                assert_eq!(g.common.seed, 3);
                assert_eq!(g.common.pops, 6);
                assert_eq!(g.hours, 1.5);
                assert_eq!(g.backend, "anycast");
                assert_eq!(g.cripple, Some(2));
                assert_eq!(g.epoch_secs, 30);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("global")).unwrap() {
            Command::Global(g) => {
                assert_eq!(g.backend, "dns");
                assert_eq!(g.cripple, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("global --backend carrier-pigeon")).is_err());
        assert!(parse_args(&argv("global --pops 4 --cripple 4")).is_err());
        assert!(parse_args(&argv("global --hours 0")).is_err());
    }

    #[test]
    fn global_small_scenario_end_to_end() {
        let mut args = GlobalArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 1.0;
        args.epoch_secs = 60;
        args.cripple = Some(0);
        let out = execute(Command::Global(args)).unwrap();
        assert!(out.stderr.contains("backend: dns"));
        assert!(out.stderr.contains("crippled pop0"));
        let summary = serde_json::parse_value(&out.stdout).unwrap();
        assert!(matches!(
            summary.get("backend"),
            Some(serde_json::Value::Str(s)) if s == "dns"
        ));
        // One placement row per population (regions present in a 4-PoP world).
        assert!(summary
            .get("placements")
            .and_then(|p| p.as_array())
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn trace_and_explain_flags() {
        match parse_args(&argv("trace --seed 3 --hours 0.5 --epoch 60 --limit 10")).unwrap() {
            Command::Trace(t) => {
                assert_eq!(t.common.seed, 3);
                assert_eq!(t.hours, 0.5);
                assert_eq!(t.epoch_secs, 60);
                assert_eq!(t.limit, 10);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("explain 10.0.0.0/24 --seed 3 --hours 0.5")).unwrap() {
            Command::Explain(e) => {
                assert_eq!(e.prefix, "10.0.0.0/24");
                assert_eq!(e.common.seed, 3);
                assert_eq!(e.hours, 0.5);
            }
            other => panic!("{other:?}"),
        }
        // Missing, malformed, or duplicate prefixes are rejected.
        assert!(parse_args(&argv("explain")).is_err());
        assert!(parse_args(&argv("explain banana")).is_err());
        assert!(parse_args(&argv("explain 1.0.0.0/24 2.0.0.0/24")).is_err());
    }

    #[test]
    fn report_and_watch_flags() {
        match parse_args(&argv("report run.jsonl --fail-on-alerts --quiet")).unwrap() {
            Command::Report(r) => {
                assert_eq!(r.file, "run.jsonl");
                assert!(r.fail_on_alerts);
                assert!(r.quiet);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("watch run.jsonl --once")).unwrap() {
            Command::Watch(w) => {
                assert_eq!(w.file, "run.jsonl");
                assert!(w.once);
                assert!(!w.quiet);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("report")).is_err());
        assert!(parse_args(&argv("report a.jsonl b.jsonl")).is_err());
        assert!(parse_args(&argv("watch")).is_err());
        assert!(parse_args(&argv("watch a.jsonl --frob")).is_err());
    }

    #[test]
    fn trace_filter_flags() {
        match parse_args(&argv("trace --pop 2 --at-epoch 5 --kind health.sample")).unwrap() {
            Command::Trace(t) => {
                assert_eq!(t.pop, Some(2));
                assert_eq!(t.epoch, Some(5));
                assert_eq!(t.kind.as_deref(), Some("health.sample"));
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("trace")).unwrap() {
            Command::Trace(t) => {
                assert_eq!(t.pop, None);
                assert_eq!(t.epoch, None);
                assert_eq!(t.kind, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("explain 1.0.0.0/24 --global")).is_ok());
    }

    #[test]
    fn trace_filters_narrow_the_stream() {
        let mut args = TraceArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.25;
        args.epoch_secs = 60;
        args.pop = Some(1);
        args.kind = Some("health.sample".into());
        let out = execute(Command::Trace(args.clone())).unwrap();
        assert!(!out.stdout.is_empty(), "health tier rides along on traces");
        for line in out.stdout.lines() {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            let e = rec.as_event().expect("only events pass the kind filter");
            assert_eq!(e.name, "health.sample");
            assert_eq!(e.pop, 1);
        }
        // One sample per epoch for this PoP: 15 epochs in 0.25 h at 60 s.
        assert_eq!(out.stdout.lines().count(), 15);

        // The epoch filter pins one epoch across all kinds.
        args.kind = None;
        args.pop = None;
        args.epoch = Some(3);
        let out = execute(Command::Trace(args)).unwrap();
        assert!(!out.stdout.is_empty());
        for line in out.stdout.lines() {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            let (now_ms, _) = match &rec {
                TelemetryRecord::Event(e) => (e.now_ms, e.pop),
                TelemetryRecord::Explain { pop, now_ms, .. } => (*now_ms, *pop),
                TelemetryRecord::Metrics { pop, now_ms, .. } => (*now_ms, *pop),
                TelemetryRecord::Placement { pop, now_ms, .. } => (*now_ms, *pop),
            };
            assert_eq!((now_ms / 1000) / 60, 3);
        }
    }

    #[test]
    fn report_and_watch_judge_a_captured_file() {
        // Capture a small traced run to a file, then judge it offline.
        let mut args = TraceArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.25;
        args.epoch_secs = 60;
        let traced = execute(Command::Trace(args)).unwrap();
        let dir = std::env::temp_dir().join("efctl-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        std::fs::write(&path, &traced.stdout).unwrap();

        let report = execute(Command::Report(ReportArgs {
            file: path.to_string_lossy().into_owned(),
            fail_on_alerts: false,
            quiet: false,
        }))
        .unwrap();
        assert!(report.stderr.contains("SLO"));
        assert!(report.stderr.contains("drop_rate_ceiling"));
        let parsed = serde_json::parse_value(&report.stdout).unwrap();
        assert!(parsed.get("slo").and_then(|v| v.as_array()).is_some());
        assert!(matches!(
            parsed.get("samples"),
            Some(serde_json::Value::U64(n)) if *n > 0
        ));

        let watch = execute(Command::Watch(WatchArgs {
            file: path.to_string_lossy().into_owned(),
            once: true,
            quiet: false,
        }))
        .unwrap();
        assert!(watch.stdout.contains("drop_rate="));
        assert!(watch.stderr.contains("watchable event(s)"));

        // A missing file errors cleanly for both.
        assert!(execute(Command::Report(ReportArgs {
            file: "/nonexistent/run.jsonl".into(),
            fail_on_alerts: false,
            quiet: false,
        }))
        .is_err());
        assert!(execute(Command::Watch(WatchArgs {
            file: "/nonexistent/run.jsonl".into(),
            once: true,
            quiet: false,
        }))
        .is_err());
    }

    #[test]
    fn report_fail_on_alerts_gates_a_dirty_stream() {
        // Hand-build a stream with a firing alert via the health monitor.
        let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
        let mut mon = ef_health::HealthMonitor::new(ef_health::HealthConfig::default(), handle);
        // Two calm warmup epochs, then a sustained breach.
        for (t, dropped) in [(30, 0.0), (60, 0.0), (90, 100.0), (120, 100.0)] {
            let s = ef_health::EpochSignals {
                t_secs: t,
                pop: 0,
                offered_mbps: 1000.0,
                dropped_mbps: dropped,
                ..Default::default()
            };
            mon.observe_epoch(&s, None);
        }
        let mut lines = String::new();
        for r in sink.records() {
            lines.push_str(&serde_json::to_string(&r).unwrap());
            lines.push('\n');
        }
        let dir = std::env::temp_dir().join("efctl-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.jsonl");
        std::fs::write(&path, &lines).unwrap();

        let err = execute(Command::Report(ReportArgs {
            file: path.to_string_lossy().into_owned(),
            fail_on_alerts: true,
            quiet: false,
        }))
        .unwrap_err();
        assert!(err.contains("drop_rate_ceiling"));
        // Without the gate the same stream reports fine.
        let ok = execute(Command::Report(ReportArgs {
            file: path.to_string_lossy().into_owned(),
            fail_on_alerts: false,
            quiet: false,
        }))
        .unwrap();
        assert!(ok.stderr.contains("FAIL"));
    }

    #[test]
    fn bad_values_error_cleanly() {
        assert!(parse_args(&argv("run --hours banana")).is_err());
        assert!(parse_args(&argv("gen --seed")).is_err());
        assert!(parse_args(&argv("gen --frob 1")).is_err());
        for cmd in [
            "run --epoch 0",
            "run --epoch 0 --baseline",
            "chaos --epoch 0",
            "trace --epoch 0",
            "explain 1.0.0.0/24 --epoch 0",
            "global --epoch 0",
        ] {
            assert!(parse_args(&argv(cmd)).is_err(), "{cmd}");
        }
    }

    #[test]
    fn hours_must_be_finite_and_positive() {
        for cmd in ["run", "chaos", "trace", "explain 1.0.0.0/24", "global"] {
            for hours in ["nan", "inf", "-inf", "-1", "0"] {
                let line = format!("{cmd} --hours {hours}");
                assert!(parse_args(&argv(&line)).is_err(), "{line}");
            }
            assert!(parse_args(&argv(&format!("{cmd} --hours 0.25"))).is_ok());
        }
    }

    #[test]
    fn table1_and_diversity_render() {
        let common = CommonArgs {
            seed: 3,
            pops: 4,
            prefixes: 200,
            out: None,
            quiet: false,
        };
        let t = execute(Command::Table1(common.clone())).unwrap();
        assert!(t.stderr.contains("pop0"));
        assert!(t.stderr.lines().count() >= 5);
        let rows = serde_json::parse_value(&t.stdout).unwrap();
        assert!(rows.as_array().is_some_and(|a| a.len() == 4));
        let d = execute(Command::Diversity(common)).unwrap();
        assert!(d.stderr.contains('%'));
        serde_json::parse_value(&d.stdout).unwrap();
    }

    #[test]
    fn quiet_clears_stderr_but_keeps_stdout() {
        let common = CommonArgs {
            seed: 3,
            pops: 4,
            prefixes: 200,
            out: None,
            quiet: true,
        };
        let t = execute(Command::Table1(common)).unwrap();
        assert!(t.stderr.is_empty());
        assert!(!t.stdout.is_empty());
    }

    #[test]
    fn run_small_scenario_end_to_end() {
        let mut args = RunArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.25;
        args.epoch_secs = 60;
        let out = execute(Command::Run(args)).unwrap();
        assert!(out.stderr.contains("edge fabric"));
        assert!(out.stderr.contains("dropped:"));
        let summary = serde_json::parse_value(&out.stdout).unwrap();
        assert!(matches!(
            summary.get("arm"),
            Some(serde_json::Value::Str(s)) if s == "edge fabric"
        ));
        assert!(summary.get("report").is_some());
    }

    #[test]
    fn help_text_lists_commands() {
        let help = execute(Command::Help).unwrap();
        for cmd in [
            "gen",
            "table1",
            "diversity",
            "run",
            "chaos",
            "trace",
            "explain",
        ] {
            assert!(help.stdout.contains(cmd));
        }
    }

    #[test]
    fn chaos_flags() {
        match parse_args(&argv(
            "chaos --seed 3 --hours 0.5 --chaos-seed 9 --events 4 --baseline --epoch 60",
        ))
        .unwrap()
        {
            Command::Chaos(c) => {
                assert_eq!(c.common.seed, 3);
                assert_eq!(c.hours, 0.5);
                assert_eq!(c.chaos_seed, 9);
                assert_eq!(c.events, 4);
                assert!(c.baseline);
                assert_eq!(c.epoch_secs, 60);
                assert!(c.schedule.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("chaos --schedule faults.json")).unwrap() {
            Command::Chaos(c) => assert_eq!(c.schedule.as_deref(), Some("faults.json")),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("chaos --events 0")).is_err());
        assert!(parse_args(&argv("chaos --hours 0")).is_err());
    }

    #[test]
    fn chaos_profile_flag() {
        match parse_args(&argv("chaos --profile adversarial")).unwrap() {
            Command::Chaos(c) => assert_eq!(c.profile.as_deref(), Some("adversarial")),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("chaos --profile global-partition")).unwrap() {
            Command::Chaos(c) => assert_eq!(c.profile.as_deref(), Some("global-partition")),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("chaos --profile meteor")).is_err());
        assert!(parse_args(&argv("chaos --profile adversarial --schedule f.json")).is_err());
    }

    #[test]
    fn chaos_adversarial_profile_end_to_end() {
        let mut args = ChaosArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.5;
        args.epoch_secs = 60;
        args.events = 4;
        args.profile = Some("adversarial".into());
        let out = execute(Command::Chaos(args)).unwrap();
        assert!(out.stderr.contains("under 4 fault(s)"));
        // Only the hostile-ingest kinds are sampled.
        for line in out.stderr.lines().filter(|l| {
            l.contains("update_corruption")
                || l.contains("session_flap_storm")
                || l.contains("injector_partial_loss")
        }) {
            assert!(!line.is_empty());
        }
        for kind in [
            "peer_failure",
            "link_capacity_loss",
            "bmp_stall",
            "sflow_loss",
            "controller_crash",
            "injector_loss",
            "flash_crowd",
        ] {
            assert!(
                !out.stderr.contains(kind),
                "adversarial profile sampled {kind}"
            );
        }
    }

    #[test]
    fn chaos_global_partition_profile_end_to_end() {
        let mut args = ChaosArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.5;
        args.epoch_secs = 60;
        args.events = 4;
        args.profile = Some("global-partition".into());
        let out = execute(Command::Chaos(args)).unwrap();
        assert!(out.stderr.contains("under 4 fault(s)"));
        // Only the global-tier kinds are sampled...
        let sampled = out
            .stderr
            .lines()
            .filter(|l| {
                ef_chaos::FaultKind::GLOBAL_LABELS
                    .iter()
                    .any(|k| l.trim_start().starts_with(k))
            })
            .count();
        assert_eq!(
            sampled, 4,
            "all faults are global-tier kinds:\n{}",
            out.stderr
        );
        // ...and none of the per-PoP kinds appear.
        for kind in ["peer_failure", "link_capacity_loss", "flash_crowd"] {
            assert!(
                !out.stderr.contains(kind),
                "global-partition profile sampled {kind}"
            );
        }
    }

    #[test]
    fn chaos_missing_schedule_file_errors() {
        let args = ChaosArgs {
            schedule: Some("/nonexistent/faults.json".into()),
            ..Default::default()
        };
        let err = execute(Command::Chaos(args)).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn chaos_small_scenario_end_to_end() {
        let mut args = ChaosArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.5;
        args.epoch_secs = 60;
        args.events = 4;
        let out = execute(Command::Chaos(args)).unwrap();
        assert!(out.stderr.contains("under 4 fault(s)"));
        assert!(out.stderr.contains("fault epochs:"));
        let summary = serde_json::parse_value(&out.stdout).unwrap();
        assert!(matches!(
            summary.get("faults"),
            Some(serde_json::Value::U64(4))
        ));
        assert!(summary.get("report").is_some());
    }

    #[test]
    fn chaos_schedule_file_end_to_end() {
        use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
        let schedule = FaultSchedule::new(vec![FaultEvent {
            t_start_secs: 300,
            duration_secs: 300,
            target: FaultTarget::Pop { pop: 0 },
            kind: FaultKind::BmpStall,
        }])
        .unwrap();
        let dir = std::env::temp_dir().join("efctl-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.json");
        std::fs::write(&path, schedule.to_json()).unwrap();
        let mut args = ChaosArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.5;
        args.epoch_secs = 60;
        args.schedule = Some(path.to_string_lossy().into_owned());
        let out = execute(Command::Chaos(args)).unwrap();
        assert!(out.stderr.contains("bmp_stall"));
    }

    #[test]
    fn trace_emits_parseable_json_lines() {
        let mut args = TraceArgs::default();
        args.common.pops = 4;
        args.common.prefixes = 200;
        args.common.seed = 3;
        args.hours = 0.25;
        args.epoch_secs = 60;
        let out = execute(Command::Trace(args.clone())).unwrap();
        assert!(!out.stdout.is_empty());
        let mut saw_epoch = false;
        let mut saw_peer_session_gauge = false;
        for line in out.stdout.lines() {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            if rec.as_event().is_some_and(|e| e.name == "epoch") {
                saw_epoch = true;
            }
            if let TelemetryRecord::Metrics { snapshot, .. } = &rec {
                if snapshot
                    .gauges
                    .keys()
                    .any(|k| k.starts_with("session.peer.") && k.ends_with(".refreshes_sent"))
                {
                    saw_peer_session_gauge = true;
                }
            }
        }
        assert!(saw_epoch, "trace must contain per-epoch events");
        assert!(
            saw_peer_session_gauge,
            "trace must surface per-peer session counters"
        );
        assert!(out.stderr.contains("telemetry records"));

        // --limit caps the stream.
        args.limit = 3;
        let capped = execute(Command::Trace(args)).unwrap();
        assert_eq!(capped.stdout.lines().count(), 3);
    }

    #[test]
    fn explain_renders_provenance_for_a_steered_prefix() {
        // Find a prefix that was actually steered by tracing first.
        let mut targs = TraceArgs::default();
        targs.common.pops = 4;
        targs.common.prefixes = 200;
        targs.common.seed = 3;
        targs.hours = 0.25;
        targs.epoch_secs = 60;
        let records = traced_run(&targs.common, targs.hours, targs.epoch_secs, false).unwrap();
        let steered = records
            .iter()
            .filter_map(|r| r.as_explain())
            .map(|(_, _, rec)| rec.prefix.clone())
            .next()
            .expect("scenario produces at least one steering decision");

        let args = ExplainArgs {
            common: targs.common.clone(),
            hours: targs.hours,
            epoch_secs: targs.epoch_secs,
            prefix: steered.clone(),
            global: false,
        };
        let out = execute(Command::Explain(args)).unwrap();
        let rows = serde_json::parse_value(&out.stdout).unwrap();
        assert!(rows.as_array().is_some_and(|a| !a.is_empty()));
        assert!(out.stderr.contains(&steered));
        assert!(out.stderr.contains("pop"));

        // A prefix nothing touches renders an empty result, not an error.
        let args = ExplainArgs {
            common: targs.common,
            hours: targs.hours,
            epoch_secs: targs.epoch_secs,
            prefix: "203.0.113.0/24".into(),
            global: false,
        };
        let out = execute(Command::Explain(args)).unwrap();
        let rows = serde_json::parse_value(&out.stdout).unwrap();
        assert!(rows.as_array().is_some_and(|a| a.is_empty()));
        assert!(out.stderr.contains("no steering decisions"));
    }
}
