//! Library backing `efctl`: argument parsing and command implementations,
//! kept out of `main.rs` so they are unit-testable.
//!
//! `efctl` is the operator's front door to the reproduction; [`USAGE`]
//! lists its subcommands and flags. One table says which subcommand
//! accepts which flag, one loop parses every command line into [`Args`],
//! and one `validate` rejects, as a usage error, any world, run length or
//! controller setting that would otherwise fail once the run starts.
//!
//! Every command keeps its stdout machine-parseable (JSON, or JSON lines
//! for `trace`); human-readable tables and progress notes go to stderr so
//! `efctl ... | jq` always works. `--quiet` silences the stderr half.

use edge_fabric::ControllerConfig;
use ef_net_types::Prefix;
use ef_topology::GenConfig;

mod report;
mod run;
mod trace;

/// An `efctl` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    /// Run a scenario (optionally with the global tier) and summarise it.
    Run,
    /// Run a scenario under a fault schedule (from file or generated).
    Chaos,
    /// Run with telemetry and the health tier captured; dump the records.
    Trace,
    /// Run with telemetry captured; show decision provenance for a prefix.
    Explain,
    /// Judge a captured telemetry file, or tail it with `--follow`.
    Report,
    /// Show usage.
    Help,
}

impl Sub {
    /// Every subcommand, in usage order.
    const ALL: [Sub; 6] = [
        Sub::Run,
        Sub::Chaos,
        Sub::Trace,
        Sub::Explain,
        Sub::Report,
        Sub::Help,
    ];

    /// The name the command line uses.
    fn name(self) -> &'static str {
        match self {
            Sub::Run => "run",
            Sub::Chaos => "chaos",
            Sub::Trace => "trace",
            Sub::Explain => "explain",
            Sub::Report => "report",
            Sub::Help => "help",
        }
    }
}

/// The subcommands that simulate a generated world.
const WORLD: &[Sub] = &[Sub::Run, Sub::Chaos, Sub::Trace, Sub::Explain];

/// Every flag `efctl` accepts: its name, whether it takes a value, and the
/// subcommands that accept it. A flag a subcommand does not list is a
/// usage error there (`explain` prints to stdout only, so it has no
/// `--out`).
const FLAGS: &[(&str, bool, &[Sub])] = &[
    ("--seed", true, WORLD),
    ("--pops", true, WORLD),
    ("--prefixes", true, WORLD),
    ("--hours", true, WORLD),
    ("--epoch", true, WORLD),
    ("--baseline", false, &[Sub::Run, Sub::Chaos]),
    ("--hysteresis", true, &[Sub::Run]),
    ("--split", false, &[Sub::Run]),
    ("--global", false, &[Sub::Run, Sub::Explain]),
    ("--backend", true, &[Sub::Run]),
    ("--cripple", true, &[Sub::Run]),
    ("--schedule", true, &[Sub::Chaos]),
    ("--chaos-seed", true, &[Sub::Chaos]),
    ("--events", true, &[Sub::Chaos]),
    ("--profile", true, &[Sub::Chaos]),
    ("--limit", true, &[Sub::Trace]),
    ("--pop", true, &[Sub::Trace]),
    ("--at-epoch", true, &[Sub::Trace]),
    ("--kind", true, &[Sub::Trace]),
    ("--fail-on-alerts", false, &[Sub::Report]),
    ("--follow", false, &[Sub::Report]),
    ("--out", true, &[Sub::Run, Sub::Chaos, Sub::Trace]),
    (
        "--quiet",
        false,
        &[Sub::Run, Sub::Chaos, Sub::Trace, Sub::Explain, Sub::Report],
    ),
];

/// A parsed and validated command line: the subcommand and the value of
/// every flag, each at the subcommand's default when the flag is absent.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    sub: Sub,
    /// Generator seed, PoPs and prefixes of the world.
    seed: u64,
    pops: usize,
    prefixes: usize,
    /// Simulated duration in hours and controller epoch seconds.
    hours: f64,
    epoch_secs: u64,
    /// Run without the controller (plain BGP).
    baseline: bool,
    /// Withdraw hysteresis (0 = paper-stateless).
    hysteresis: f64,
    /// Prefix splitting (§7 future work).
    split: bool,
    /// The user→PoP steering tier, its backend (`dns` or `anycast`), and
    /// a PoP whose capacity is capped to 1.2× its average demand so the
    /// evening peak forces the tier to steer.
    global: bool,
    backend: Option<String>,
    cripple: Option<usize>,
    /// JSON fault schedule (see `ef_chaos::FaultSchedule`); when absent,
    /// `events` faults are generated from `chaos_seed`, restricted to the
    /// named `profile`'s kinds when one is given.
    schedule: Option<String>,
    chaos_seed: u64,
    events: usize,
    profile: Option<String>,
    /// `trace` filters: a cap on the records printed (0 = everything),
    /// one PoP, one epoch index (`t_secs / epoch_secs`), and an event name
    /// (`epoch`, `health.sample`, ...) or record category (`event`,
    /// `explain`, `placement`).
    limit: usize,
    pop: Option<u16>,
    at_epoch: Option<u64>,
    kind: Option<String>,
    /// The prefix `explain` shows. A covering or covered prefix also
    /// matches, so `efctl explain 10.0.0.0/8` shows every decision inside
    /// that /8.
    prefix: Option<Prefix>,
    /// The telemetry JSON-lines file `report` judges or follows.
    file: String,
    fail_on_alerts: bool,
    follow: bool,
    /// `trace` writes its JSON lines here instead of to stdout; `run` and
    /// `chaos` dump their epoch records here.
    out: Option<String>,
    /// Suppress the human-readable stderr stream.
    quiet: bool,
}

/// The generator sizes the AS population at `prefixes / 8`, clamped to
/// `[MIN_ASES, 400]`, and every AS originates at least one prefix.
const MIN_ASES: usize = 8;

impl Args {
    fn new(sub: Sub) -> Args {
        Args {
            sub,
            seed: 7,
            pops: 20,
            prefixes: 3000,
            hours: match sub {
                Sub::Run => 3.0,
                Sub::Chaos => 1.0,
                _ => 0.5,
            },
            epoch_secs: 30,
            baseline: false,
            hysteresis: 0.0,
            split: false,
            global: false,
            backend: None,
            cripple: None,
            schedule: None,
            chaos_seed: 1,
            events: 8,
            profile: None,
            limit: 0,
            pop: None,
            at_epoch: None,
            kind: None,
            prefix: None,
            file: String::new(),
            fail_on_alerts: false,
            follow: false,
            out: None,
            quiet: false,
        }
    }

    /// Stores `flag`'s `value` (empty for a flag that takes none).
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {value:?}"))
        }
        match flag {
            "--seed" => self.seed = num(flag, value)?,
            "--pops" => self.pops = num(flag, value)?,
            "--prefixes" => self.prefixes = num(flag, value)?,
            "--hours" => self.hours = num(flag, value)?,
            "--epoch" => self.epoch_secs = num(flag, value)?,
            "--baseline" => self.baseline = true,
            "--hysteresis" => self.hysteresis = num(flag, value)?,
            "--split" => self.split = true,
            "--global" => self.global = true,
            "--backend" => self.backend = Some(value.to_string()),
            "--cripple" => self.cripple = Some(num(flag, value)?),
            "--schedule" => self.schedule = Some(value.to_string()),
            "--chaos-seed" => self.chaos_seed = num(flag, value)?,
            "--events" => self.events = num(flag, value)?,
            "--profile" => self.profile = Some(value.to_string()),
            "--limit" => self.limit = num(flag, value)?,
            "--pop" => self.pop = Some(num(flag, value)?),
            "--at-epoch" => self.at_epoch = Some(num(flag, value)?),
            "--kind" => self.kind = Some(value.to_string()),
            "--fail-on-alerts" => self.fail_on_alerts = true,
            "--follow" => self.follow = true,
            "--out" => self.out = Some(value.to_string()),
            "--quiet" => self.quiet = true,
            other => unreachable!("{other} is listed in FLAGS but has no setter"),
        }
        Ok(())
    }

    /// Stores a bare argument: `explain`'s prefix or `report`'s file.
    fn set_positional(&mut self, arg: &str) -> Result<(), String> {
        match self.sub {
            Sub::Explain if self.prefix.is_none() => {
                let prefix = arg
                    .parse()
                    .map_err(|e| format!("cannot parse prefix {arg:?}: {e}"))?;
                self.prefix = Some(prefix);
            }
            Sub::Report if self.file.is_empty() => self.file = arg.to_string(),
            sub => return Err(format!("unexpected argument {arg:?} for {}", sub.name())),
        }
        Ok(())
    }

    /// Rejects a command line whose run would fail or mean nothing: a world
    /// the generator cannot build (no PoP, fewer prefixes than ASes), a run
    /// shorter than one epoch, a setting the controller refuses, or a flag
    /// that needs another one.
    fn validate(&self) -> Result<(), String> {
        let fail = |msg: &str| Err(msg.to_string());
        if self.pops == 0 {
            return fail("--pops must be at least 1");
        }
        if self.prefixes < MIN_ASES {
            return fail(&format!(
                "--prefixes must be at least {MIN_ASES} (one per AS)"
            ));
        }
        // `nan` and `inf` parse as floats, but converted to seconds they
        // would give a zero-epoch run and one of `u64::MAX` seconds.
        if !(self.hours.is_finite() && self.hours > 0.0) {
            return fail(&format!(
                "--hours must be a finite positive number, got {}",
                self.hours
            ));
        }
        if self.epoch_secs == 0 {
            return fail("--epoch must be positive");
        }
        if self.duration_secs() < self.epoch_secs {
            return fail("--hours must cover at least one --epoch");
        }
        // The controller's own validation bounds the hysteresis, so the
        // accepted range has one source.
        ControllerConfig {
            withdraw_hysteresis: self.hysteresis,
            ..ControllerConfig::default()
        }
        .validate()
        .map_err(|e| format!("--hysteresis: {e}"))?;
        if self.events == 0 && self.schedule.is_none() {
            return fail("--events must be positive (or pass --schedule)");
        }
        if let Some(profile) = &self.profile {
            if profile != "adversarial" && profile != "global-partition" {
                return fail(&format!(
                    "unknown profile {profile:?}; known profiles: adversarial, global-partition"
                ));
            }
            if self.schedule.is_some() {
                return fail("--profile only applies to generated schedules; drop --schedule");
            }
        }
        if let Some(kind) = self.kind.as_deref().filter(|k| {
            !trace::RECORD_CATEGORIES.contains(k) && !ef_telemetry::EVENT_NAMES.contains(k)
        }) {
            return fail(&format!(
                "unknown --kind {kind:?}; accepted: a record category ({}) or an event name ({})",
                trace::RECORD_CATEGORIES.join(", "),
                ef_telemetry::EVENT_NAMES.join(", ")
            ));
        }
        if !self.global && (self.backend.is_some() || self.cripple.is_some()) {
            return fail("--backend and --cripple need --global");
        }
        if let Some(backend) = self
            .backend
            .as_deref()
            .filter(|b| !["dns", "anycast"].contains(b))
        {
            return fail(&format!(
                "--backend must be dns or anycast, got {backend:?}"
            ));
        }
        if let Some(victim) = self.cripple.filter(|&p| p >= self.pops) {
            return fail(&format!(
                "--cripple {victim} is out of range for {} PoPs",
                self.pops
            ));
        }
        if self.follow && self.fail_on_alerts {
            return fail("--fail-on-alerts judges a finished file; drop --follow");
        }
        match self.sub {
            Sub::Explain if self.prefix.is_none() => {
                fail("explain needs a prefix, e.g. 'efctl explain 10.0.0.0/24'")
            }
            Sub::Report if self.file.is_empty() => {
                fail("report needs a telemetry file, e.g. 'efctl report run.jsonl'")
            }
            _ => Ok(()),
        }
    }

    fn duration_secs(&self) -> u64 {
        (self.hours * 3600.0) as u64
    }

    /// The scenario every simulating subcommand starts from: the generated
    /// world, the run length and the epoch.
    fn scenario(&self) -> ef_sim::ScenarioBuilder {
        ef_sim::scenario()
            .topology(GenConfig {
                seed: self.seed,
                n_pops: self.pops,
                n_prefixes: self.prefixes,
                // Scale companion parameters with size so small worlds stay sane.
                n_ases: (self.prefixes / 8).clamp(MIN_ASES, 400),
                total_avg_gbps: 400.0 * self.pops as f64,
                ..GenConfig::default()
            })
            .duration_secs(self.duration_secs())
            .epoch_secs(self.epoch_secs)
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

/// `value` as pretty JSON plus a final newline, for stdout.
fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    Ok(text)
}

/// Usage text.
pub const USAGE: &str = "\
efctl — Edge Fabric reproduction CLI

Machine-readable JSON goes to stdout; human tables and notes go to
stderr (silence them with --quiet).

USAGE:
  efctl run     [--seed N] [--pops N] [--prefixes N] [--hours H]
                [--epoch SECS] [--baseline] [--hysteresis X] [--split]
                [--global [--backend dns|anycast] [--cripple POP]]
                [--out FILE]
  efctl chaos   [--seed N] [--pops N] [--prefixes N] [--hours H]
                [--epoch SECS] [--baseline] [--schedule FILE]
                [--chaos-seed N] [--events N]
                [--profile adversarial|global-partition] [--out FILE]
  efctl trace   [--seed N] [--pops N] [--prefixes N] [--hours H]
                [--epoch SECS] [--limit N] [--pop N] [--at-epoch N]
                [--kind NAME] [--out FILE]
  efctl explain PREFIX [--seed N] [--pops N] [--prefixes N]
                [--hours H] [--epoch SECS] [--global]
  efctl report  FILE [--fail-on-alerts | --follow]
  efctl help

--hours defaults to 3 (run), 1 (chaos) or 0.5 (trace, explain) and must
cover at least one --epoch (30 s by default).

`run --global` adds the user->PoP steering tier above per-PoP Edge
Fabric and prints each population's placement (away-fractions per PoP,
demand moved). --cripple caps one PoP's capacity below its peak demand
so the tier has something to do.

`chaos` draws from every per-PoP fault kind (peer_failure,
link_capacity_loss, bmp_stall, sflow_loss, controller_crash,
injector_loss, flash_crowd, update_corruption, session_flap_storm,
injector_partial_loss). --profile adversarial samples only the last
three; --profile global-partition enables the global steering tier and
samples only the faults that break it: report_partition,
report_staleness, global_controller_crash, headroom_lie.

`trace` runs with the health tier attached, so the stream includes
health.sample and alert.* events. --pop / --at-epoch / --kind narrow
the dump (--kind takes a record category: event, explain, placement, or
an event name the program emits, like epoch, health.sample or
session.stats; any other name is a usage error that lists them all).

`report` replays a captured JSON-lines telemetry file through the
health tier: SLO pass/fail table, per-PoP percentiles, and the alert
timeline (JSON on stdout, tables on stderr). --fail-on-alerts exits
nonzero when any alert fired — CI's calm-run gate. --follow instead
tails the file as one line per health sample, alert edge or fault,
starting over if the file is truncated, until killed.

All commands accept --quiet.
";

/// Parses `argv[1..]` into validated [`Args`]; an error is a usage error,
/// with a human-readable reason.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let Some(name) = argv.first() else {
        return Ok(Args::new(Sub::Help));
    };
    let sub = match name.as_str() {
        "--help" | "-h" => Sub::Help,
        name => Sub::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown command {name:?}; try 'efctl help'"))?,
    };
    let mut args = Args::new(sub);
    let mut rest = argv[1..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.set_positional(arg)?;
            continue;
        }
        let Some(&(flag, takes_value, _)) = FLAGS
            .iter()
            .find(|(flag, _, subs)| flag == arg && subs.contains(&sub))
        else {
            return Err(format!("unknown flag {arg:?} for {}", sub.name()));
        };
        let value = if takes_value {
            rest.next().ok_or_else(|| format!("{flag} needs a value"))?
        } else {
            ""
        };
        args.set(flag, value)?;
    }
    args.validate()?;
    Ok(args)
}

/// Executes a parsed command, returning its stdout/stderr halves.
/// `report --follow` instead prints as the file grows and returns only on
/// an error, since a tail never finishes.
pub fn execute(args: Args) -> Result<Output, String> {
    let mut out = match args.sub {
        Sub::Help => Output {
            stdout: USAGE.to_string(),
            stderr: String::new(),
        },
        Sub::Run => run::run(&args)?,
        Sub::Chaos => run::chaos(&args)?,
        Sub::Trace => trace::trace(&args)?,
        Sub::Explain => trace::explain(&args)?,
        Sub::Report if args.follow => match report::watch_follow(&args.file)? {},
        Sub::Report => report::report(&args)?,
    };
    if args.quiet {
        out.stderr.clear();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use ef_telemetry::TelemetryRecord;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> Args {
        parse_args(&argv(s)).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    fn exec(s: &str) -> Output {
        execute(parse(s)).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    /// The positional argument a subcommand needs to parse at all.
    fn positional(sub: Sub) -> &'static str {
        match sub {
            Sub::Explain => "1.0.0.0/24",
            Sub::Report => "run.jsonl",
            _ => "",
        }
    }

    /// A small world every end-to-end test can afford.
    const SMALL: &str = "--pops 4 --prefixes 200 --seed 3 --epoch 60";

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap().sub, Sub::Help);
        assert_eq!(parse("help").sub, Sub::Help);
        assert_eq!(parse("--help").sub, Sub::Help);
        // `help` takes no flags and no arguments.
        assert!(parse_args(&argv("help --quiet")).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        for cmd in [
            "frobnicate",
            "gen",
            "table1",
            "diversity",
            "global",
            "watch",
        ] {
            assert!(parse_args(&argv(cmd)).is_err(), "{cmd}");
        }
    }

    #[test]
    fn run_flags() {
        let r = parse(
            "run --seed 11 --pops 4 --prefixes 100 --out d.json --hours 2 --baseline \
             --hysteresis 0.03 --split --global --epoch 60",
        );
        assert_eq!((r.seed, r.pops, r.prefixes), (11, 4, 100));
        assert_eq!(r.out.as_deref(), Some("d.json"));
        assert_eq!(r.hours, 2.0);
        assert!(r.baseline);
        assert_eq!(r.hysteresis, 0.03);
        assert!(r.split);
        assert!(r.global);
        assert_eq!(r.epoch_secs, 60);
        let r = parse("run");
        assert_eq!(r, Args::new(Sub::Run));
        assert_eq!((r.seed, r.pops, r.prefixes), (7, 20, 3000));
        assert_eq!((r.hours, r.epoch_secs), (3.0, 30));
        assert!(!r.split && !r.global && r.out.is_none());
    }

    #[test]
    fn quiet_parses_everywhere() {
        for sub in Sub::ALL.into_iter().filter(|&s| s != Sub::Help) {
            let line = format!("{} {} --quiet", sub.name(), positional(sub));
            assert!(parse(&line).quiet, "{line}");
        }
        // So does every other flag, on every subcommand FLAGS lists for it.
        for &(flag, takes_value, subs) in FLAGS {
            let value = match flag {
                "--hysteresis" => "0.05",
                "--profile" => "adversarial",
                "--backend" => "dns",
                "--kind" => "epoch",
                _ if takes_value => "8",
                _ => "",
            };
            let needs = match flag {
                "--backend" | "--cripple" => "--global",
                _ => "",
            };
            for &sub in subs {
                parse(&format!(
                    "{} {} {needs} {flag} {value}",
                    sub.name(),
                    positional(sub)
                ));
            }
        }
    }

    #[test]
    fn global_flags() {
        let g = parse(
            "run --global --seed 3 --pops 6 --hours 1.5 --backend anycast --cripple 2 --epoch 30",
        );
        assert_eq!((g.seed, g.pops, g.hours, g.epoch_secs), (3, 6, 1.5, 30));
        assert!(g.global);
        assert_eq!(g.backend.as_deref(), Some("anycast"));
        assert_eq!(g.cripple, Some(2));
        let g = parse("run --global --backend dns");
        assert_eq!(g.backend.as_deref(), Some("dns"));
        assert_eq!(g.cripple, None);
        for bad in [
            "run --global --backend carrier-pigeon",
            "run --global --pops 4 --cripple 4",
            "run --backend dns",
            "run --cripple 0",
            "explain 1.0.0.0/24 --global --backend dns",
            "chaos --global",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn global_small_scenario_end_to_end() {
        let out = exec(&format!("run --global --cripple 0 --hours 1 {SMALL}"));
        assert!(out.stderr.contains("backend: dns"));
        assert!(out.stderr.contains("crippled pop0"));
        let summary = serde_json::parse_value(&out.stdout).unwrap();
        assert!(summary.get("report").is_some());
        // One placement row per population (regions present in a 4-PoP world).
        assert!(summary
            .get("placements")
            .and_then(|p| p.as_array())
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn trace_and_explain_flags() {
        let t = parse("trace --seed 3 --hours 0.5 --epoch 60 --limit 10");
        assert_eq!((t.seed, t.hours, t.epoch_secs, t.limit), (3, 0.5, 60, 10));
        let e = parse("explain 10.0.0.0/24 --seed 3 --hours 0.5");
        assert_eq!(e.prefix, Some("10.0.0.0/24".parse().unwrap()));
        assert_eq!((e.seed, e.hours), (3, 0.5));
        let e = parse("explain 2001:db8::/48");
        assert_eq!(e.prefix, Some("2001:db8::/48".parse().unwrap()));
        // Missing, malformed, or duplicate prefixes are rejected, and a
        // malformed one with the prefix parser's reason.
        for bad in [
            "explain",
            "explain banana",
            "explain 1.0.0.0/24 2.0.0.0/24",
            "explain 1.0.0.0/24 --out x.json",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
        let err = parse_args(&argv("explain 10.0.0.0/33")).unwrap_err();
        assert!(err.contains("length 33"), "{err}");
    }

    #[test]
    fn report_and_watch_flags() {
        let r = parse("report run.jsonl --fail-on-alerts --quiet");
        assert_eq!(r.file, "run.jsonl");
        assert!(r.fail_on_alerts && r.quiet && !r.follow);
        let w = parse("report run.jsonl --follow");
        assert_eq!(w.file, "run.jsonl");
        assert!(w.follow && !w.quiet);
        for bad in [
            "report",
            "report a.jsonl b.jsonl",
            "report a.jsonl --frob",
            "report a.jsonl --once",
            "report a.jsonl --follow --fail-on-alerts",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_filter_flags() {
        let t = parse("trace --pop 2 --at-epoch 5 --kind health.sample");
        assert_eq!(t.pop, Some(2));
        assert_eq!(t.at_epoch, Some(5));
        assert_eq!(t.kind.as_deref(), Some("health.sample"));
        let t = parse("trace");
        assert_eq!((t.pop, t.at_epoch, t.kind), (None, None, None));
        assert!(parse("explain 1.0.0.0/24 --global").global);
    }

    /// `--kind` must name something a stream can hold: the retired
    /// `metrics` record or a typo is a usage error naming the accepted
    /// kinds, while an emitted event the run happens not to produce still
    /// runs and matches nothing.
    #[test]
    fn trace_kind_must_name_a_category_or_an_emitted_event() {
        for bad in ["metrics", "health.sampel", "Epoch"] {
            let err = parse_args(&argv(&format!("trace --kind {bad}"))).unwrap_err();
            assert!(
                err.contains("--kind") && err.contains("event, explain, placement"),
                "{bad}: {err}"
            );
            assert!(err.contains("session.stats"), "{bad}: {err}");
        }
        for good in trace::RECORD_CATEGORIES
            .into_iter()
            .chain(ef_telemetry::EVENT_NAMES)
        {
            assert_eq!(
                parse(&format!("trace --kind {good}")).kind.as_deref(),
                Some(good)
            );
        }
        // Session stats change only under faults, so the calm trace has none.
        let out = exec(&format!("trace {SMALL} --hours 0.5 --kind session.stats"));
        assert!(out.stdout.is_empty());
        assert!(out.stderr.contains("0 of "), "{}", out.stderr);
    }

    #[test]
    fn trace_filters_narrow_the_stream() {
        let world = format!("trace {SMALL} --hours 0.25");
        let out = exec(&format!("{world} --pop 1 --kind health.sample"));
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
        let out = exec(&format!("{world} --at-epoch 3"));
        assert!(!out.stdout.is_empty());
        for line in out.stdout.lines() {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            let now_ms = match &rec {
                TelemetryRecord::Event(e) => e.now_ms,
                TelemetryRecord::Explain { now_ms, .. }
                | TelemetryRecord::Placement { now_ms, .. } => *now_ms,
            };
            assert_eq!((now_ms / 1000) / 60, 3);
        }
    }

    #[test]
    fn report_and_watch_judge_a_captured_file() {
        // Capture a small traced run to a file, then judge it offline.
        let traced = exec(&format!("trace {SMALL} --hours 0.25"));
        let dir = std::env::temp_dir().join("efctl-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        std::fs::write(&path, &traced.stdout).unwrap();

        let report = exec(&format!("report {}", path.display()));
        assert!(report.stderr.contains("SLO"));
        assert!(report.stderr.contains("drop_rate_ceiling"));
        let parsed = serde_json::parse_value(&report.stdout).unwrap();
        assert!(parsed.get("slo").and_then(|v| v.as_array()).is_some());
        assert!(matches!(
            parsed.get("samples"),
            Some(serde_json::Value::U64(n)) if *n > 0
        ));

        // A missing file errors cleanly.
        assert!(execute(parse("report /nonexistent/run.jsonl")).is_err());
    }

    /// A capture with a record kind this build no longer knows (the
    /// retired per-epoch `Metrics` snapshot) and a torn final line is
    /// judged exactly like the clean capture, bar the skip note.
    #[test]
    fn report_skips_retired_records_and_a_torn_line() {
        let traced = exec(&format!("trace {SMALL} --hours 0.25"));
        let dir = std::env::temp_dir().join("efctl-report-skip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.jsonl");
        std::fs::write(&clean, &traced.stdout).unwrap();

        let retired = r#"{"Metrics":{"pop":65535,"now_ms":0,"snapshot":{"counters":{"overrides.announced":23},"gauges":{"pop0.detoured_mbps":11559.36},"histograms":{"epoch_duration_us":{"bounds":[10.0,100.0],"counts":[0,3,1],"sum":412.0,"count":4}}}}}"#;
        let mut lines: Vec<&str> = traced.stdout.lines().collect();
        let last = lines.pop().unwrap();
        let torn = &last[..last.len() / 2];
        let dirty_text = format!("{retired}\n{}\n{}\n{torn}", lines.join("\n"), last);
        let dirty = dir.join("dirty.jsonl");
        std::fs::write(&dirty, dirty_text).unwrap();

        let want = exec(&format!("report {}", clean.display()));
        let got = exec(&format!("report {}", dirty.display()));
        assert_eq!(got.stdout, want.stdout);
        assert_eq!(
            got.stderr,
            format!("[skipped 2 unparseable line(s)]\n{}", want.stderr)
        );
    }

    /// Every percentile row `efctl report` prints equals a brute-force
    /// type-7 quantile (linear between the order statistics around rank
    /// `q·(n−1)`) over the values of its series in the traced stream.
    #[test]
    fn report_percentiles_are_exact_type7_quantiles() {
        let traced = exec(&format!("trace {SMALL} --hours 0.25"));
        let dir = std::env::temp_dir().join("efctl-report-oracle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        std::fs::write(&path, &traced.stdout).unwrap();
        let report: ef_health::HealthReport =
            serde_json::from_str(&exec(&format!("report {}", path.display())).stdout).unwrap();

        let records: Vec<TelemetryRecord> = traced
            .stdout
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let values_of = |pop: u16, metric: &str| -> Vec<f64> {
            let (event_name, field) = match metric.strip_prefix("epoch.") {
                Some(phase) => ("epoch", phase),
                None => ("health.sample", metric),
            };
            let mut values: Vec<f64> = records
                .iter()
                .filter_map(|r| r.as_event())
                .filter(|e| e.name == event_name && e.pop == pop)
                .filter_map(|e| ef_health::num_field(e, field))
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            values
        };
        let type7 = |x: &[f64], q: f64| {
            let h = (x.len() - 1) as f64 * q;
            let (j, g) = (h.floor() as usize, h - h.floor());
            if g == 0.0 {
                x[j]
            } else {
                (1.0 - g) * x[j] + g * x[j + 1]
            }
        };

        // 4 PoPs x (5 summary metrics + 5 epoch phases).
        assert_eq!(report.percentiles.len(), 40);
        for row in &report.percentiles {
            let x = values_of(row.pop, &row.metric);
            assert_eq!(row.count, x.len() as u64, "{row:?}");
            assert_eq!(row.max, x[x.len() - 1], "{row:?}");
            for (got, q) in [(row.p50, 0.5), (row.p90, 0.9), (row.p99, 0.99)] {
                let want = type7(&x, q);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{} at pop {} q={q}: {got} vs {want}",
                    row.metric,
                    row.pop
                );
            }
        }
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

        let line = format!("report {}", path.display());
        let err = execute(parse(&format!("{line} --fail-on-alerts"))).unwrap_err();
        assert!(err.contains("drop_rate_ceiling"));
        // Without the gate the same stream reports fine.
        assert!(exec(&line).stderr.contains("FAIL"));
    }

    #[test]
    fn bad_values_error_cleanly() {
        for cmd in [
            "run --hours banana",
            "run --seed",
            "run --frob 1",
            "trace --baseline",
            "run --epoch 0",
            "run --epoch 0 --baseline",
            "chaos --epoch 0",
            "trace --epoch 0",
            "explain 1.0.0.0/24 --epoch 0",
        ] {
            assert!(parse_args(&argv(cmd)).is_err(), "{cmd}");
        }
    }

    #[test]
    fn hours_must_be_finite_and_positive() {
        for cmd in ["run", "chaos", "trace", "explain 1.0.0.0/24"] {
            for hours in ["nan", "inf", "-inf", "-1", "0"] {
                let line = format!("{cmd} --hours {hours}");
                assert!(parse_args(&argv(&line)).is_err(), "{line}");
            }
            // A run shorter than one epoch would have no epochs at all.
            for short in ["0.005", "0.0001", "0.02 --epoch 120"] {
                let line = format!("{cmd} --hours {short}");
                let err = parse_args(&argv(&line)).unwrap_err();
                assert!(err.contains("at least one --epoch"), "{line}: {err}");
            }
            parse(&format!("{cmd} --hours 0.25"));
            parse(&format!("{cmd} --hours 0.5 --epoch 1800"));
        }
    }

    #[test]
    fn world_and_controller_flags_are_checked_at_parse_time() {
        for cmd in ["run", "chaos", "trace", "explain 1.0.0.0/24"] {
            for bad in ["--pops 0", "--prefixes 0", "--prefixes 7"] {
                let line = format!("{cmd} {bad}");
                let err = parse_args(&argv(&line)).unwrap_err();
                assert!(err.contains("at least"), "{line}: {err}");
            }
            parse(&format!("{cmd} --pops 1 --prefixes {MIN_ASES}"));
        }
        // The controller's own validation bounds the hysteresis.
        for bad in ["0.99", "0.95", "-0.1", "nan", "inf"] {
            let line = format!("run --hysteresis {bad}");
            let err = parse_args(&argv(&line)).unwrap_err();
            assert!(err.contains("withdraw_hysteresis"), "{line}: {err}");
        }
        parse("run --hysteresis 0.08");
    }

    #[test]
    fn quiet_clears_stderr_but_keeps_stdout() {
        let line = "run --pops 2 --prefixes 50 --seed 3 --hours 0.1 --epoch 60";
        let loud = exec(line);
        assert!(!loud.stderr.is_empty());
        let quiet = exec(&format!("{line} --quiet"));
        assert!(quiet.stderr.is_empty());
        assert_eq!(quiet.stdout, loud.stdout);
    }

    #[test]
    fn run_small_scenario_end_to_end() {
        let out = exec(&format!("run {SMALL} --hours 0.25"));
        assert!(out.stderr.contains("edge fabric"));
        assert!(out.stderr.contains("dropped:"));
        assert!(!out.stderr.contains("backend:"));
        let summary = serde_json::parse_value(&out.stdout).unwrap();
        assert!(matches!(
            summary.get("arm"),
            Some(serde_json::Value::Str(s)) if s == "edge fabric"
        ));
        assert!(summary.get("report").is_some());
        assert!(summary
            .get("placements")
            .and_then(|p| p.as_array())
            .is_some_and(|a| a.is_empty()));
    }

    #[test]
    fn help_text_lists_commands() {
        assert_eq!(exec("help").stdout, USAGE);
        for sub in Sub::ALL {
            let usage_line = format!("efctl {}", sub.name());
            assert!(USAGE.contains(&usage_line), "USAGE lacks {usage_line:?}");
        }
        let words: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for (flag, ..) in FLAGS {
            assert!(words.contains(flag), "USAGE lacks {flag}");
        }
    }

    #[test]
    fn design_census_names_every_subcommand_and_flag() {
        let doc = include_str!("../../../DESIGN.md");
        let start = doc
            .find("<!-- BEGIN option census -->")
            .expect("DESIGN.md carries the census markers");
        let end = start
            + doc[start..]
                .find("<!-- END option census -->")
                .expect("census block is closed");
        // The first cell of each row of the census table under `header`.
        let first_cells = |header: &str| -> Vec<&str> {
            doc[start..end]
                .lines()
                .skip_while(|l| !l.starts_with(header))
                .skip(2)
                .take_while(|l| l.starts_with('|'))
                .filter_map(|l| l.split('|').nth(1))
                .map(str::trim)
                .collect()
        };
        let rows: BTreeSet<&str> = first_cells("| Subcommand of `efctl`").into_iter().collect();
        let live: BTreeSet<&str> = Sub::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            rows, live,
            "DESIGN.md §5's subcommand census must have one row per subcommand"
        );
        let rows: BTreeSet<&str> = first_cells("| Flag of `efctl`")
            .into_iter()
            .flat_map(|cell| cell.split('`').filter(|t| t.starts_with("--")))
            .collect();
        let live: BTreeSet<&str> = FLAGS.iter().map(|f| f.0).collect();
        assert_eq!(
            rows, live,
            "DESIGN.md §5's flag census must name every flag of FLAGS, and only those"
        );
    }

    #[test]
    fn chaos_flags() {
        let c = parse("chaos --seed 3 --hours 0.5 --chaos-seed 9 --events 4 --baseline --epoch 60");
        assert_eq!((c.seed, c.hours, c.chaos_seed), (3, 0.5, 9));
        assert_eq!((c.events, c.epoch_secs), (4, 60));
        assert!(c.baseline);
        assert!(c.schedule.is_none());
        let c = parse("chaos --schedule faults.json");
        assert_eq!(c.schedule.as_deref(), Some("faults.json"));
        assert!(parse_args(&argv("chaos --events 0")).is_err());
        assert!(parse_args(&argv("chaos --hours 0")).is_err());
    }

    #[test]
    fn chaos_profile_flag() {
        let c = parse("chaos --profile adversarial");
        assert_eq!(c.profile.as_deref(), Some("adversarial"));
        let c = parse("chaos --profile global-partition");
        assert_eq!(c.profile.as_deref(), Some("global-partition"));
        assert!(parse_args(&argv("chaos --profile meteor")).is_err());
        assert!(parse_args(&argv("chaos --profile adversarial --schedule f.json")).is_err());
    }

    #[test]
    fn chaos_adversarial_profile_end_to_end() {
        let out = exec(&format!(
            "chaos {SMALL} --hours 0.5 --events 4 --profile adversarial"
        ));
        assert!(out.stderr.contains("under 4 fault(s)"));
        // Only the hostile-ingest kinds are sampled.
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
        let out = exec(&format!(
            "chaos {SMALL} --hours 0.5 --events 4 --profile global-partition"
        ));
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
        let err = execute(parse("chaos --schedule /nonexistent/faults.json")).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn chaos_small_scenario_end_to_end() {
        let out = exec(&format!("chaos {SMALL} --hours 0.5 --events 4"));
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
        std::fs::write(&path, serde_json::to_string_pretty(&schedule).unwrap()).unwrap();
        let out = exec(&format!(
            "chaos {SMALL} --hours 0.5 --schedule {}",
            path.display()
        ));
        assert!(out.stderr.contains("bmp_stall"));
    }

    #[test]
    fn chaos_schedule_with_a_window_shorter_than_the_epoch_errors() {
        use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
        // 40 s between the ticks at 600 and 660: no tick would see it.
        let schedule = FaultSchedule::new(vec![FaultEvent {
            t_start_secs: 610,
            duration_secs: 40,
            target: FaultTarget::Pop { pop: 0 },
            kind: FaultKind::ControllerCrash,
        }])
        .unwrap();
        let dir = std::env::temp_dir().join("efctl-sub-epoch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.json");
        std::fs::write(&path, serde_json::to_string_pretty(&schedule).unwrap()).unwrap();
        let line = format!("chaos {SMALL} --hours 0.5 --schedule {}", path.display());
        let err = execute(parse(&line)).unwrap_err();
        assert!(
            err.contains("controller_crash at t=610s lasts 40s, shorter than the 60s epoch"),
            "{err}"
        );
    }

    #[test]
    fn trace_emits_parseable_json_lines() {
        let line = format!("trace {SMALL} --hours 0.25");
        let out = exec(&line);
        assert!(!out.stdout.is_empty());
        let mut saw_epoch = false;
        for line in out.stdout.lines() {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            let Some(e) = rec.as_event() else {
                continue;
            };
            if e.name == "epoch" {
                saw_epoch = true;
                assert!(e.field("detoured_mbps").is_some(), "{line}");
            }
            // Session stats are emitted on change; a fault-free run's
            // never change.
            assert_ne!(e.name, "session.stats", "{line}");
        }
        assert!(saw_epoch, "trace must contain per-epoch events");
        assert!(out.stderr.contains("telemetry records"));

        // --limit caps the stream.
        let capped = exec(&format!("{line} --limit 3"));
        assert_eq!(capped.stdout.lines().count(), 3);
    }

    #[test]
    fn explain_renders_provenance_for_a_steered_prefix() {
        // Find a prefix that was actually steered by tracing first.
        let world = format!("{SMALL} --hours 0.25");
        let traced = exec(&format!("trace {world} --kind explain --limit 1"));
        let first: TelemetryRecord = serde_json::from_str(
            traced
                .stdout
                .lines()
                .next()
                .expect("scenario produces at least one steering decision"),
        )
        .unwrap();
        let steered = first.as_explain().unwrap().2.prefix.to_string();

        let out = exec(&format!("explain {steered} {world}"));
        let rows = serde_json::parse_value(&out.stdout).unwrap();
        assert!(rows.as_array().is_some_and(|a| !a.is_empty()));
        assert!(out.stderr.contains(&steered));
        assert!(out.stderr.contains("pop"));

        // A prefix nothing touches renders an empty result, not an error.
        let out = exec(&format!("explain 203.0.113.0/24 {world}"));
        let rows = serde_json::parse_value(&out.stdout).unwrap();
        assert!(rows.as_array().is_some_and(|a| a.is_empty()));
        assert!(out.stderr.contains("no steering decisions"));
    }
}
