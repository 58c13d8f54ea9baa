//! Function census: the first run that reaches each production function.
//!
//! Line coverage needs an `llvm-profdata` that reads rustc's profile
//! format; this needs nothing outside std. The census copies the workspace
//! to a temporary directory and, in the copy only, puts a first-hit probe
//! on the line of every production function's opening `{` (so line numbers
//! do not move): a `static AtomicBool`, checked with `load` before `swap`
//! so a hot function pays one relaxed load, whose first call in a process
//! appends the function's index to the file `FNHIT_FILE` names. Test
//! items, `const fn`s, `macro_rules!` bodies and this file get none. It
//! then runs CI's commands in the copy ([`STAGES`]; release runs skip
//! `debug_assert!`, so the debug `efctl` runs reach the in-situ oracles)
//! and writes `results/function_census.md`. It exits non-zero when a
//! command fails or a function only tier-1 tests reach has no [`REASONS`]
//! entry. About ten minutes on two cores:
//!
//! ```text
//! cargo run --release -p ef-bench --bin census
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use std::{fs, io};

/// CI's commands as `(census row, commands)`, in bucket order: a function
/// lands in the first row whose commands reached it. Each command runs
/// with `bash -euo pipefail -c` from the copy's root. A probed build is
/// slower than the one the perf binaries' baselines were cut on, so their
/// wall-time verdicts are ignored (`|| true`); what they reach still counts.
const STAGES: [(&str, &[&str]); 5] = [
    (
        "a run: `exp_paper` and CI's `efctl` commands (release and debug)",
        &[
            "cargo build --release --locked -p ef-bench --bin exp_paper",
            "cargo build --release --locked -p ef-cli --bin efctl",
            "EF_TELEMETRY=/dev/null ./target/release/exp_paper",
            "./target/release/efctl trace --seed 3 --pops 2 --prefixes 200 \
             --hours 0.5 --epoch 60 --quiet > calm-run.jsonl",
            "./target/release/efctl report calm-run.jsonl --fail-on-alerts > calm-report.json",
            "./target/release/efctl trace --seed 3 --pops 4 --prefixes 200 \
             --hours 0.5 --epoch 60 --kind health.sample --quiet > /dev/null",
            "./target/release/efctl chaos --profile global-partition --pops 6 --prefixes 300 \
             --hours 1 --epoch 60 --events 6 --chaos-seed 3 --quiet --out chaos.json > /dev/null",
            "./target/release/efctl run --global --split --cripple 0 --pops 6 --prefixes 300 \
             --hours 1 --epoch 60 --quiet --out run.json > /dev/null",
            "./target/release/efctl run --pops 1 --prefixes 2000 --hours 1 --epoch 60 \
             --quiet --out run1.json > /dev/null",
            "./target/release/efctl explain 20.0.117.0/24 --global --pops 4 --prefixes 300 \
             --hours 0.5 --epoch 60 > /dev/null 2>&1",
            "status=0; timeout 5 ./target/release/efctl report calm-run.jsonl --follow \
             > /dev/null || status=$?; test $status -eq 124",
            "cargo run -q --locked -p ef-cli --bin efctl -- chaos --pops 4 --prefixes 200 \
             --hours 0.5 --epoch 60 --events 4 --chaos-seed 3 --quiet",
            "cargo run -q --locked -p ef-cli --bin efctl -- chaos --pops 4 --prefixes 200 \
             --hours 0.5 --epoch 60 --schedule tests/chaos/overlapping_faults.json --quiet",
            "cargo run -q --locked -p ef-cli --bin efctl -- run --pops 4 --prefixes 2000 \
             --hours 6 --epoch 60 --split --hysteresis 0.05 --quiet",
        ],
    ),
    (
        "only the perf binaries",
        &[
            "cargo build --release --locked -p ef-bench --bin exp_perf_scaling \
             --bin perf_smoke_micro --bin rib_footprint",
            "./target/release/exp_perf_scaling --smoke || true",
            "./target/release/perf_smoke_micro --check || true",
            "./target/release/rib_footprint --check",
        ],
    ),
    (
        "only `benchmark/run.sh --quick`",
        &[
            "cargo test --offline --manifest-path benchmark/Cargo.toml",
            "bash benchmark/run.sh --quick",
        ],
    ),
    (
        "only `examples/`",
        &[
            "cargo build --release --locked --examples",
            "status=0; for e in quickstart global_deployment performance_aware \
             congestion_response; do ./target/release/examples/$e > /dev/null || status=1; \
             done; exit $status",
        ],
    ),
    ("only tier-1 tests", &["cargo test -q --locked"]),
];

/// Why a function only tier-1 tests reach stays, one `label = reason` a
/// line; one `*` in a label stands for any text.
const REASONS: &str = "\
<* as Debug>::fmt = a std trait impl: callers reach it through the trait
<* as Display>::fmt = a std trait impl: callers reach it through the trait
<* as Default>::default = a std trait impl: callers reach it through the trait
<* as From>::from = a std trait impl: callers reach it through the trait
<* as FromStr>::from_str = a std trait impl: callers reach it through the trait
<* as PartialEq>::eq = a std trait impl: callers reach it through the trait
*::is_empty = `is_empty` beside `len`
MemorySink::* = the in-memory sink, the test double integration tests read
DecodeError::* = decode-error constructor: malformed wire input reaches it
default_* = serde default of a config field
HealthReport::firing = `efctl report`'s alert path: the calm trace CI replays fires no alert
severity_from_label = `efctl report`'s alert path: the calm trace CI replays fires no alert
Alert::firing = `efctl report`'s alert path: the calm trace CI replays fires no alert
Alert::render = `efctl report`'s alert path: the calm trace CI replays fires no alert
Event::str_field = `efctl report`'s alert path: the calm trace CI replays fires no alert
PathDigest::samples = grading steering against the latent RTT gives it a caller
P2Quantile::count = the observation count `PathDigest::samples` reads
LocRib::len = the Loc-RIB's prefix count, beside `route_count`
RouteCollector::approx_bytes = the collector's footprint, which a test holds compacted after the build
marked_block = EXPERIMENTS.md's verdict block, held to the JSON by `paper_verdicts`
<HashMap as TrafficView>::demand_of = half of the `TrafficView` contract the benchmark feeds
RejectReason::label = `efctl explain` renders a no-route rejection, which no CI world makes
PlacementRejectReason::label = `efctl explain --global` renders a footprint rejection, which no CI world makes
";

/// The reason `label` stays, if [`REASONS`] gives one.
fn reason(label: &str) -> Option<&'static str> {
    let hit = |pat: &str| match pat.split_once('*') {
        Some((a, b)) => {
            label.len() >= a.len() + b.len() && label.starts_with(a) && label.ends_with(b)
        }
        None => label == pat,
    };
    REASONS
        .lines()
        .filter_map(|l| l.split_once(" = "))
        .find(|r| hit(r.0))
        .map(|r| r.1)
}

/// A probed function: its file (relative to the workspace root), line and
/// label (`Type::name`, `<Type as Trait>::name`, `Trait::name` or `name`,
/// behind any inline module and enclosing function).
struct FnSite(String, usize, String);

/// `src` with comments and string, byte and char literals blanked to
/// spaces (newlines kept), so its structure can be read off the bytes at
/// unchanged offsets.
fn mask(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    // The offset past `close`, searched from `i`; backslash escapes skip a
    // byte unless `raw`.
    let past = |mut i: usize, close: &[u8], raw: bool| {
        while i < b.len() && !b[i..].starts_with(close) {
            i += if b[i] == b'\\' && !raw { 2 } else { 1 };
        }
        (i + close.len()).min(b.len())
    };
    let (mut out, mut i) = (b.to_vec(), 0);
    while i < b.len() {
        let end = match b[i] {
            b'/' if at(i + 1) == b'/' => past(i, b"\n", true),
            b'/' if at(i + 1) == b'*' => past(i + 2, b"*/", true),
            b'"' => past(i + 1, b"\"", false),
            // Past the escaped character, which may itself be a quote.
            b'\'' if at(i + 1) == b'\\' => past(i + 3, b"'", false),
            b'\'' if at(i + 1 + src[i + 1..].chars().next().map_or(1, char::len_utf8)) == b'\'' => {
                past(i + 2, b"'", true)
            }
            c if word(c) => {
                let w = (i..b.len()).find(|&k| !word(b[k])).unwrap_or(b.len());
                let hashes = b[w..].iter().take_while(|&&c| c == b'#').count();
                let close = format!("\"{}", "#".repeat(hashes));
                match (&src[i..w], at(w + hashes)) {
                    ("r" | "br", b'"') => past(w + hashes + 1, close.as_bytes(), true),
                    ("b", b'"' | b'\'') => past(w + 1, &[b[w]], false),
                    _ => {
                        i = w;
                        continue;
                    }
                }
            }
            _ => {
                i += 1; // punctuation, or a lifetime's quote
                continue;
            }
        };
        for c in out[i..end].iter_mut().filter(|c| **c != b'\n') {
            *c = b' ';
        }
        i = end;
    }
    out
}

/// The last path segment of a type or trait, generics and references
/// dropped: `fmt::Display` → `Display`, `&'a HashMap<K, V>` → `HashMap`.
fn tail(path: &str) -> &str {
    let path = path.split('<').next().unwrap_or_default();
    let last = path.split_whitespace().last().unwrap_or_default();
    let last = last.rsplit("::").next().unwrap_or_default();
    last.trim_start_matches('&')
}

/// The label part of an impl header (the text after `impl` up to its
/// `{`): `Type` or `<Type as Trait>`.
fn impl_part(h: &str) -> String {
    let mut rest = h.trim_start();
    if rest.starts_with('<') {
        // The impl's own generics; a `>` after `-` closes nothing.
        let (b, mut depth) = (rest.as_bytes(), 0);
        for k in 0..b.len() {
            depth += i32::from(b[k] == b'<') - i32::from(b[k] == b'>' && b[k - 1] != b'-');
            if depth == 0 {
                rest = &rest[k + 1..];
                break;
            }
        }
    }
    let rest = rest.split(" where ").next().unwrap_or_default();
    match rest.split_once(" for ") {
        Some((tr, ty)) => format!("<{} as {}>", tail(ty), tail(tr)),
        None => tail(rest).to_string(),
    }
}

/// The name after the word `fn` in an item header, if any (a `fn` pointer
/// type has none).
fn fn_name(header: &str) -> Option<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    header.match_indices("fn ").find_map(|(k, _)| {
        let name = header[k + 3..].split(|c: char| !word(c)).next()?;
        let alone = header[..k].chars().next_back().is_none_or(|c| !word(c));
        (alone && !name.is_empty()).then_some(name)
    })
}

/// Finds the production functions of one file: for each, its site and the
/// byte offset just past its body's `{`. Every `{` pushes a frame: its
/// label part (module, impl, trait or function) and whether it is test or
/// macro code, inside which nothing gets a probe.
fn scan(file: &str, src: &str) -> Vec<(FnSite, usize)> {
    let m = mask(src);
    let text = String::from_utf8_lossy(&m);
    let (mut out, mut frames) = (Vec::new(), Vec::<(Option<String>, bool)>::new());
    let (mut depth, mut head, mut line) = (0i32, 0usize, 1);
    for (i, &c) in m.iter().enumerate() {
        match c {
            b'\n' => line += 1,
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth == 0 => head = i + 1,
            b'}' => {
                frames.pop();
                head = i + 1;
            }
            b'{' => {
                // The item header: everything since the last `;`, `{` or `}`.
                let header = text[head..i].trim();
                head = i + 1;
                let excluded = ["#[test]", "#[cfg(test)]", "#[cfg(all(test", "macro_rules!"];
                let in_test = frames.last().is_some_and(|f| f.1);
                let skip = in_test || excluded.iter().any(|t| header.contains(t));
                let word = |c: char| c.is_alphanumeric() || c == '_';
                let words: Vec<&str> = header.split(|c| !word(c)).collect();
                let after = |kw: &str| words.windows(2).find(|p| p[0] == kw).map(|p| p[1]);
                let item = header.rsplit(']').next().unwrap_or_default().trim_start();
                let is_impl = ["impl ", "impl<", "unsafe impl"]
                    .iter()
                    .any(|p| item.starts_with(p));
                let part = if depth != 0 {
                    None
                } else if let Some(name) = fn_name(header) {
                    let konst = words
                        .iter()
                        .take_while(|w| **w != "fn")
                        .any(|w| *w == "const");
                    if !skip && !konst {
                        let parts = frames.iter().filter_map(|f| f.0.as_deref());
                        let label = parts.chain([name]).collect::<Vec<_>>().join("::");
                        // The line of `fn`, which a long signature puts above `{`.
                        let at = text[..i].rfind(&format!("fn {name}")).unwrap_or(i);
                        let fn_line = line - text[at..i].matches('\n').count();
                        out.push((FnSite(file.to_string(), fn_line, label), i + 1));
                    }
                    Some(name.to_string())
                } else if is_impl {
                    Some(impl_part(item.split_once("impl").unwrap_or_default().1))
                } else {
                    after("trait").or(after("mod")).map(str::to_string)
                };
                frames.push((part, skip));
            }
            _ => {}
        }
    }
    out
}

/// The statement the census splices in after a body's `{`, on its line.
fn probe(id: usize) -> String {
    const R: &str = "::std::sync::atomic::Ordering::Relaxed";
    format!(
        " static FNHIT: ::std::sync::atomic::AtomicBool = \
         ::std::sync::atomic::AtomicBool::new(false); \
         if !FNHIT.load({R}) && !FNHIT.swap(true, {R}) {{ \
         if let Some(p) = ::std::env::var_os(\"FNHIT_FILE\") {{ \
         if let Ok(mut f) = ::std::fs::OpenOptions::new().create(true).append(true).open(p) {{ \
         let _ = ::std::io::Write::write_all(&mut f, b\"{id}\\n\"); }} }} }} "
    )
}

/// Every file under `dir`, sorted, without build output or version control.
fn files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let built = ["target", ".git", ".bench_build", "out"]
            .iter()
            .any(|d| e.file_name() == *d);
        match e.file_type()? {
            t if t.is_dir() && !built => files(&e.path(), out)?,
            t if t.is_file() => out.push(e.path()),
            _ => {}
        }
    }
    Ok(())
}

/// Copies the workspace at `root` to `copy`, probing every crate's `src/`
/// and the umbrella's there; returns the probed functions in index order.
fn probed_copy(root: &Path, copy: &Path) -> io::Result<Vec<FnSite>> {
    let (mut all, mut sites) = (Vec::new(), Vec::new());
    files(root, &mut all)?;
    for path in all {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let to = copy.join(&rel);
        fs::create_dir_all(to.parent().unwrap_or(copy))?;
        let src_dir =
            rel.starts_with("src/") || rel.starts_with("crates/") && rel.contains("/src/");
        if !src_dir || !rel.ends_with(".rs") || rel.ends_with("bin/census.rs") {
            fs::copy(&path, &to)?;
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let (mut probed, mut from) = (String::new(), 0);
        for (site, at) in scan(&rel, &src) {
            probed += &src[from..at];
            probed += &probe(sites.len());
            sites.push(site);
            from = at;
        }
        fs::write(&to, probed + &src[from..])?;
    }
    Ok(sites)
}

/// Runs one stage's commands in `copy`, logging to `log`; returns the
/// indices its processes reached and the commands that failed.
fn run_stage(
    copy: &Path,
    n: usize,
    cmds: &[&str],
    log: &Path,
) -> io::Result<(Vec<usize>, Vec<String>)> {
    let hits = copy.join(format!("fnhit-{n}.txt"));
    let mut failed = Vec::new();
    for cmd in cmds {
        let started = Instant::now();
        let logf = fs::OpenOptions::new().create(true).append(true).open(log)?;
        let ok = Command::new("bash")
            .args(["-euo", "pipefail", "-c", cmd])
            .current_dir(copy)
            .env("FNHIT_FILE", &hits)
            .env_remove("CARGO_TARGET_DIR")
            .stdin(Stdio::null())
            .stdout(logf.try_clone()?)
            .stderr(logf)
            .status()?
            .success();
        let verdict = if ok { "ok  " } else { "FAIL" };
        eprintln!(
            "[{:>6.1}s] {verdict} {cmd}",
            started.elapsed().as_secs_f64()
        );
        if !ok {
            failed.push(cmd.to_string());
        }
    }
    let text = fs::read_to_string(&hits).unwrap_or_default();
    Ok((
        text.lines().filter_map(|l| l.parse().ok()).collect(),
        failed,
    ))
}

/// Renders the committed table; also returns how many functions only
/// tests reach lack a reason.
fn render(sites: &[FnSite], bucket: &[usize], failed: &[String]) -> (String, usize) {
    let rows: Vec<&str> = STAGES.iter().map(|s| s.0).chain(["nothing"]).collect();
    // "outside | in" `crates/bench`, for one row or (`None`) all of them.
    let cells = |b: Option<usize>| {
        let here = |k: &usize| b.is_none_or(|b| bucket[*k] == b);
        let bench =
            (0..sites.len()).filter(|k| here(k) && sites[*k].0.starts_with("crates/bench/"));
        let bench = bench.count();
        format!(
            "{} | {bench}",
            (0..sites.len()).filter(here).count() - bench
        )
    };
    let mut md = String::from(
        "# Function census\n\nGenerated by `cargo run --release -p ef-bench --bin census` \
         (`crates/bench/src/bin/census.rs`); do not edit by hand. Each production function \
         counts once, in the first row whose runs reached it.\n\n\
         | First reached by | Outside `crates/bench` | In `crates/bench` |\n|---|---|---|\n",
    );
    for (b, row) in rows.iter().enumerate() {
        writeln!(md, "| {row} | {} |", cells(Some(b))).unwrap();
    }
    writeln!(md, "| **total** | {} |", cells(None)).unwrap();
    for cmd in failed {
        writeln!(md, "\nFailed (its processes' hits still count): `{cmd}`").unwrap();
    }
    let mut missing = 0;
    for (b, row) in rows.iter().enumerate().skip(1) {
        let mut fns: Vec<&FnSite> = (0..sites.len())
            .filter(|k| bucket[*k] == b)
            .map(|k| &sites[k])
            .collect();
        fns.sort_by(|x, y| (&x.0, &x.2).cmp(&(&y.0, &y.2)));
        let tests = b + 1 == STAGES.len();
        let head = ["\n|---|---|", "| Why it stays |\n|---|---|---|"][usize::from(tests)];
        writeln!(md, "\n## Reached by {row}\n\n| Function | File {head}").unwrap();
        for f in fns {
            let why = match reason(&f.2) {
                _ if !tests => String::new(),
                Some(why) => format!(" {why} |"),
                None => {
                    missing += 1;
                    " **no reason** |".to_string()
                }
            };
            writeln!(md, "| `{}` | `{}:{}` |{why}", f.2, f.0, f.1).unwrap();
        }
    }
    (md, missing)
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    let copy = std::env::temp_dir().join(format!("ef-census-{}", std::process::id()));
    let result = (|| -> io::Result<ExitCode> {
        let sites = probed_copy(&root, &copy)?;
        eprintln!("probed {} functions in {}", sites.len(), copy.display());
        let log = copy.join("census.log");
        let (mut bucket, mut failed) = (vec![STAGES.len(); sites.len()], Vec::new());
        for (n, (row, commands)) in STAGES.iter().enumerate() {
            eprintln!("stage {}: {row}", n + 1);
            let (hits, bad) = run_stage(&copy, n, commands, &log)?;
            failed.extend(bad);
            for k in hits.into_iter().filter(|&k| k < sites.len()) {
                bucket[k] = bucket[k].min(n);
            }
        }
        let (md, missing) = render(&sites, &bucket, &failed);
        fs::write(root.join("results/function_census.md"), md)?;
        if !failed.is_empty() || missing > 0 {
            eprintln!(
                "{} failed, {missing} lack a reason; {}",
                failed.len(),
                log.display()
            );
            return Ok(ExitCode::FAILURE);
        }
        fs::remove_dir_all(&copy)?;
        Ok(ExitCode::SUCCESS)
    })();
    result.unwrap_or_else(|e| {
        eprintln!("census: {e}");
        ExitCode::FAILURE
    })
}
