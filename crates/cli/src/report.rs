//! `efctl report FILE`: judge a captured JSON-lines telemetry stream
//! offline, or with `--follow` tail it live as one-line health views.

use std::fmt::Write as _;

use ef_telemetry::TelemetryRecord;

use crate::{json, Args, Output};

/// `efctl report`: the SLO table, per-PoP percentiles and alert timeline
/// of a finished stream. Lines that do not parse (a live writer may leave
/// a torn final line) are skipped and counted.
pub(crate) fn report(args: &Args) -> Result<Output, String> {
    let mut out = Output::default();
    let path = &args.file;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<TelemetryRecord>(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    if skipped > 0 {
        writeln!(out.stderr, "[skipped {skipped} unparseable line(s)]").unwrap();
    }
    let report = ef_health::analyze(&records);
    out.stdout = json(&report)?;
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
    Ok(out)
}

/// One poll of `report --follow`: reads the complete lines appended to
/// `path` since `offset`, advances `offset` past them, and returns the
/// watchable ones rendered. A torn final line the writer is still
/// appending stays behind `offset` for the next poll; a file shorter than
/// `offset` was truncated or rotated, and is read again from the start.
fn poll(path: &str, offset: &mut u64) -> Result<Vec<String>, String> {
    use std::io::{BufRead as _, Seek as _};
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    if len < *offset {
        *offset = 0;
    }
    file.seek(std::io::SeekFrom::Start(*offset))
        .map_err(|e| e.to_string())?;
    let mut reader = std::io::BufReader::new(file);
    let (mut line, mut rendered) = (String::new(), Vec::new());
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 || !line.ends_with('\n') {
            return Ok(rendered);
        }
        *offset += n as u64;
        if let Ok(record) = serde_json::from_str::<TelemetryRecord>(line.trim_end()) {
            rendered.extend(ef_health::render_watch_line(&record));
        }
    }
}

/// `efctl report --follow`: polls `path` twice a second and prints each
/// watchable record as it is appended, straight to stdout because the
/// tail never finishes into an [`Output`]. Runs until the process is
/// killed; returns only when the file cannot be read.
pub(crate) fn watch_follow(path: &str) -> Result<std::convert::Infallible, String> {
    use std::io::Write as _;
    let mut offset = 0u64;
    loop {
        for line in poll(path, &mut offset)? {
            println!("{line}");
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_holds_back_a_torn_line_and_restarts_after_truncation() {
        let (handle, sink) = ef_telemetry::TelemetryHandle::memory();
        let mut mon = ef_health::HealthMonitor::new(ef_health::HealthConfig::default(), handle);
        for t in [30, 60] {
            let s = ef_health::EpochSignals {
                t_secs: t,
                pop: 0,
                offered_mbps: 1000.0,
                ..Default::default()
            };
            mon.observe_epoch(&s, None);
        }
        let lines: Vec<String> = sink
            .records()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        assert_eq!(lines.len(), 2, "one health.sample per epoch");
        let (first, second) = (&lines[0], &lines[1]);
        let (head, tail) = second.split_at(second.len() / 2);

        let dir = std::env::temp_dir().join("efctl-follow-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.jsonl");
        let path = path.to_str().unwrap();
        let mut offset = 0;

        std::fs::write(path, format!("{first}{head}")).unwrap();
        let shown = poll(path, &mut offset).unwrap();
        assert_eq!(shown.len(), 1);
        assert!(shown[0].starts_with("t=30s"), "{shown:?}");
        assert!(shown[0].contains("drop_rate="), "{shown:?}");
        assert_eq!(offset, first.len() as u64, "the torn line waits");
        assert!(poll(path, &mut offset).unwrap().is_empty());

        std::fs::write(path, format!("{first}{head}{tail}")).unwrap();
        let shown = poll(path, &mut offset).unwrap();
        assert_eq!(shown.len(), 1);
        assert!(shown[0].starts_with("t=60s"), "{shown:?}");
        assert_eq!(offset, (first.len() + second.len()) as u64);

        // Truncated below the offset: read again from the start.
        std::fs::write(path, first).unwrap();
        let shown = poll(path, &mut offset).unwrap();
        assert_eq!(shown.len(), 1);
        assert!(shown[0].starts_with("t=30s"), "{shown:?}");
        assert_eq!(offset, first.len() as u64);

        assert!(poll("/nonexistent/live.jsonl", &mut offset).is_err());
    }
}
