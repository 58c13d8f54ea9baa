//! `efctl trace` and `efctl explain`: a scenario run with a memory
//! telemetry sink attached, dumped as JSON lines (`trace`) or narrowed to
//! the decision provenance of one prefix (`explain`).

use std::fmt::Write as _;

use ef_telemetry::{ExplainRecord, PlacementRecord, TelemetryHandle, TelemetryRecord};

use crate::{json, Args, Output};

/// Sort key for telemetry records: simulated time, then PoP. Records from
/// different PoPs arrive in thread-scheduling order; sorting restores a
/// stable reading order for the dumped stream.
fn record_key(r: &TelemetryRecord) -> (u64, u16) {
    match r {
        TelemetryRecord::Event(e) => (e.now_ms, e.pop),
        TelemetryRecord::Explain { pop, now_ms, .. } => (*now_ms, *pop),
        TelemetryRecord::Placement { pop, now_ms, .. } => (*now_ms, *pop),
    }
}

/// Runs a telemetry-captured scenario and returns the collected records
/// in `(now_ms, pop)` order. The health tier rides along so the stream
/// carries `health.sample` / `alert.*` events; `--global` adds the
/// user→PoP steering tier (and its placement provenance) on top.
fn traced_run(args: &Args) -> Vec<TelemetryRecord> {
    let (handle, sink) = TelemetryHandle::memory();
    let mut builder = args
        .scenario()
        .health(ef_health::HealthConfig::default())
        .telemetry(handle);
    if args.global {
        builder = builder.global(ef_global::GlobalConfig::default());
    }
    builder.engine().run();
    let mut records = sink.records();
    records.sort_by_key(record_key);
    records
}

/// The record categories `--kind` accepts besides an event name from
/// [`ef_telemetry::EVENT_NAMES`].
pub(crate) const RECORD_CATEGORIES: [&str; 3] = ["event", "explain", "placement"];

/// True when a record matches a `--kind` filter: an event's name, or a
/// record-category label.
fn record_matches_kind(r: &TelemetryRecord, kind: &str) -> bool {
    match r {
        TelemetryRecord::Event(e) => kind == "event" || e.name == kind,
        TelemetryRecord::Explain { .. } => kind == "explain",
        TelemetryRecord::Placement { .. } => kind == "placement",
    }
}

/// `efctl trace`: every record of the run, narrowed by `--pop`,
/// `--at-epoch`, `--kind` and `--limit`.
pub(crate) fn trace(args: &Args) -> Result<Output, String> {
    let mut out = Output::default();
    let all = traced_run(args);
    let total = all.len();
    let records: Vec<&TelemetryRecord> = all
        .iter()
        .filter(|r| {
            let (now_ms, pop) = record_key(r);
            args.pop.is_none_or(|p| p == pop)
                && args
                    .at_epoch
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
    let placements = matched - events - explains;
    if let Some(path) = &args.out {
        std::fs::write(path, &lines).map_err(|e| e.to_string())?;
        writeln!(out.stderr, "[wrote {shown} records to {path}]").unwrap();
    } else {
        out.stdout = lines;
    }
    writeln!(
        out.stderr,
        "{matched} of {total} telemetry records ({events} events, {explains} explains, \
         {placements} placements); showing {shown}"
    )
    .unwrap();
    Ok(out)
}

/// `efctl explain PREFIX`: every steering decision whose prefix covers or
/// is covered by `PREFIX`; with `--global`, the global tier's placement
/// provenance too.
pub(crate) fn explain(args: &Args) -> Result<Output, String> {
    let mut out = Output::default();
    let query = args.prefix.expect("parse_args requires explain's prefix");
    let records = traced_run(args);

    #[derive(serde::Serialize)]
    struct Row<'a> {
        pop: u16,
        now_ms: u64,
        explain: &'a ExplainRecord,
    }
    let rows: Vec<Row> = records
        .iter()
        .filter_map(|r| r.as_explain())
        .filter(|(_, _, rec)| query.contains(&rec.prefix) || rec.prefix.contains(&query))
        .map(|(pop, now_ms, explain)| Row {
            pop,
            now_ms,
            explain,
        })
        .collect();
    if args.global {
        // With the global tier on, pair the per-prefix decisions with the
        // tier's population-level placement provenance.
        #[derive(serde::Serialize)]
        struct PlacementRow<'a> {
            pop: u16,
            now_ms: u64,
            placement: &'a PlacementRecord,
        }
        #[derive(serde::Serialize)]
        struct WithPlacements<'a> {
            explains: &'a [Row<'a>],
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
            let t = p.now_ms / 1000;
            writeln!(out.stderr, "t={t}s {}", p.placement.render()).unwrap();
        }
        out.stdout = json(&WithPlacements {
            explains: &rows,
            placements,
        })?;
    } else {
        out.stdout = json(&rows)?;
    }

    if rows.is_empty() {
        let note = format!("no steering decisions touched {query} in this scenario");
        writeln!(out.stderr, "{note}").unwrap();
    } else {
        writeln!(out.stderr, "{} decision(s) touching {query}:", rows.len()).unwrap();
    }
    for r in &rows {
        let t = r.now_ms / 1000;
        writeln!(out.stderr, "t={t}s pop{}: {}", r.pop, r.explain.render()).unwrap();
    }
    Ok(out)
}
