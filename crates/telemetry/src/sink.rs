//! Sinks: where telemetry records go.
//!
//! A [`Sink`] receives every [`TelemetryRecord`] in arrival order. Two
//! implementations cover the workspace's needs: [`MemorySink`] (tests,
//! `efctl trace` / `efctl explain`) and [`JsonLinesSink`] (one JSON record
//! per line to any writer; the experiment binaries point it at a file via
//! the `EF_TELEMETRY` environment variable).
//!
//! Sinks are `Send + Sync` because the simulator steps PoPs on parallel
//! threads sharing one handle. Records from different PoPs may therefore
//! interleave in nondeterministic order between runs — that is acceptable
//! for a debugging stream and is exactly why telemetry output is kept out
//! of the byte-compared `results/` files.

use std::io::Write;
use std::sync::Mutex;

use crate::event::{Event, TelemetryRecord};
use crate::explain::ExplainRecord;
use crate::placement::PlacementRecord;

/// A destination for telemetry records.
pub trait Sink: Send + Sync {
    /// Receives one record. Implementations must not panic on I/O trouble:
    /// telemetry failure must never take down the run it observes.
    fn write(&self, record: &TelemetryRecord);
}

/// Buffers records in memory, for tests and the CLI trace/explain views.
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<TelemetryRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Everything received so far, in arrival order.
    pub fn records(&self) -> Vec<TelemetryRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Just the events.
    pub fn events(&self) -> Vec<Event> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter_map(|r| r.as_event().cloned())
            .collect()
    }

    /// Events with the given name.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }

    /// Just the explain records, as `(pop, now_ms, record)`.
    pub fn explains(&self) -> Vec<(u16, u64, ExplainRecord)> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter_map(|r| r.as_explain().map(|(p, t, e)| (p, t, e.clone())))
            .collect()
    }

    /// Just the placement records, as `(pop, now_ms, record)`.
    pub fn placements(&self) -> Vec<(u16, u64, PlacementRecord)> {
        self.records
            .lock()
            .unwrap()
            .iter()
            .filter_map(|r| r.as_placement().map(|(p, t, rec)| (p, t, rec.clone())))
            .collect()
    }

    /// Number of records received.
    pub(crate) fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn write(&self, record: &TelemetryRecord) {
        self.records.lock().unwrap().push(record.clone());
    }
}

/// Writes one JSON record per line to any writer.
pub(crate) struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wraps a writer.
    pub(crate) fn new(out: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) a file sink.
    pub(crate) fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl Sink for JsonLinesSink {
    fn write(&self, record: &TelemetryRecord) {
        if let Ok(json) = serde_json::to_string(record) {
            let mut out = self.out.lock().unwrap();
            // Telemetry failure must never fail the run: drop on error.
            let _ = writeln!(out, "{json}");
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn event(name: &str) -> TelemetryRecord {
        TelemetryRecord::Event(Event {
            name: name.into(),
            pop: 1,
            now_ms: 30_000,
            fields: BTreeMap::new(),
            wall_us: None,
        })
    }

    #[test]
    fn memory_sink_preserves_order_and_filters() {
        let sink = MemorySink::new();
        sink.write(&event("a"));
        sink.write(&TelemetryRecord::Explain {
            pop: 1,
            now_ms: 30_000,
            record: ExplainRecord {
                prefix: "1.0.0.0/24".parse().unwrap(),
                trigger: "capacity".into(),
                hot_egress: None,
                hot_util: 1.1,
                demand_mbps: 10.0,
                chosen_egress: None,
                chosen_kind: None,
                chosen_usd_per_mbps: None,
                rejected: Vec::new(),
                verdict: crate::ExplainVerdict::NoFeasibleAlternate,
            },
        });
        sink.write(&event("b"));
        assert_eq!(sink.len(), 3);
        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(sink.events_named("a").len(), 1);
        assert_eq!(sink.explains().len(), 1);
        assert!(sink.placements().is_empty());
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(SharedWriter(shared.clone())));
        sink.write(&event("x"));
        sink.write(&event("y"));
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let rec: TelemetryRecord = serde_json::from_str(line).unwrap();
            assert!(rec.as_event().is_some());
        }
    }
}
