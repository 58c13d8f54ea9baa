//! The cheap, cloneable entry point instrumented code holds.
//!
//! A [`TelemetryHandle`] is either disabled (the default — every call is a
//! no-op and costs a null check) or wraps a shared sink. Clones
//! share the same sink, so the simulator hands one handle to every PoP
//! thread. Wall-clock readings ([`TelemetryHandle::timer`]) are only ever
//! written to the sink; nothing downstream of a timer may influence
//! control decisions, which keeps simulation results bit-identical with
//! telemetry on or off.

use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, FieldValue, TelemetryRecord};
use crate::explain::ExplainRecord;
use crate::placement::PlacementRecord;
use crate::sink::{JsonLinesSink, MemorySink, Sink};

struct Telemetry {
    sink: Box<dyn Sink>,
    origin: Instant,
}

/// Handle to a telemetry pipeline; `Default` is disabled.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Telemetry>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TelemetryHandle({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

/// Started by [`TelemetryHandle::timer`]; reads 0 when telemetry is off,
/// so phase timings exist only in the sink's view of the world.
pub struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// Microseconds since the timer started (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.0
            .map(|start| start.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }
}

impl TelemetryHandle {
    /// A handle that drops everything (every call is a no-op).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Wraps an arbitrary sink.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Telemetry {
                sink,
                origin: Instant::now(),
            })),
        }
    }

    /// An in-memory pipeline; returns the sink for inspection.
    pub fn memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        let handle = Self::with_sink(Box::new(SharedSink(sink.clone())));
        (handle, sink)
    }

    /// A JSON-lines pipeline writing to `path` (truncated).
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonLinesSink::create(path)?)))
    }

    /// True when records actually go somewhere.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits a structured event.
    pub fn emit(&self, pop: u16, now_ms: u64, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(t) = self.inner.as_deref() else {
            return;
        };
        t.sink.write(&TelemetryRecord::Event(Event {
            name: name.to_string(),
            pop,
            now_ms,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            wall_us: Some(t.origin.elapsed().as_micros() as u64),
        }));
    }

    /// Emits a decision-provenance record.
    pub fn explain(&self, pop: u16, now_ms: u64, record: &ExplainRecord) {
        let Some(t) = self.inner.as_deref() else {
            return;
        };
        t.sink.write(&TelemetryRecord::Explain {
            pop,
            now_ms,
            record: record.clone(),
        });
    }

    /// Emits a placement-provenance record from the global steering tier.
    /// `pop` is the source PoP being drained.
    pub fn placement(&self, pop: u16, now_ms: u64, record: &PlacementRecord) {
        let Some(t) = self.inner.as_deref() else {
            return;
        };
        t.sink.write(&TelemetryRecord::Placement {
            pop,
            now_ms,
            record: record.clone(),
        });
    }

    /// Starts a wall-clock phase timer (inert when disabled).
    pub fn timer(&self) -> PhaseTimer {
        PhaseTimer(self.inner.as_ref().map(|_| Instant::now()))
    }
}

/// Adapter so a shared `Arc<MemorySink>` can serve as the boxed sink while
/// the caller keeps a reading handle.
struct SharedSink(Arc<MemorySink>);

impl Sink for SharedSink {
    fn write(&self, record: &TelemetryRecord) {
        self.0.write(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        assert!(!h.enabled());
        h.emit(0, 0, "x", &[("a", 1u64.into())]);
        assert_eq!(h.timer().elapsed_us(), 0);
        assert_eq!(format!("{h:?}"), "TelemetryHandle(disabled)");
    }

    #[test]
    fn memory_pipeline_captures_everything() {
        let (h, sink) = TelemetryHandle::memory();
        assert!(h.enabled());
        h.emit(3, 30_000, "fault.start", &[("kind", "bmp_stall".into())]);
        h.emit(3, 30_000, "epoch", &[("detoured_mbps", 42.0.into())]);

        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "fault.start");
        assert_eq!(events[0].pop, 3);
        assert_eq!(events[0].str_field("kind"), Some("bmp_stall"));
        assert!(events[0].wall_us.is_some());
        assert_eq!(
            events[1].field("detoured_mbps"),
            Some(&FieldValue::F64(42.0))
        );
        assert_eq!(sink.len(), 2, "nothing but the emitted records");
    }

    #[test]
    fn clones_share_the_sink() {
        let (h, sink) = TelemetryHandle::memory();
        let h2 = h.clone();
        h.emit(0, 0, "a", &[]);
        h2.emit(1, 0, "b", &[]);
        assert_eq!(sink.events().len(), 2);
    }
}
