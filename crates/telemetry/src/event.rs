//! Structured events and the record envelope sinks receive.
//!
//! An [`Event`] is one named occurrence with flat, typed fields — the
//! JSON-lines analogue of a log line. Events and decision provenance all
//! travel to a sink wrapped in a [`TelemetryRecord`], so a single stream
//! (file or memory) holds the whole story of a run in arrival order.

use std::collections::BTreeMap;

use serde::{Deserialize, Error, Serialize, Value};

use crate::explain::ExplainRecord;
use crate::placement::PlacementRecord;

/// A scalar field value. Serialized untagged (as the bare JSON scalar), so
/// event lines read naturally: `{"util": 1.07, "egress": 3}`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::U64(n) => Value::U64(*n),
            FieldValue::I64(n) => Value::I64(*n),
            FieldValue::F64(f) => Value::F64(*f),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl Deserialize for FieldValue {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(FieldValue::Bool(*b)),
            Value::U64(n) => Ok(FieldValue::U64(*n)),
            Value::I64(n) => Ok(FieldValue::I64(*n)),
            Value::F64(f) => Ok(FieldValue::F64(*f)),
            Value::Str(s) => Ok(FieldValue::Str(s.clone())),
            other => Err(Error::expected("scalar field value", other)),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from!(
    u16 => U64 as u64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    i32 => I64 as i64,
    i64 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Every event name the production crates emit: the controller's epoch,
/// override, mode-transition, resync and collector-drop
/// events, the runtime's fault edges and session events, and the health
/// tier's samples and alert edges. `efctl trace --kind` accepts no other
/// event name, and the telemetry tests check each recorded stream against
/// this list, so a new `emit` site adds its name here.
pub const EVENT_NAMES: [&str; 19] = [
    "epoch",
    "epoch.skipped",
    "override.announce",
    "override.withdraw",
    "controller.degraded.enter",
    "controller.degraded.exit",
    "controller.fail_open.enter",
    "controller.fail_open.exit",
    "injector.resync",
    "collector.dropped",
    "fault.start",
    "fault.end",
    "session.reset",
    "session.refresh",
    "session.stats",
    "chaos.corrupt_frames",
    "health.sample",
    "alert.fire",
    "alert.clear",
];

/// One structured occurrence: a dotted name (`controller.fail_open.enter`,
/// `collector.dropped`, `fault.start`, …) plus flat typed fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Dotted event name.
    pub name: String,
    /// PoP the event happened at.
    pub pop: u16,
    /// Simulated time, ms.
    pub now_ms: u64,
    /// Flat typed payload (BTreeMap so serialization is deterministic).
    #[serde(default)]
    pub fields: BTreeMap<String, FieldValue>,
    /// Wall-clock microseconds since the sink was created. Only ever
    /// consumed by humans reading the log — never by control decisions, so
    /// its nondeterminism cannot leak into results.
    #[serde(default)]
    pub wall_us: Option<u64>,
}

impl Event {
    /// Convenience accessor for a field.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.get(name)
    }

    /// A field as a string, if it is one.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.fields.get(name) {
            Some(FieldValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// The envelope a [`Sink`](crate::sink::Sink) receives: every kind of
/// telemetry output in one stream, preserving arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryRecord {
    /// A structured event.
    Event(Event),
    /// Decision provenance for one override decision.
    Explain {
        pop: u16,
        now_ms: u64,
        record: ExplainRecord,
    },
    /// Placement provenance for one global-tier steering action. `pop` is
    /// the source PoP being drained (the global controller itself is not a
    /// PoP).
    Placement {
        pop: u16,
        now_ms: u64,
        record: PlacementRecord,
    },
}

impl TelemetryRecord {
    /// The event inside, if this record is one.
    pub fn as_event(&self) -> Option<&Event> {
        match self {
            TelemetryRecord::Event(e) => Some(e),
            _ => None,
        }
    }

    /// The explain record inside, if this record is one.
    pub fn as_explain(&self) -> Option<(u16, u64, &ExplainRecord)> {
        match self {
            TelemetryRecord::Explain {
                pop,
                now_ms,
                record,
            } => Some((*pop, *now_ms, record)),
            _ => None,
        }
    }

    /// The placement record inside, if this record is one.
    pub fn as_placement(&self) -> Option<(u16, u64, &PlacementRecord)> {
        match self {
            TelemetryRecord::Placement {
                pop,
                now_ms,
                record,
            } => Some((*pop, *now_ms, record)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_values_serialize_untagged() {
        let json = serde_json::to_string(&FieldValue::F64(1.5)).unwrap();
        assert_eq!(json, "1.5");
        let json = serde_json::to_string(&FieldValue::Str("x".into())).unwrap();
        assert_eq!(json, "\"x\"");
        let back: FieldValue = serde_json::from_str("42").unwrap();
        assert!(matches!(back, FieldValue::U64(42) | FieldValue::I64(42)));
    }

    #[test]
    fn event_round_trips() {
        let mut fields = BTreeMap::new();
        fields.insert("egress".to_string(), FieldValue::U64(3));
        fields.insert("util".to_string(), FieldValue::F64(1.07));
        let event = Event {
            name: "controller.degraded.enter".into(),
            pop: 4,
            now_ms: 120_000,
            fields,
            wall_us: Some(17),
        };
        let json = serde_json::to_string(&TelemetryRecord::Event(event.clone())).unwrap();
        let back: TelemetryRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.as_event(), Some(&event));
    }

    #[test]
    fn missing_optional_fields_default() {
        let minimal = r#"{"Event":{"name":"x","pop":0,"now_ms":5}}"#;
        let rec: TelemetryRecord = serde_json::from_str(minimal).unwrap();
        let event = rec.as_event().unwrap();
        assert!(event.fields.is_empty());
        assert_eq!(event.wall_us, None);
    }
}
