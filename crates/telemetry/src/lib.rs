//! Structured telemetry for the Edge Fabric reproduction.
//!
//! The paper's controller is operable because every decision it takes is
//! observable (§4–§5): each projection/allocation cycle is logged and every
//! detour carries a "why". This crate is the hand-rolled equivalent for the
//! reproduction — the build is offline, so it depends only on the vendored
//! `serde`/`serde_json` stand-ins, not on `tracing`.
//!
//! Three pieces, one per module:
//!
//! * `event` — a structured [`Event`] with flat typed fields, plus the
//!   [`TelemetryRecord`] envelope a sink receives (events and decision
//!   provenance) — JSON-lines on disk, one record per line — and
//!   [`EVENT_NAMES`], the names the production crates emit;
//! * `explain` — decision provenance: one [`ExplainRecord`] per override
//!   decision, naming the overloaded interface, the chosen alternate, and
//!   every rejected alternative with its rejection reason;
//! * `placement` — the global steering tier's provenance: one
//!   [`PlacementRecord`] per population-level steering action, naming the
//!   backend, the drained PoP, each target with its granted volume, and
//!   every rejected candidate.
//!
//! Everything hangs off a cheap, cloneable [`TelemetryHandle`]: a disabled
//! handle (the default) makes every call a no-op, so instrumented code
//! pays nothing in ordinary runs. **Determinism contract**: telemetry only
//! ever writes to its own sink. Wall-clock readings never feed back into
//! control decisions or simulation results — `tests/determinism.rs` proves
//! a run's `results/` output is byte-identical with the sink on or off.

mod event;
mod explain;
mod handle;
mod placement;
mod sink;

pub use event::{Event, FieldValue, TelemetryRecord, EVENT_NAMES};
pub use explain::{ExplainRecord, ExplainVerdict, RejectReason, RejectedAlternative};
pub use handle::{PhaseTimer, TelemetryHandle};
pub use placement::{
    PlacementGuard, PlacementRecord, PlacementRejectReason, PlacementTarget, PlacementVerdict,
    RejectedTarget,
};
pub use sink::{MemorySink, Sink};
