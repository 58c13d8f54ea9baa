//! Health & SLO tier for the Edge Fabric reproduction.
//!
//! Edge Fabric is operable in production because it is continuously
//! *judged*, not just logged: the controller is stateless per cycle
//! precisely so a stuck instance can be detected and its overrides
//! reverted (paper §4.4), and operators watch egress drop rate, interface
//! utilization, and detour churn. `ef-telemetry` records everything;
//! this crate is the layer that says "this run is unhealthy".
//!
//! Four modules:
//!
//! * `series` — the monitor's one record per PoP ([`PopRecord`]): the
//!   previous cumulative totals and the epochs seen;
//! * `rules` — the declarative SLO/alert engine: `SloRule`s with
//!   sustain/clear hysteresis, typed [`Alert`]s with firing/cleared
//!   edges, strict-inequality thresholds so boundary values never flap;
//! * `monitor` — the live tier ([`HealthMonitor`]): consumes one
//!   [`EpochSignals`] per PoP per epoch from the simulator, judges the
//!   derived sample, and emits `health.sample` / `alert.fire` /
//!   `alert.clear` events into the telemetry stream;
//! * `report` — offline judgment ([`analyze`]) of a recorded telemetry
//!   stream for `efctl report` (and its `--follow` tail), with exact
//!   percentiles over each recorded series; no simulation crates required.
//!
//! **Determinism contract**: the health tier is read-only with respect to
//! the simulation. It consumes deterministic end-of-epoch state, writes
//! only to its own per-PoP records and the telemetry sink, and nothing it
//! produces feeds back into control decisions — `tests/health.rs` proves
//! a run's `results/` output is byte-identical with health on or off,
//! including under chaos schedules.

mod monitor;
mod report;
mod rules;
mod series;

pub use monitor::{
    sample_iface_util, EpochSignals, GlobalSignals, HealthConfig, HealthMonitor, GLOBAL_POP,
};
pub use report::{
    analyze, num_field, render_report, render_watch_line, HealthReport, PercentileRow, SloRow,
};
pub use rules::{Alert, AlertEdge, Severity};
pub use series::PopRecord;
