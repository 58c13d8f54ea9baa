//! Global steering tier for the Edge Fabric reproduction.
//!
//! Edge Fabric (SIGCOMM 2017) is deliberately per-PoP: each PoP's
//! controller only moves traffic between that PoP's own egress
//! interfaces. The paper's §7 points a layer up — systems like
//! Facebook's Cartographer steer *users* between PoPs, deciding which
//! PoP serves which population before per-PoP egress control ever runs.
//! This crate reproduces that layer:
//!
//! * `population` — named user populations (one per region) with
//!   per-PoP demand baselines derived from the serving footprint;
//! * `config` — [`GlobalConfig`]: steering mechanism ([`BackendKind`]),
//!   shift tunables, scheduled flash crowds;
//! * `backend` — the per-cell steering mechanism, a closed enum of two:
//!   DNS (fractional, TTL-delayed) and anycast (all-or-nothing,
//!   convergence-delayed);
//! * `controller` — [`GlobalController`], which shapes demand (flash
//!   crowds), places steered-away demand under per-PoP headroom budgets,
//!   and steps every (population, PoP) cell on the per-PoP
//!   [`PopReport`]s each epoch. Each cell carries all the tier remembers
//!   about its pair across epochs — away-fraction, hold-down, last
//!   direction and its mechanism's in-flight state — in one flat grid. The
//!   controller degrades like the paper's §5 fail-safes: stale reports
//!   decay budgets toward zero, losing report quorum freezes placements
//!   (*fail-static*), per-epoch movement is blast-radius capped, and
//!   restores are held down so placements cannot thrash — stale or
//!   missing inputs shrink the tier's authority, never expand it
//!   ([`GuardSnapshot`] records each epoch's verdicts). The guard
//!   thresholds are constants, not settings; [`BUDGET_PLAUSIBILITY`] and
//!   [`HOLD_DOWN_EPOCHS`] are exported for experiments that bound on them.
//!
//! **Determinism contract**: the controller is pure state machine — no
//! clocks, no randomness, Vec-indexed state, fixed iteration order — so
//! simulation results with the tier enabled are byte-identical across
//! reruns and unaffected by telemetry being on or off.

mod backend;
mod config;
mod controller;
mod population;

pub use config::{BackendKind, ConfigError, FlashCrowdSpec, GlobalConfig};
pub use controller::{
    GlobalController, GuardSnapshot, PlacementSummary, PopReport, BUDGET_PLAUSIBILITY,
    HOLD_DOWN_EPOCHS,
};
