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
//! * `config` — [`GlobalConfig`]: steering backend, shift
//!   tunables, headroom safety margin, scheduled flash crowds;
//! * `backend` — the [`SteeringBackend`] trait and its two
//!   implementations: [`DnsBackend`] (fractional, TTL-delayed) and
//!   [`AnycastBackend`] (all-or-nothing, convergence-delayed);
//! * `controller` — [`GlobalController`], which shapes demand (flash
//!   crowds), places steered-away demand under per-PoP headroom budgets,
//!   and feeds per-PoP [`PopReport`]s to the backend each epoch. The
//!   controller degrades like the paper's §5 fail-safes: stale reports
//!   decay budgets toward zero, losing report quorum freezes placements
//!   (*fail-static*), per-epoch movement is blast-radius capped, and
//!   restores are held down so placements cannot thrash — stale or
//!   missing inputs shrink the tier's authority, never expand it
//!   ([`GuardSnapshot`] records each epoch's verdicts).
//!
//! **Determinism contract**: the controller is pure state machine — no
//! clocks, no randomness, Vec-indexed state, fixed iteration order — so
//! simulation results with the tier enabled are byte-identical across
//! reruns and unaffected by telemetry being on or off.

mod backend;
mod config;
mod controller;
mod population;

pub use backend::{AnycastBackend, CellObservation, DnsBackend, ShiftTuning, SteeringBackend};
pub use config::{BackendKind, ConfigError, FlashCrowdSpec, GlobalConfig};
pub use controller::{GlobalController, GuardSnapshot, PlacementSummary, PopReport};
pub use population::{Population, PopulationMap};
