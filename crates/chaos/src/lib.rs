//! # ef-chaos
//!
//! Fault injection for the Edge Fabric reproduction.
//!
//! The paper's central safety argument (§4.4, §5) is that the controller
//! *fails static*: it recomputes the full override set from fresh inputs
//! every epoch, so a crashed controller, a lost injector session, or a
//! stale BMP/sFlow feed degrades back to plain BGP instead of wedging
//! traffic on bad paths. This crate provides the fault model needed to
//! exercise that claim: a serde-serializable [`FaultSchedule`] of
//! `(t_start, duration, target, kind)` events covering the failure modes
//! of every input and output the controller touches, plus a seeded
//! [`generate`] function that samples schedules deterministically.
//!
//! The schedule is pure data — `ef-sim` interprets it (applying active
//! faults to routers, feeds, and controllers each tick), and `exp_paper`'s
//! items E15–E21 drive it (E15 sweeps it EF-on vs EF-off).

mod generator;
mod schedule;

pub use generator::{generate, ChaosProfile, PopSurface, SimSurface};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
