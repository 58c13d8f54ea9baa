//! Evaluation engine for the Edge Fabric reproduction.
//!
//! Wires a generated [`ef_topology::Deployment`] into live substrate: one
//! consolidated [`BgpRouter`](ef_bgp::router::BgpRouter) per PoP with a
//! [`PeerStub`](ef_bgp::router::PeerStub) per adjacency announcing the
//! deployment's route sets over real BGP sessions, the
//! [`ef_traffic::DemandModel`] offering diurnal demand, and (optionally)
//! one [`edge_fabric::PopController`] per PoP running 30-second epochs.
//!
//! Each epoch the engine:
//!
//! 1. computes every prefix's offered demand,
//! 2. forwards it through the router's *current* FIB (which reflects any
//!    active overrides) onto egress interfaces,
//! 3. records per-interface load, utilization, and drop volume,
//! 4. optionally feeds the controller sampled rate estimates and lets it
//!    inject/withdraw overrides for the next epoch, and
//! 5. optionally runs alternate-path measurement slices.
//!
//! Running the same scenario with the controller disabled gives the
//! baseline-BGP arm of every with/without comparison in the paper's
//! evaluation; both arms share seeds, so differences are causal.

mod chaos;
mod engine;
pub mod fibcache;
pub mod metrics;
mod report;
pub mod runtime;
mod scenario;
mod traffic_order;

pub use chaos::surface as chaos_surface;
pub use engine::SimEngine;
pub use metrics::{DetourEpisode, InterfaceStats, MetricsStore, PopEpochRecord};
pub use report::{PopReport, RunReport};
pub use scenario::{scenario, PerfSimConfig, ScenarioBuilder, SimConfig};
