//! Performance substrate for the Edge Fabric reproduction.
//!
//! Paper §6 extends the capacity-aware controller with *performance*
//! awareness: a sliver of production flows is DSCP-marked and policy-routed
//! onto each alternate path so servers can measure how the alternatives
//! would perform, without moving real user traffic wholesale. This crate
//! provides:
//!
//! * [`rtt`] — a latent per-(PoP, prefix, egress) RTT/loss model with
//!   congestion-coupled inflation, substituting for the real Internet;
//! * `quantile` — the P² streaming quantile estimator used to digest
//!   samples without storing them;
//! * [`AltPathMeasurer`] — the alternate-path measurement machinery: slice
//!   assignment, sample collection, per-path digests; and
//! * [`compare`] — preferred-vs-alternate comparisons that back the §6
//!   figures (how often is BGP's choice not the best-performing path?).

pub mod compare;
mod measurement;
mod quantile;
pub mod rtt;

pub use compare::{compare_paths, PathComparison};
pub use measurement::{AltPathMeasurer, CandidatePath, PathDigest, PathKey};
pub use quantile::P2Quantile;
pub use rtt::{PathPerfModel, PerfConfig};
