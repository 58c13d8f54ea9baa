//! Traffic substrate for the Edge Fabric reproduction.
//!
//! The production system consumes two traffic signals (paper §4.1):
//!
//! 1. the *actual* egress demand placed on each PoP, which in production is
//!    oceans of user traffic — here a [`DemandModel`] combining the
//!    deployment's Zipf per-prefix averages with region-phased
//!    [`DiurnalCurve`]s and slow multiplicative noise; and
//! 2. the controller's *estimate* of that demand, built from sampled flow
//!    records — here an sFlow-style [`sampler`] feeding a windowed
//!    [`RateEstimator`], so the controller sees realistic sampling error
//!    rather than ground truth.

pub mod demand;
mod diurnal;
pub mod estimator;
pub mod sampler;

pub use demand::{DemandModel, DemandPoint};
pub use diurnal::DiurnalCurve;
pub use estimator::RateEstimator;
pub use sampler::{FlowSample, SamplerConfig, SflowSampler};
