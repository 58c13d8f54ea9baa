//! Experiment harness: every experiment as one verdict table, and the
//! small helpers the experiment and perf binaries share.
//!
//! [`paper`] reproduces Table 1, Figs. 2–12 and Table 2 (E1–E13) over one
//! in-memory campaign — baseline BGP and Edge Fabric on the same one-day,
//! 20-PoP scenario — and the extensions E14–E21 in worlds of their own,
//! as one table-driven run that renders the verdict table of
//! EXPERIMENTS.md (`exp_paper` is its binary). [`output`] holds the small
//! statistics/printing helpers.

pub mod output;
pub mod paper;

pub use output::{cdf_points, percentile, results_dir, telemetry_from_env, write_json};
