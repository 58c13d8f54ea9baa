//! The benchmark's import list, compiled against the workspace.
//!
//! `benchmark/` is its own package, so `cargo test` never builds it. Its
//! `layers.rs` names every program symbol the benchmark touches; including
//! that file here makes a visibility change that breaks the benchmark's
//! imports fail this test target too.

#[allow(unused_imports)]
#[path = "../benchmark/src/layers.rs"]
mod layers;
