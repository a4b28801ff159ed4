//! # ab-bench — the experiment harness
//!
//! One runner per table/figure in the paper's evaluation (Section 7),
//! shared by the Criterion benches, the examples and the integration
//! tests. Every runner builds a deterministic world, drives it to
//! completion, and returns plain result structs; the benches print them
//! in the paper's row/series format.

pub mod experiments;
pub mod table;

pub use experiments::*;
