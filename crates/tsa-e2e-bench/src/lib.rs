//! # tsa-e2e-bench — served-alignment benchmark
//!
//! Drives seeded NDJSON workloads through the real `tsa serve` and
//! `tsa cluster` binaries and reports what a client sees
//! ([`stats::END_TO_END`]), replays the same lines through each layer's
//! public functions for the per-layer view ([`stats::PER_LAYER`]), and
//! compares paired runs of a parent and a change. The generator
//! ([`gen`]) and the correctness oracle ([`reference`]) belong to the
//! benchmark, so kernel or generator changes elsewhere in the workspace
//! cannot change what it measures. See the crate README for the metric
//! definitions and the workload rationale.

pub mod bench;
pub mod check;
pub mod client;
pub mod gen;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod trace;
