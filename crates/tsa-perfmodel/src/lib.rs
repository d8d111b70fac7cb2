//! Analytic performance model for wavefront-parallel 3D DP.
//!
//! The original evaluation ran on a distributed-memory PC cluster; our
//! substitute substrate is a shared-memory thread pool. What carries over
//! unchanged is the *model*: a plane-barrier wavefront with `P` workers
//! executes `Σ_d ceil(s_d / P)` cell-rounds plus one synchronization per
//! plane, where `s_d` are the anti-diagonal plane sizes. This crate
//! provides:
//!
//! * [`planes`] — closed-form plane-size profiles (inclusion–exclusion),
//!   cross-checked against enumeration;
//! * [`model`] — a two-parameter cost model (`t_cell`, `t_barrier`) with
//!   calibration from measured runs, predicting runtimes and speedup
//!   curves (experiment `fig4` overlays these on measurements);
//! * [`measured`] — fit a cost model to a measured
//!   [`tsa_wavefront::PlaneProfile`] and report the prediction-vs-reality
//!   delta (experiment `fig7`, `tsa align --profile-planes`);
//! * [`cluster`] — an α–β message-cost model of the paper's
//!   distributed-memory setting (experiment `fig5`);
//! * [`pipeline`] — the 1-D pipelined-strip decomposition, the other
//!   classic distributed wavefront schedule.
//!
//! A job's memory footprint is not modelled here: `tsa_core::Aligner::plan`
//! prices the buffers of the dispatch it chooses, next to that dispatch.

pub mod cluster;
pub mod measured;
pub mod model;
pub mod pipeline;
pub mod planes;

pub use cluster::ClusterModel;
pub use measured::ModelComparison;
pub use model::CostModel;
