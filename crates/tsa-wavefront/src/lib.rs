//! Generic wavefront machinery for dynamic-programming lattices.
//!
//! The three-sequence DP lattice (and its 2D pairwise cousin) has the
//! classic *wavefront* structure: cell `(i, j, k)` depends only on cells
//! with strictly smaller coordinates, so all cells on an anti-diagonal plane
//! `d = i + j + k` are mutually independent and may be computed in parallel
//! once planes `d−1`, `d−2`, `d−3` are done.
//!
//! This crate provides the reusable pieces the aligners are built from:
//!
//! * [`diag`] — 2D anti-diagonal index enumeration;
//! * [`plane`] — 3D anti-diagonal plane enumeration and cell counting;
//! * [`tiles`] — tile grids: partition a 3D lattice into `t×t×t` blocks and
//!   enumerate *tile planes* (the coarse wavefront);
//! * [`grid`] — [`grid::SharedGrid`], an unsafe-interior shared write buffer
//!   for disjoint parallel writes into one allocation;
//! * [`executor`] — rayon plane-barrier executors over cells and tiles,
//!   with a per-plane stop predicate;
//! * [`profile`] — per-plane timing ([`profile::PlaneProfile`]) captured by
//!   the profiled executor: occupancy, load imbalance, barrier overhead;
//! * [`snapshot`] — versioned, checksummed binary frontier snapshots
//!   ([`snapshot::FrontierSnapshot`]) for checkpoint/resume of rolling
//!   sweeps;
//! * [`stats`] — wavefront shape statistics (plane sizes, critical path,
//!   maximum parallelism) consumed by the performance model.

pub mod diag;
pub mod executor;
pub mod grid;
pub mod plane;
pub mod profile;
pub mod snapshot;
pub mod stats;
pub mod tiles;

pub use grid::SharedGrid;
pub use plane::PlaneIter;
pub use profile::{PlaneProfile, PlaneSample, ProfileSummary};
pub use snapshot::{FrontierSnapshot, SnapshotError};
pub use tiles::TileGrid;
