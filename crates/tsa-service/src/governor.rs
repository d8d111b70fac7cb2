//! Admission-time resource governor.
//!
//! Before a job enters the queue the engine estimates, from the sequence
//! lengths and the *resolved* algorithm, how many DP cell updates it will
//! perform and how many bytes its kernel will peak at (via
//! [`tsa_perfmodel::memory`]). Two limits apply:
//!
//! * `max_cells` — a per-job cap on estimated cell updates (a time bound
//!   in disguise: cells/second is roughly constant per machine).
//! * `memory_budget` — both a per-job cap on estimated peak bytes and a
//!   global budget on the *sum* of in-flight estimates, enforced by
//!   [`MemoryGate`] as a semaphore-style reservation released when the
//!   job resolves.
//!
//! A pinned over-budget algorithm is rejected with
//! [`SubmitError::ResourceExhausted`]. An [`Algorithm::Auto`] request is
//! instead walked down a degradation ladder (resolved choice →
//! `Hirschberg`, both exact) and admitted with the first variant that
//! fits, recording the downgrade in the response.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

use tsa_core::Algorithm;
use tsa_perfmodel::memory;

use crate::error::SubmitError;

/// Estimated footprint of one job, in DP cell updates and peak bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Estimated DP cell updates the kernel performs.
    pub cells: u64,
    /// Estimated peak working-set bytes of the kernel.
    pub peak_bytes: u64,
}

/// Estimate the footprint of `algorithm` (already resolved — not `Auto`)
/// on sequences of lengths `n1 × n2 × n3`. Mirrors the dispatch in the
/// worker: score-only jobs use the rolling score passes where available.
pub fn estimate(
    algorithm: Algorithm,
    score_only: bool,
    n1: usize,
    n2: usize,
    n3: usize,
) -> ResourceEstimate {
    let cube = ((n1 + 1) as u64) * ((n2 + 1) as u64) * ((n3 + 1) as u64);
    let (cells, peak_bytes) = match algorithm {
        // Score-only jobs dispatch to the O(n²) rolling passes for the
        // algorithms that have them (see `Aligner::score3`).
        Algorithm::FullDp | Algorithm::Hirschberg | Algorithm::ParallelHirschberg if score_only => {
            (cube, memory::slab_score(n2, n3))
        }
        Algorithm::Wavefront if score_only => (cube, memory::plane_score(n1, n2)),
        // Full-lattice traceback algorithms materialize the whole cube —
        // as does the tile-wavefront score grid.
        Algorithm::FullDp
        | Algorithm::Wavefront
        | Algorithm::TileWavefront { .. }
        | Algorithm::CarrilloLipman
        | Algorithm::BandedAdaptive => (cube, memory::full_lattice(n1, n2, n3)),
        // Divide and conquer: ≤2× the cell updates, quadratic space.
        Algorithm::Hirschberg | Algorithm::ParallelHirschberg => {
            let parallel = algorithm == Algorithm::ParallelHirschberg;
            (2 * cube, memory::hirschberg(n1, n2, n3, parallel))
        }
        // 7 gap states per lattice cell.
        Algorithm::AffineDp => (7 * cube, memory::affine_lattice(n1, n2, n3)),
        // Pairwise-driven heuristics: quadratic in both time and space.
        Algorithm::CenterStar | Algorithm::Anchored => {
            let pairwise = ((n1 + 1) * (n2 + 1) + (n1 + 1) * (n3 + 1) + (n2 + 1) * (n3 + 1)) as u64;
            (pairwise, memory::center_star(n1, n2, n3))
        }
        // `Auto` never reaches the estimator; resolve first.
        Algorithm::Auto => (cube, memory::full_lattice(n1, n2, n3)),
    };
    ResourceEstimate {
        cells,
        peak_bytes: peak_bytes as u64,
    }
}

/// The degradation ladder tried, in order, for an `Auto` request whose
/// resolved algorithm is over budget: the resolved choice, then
/// sequential `Hirschberg` (SIMD slab faces), the fastest exact schedule
/// in quadratic space. Both rungs are exact; the second trades time
/// (≤2× the cell updates) for space (cubic → quadratic). A score-only
/// job already resolves to the rolling sweep with the smaller buffers
/// (see [`tsa_core::Aligner::resolve_job`]), so no rung shrinks it.
pub(crate) fn ladder(resolved: Algorithm) -> [Algorithm; 2] {
    [resolved, Algorithm::Hirschberg]
}

/// Check one candidate against the per-job limits.
pub(crate) fn check(
    est: ResourceEstimate,
    max_cells: Option<u64>,
    memory_budget: Option<u64>,
) -> Result<(), SubmitError> {
    if let Some(cap) = max_cells {
        if est.cells > cap {
            return Err(SubmitError::ResourceExhausted {
                required: est.cells,
                budget: cap,
                limit: "max-cells",
            });
        }
    }
    if let Some(budget) = memory_budget {
        if est.peak_bytes > budget {
            return Err(SubmitError::ResourceExhausted {
                required: est.peak_bytes,
                budget,
                limit: "memory-budget",
            });
        }
    }
    Ok(())
}

/// Semaphore-style gate over the global in-flight estimated-bytes budget.
/// Reservations are RAII: dropping a [`Reservation`] (job resolved, or
/// pushed back by a full queue) returns its bytes and wakes blocked
/// submitters.
#[derive(Debug)]
pub(crate) struct MemoryGate {
    budget: u64,
    reserved: Mutex<u64>,
    freed: Condvar,
    /// Observability only: current reservation total.
    in_flight: AtomicU64,
}

impl MemoryGate {
    pub(crate) fn new(budget: u64) -> Arc<MemoryGate> {
        Arc::new(MemoryGate {
            budget,
            reserved: Mutex::new(0),
            freed: Condvar::new(),
            in_flight: AtomicU64::new(0),
        })
    }

    /// Reserve `bytes` if they fit right now. The caller must have already
    /// checked `bytes <= budget` via [`check`]; a single over-budget job
    /// would otherwise block forever on the blocking path.
    pub(crate) fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<Reservation> {
        let mut reserved = self.reserved.lock().expect("memory gate poisoned");
        if *reserved + bytes > self.budget {
            return None;
        }
        *reserved += bytes;
        self.in_flight.store(*reserved, Ordering::Relaxed);
        Some(Reservation {
            gate: Arc::clone(self),
            bytes,
        })
    }

    /// Reserve `bytes`, waiting for in-flight jobs to release enough
    /// budget. Requires `bytes <= budget`.
    pub(crate) fn reserve_blocking(self: &Arc<Self>, bytes: u64) -> Reservation {
        let mut reserved = self.reserved.lock().expect("memory gate poisoned");
        while *reserved + bytes > self.budget {
            reserved = self.freed.wait(reserved).expect("memory gate poisoned");
        }
        *reserved += bytes;
        self.in_flight.store(*reserved, Ordering::Relaxed);
        Reservation {
            gate: Arc::clone(self),
            bytes,
        }
    }

    /// Estimated bytes currently reserved by queued + running jobs.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    fn release(&self, bytes: u64) {
        let mut reserved = self.reserved.lock().expect("memory gate poisoned");
        *reserved = reserved.saturating_sub(bytes);
        self.in_flight.store(*reserved, Ordering::Relaxed);
        self.freed.notify_all();
    }
}

/// RAII share of the global memory budget, held by a job from admission
/// until it resolves (including resolution-by-worker-death).
#[derive(Debug)]
pub(crate) struct Reservation {
    gate: Arc<MemoryGate>,
    bytes: u64,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.gate.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_only_estimates_are_quadratic() {
        let n = 200;
        let full = estimate(Algorithm::Wavefront, false, n, n, n);
        let score = estimate(Algorithm::Wavefront, false, n, n, n);
        assert_eq!(full.peak_bytes, score.peak_bytes);
        let score = estimate(Algorithm::Wavefront, true, n, n, n);
        assert!(score.peak_bytes < full.peak_bytes / 10);
        assert_eq!(score.cells, full.cells);
    }

    #[test]
    fn hirschberg_trades_cells_for_bytes() {
        let n = 100;
        let full = estimate(Algorithm::FullDp, false, n, n, n);
        let dc = estimate(Algorithm::ParallelHirschberg, false, n, n, n);
        assert_eq!(dc.cells, 2 * full.cells);
        assert!(dc.peak_bytes < full.peak_bytes / 10);
    }

    #[test]
    fn check_trips_the_right_limit() {
        let est = ResourceEstimate {
            cells: 1000,
            peak_bytes: 4000,
        };
        assert!(check(est, None, None).is_ok());
        assert!(check(est, Some(1000), Some(4000)).is_ok());
        match check(est, Some(999), None) {
            Err(SubmitError::ResourceExhausted { limit, .. }) => {
                assert_eq!(limit, "max-cells")
            }
            other => panic!("unexpected: {other:?}"),
        }
        match check(est, None, Some(3999)) {
            Err(SubmitError::ResourceExhausted {
                required, budget, ..
            }) => {
                assert_eq!((required, budget), (4000, 3999));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn gate_reserves_and_releases() {
        let gate = MemoryGate::new(100);
        let a = gate.try_reserve(60).expect("fits");
        assert_eq!(gate.in_flight(), 60);
        assert!(gate.try_reserve(50).is_none());
        let b = gate.try_reserve(40).expect("fits exactly");
        assert_eq!(gate.in_flight(), 100);
        drop(a);
        assert_eq!(gate.in_flight(), 40);
        drop(b);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn blocking_reservation_waits_for_release() {
        let gate = MemoryGate::new(10);
        let held = gate.try_reserve(10).expect("fits");
        let gate2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            let _r = gate2.reserve_blocking(5);
            gate2.in_flight()
        });
        // Give the waiter a moment to block, then free the budget.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().expect("no panic"), 5);
    }

    #[test]
    fn auto_score_jobs_estimate_the_smaller_rolling_sweep() {
        let auto = tsa_core::Aligner::new();
        for (n1, n2, n3) in [
            (100, 100, 100),
            (9, 5, 19),
            (9, 5, 20),
            (1, 20_000, 20_000),
            (100, 2_000, 10_000),
        ] {
            let est = estimate(auto.resolve_job(n1, n2, n3, true), true, n1, n2, n3);
            let smaller = memory::slab_score(n2, n3).min(memory::plane_score(n1, n2));
            assert_eq!(est.peak_bytes, smaller as u64, "{n1}×{n2}×{n3}");
        }
    }

    #[test]
    fn ladder_starts_at_resolved_and_ends_quadratic() {
        let l = ladder(Algorithm::Wavefront);
        assert_eq!(l[0], Algorithm::Wavefront);
        assert_eq!(l[l.len() - 1], Algorithm::Hirschberg);
    }
}
