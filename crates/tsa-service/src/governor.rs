//! Admission-time resource governor.
//!
//! Before a job enters the queue the engine reads its
//! [`Plan`](tsa_core::Plan) — the resolved algorithm and the DP cell
//! updates and peak bytes of the dispatch that will run — from
//! [`tsa_core::Aligner::plan`]. Two limits apply:
//!
//! * `max_cells` — a per-job cap on planned cell updates (a time bound
//!   in disguise: cells/second is roughly constant per machine).
//! * `memory_budget` — both a per-job cap on planned peak bytes and a
//!   global budget on the *sum* of in-flight plans, enforced by
//!   [`MemoryGate`] as a semaphore-style reservation released when the
//!   job resolves.
//!
//! A pinned over-budget algorithm is rejected with
//! [`SubmitError::ResourceExhausted`]. An [`Algorithm::Auto`] request is
//! instead walked down a degradation ladder (the resolved plan →
//! `Hirschberg`'s, both exact) and admitted with the first plan that
//! fits, recording the downgrade in the response.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

use tsa_core::{Algorithm, Aligner, Plan};

use crate::error::SubmitError;

/// The plans tried, in order, for an `Auto` request over budget: the
/// resolved one, then sequential `Hirschberg`'s (SIMD slab faces), the
/// fastest exact schedule in quadratic space. Both rungs are exact; the
/// second trades time (≤2× the cell updates) for space (cubic →
/// quadratic). A score-only job already plans the rolling sweep with the
/// smaller buffers, so no rung shrinks it.
pub(crate) fn ladder(aligner: Aligner, n: [usize; 3], score_only: bool) -> [Plan; 2] {
    let [n1, n2, n3] = n;
    let resolved = aligner.plan(n1, n2, n3, score_only);
    let dc = aligner.algorithm(Algorithm::Hirschberg);
    [resolved, dc.plan(n1, n2, n3, score_only)]
}

/// Check one candidate's planned cell updates and peak bytes against the
/// per-job limits.
pub(crate) fn check(
    cells: u64,
    peak_bytes: u64,
    max_cells: Option<u64>,
    memory_budget: Option<u64>,
) -> Result<(), SubmitError> {
    if let Some(cap) = max_cells {
        if cells > cap {
            return Err(SubmitError::ResourceExhausted {
                required: cells,
                budget: cap,
                limit: "max-cells",
            });
        }
    }
    if let Some(budget) = memory_budget {
        if peak_bytes > budget {
            return Err(SubmitError::ResourceExhausted {
                required: peak_bytes,
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
    fn check_trips_the_right_limit() {
        assert!(check(1000, 4000, None, None).is_ok());
        assert!(check(1000, 4000, Some(1000), Some(4000)).is_ok());
        match check(1000, 4000, Some(999), None) {
            Err(SubmitError::ResourceExhausted { limit, .. }) => {
                assert_eq!(limit, "max-cells")
            }
            other => panic!("unexpected: {other:?}"),
        }
        match check(1000, 4000, None, Some(3999)) {
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
    fn ladder_starts_at_resolved_and_ends_quadratic() {
        let [resolved, dc] = ladder(Aligner::new(), [100, 100, 100], false);
        assert_eq!(resolved, Aligner::new().plan(100, 100, 100, false));
        // The pruned sweep, priced at the dense lattice it may fall back to.
        assert_eq!(resolved.algorithm, Algorithm::CarrilloLipman);
        assert_eq!(resolved.peak_bytes, 4 * 101 * 101 * 101);
        assert_eq!(dc.algorithm, Algorithm::Hirschberg);
        assert_eq!(dc.cells, 2 * resolved.cells);
        assert!(dc.peak_bytes < resolved.peak_bytes / 10);
        // A score job's rungs both sweep two rolling slabs.
        let [resolved, dc] = ladder(Aligner::new(), [100, 100, 100], true);
        assert_eq!(resolved.peak_bytes, dc.peak_bytes);
    }
}
