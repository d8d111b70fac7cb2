//! Plane-parallel wavefront DP — the paper's parallel algorithm ("PAR-WF").
//!
//! All cells of the anti-diagonal plane `d = i + j + k` are independent
//! given planes `d−1..d−3`, so each plane is a rayon parallel iteration and
//! the implicit join between planes is the only synchronization. The full
//! lattice is materialized (into a [`SharedGrid`]) so the standard
//! traceback recovers an optimal alignment afterwards; scores are
//! *bit-identical* to the sequential fill because the recurrence is a pure
//! max over the same inputs.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::dp::{Kernel, NEG_INF};
use crate::full::{traceback, Lattice};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::executor::{run_cells_wavefront, run_cells_wavefront_profiled};
use tsa_wavefront::plane::Extents;
use tsa_wavefront::{PlaneProfile, SharedGrid};

/// Fill the full lattice with plane-parallel execution, polling `cancel`
/// between anti-diagonal planes: a fired token aborts the sweep within one
/// plane and reports the progress made.
pub fn fill(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    cancel: &CancelToken,
) -> Result<Lattice, CancelProgress> {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let e = Extents::new(a.len(), b.len(), c.len());
    let grid: SharedGrid<i32> = SharedGrid::new(e.cells(), NEG_INF);
    // SAFETY: the executor runs each plane cell exactly once and joins
    // between planes; it only ever stops *between* planes.
    run_cells_wavefront(
        e,
        |i, j, k| unsafe { cell(&kernel, &grid, e, i, j, k) },
        || cancel.should_stop(),
    )
    .map_err(|cells_done| CancelProgress {
        cells_done,
        cells_total: e.cells() as u64,
    })?;
    Ok(Lattice {
        scores: grid.into_vec(),
        extents: e,
    })
}

/// Like [`fill`] run to completion, but captures a per-plane
/// [`PlaneProfile`] alongside the lattice. The scores are identical to
/// [`fill`]'s — only the executor's intra-plane task split differs
/// (explicit per-worker chunks, so each task can be timed), which the
/// plane-disjointness contract makes observationally irrelevant.
pub fn fill_profiled(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> (Lattice, PlaneProfile) {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let e = Extents::new(a.len(), b.len(), c.len());
    let grid: SharedGrid<i32> = SharedGrid::new(e.cells(), NEG_INF);
    // SAFETY: as in `fill` — one invocation per plane cell, joins between
    // planes.
    let profile =
        run_cells_wavefront_profiled(e, |i, j, k| unsafe { cell(&kernel, &grid, e, i, j, k) });
    let lattice = Lattice {
        scores: grid.into_vec(),
        extents: e,
    };
    (lattice, profile)
}

/// One lattice cell of the wavefront fill.
///
/// # Safety
/// No other thread may touch cell `(i, j, k)` during the call, and every
/// cell on planes `d−1..d−3` (`d = i + j + k`) must be complete — the
/// plane-barrier executors guarantee both when each plane cell is
/// computed by exactly one invocation.
#[inline(always)]
unsafe fn cell(
    kernel: &Kernel<'_>,
    grid: &SharedGrid<i32>,
    e: Extents,
    i: usize,
    j: usize,
    k: usize,
) {
    // SAFETY: predecessors lie on completed earlier planes (caller
    // contract).
    let v = kernel.cell(i, j, k, |pi, pj, pk| unsafe {
        grid.get(e.index(pi, pj, pk))
    });
    // SAFETY: this invocation owns cell (i, j, k) (caller contract).
    unsafe { grid.set(e.index(i, j, k), v) };
}

/// Optimal three-sequence alignment via the parallel wavefront fill.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Alignment3 {
    traceback(&uncancelled(a, b, c, scoring), a, b, c, scoring)
}

/// Parallel-fill optimal score.
pub fn align_score(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
    uncancelled(a, b, c, scoring).final_score()
}

fn uncancelled(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Lattice {
    fill(a, b, c, scoring, &CancelToken::never()).expect("a never-firing token cannot cancel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::kernel::SimdKernel;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn lattice_is_bit_identical_to_sequential() {
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed, 14);
            let seq_lat =
                full::fill(&a, &b, &c, &s(), SimdKernel::Scalar, &CancelToken::never()).unwrap();
            let par_lat = fill(&a, &b, &c, &s(), &CancelToken::never()).unwrap();
            assert_eq!(seq_lat.scores, par_lat.scores, "seed {seed}");
        }
    }

    #[test]
    fn alignments_match_sequential_exactly() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 30, 14);
            let par = align(&a, &b, &c, &s());
            let seq = full::align(&a, &b, &c, &s());
            assert_eq!(par, seq, "seed {seed}");
            par.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn family_workload_matches() {
        let (a, b, c) = family_triple(99, 32);
        assert_eq!(
            align_score(&a, &b, &c, &s()),
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGT").unwrap();
        assert_eq!(align_score(&e, &e, &e, &s()), 0);
        assert_eq!(
            align_score(&a, &e, &e, &s()),
            full::align_score(&a, &e, &e, &s())
        );
        assert_eq!(
            align_score(&a, &a, &e, &s()),
            full::align_score(&a, &a, &e, &s())
        );
    }

    #[test]
    fn large_enough_to_parallelize_matches() {
        // Middle planes of a 40³ lattice have ~hundreds of cells, beyond
        // the executor's sequential threshold.
        let (a, b, c) = family_triple(5, 40);
        assert_eq!(
            align_score(&a, &b, &c, &s()),
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn profiled_fill_is_bit_identical_and_accounts_for_all_cells() {
        let (a, b, c) = family_triple(7, 24);
        let (lat, profile) = fill_profiled(&a, &b, &c, &s());
        assert_eq!(
            lat.scores,
            full::fill(&a, &b, &c, &s(), SimdKernel::Scalar, &CancelToken::never())
                .unwrap()
                .scores
        );
        assert_eq!(profile.total_items(), lat.extents.cells() as u64);
        assert_eq!(profile.samples.len(), lat.extents.num_planes());
        assert_eq!(
            traceback(&lat, &a, &b, &c, &s()),
            full::align(&a, &b, &c, &s())
        );
    }

    #[test]
    fn pre_cancelled_fill_does_no_work() {
        let (a, b, c) = random_triple(6, 14);
        let token = CancelToken::never();
        token.cancel();
        let p = fill(&a, &b, &c, &s(), &token).unwrap_err();
        assert_eq!(p.cells_done, 0);
        assert!(p.cells_total > 0);
    }

    #[test]
    fn works_inside_small_thread_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        pool.install(|| {
            let (a, b, c) = family_triple(11, 24);
            let par = align(&a, &b, &c, &s());
            par.validate_scored(&a, &b, &c, &s()).unwrap();
            assert_eq!(par.score, full::align_score(&a, &b, &c, &s()));
        });
    }
}
