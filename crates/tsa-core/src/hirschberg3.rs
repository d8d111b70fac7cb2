//! 3D Hirschberg divide and conquer: a **full optimal alignment in
//! quadratic space**.
//!
//! Split `A` at its midpoint `m`. Any optimal alignment path crosses the
//! lattice face `i = m` at exactly one cell `(m, j, k)`, and that cell is
//! an argmax of `F[j][k] + R[j][k]`, where `F` is the forward face of
//! `(A[..m], B, C)` and `R` the backward face of `(A[m..], B, C)` — both
//! computable in quadratic space ([`crate::sweep`]). Recurse on the
//! two sub-problems; the half-volumes sum geometrically, so total work is
//! at most ~2× the plain DP (experiment `table4` measures the real ratio).
//!
//! With `parallel` set, the solver additionally (a) computes the two faces
//! with plane-parallel sweeps and (b) runs the two recursive halves as a
//! `rayon::join`, so parallelism is available at every level.

use crate::alignment::{Alignment3, Column3};
use crate::cancel::{CancelProgress, CancelToken};
use crate::dp::NEG_INF;
use crate::full;
use crate::kernel::SimdKernel;
use crate::sweep::{Face, Order, Sweep};
use std::sync::atomic::{AtomicU64, Ordering};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Below this `|A|` the recursion bottoms out into the full-lattice DP:
/// the sub-lattice is at most `(BASE+1)·(n2+1)·(n3+1)` cells, i.e. already
/// quadratic in the remaining problem.
const BASE_CASE_LEN: usize = 4;

/// Optimal alignment by divide and conquer in quadratic space.
///
/// `parallel` selects plane-parallel face sweeps plus a parallel
/// recursion; otherwise the faces are sequential slab sweeps. `kernel`
/// is the SIMD row kernel of the face sweeps. The token is polled at
/// every recursion node and once per slab or plane inside each face
/// sweep; a fired token stops the solver with the cell updates made so
/// far, out of an estimated total of twice the lattice (the halved
/// sub-problems sum geometrically).
///
/// ```
/// use tsa_core::{full, hirschberg3, CancelToken, SimdKernel};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("GATTACA").unwrap();
/// let b = Seq::dna("GATACA").unwrap();
/// let c = Seq::dna("GTTACA").unwrap();
/// let never = CancelToken::never();
/// let dc = hirschberg3::align(&a, &b, &c, &s, false, SimdKernel::Auto, &never).unwrap();
/// assert_eq!(dc.score, full::align_score(&a, &b, &c, &s));
/// ```
pub fn align(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    parallel: bool,
    kernel: SimdKernel,
    cancel: &CancelToken,
) -> Result<Alignment3, CancelProgress> {
    let order = if parallel {
        Order::Planes
    } else {
        Order::Slabs
    };
    let solver = Solver {
        scoring,
        faces: Sweep::new(order, kernel).cancel(cancel),
        parallel,
        cancel,
        done: AtomicU64::new(0),
    };
    let mut columns = Vec::with_capacity(a.len() + b.len() + c.len());
    match solver.solve(a, b, c, &mut columns) {
        Ok(()) => {
            let mut aln = Alignment3::new(columns, 0);
            aln.score = aln.rescore(scoring);
            Ok(aln)
        }
        Err(()) => {
            let cells_total = 2 * cube(a, b, c);
            Err(CancelProgress {
                cells_done: solver.done.into_inner().min(cells_total),
                cells_total,
            })
        }
    }
}

fn cube(a: &Seq, b: &Seq, c: &Seq) -> u64 {
    ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64
}

/// The recursion's loop invariants plus its running cell count.
struct Solver<'a> {
    scoring: &'a Scoring,
    faces: Sweep<'a>,
    parallel: bool,
    cancel: &'a CancelToken,
    done: AtomicU64,
}

impl Solver<'_> {
    fn solve(&self, a: &Seq, b: &Seq, c: &Seq, out: &mut Vec<Column3>) -> Result<(), ()> {
        if self.cancel.should_stop() {
            return Err(());
        }
        if a.len() <= BASE_CASE_LEN {
            out.extend(full::align(a, b, c, self.scoring).columns);
            self.done.fetch_add(cube(a, b, c), Ordering::Relaxed);
            return Ok(());
        }
        let mid = a.len() / 2;
        let a_lo = a.slice(0, mid);
        let a_hi = a.slice(mid, a.len());
        let forward = || self.faces.forward_face(&a_lo, b, c, self.scoring);
        let backward = || self.faces.backward_face(&a_hi, b, c, self.scoring);
        let (f, r) = if self.parallel {
            rayon::join(forward, backward)
        } else {
            (forward(), backward())
        };
        // Account both halves before bailing: the sibling may have finished.
        let (Some(f), Some(r)) = (
            self.credit(f, cube(&a_lo, b, c)),
            self.credit(r, cube(&a_hi, b, c)),
        ) else {
            return Err(());
        };
        let w3 = c.len() + 1;
        let split = best_split(&f, &r);
        let (sj, sk) = (split / w3, split % w3);
        let (b_lo, b_hi) = (b.slice(0, sj), b.slice(sj, b.len()));
        let (c_lo, c_hi) = (c.slice(0, sk), c.slice(sk, c.len()));
        if self.parallel {
            let mut right: Vec<Column3> = Vec::new();
            let (left_ok, right_ok) = rayon::join(
                || self.solve(&a_lo, &b_lo, &c_lo, out),
                || self.solve(&a_hi, &b_hi, &c_hi, &mut right),
            );
            left_ok?;
            right_ok?;
            out.extend(right);
            Ok(())
        } else {
            self.solve(&a_lo, &b_lo, &c_lo, out)?;
            self.solve(&a_hi, &b_hi, &c_hi, out)
        }
    }

    /// Count a face sweep's cell updates, complete or not.
    fn credit(&self, face: Result<Face, CancelProgress>, full_cells: u64) -> Option<Face> {
        let cells = face.as_ref().map_or_else(|p| p.cells_done, |_| full_cells);
        self.done.fetch_add(cells, Ordering::Relaxed);
        face.ok()
    }
}

/// Pick the split column: argmax of `F + R`, ties broken toward the
/// lexicographically smallest `(j, k)` for determinism.
fn best_split(f: &[i32], r: &[i32]) -> usize {
    let mut best_idx = 0;
    let mut best = NEG_INF * 2;
    for (idx, (x, y)) in f.iter().zip(r).enumerate() {
        let v = x + y;
        if v > best {
            best = v;
            best_idx = idx;
        }
    }
    best_idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn run_dc(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, parallel: bool) -> Alignment3 {
        align(
            a,
            b,
            c,
            scoring,
            parallel,
            SimdKernel::Auto,
            &CancelToken::never(),
        )
        .unwrap()
    }

    #[test]
    fn sequential_dc_matches_full_dp_on_randoms() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 14);
            let dc = run_dc(&a, &b, &c, &s(), false);
            let opt = full::align_score(&a, &b, &c, &s());
            assert_eq!(dc.score, opt, "seed {seed}");
            dc.validate_scored(&a, &b, &c, &s())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn parallel_dc_matches_full_dp_on_randoms() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed + 200, 14);
            let dc = run_dc(&a, &b, &c, &s(), true);
            let opt = full::align_score(&a, &b, &c, &s());
            assert_eq!(dc.score, opt, "seed {seed}");
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn family_workloads() {
        for seed in [1u64, 2, 3] {
            let (a, b, c) = family_triple(seed, 28);
            let dc = run_dc(&a, &b, &c, &s(), false);
            assert_eq!(dc.score, full::align_score(&a, &b, &c, &s()));
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
            let pdc = run_dc(&a, &b, &c, &s(), true);
            assert_eq!(pdc.score, dc.score);
            pdc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGTACGTAC").unwrap();
        for (x, y, z) in [
            (e.clone(), e.clone(), e.clone()),
            (a.clone(), e.clone(), e.clone()),
            (e.clone(), a.clone(), e.clone()),
            (e.clone(), e.clone(), a.clone()),
            (a.clone(), a.clone(), e.clone()),
        ] {
            let dc = run_dc(&x, &y, &z, &s(), false);
            assert_eq!(dc.score, full::align_score(&x, &y, &z, &s()));
            dc.validate_scored(&x, &y, &z, &s()).unwrap();
        }
    }

    #[test]
    fn base_case_boundary_lengths() {
        for la in 0..=(BASE_CASE_LEN * 2 + 1) {
            let (raw, b, c) = random_triple(900 + la as u64, 12);
            let a = raw.slice(0, la.min(raw.len()));
            let dc = run_dc(&a, &b, &c, &s(), false);
            assert_eq!(dc.score, full::align_score(&a, &b, &c, &s()), "la={la}");
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn protein_scoring() {
        let sc = Scoring::blosum62();
        let a = Seq::protein("MKWVTFISLLLLFSSAYS").unwrap();
        let b = Seq::protein("MKWVTFISLLFLFSSAYS").unwrap();
        let c = Seq::protein("MKWVTFSLLLLFSAYS").unwrap();
        let dc = run_dc(&a, &b, &c, &sc, false);
        assert_eq!(dc.score, full::align_score(&a, &b, &c, &sc));
        dc.validate_scored(&a, &b, &c, &sc).unwrap();
    }

    #[test]
    fn pre_cancelled_dc_stops_with_progress() {
        let (a, b, c) = family_triple(18, 20);
        let token = CancelToken::never();
        token.cancel();
        for parallel in [false, true] {
            let p = align(&a, &b, &c, &s(), parallel, SimdKernel::Auto, &token).unwrap_err();
            assert_eq!(p.cells_done, 0, "parallel={parallel}");
            assert!(p.cells_total > 0);
        }
    }

    #[test]
    fn best_split_prefers_first_maximum() {
        let f = vec![1, 5, 5, 2];
        let r = vec![0, 0, 0, 3];
        // sums: 1, 5, 5, 5 → first max at index 1.
        assert_eq!(best_split(&f, &r), 1);
    }
}
