//! 3D Hirschberg divide and conquer: a **full optimal alignment in
//! quadratic space**.
//!
//! Split `A` at its midpoint `m`. Any optimal alignment path crosses the
//! lattice face `i = m` at exactly one cell `(m, j, k)`, and that cell is
//! an argmax of `F[j][k] + R[j][k]`, where `F` is the forward face of
//! `(A[..m], B, C)` and `R` the backward face of `(A[m..], B, C)` — both
//! swept in quadratic space by the SIMD slab loop of [`crate::sweep`].
//! Recurse on the two sub-problems; the half-volumes sum geometrically, so
//! total work is at most ~2× the plain DP (experiment `table4` measures
//! the real ratio).
//!
//! With `parallel` set, the solver runs the two face sweeps of each split,
//! and then its two halves, as a `rayon::join` (the coarse split of Helal
//! et al.). The faces, hence the splits and the alignment, are the same
//! either way.

use crate::alignment::{Alignment3, Column3};
use crate::cancel::{CancelProgress, CancelToken};
use crate::dp::NEG_INF;
use crate::full;
use crate::kernel::SimdKernel;
use crate::sweep::{self, Face};
use std::sync::atomic::{AtomicU64, Ordering};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Below this `|A|` the recursion bottoms out into the full-lattice DP:
/// the sub-lattice is at most `(BASE+1)·(n2+1)·(n3+1)` cells, i.e. already
/// quadratic in the remaining problem. [`peak_bytes`] prices it.
const BASE_CASE_LEN: usize = 4;

/// Peak working set of [`align`], `parallel` for the variant that sweeps
/// both faces of a split at once. The larger of two phases, in
/// `(n2+1)(n3+1)` faces:
///
/// * **faces** — each face sweep holds two rolling slabs plus the face it
///   copies out of them (3). The sequential solver keeps the forward face
///   while it sweeps the backward one (1 + 3); the parallel one runs both
///   sweeps at once (3 + 3). A split frees both faces before recursing,
///   and the faces of the two halves together hold at most one cell more
///   than their parent's, so the top level is the peak.
/// * **base case** — the full lattice of an `|A| ≤ BASE_CASE_LEN`
///   sub-problem, at most `min(n1, BASE_CASE_LEN) + 1` faces; a job with
///   `n1 ≤ BASE_CASE_LEN` is only this.
pub(crate) fn peak_bytes(n1: usize, n2: usize, n3: usize, parallel: bool) -> usize {
    let face = (n2 + 1) * (n3 + 1) * std::mem::size_of::<i32>();
    let base_case = (n1.min(BASE_CASE_LEN) + 1) * face;
    if n1 <= BASE_CASE_LEN {
        return base_case;
    }
    let faces = if parallel { 3 + 3 } else { 1 + 3 };
    base_case.max(faces * face)
}

/// Optimal alignment by divide and conquer in quadratic space.
///
/// Both faces of every split are slab sweeps under `kernel`'s rows.
/// `parallel` runs the two face sweeps, and then the two halves, of each
/// split at once; the alignment is column-for-column the sequential one.
/// The token is polled at every recursion node and once per slab inside
/// each face sweep; a fired token stops the solver with the cell updates
/// made so far, out of an estimated total of twice the lattice (the
/// halved sub-problems sum geometrically).
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
    let solver = Solver {
        scoring,
        kernel,
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
    kernel: SimdKernel,
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
        let face = |a: &Seq, backward| {
            sweep::slab_face(a, b, c, self.scoring, self.kernel, self.cancel, backward)
        };
        let forward = || face(&a_lo, false);
        let backward = || face(&a_hi, true);
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
        // The halves need neither face: free them before recursing, so no
        // ancestor's faces stay live beneath ([`peak_bytes`] prices only
        // the top level's).
        drop((f, r));
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

    #[test]
    fn peak_bytes_prices_the_larger_phase() {
        let face = |n2: usize, n3: usize| (n2 + 1) * (n3 + 1) * 4;
        // A short first sequence is one base case.
        assert_eq!(peak_bytes(2, 9, 9, false), 3 * face(9, 9));
        assert_eq!(peak_bytes(4, 9, 9, true), 5 * face(9, 9));
        // Past it, the base case (5 faces) outweighs the sequential face
        // phase (4) but not the parallel one (6).
        assert_eq!(peak_bytes(20, 600, 600, false), 5 * face(600, 600));
        assert_eq!(peak_bytes(20, 600, 600, true), 6 * face(600, 600));
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
            // The same faces give the same splits: the sequential solver's
            // alignment, column for column.
            let seq = run_dc(&a, &b, &c, &s(), false);
            assert_eq!(dc.columns, seq.columns, "seed {seed}");
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
            assert_eq!(pdc.columns, dc.columns, "seed {seed}");
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
