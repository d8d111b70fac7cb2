//! Banded 3D alignment: restrict the lattice to cells near the main
//! diagonal.
//!
//! A cell `(i, j, k)` is *in band* `w` when all three pairwise offsets are
//! small: `|i−j| ≤ w`, `|i−k| ≤ w`, `|j−k| ≤ w`. For similar sequences
//! the optimal path stays near the diagonal, so a narrow band computes
//! `O(n·w²)` cells instead of `O(n³)` — without the pairwise matrices and
//! heuristic seed the Carrillo–Lipman pruner needs. The trade-off: a band
//! is a *guess*. [`align_adaptive`] doubles `w` until the score stops
//! improving (and is exact once the band covers the whole lattice, which
//! is its final fallback), mirroring `tsa-pairwise::banded`.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::dp::{Kernel, NEG_INF};
use crate::full::{traceback, Lattice};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::plane::Extents;

/// Is `(i, j, k)` within band half-width `w`?
#[inline(always)]
fn in_band(i: usize, j: usize, k: usize, w: usize) -> bool {
    i.abs_diff(j) <= w && i.abs_diff(k) <= w && j.abs_diff(k) <= w
}

/// The minimum band that keeps the terminal cell reachable.
pub fn min_band(n1: usize, n2: usize, n3: usize) -> usize {
    n1.abs_diff(n2).max(n1.abs_diff(n3)).max(n2.abs_diff(n3))
}

/// Result of a banded fill: the lattice (out-of-band cells hold `NEG_INF`)
/// and how many cells were computed.
pub struct BandedLattice {
    /// The partially filled lattice.
    pub lattice: Lattice,
    /// Cells computed (inside the band).
    pub visited: usize,
    /// The band half-width used.
    pub band: usize,
}

/// Fill only the in-band cells. Returns `None` when `w < min_band` (the
/// terminal cell is outside the band).
pub fn fill_banded(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    w: usize,
) -> Option<BandedLattice> {
    (w >= min_band(a.len(), b.len(), c.len())).then(|| {
        fill_band(a, b, c, scoring, w, &CancelToken::never())
            .expect("a never-firing token cannot cancel")
    })
}

/// The banded fill proper (`w ≥ min_band`), polling `cancel` once per
/// `i`-slab; a fired token aborts with the lattice positions swept.
fn fill_band(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    w: usize,
    cancel: &CancelToken,
) -> Result<BandedLattice, CancelProgress> {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let (w2, w3) = (n2 + 1, n3 + 1);
    let mut scores = vec![NEG_INF; e.cells()];
    let mut visited = 0usize;
    for i in 0..=n1 {
        if cancel.should_stop() {
            return Err(CancelProgress {
                cells_done: e.index(i, 0, 0) as u64,
                cells_total: e.cells() as u64,
            });
        }
        // In-band j range for this i.
        let j_lo = i.saturating_sub(w);
        let j_hi = (i + w).min(n2);
        for j in j_lo..=j_hi {
            let base = (i * w2 + j) * w3;
            let k_lo = i.saturating_sub(w).max(j.saturating_sub(w));
            let k_hi = (i + w).min(j + w).min(n3);
            for k in k_lo..=k_hi {
                debug_assert!(in_band(i, j, k, w));
                visited += 1;
                scores[base + k] =
                    kernel.cell(i, j, k, |pi, pj, pk| scores[(pi * w2 + pj) * w3 + pk]);
            }
        }
    }
    Ok(BandedLattice {
        lattice: Lattice { scores, extents: e },
        visited,
        band: w,
    })
}

/// Banded alignment at a fixed half-width. `None` when the band cannot
/// reach the terminal cell. The result is the optimum *among in-band
/// paths* — equal to the global optimum whenever some optimal path fits.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, w: usize) -> Option<Alignment3> {
    let banded = fill_banded(a, b, c, scoring, w)?;
    Some(traceback(&banded.lattice, a, b, c, scoring))
}

/// Adaptive banding: start at `w = max(4, min_band)`, double until the
/// score stops improving or the band covers the whole lattice (at which
/// point the result is exactly the full DP).
///
/// Each band sweep polls `cancel` once per `i`-slab. Progress counts
/// lattice positions swept across the band rounds, out of one lattice per
/// round the doubling schedule could run.
pub fn align_adaptive(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    cancel: &CancelToken,
) -> Result<Alignment3, CancelProgress> {
    let (n1, n2, n3) = (a.len(), b.len(), c.len());
    let full_w = n1.max(n2).max(n3);
    let w0 = 4usize.max(min_band(n1, n2, n3));
    let widths: Vec<usize> =
        std::iter::successors(Some(w0), |&w| (w < full_w).then(|| (w * 2).min(full_w))).collect();
    let mut best: Option<Alignment3> = None;
    for (round, &w) in widths.iter().enumerate() {
        let banded = fill_band(a, b, c, scoring, w, cancel).map_err(|p| CancelProgress {
            cells_done: round as u64 * p.cells_total + p.cells_done,
            cells_total: widths.len() as u64 * p.cells_total,
        })?;
        let next = traceback(&banded.lattice, a, b, c, scoring);
        let done = best.as_ref().is_some_and(|b| b.score == next.score);
        best = Some(next);
        if done {
            break;
        }
    }
    Ok(best.expect("at least one band round"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn full_width_band_equals_full_dp() {
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed, 12);
            let w = a.len().max(b.len()).max(c.len());
            let banded = align(&a, &b, &c, &s(), w).unwrap();
            let reference = full::align(&a, &b, &c, &s());
            assert_eq!(banded, reference, "seed {seed}");
        }
    }

    #[test]
    fn too_narrow_band_is_rejected() {
        let a = Seq::dna("AAAAAAAAAA").unwrap();
        let b = Seq::dna("AA").unwrap();
        let c = Seq::dna("AAAAA").unwrap();
        assert_eq!(min_band(10, 2, 5), 8);
        assert!(align(&a, &b, &c, &s(), 7).is_none());
        assert!(align(&a, &b, &c, &s(), 8).is_some());
    }

    #[test]
    fn similar_sequences_need_only_narrow_bands() {
        let (a, b, c) = family_triple(9, 40);
        let w = 12usize.max(min_band(a.len(), b.len(), c.len()));
        let banded = align(&a, &b, &c, &s(), w).unwrap();
        assert_eq!(banded.score, full::align_score(&a, &b, &c, &s()));
        banded.validate_scored(&a, &b, &c, &s()).unwrap();
    }

    #[test]
    fn adaptive_matches_full_dp_on_randoms() {
        for seed in 0..12 {
            let (a, b, c) = random_triple(seed + 70, 12);
            let adaptive = align_adaptive(&a, &b, &c, &s(), &CancelToken::never()).unwrap();
            assert_eq!(
                adaptive.score,
                full::align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
            adaptive.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn narrow_band_visits_far_fewer_cells() {
        let (a, b, c) = family_triple(4, 40);
        let w = 8usize.max(min_band(a.len(), b.len(), c.len()));
        let banded = fill_banded(&a, &b, &c, &s(), w).unwrap();
        assert!(
            (banded.visited as f64) < 0.4 * banded.lattice.extents.cells() as f64,
            "visited {} of {}",
            banded.visited,
            banded.lattice.extents.cells()
        );
    }

    #[test]
    fn banded_result_is_feasible_even_when_suboptimal() {
        // A minimal band always yields a structurally valid alignment
        // whose score lower-bounds the optimum.
        let (a, b, c) = random_triple(3, 14);
        let w = min_band(a.len(), b.len(), c.len());
        let banded = align(&a, &b, &c, &s(), w).unwrap();
        banded.validate(&a, &b, &c).unwrap();
        assert!(banded.score <= full::align_score(&a, &b, &c, &s()));
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        let al = align_adaptive(&e, &e, &e, &s(), &CancelToken::never()).unwrap();
        assert!(al.is_empty());
        let al = align_adaptive(&a, &e, &e, &s(), &CancelToken::never()).unwrap();
        assert_eq!(al.score, full::align_score(&a, &e, &e, &s()));
        al.validate_scored(&a, &e, &e, &s()).unwrap();
    }

    #[test]
    fn in_band_ranges_cover_exactly_the_band() {
        // The nested loop bounds in fill_banded must enumerate exactly the
        // in-band cells.
        let (n1, n2, n3, w) = (9usize, 7usize, 8usize, 3usize);
        let mut expect = 0usize;
        for i in 0..=n1 {
            for j in 0..=n2 {
                for k in 0..=n3 {
                    if in_band(i, j, k, w) {
                        expect += 1;
                    }
                }
            }
        }
        let a = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n1, 1);
        let b = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n2, 2);
        let c = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n3, 3);
        let banded = fill_banded(&a, &b, &c, &s(), w).unwrap();
        assert_eq!(banded.visited, expect);
    }
}
