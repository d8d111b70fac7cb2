//! Local three-sequence alignment: 3D Smith–Waterman.
//!
//! Finds the best-scoring aligned *sub*-segments of the three inputs
//! under the same sum-of-pairs column scoring as the global aligner. The
//! recurrence clamps at 0, the optimum is the lattice maximum, traceback
//! stops at the first zero cell. Both a sequential fill and a
//! plane-parallel fill are provided — the wavefront structure is
//! untouched by the clamp.

use crate::alignment::{Alignment3, Column3};
use crate::dp::{Kernel, MOVES};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::plane::Extents;

/// A local three-way alignment: the aligned segment plus the half-open
/// residue ranges covered in each input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignment3 {
    /// The aligned segment.
    pub alignment: Alignment3,
    /// Residue ranges covered in A, B, C.
    pub ranges: [(usize, usize); 3],
}

/// Local DP cell value (clamped at 0) computed from a predecessor getter.
#[inline(always)]
fn local_cell(
    kernel: &Kernel<'_>,
    i: usize,
    j: usize,
    k: usize,
    get: impl Fn(usize, usize, usize) -> i32,
) -> i32 {
    if i == 0 && j == 0 && k == 0 {
        return 0;
    }
    let mut best = 0i32;
    for mv in MOVES {
        if (mv.da && i == 0) || (mv.db && j == 0) || (mv.dc && k == 0) {
            continue;
        }
        let p = get(
            i - usize::from(mv.da),
            j - usize::from(mv.db),
            k - usize::from(mv.dc),
        );
        best = best.max(p + kernel.move_score(i, j, k, mv));
    }
    best
}

/// Best local three-way alignment under linear-gap SP scoring. An
/// all-negative landscape yields the empty alignment with score 0.
///
/// ```
/// use tsa_core::local;
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("TTTGATTACATTT").unwrap();
/// let b = Seq::dna("CCCGATTACACCC").unwrap();
/// let c = Seq::dna("GGGGATTACAGGG").unwrap();
/// let loc = local::align(&a, &b, &c, &s);
/// assert_eq!(loc.alignment.degapped_row(0), b"GATTACA");
/// ```
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> LocalAlignment3 {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let (w2, w3) = (n2 + 1, n3 + 1);
    let mut d = vec![0i32; e.cells()];
    let (mut best, mut bc) = (0i32, (0usize, 0usize, 0usize));
    for i in 0..=n1 {
        for j in 0..=n2 {
            let base = (i * w2 + j) * w3;
            for k in 0..=n3 {
                let v = local_cell(&kernel, i, j, k, |pi, pj, pk| d[(pi * w2 + pj) * w3 + pk]);
                d[base + k] = v;
                if v > best {
                    best = v;
                    bc = (i, j, k);
                }
            }
        }
    }

    // Traceback from the maximum until a zero cell.
    let (mut i, mut j, mut k) = bc;
    let end = (i, j, k);
    let mut columns: Vec<Column3> = Vec::new();
    while d[(i * w2 + j) * w3 + k] > 0 {
        let v = d[(i * w2 + j) * w3 + k];
        let mut stepped = false;
        for mv in MOVES {
            if (mv.da && i == 0) || (mv.db && j == 0) || (mv.dc && k == 0) {
                continue;
            }
            let (pi, pj, pk) = (
                i - usize::from(mv.da),
                j - usize::from(mv.db),
                k - usize::from(mv.dc),
            );
            if d[(pi * w2 + pj) * w3 + pk] + kernel.move_score(i, j, k, mv) == v {
                columns.push(kernel.column(i, j, k, mv));
                (i, j, k) = (pi, pj, pk);
                stepped = true;
                break;
            }
        }
        assert!(stepped, "broken local traceback at ({i},{j},{k})");
    }
    columns.reverse();
    LocalAlignment3 {
        alignment: Alignment3::new(columns, best),
        ranges: [(i, end.0), (j, end.1), (k, end.2)],
    }
}

/// Local alignment score only, with a plane-parallel fill.
pub fn align_score_parallel(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
    use std::sync::atomic::{AtomicI32, Ordering};
    use tsa_wavefront::executor::run_cells_wavefront;
    use tsa_wavefront::SharedGrid;
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let grid: SharedGrid<i32> = SharedGrid::new(e.cells(), 0);
    let best = AtomicI32::new(0);
    // SAFETY: one write per plane cell; reads from earlier planes.
    let cell = |i, j, k| {
        let v = local_cell(&kernel, i, j, k, |pi, pj, pk| unsafe {
            grid.get(e.index(pi, pj, pk))
        });
        unsafe { grid.set(e.index(i, j, k), v) };
        best.fetch_max(v, Ordering::Relaxed);
    };
    run_cells_wavefront(e, cell, || false).expect("no stop predicate");
    best.into_inner()
}

/// Local alignment score only (sequential).
pub fn align_score(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
    align(a, b, c, scoring).alignment.score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::test_util::random_triple;

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn finds_embedded_common_segment() {
        let a = Seq::dna("TTTTGATTACATTTT").unwrap();
        let b = Seq::dna("CCCCGATTACACCCC").unwrap();
        let c = Seq::dna("GGGGGATTACAGGGG").unwrap();
        let loc = align(&a, &b, &c, &s());
        // 7 columns × 3 matching pairs × 2.
        assert_eq!(loc.alignment.score, 7 * 6);
        assert_eq!(loc.ranges, [(4, 11); 3]);
        assert_eq!(loc.alignment.degapped_row(0), b"GATTACA");
        assert_eq!(loc.alignment.full_match_columns(), 7);
    }

    #[test]
    fn all_negative_landscape_is_empty() {
        let a = Seq::dna("AAAA").unwrap();
        let b = Seq::dna("CCCC").unwrap();
        let c = Seq::dna("GGGG").unwrap();
        let loc = align(&a, &b, &c, &s());
        assert_eq!(loc.alignment.score, 0);
        assert!(loc.alignment.is_empty());
    }

    #[test]
    fn local_at_least_global() {
        for seed in 0..12 {
            let (a, b, c) = random_triple(seed, 10);
            assert!(
                align_score(&a, &b, &c, &s()) >= full::align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_brute_force_over_substring_triples() {
        for seed in 0..4 {
            let (a, b, c) = random_triple(seed + 800, 4);
            let mut want = 0i32;
            for sa in 0..=a.len() {
                for ea in sa..=a.len() {
                    for sb in 0..=b.len() {
                        for eb in sb..=b.len() {
                            for sc in 0..=c.len() {
                                for ec in sc..=c.len() {
                                    let ga = a.slice(sa, ea);
                                    let gb = b.slice(sb, eb);
                                    let gc = c.slice(sc, ec);
                                    want = want.max(full::align_score(&ga, &gb, &gc, &s()));
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(align_score(&a, &b, &c, &s()), want, "seed {seed}");
        }
    }

    #[test]
    fn segment_rescores_to_its_score_and_degaps_to_ranges() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 900, 12);
            let loc = align(&a, &b, &c, &s());
            assert_eq!(
                loc.alignment.rescore(&s()),
                loc.alignment.score,
                "seed {seed}"
            );
            for (r, seq) in [&a, &b, &c].into_iter().enumerate() {
                let (lo, hi) = loc.ranges[r];
                assert_eq!(
                    loc.alignment.degapped_row(r),
                    seq.residues()[lo..hi],
                    "seed {seed} row {r}"
                );
            }
        }
    }

    #[test]
    fn parallel_score_matches_sequential() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 950, 12);
            assert_eq!(
                align_score_parallel(&a, &b, &c, &s()),
                align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        assert_eq!(align_score(&e, &e, &e, &s()), 0);
        assert_eq!(align_score(&a, &e, &e, &s()), 0);
        assert_eq!(
            align_score_parallel(&a, &a, &e, &s()),
            align_score(&a, &a, &e, &s())
        );
    }

    #[test]
    fn identical_inputs_align_fully() {
        let a = Seq::dna("ACGTACGT").unwrap();
        let loc = align(&a, &a, &a, &s());
        assert_eq!(loc.alignment.score, 8 * 6);
        assert_eq!(loc.ranges, [(0, 8); 3]);
    }
}
