//! Center-star heuristic baseline.
//!
//! The classic quality baseline the exact aligner is measured against
//! (experiment `table5`): pick the *center* sequence (the one whose summed
//! pairwise optimal scores to the other two is highest), align each other
//! sequence to the center pairwise, and merge the two pairwise alignments
//! on the center's coordinates ("once a gap, always a gap"). Runs in
//! `O(n²)` instead of `O(n³)` but is not optimal in general — the gap
//! between its SP score and the exact optimum is exactly what the paper's
//! exact algorithm buys.

use crate::alignment::{Alignment3, Column3};
use tsa_pairwise::{hirschberg, PairAlignment};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Which input was chosen as the center, plus the merged alignment.
#[derive(Debug, Clone)]
pub struct CenterStarResult {
    /// Index (0, 1, 2) of the center sequence in the input order.
    pub center: usize,
    /// The merged three-row alignment, rows in input order; its `score` is
    /// the SP re-score of the merged rows.
    pub alignment: Alignment3,
}

/// Run the center-star heuristic. The result's rows are in input order
/// (A, B, C) regardless of which sequence was chosen as center.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> CenterStarResult {
    let seqs = [a, b, c];
    // Pairwise optimal scores (linear space — the heuristic's cost budget
    // is quadratic).
    let [s_ab, s_ac, s_bc] =
        [(a, b), (a, c), (b, c)].map(|(x, y)| hirschberg::align(x, y, scoring).score);
    let sums = [s_ab + s_ac, s_ab + s_bc, s_ac + s_bc];
    let center = (0..3).max_by_key(|&i| sums[i]).expect("three candidates");
    let alignment = merged(scoring, center, |center, other| {
        hirschberg::align(seqs[center], seqs[other], scoring)
    });
    CenterStarResult { center, alignment }
}

/// The three-row alignment merged on input `center` from `pair(center, x)`
/// and `pair(center, y)`, where `pair(center, other)` aligns input
/// `center` (row `a`) to input `other` (row `b`), by index in input
/// order; rows in input order, re-scored. Any optimal pairwise alignments
/// will do. Carrillo–Lipman scores the same merges straight off its
/// pairwise paths; its tests hold that score to this alignment's.
pub(crate) fn merged(
    scoring: &Scoring,
    center: usize,
    mut pair: impl FnMut(usize, usize) -> PairAlignment,
) -> Alignment3 {
    let (x, y) = match center {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let aln_x = pair(center, x);
    let aln_y = pair(center, y);
    let merged = merge_on_center(&aln_x, &aln_y);

    // merged rows: [center, x, y] → reorder to input order.
    let mut columns = Vec::with_capacity(merged.len());
    for col in merged {
        let mut out: Column3 = [None; 3];
        out[center] = col[0];
        out[x] = col[1];
        out[y] = col[2];
        columns.push(out);
    }
    let mut alignment = Alignment3::new(columns, 0);
    alignment.score = alignment.rescore(scoring);
    alignment
}

/// Merge two pairwise alignments that share their first row (the center):
/// output columns `[center, x, y]`.
fn merge_on_center(ax: &PairAlignment, ay: &PairAlignment) -> Vec<Column3> {
    let mut out = Vec::with_capacity(ax.len().max(ay.len()));
    let (mut px, mut py) = (0, 0);
    while px < ax.len() || py < ay.len() {
        let cx = (px < ax.len()).then(|| ax.row_a[px]);
        let cy = (py < ay.len()).then(|| ay.row_a[py]);
        match (cx, cy) {
            // Center gapped in X's alignment: X-only column.
            (Some(None), _) => {
                out.push([None, ax.row_b[px], None]);
                px += 1;
            }
            // Center gapped in Y's alignment: Y-only column.
            (_, Some(None)) => {
                out.push([None, None, ay.row_b[py]]);
                py += 1;
            }
            // Center residue present in both: synchronized column.
            (Some(Some(r)), Some(Some(r2))) => {
                debug_assert_eq!(r, r2, "pairwise alignments disagree on center");
                out.push([Some(r), ax.row_b[px], ay.row_b[py]]);
                px += 1;
                py += 1;
            }
            // One side exhausted with the other holding a center residue:
            // impossible — both alignments contain every center residue.
            (Some(Some(_)), None) | (None, Some(Some(_))) => {
                unreachable!("center residues must be synchronized")
            }
            (None, None) => break,
        }
    }
    out
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
    fn result_is_structurally_valid() {
        for seed in 0..20 {
            let (a, b, c) = random_triple(seed, 30);
            let res = align(&a, &b, &c, &s());
            res.alignment
                .validate(&a, &b, &c)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(res.center < 3);
        }
    }

    #[test]
    fn never_beats_the_exact_optimum() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed + 40, 12);
            let heuristic = align(&a, &b, &c, &s()).alignment.score;
            let exact = full::align_score(&a, &b, &c, &s());
            assert!(
                heuristic <= exact,
                "seed {seed}: heuristic {heuristic} > exact {exact}"
            );
        }
    }

    #[test]
    fn identical_sequences_are_aligned_perfectly() {
        let a = Seq::dna("ACGTACGT").unwrap();
        let res = align(&a, &a, &a, &s());
        assert_eq!(res.alignment.score, 8 * 6);
        assert_eq!(res.alignment.score, full::align_score(&a, &a, &a, &s()));
    }

    #[test]
    fn close_family_is_near_optimal() {
        let (a, b, c) = family_triple(9, 40);
        let heuristic = align(&a, &b, &c, &s()).alignment.score;
        let exact = full::align_score(&a, &b, &c, &s());
        assert!(heuristic <= exact);
        // For highly similar sequences the star merge loses little.
        assert!(
            (exact - heuristic) as f64 <= 0.2 * exact.abs().max(1) as f64,
            "exact {exact}, heuristic {heuristic}"
        );
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        let res = align(&e, &e, &e, &s());
        assert!(res.alignment.is_empty());
        let res = align(&a, &e, &e, &s());
        res.alignment.validate(&a, &e, &e).unwrap();
        assert_eq!(res.alignment.score, -12);
    }

    #[test]
    fn center_choice_maximizes_pairwise_sum() {
        // b is "between" a and c, so b should be the center.
        let a = Seq::dna("AAAAAAAACC").unwrap();
        let b = Seq::dna("AAAAAAAAGC").unwrap();
        let c = Seq::dna("AAAAAAAAGG").unwrap();
        let res = align(&a, &b, &c, &s());
        assert_eq!(res.center, 1);
    }

    #[test]
    fn rows_stay_in_input_order() {
        let (a, b, c) = family_triple(17, 16);
        let res = align(&a, &b, &c, &s());
        assert_eq!(res.alignment.degapped_row(0), a.residues());
        assert_eq!(res.alignment.degapped_row(1), b.residues());
        assert_eq!(res.alignment.degapped_row(2), c.residues());
    }
}
