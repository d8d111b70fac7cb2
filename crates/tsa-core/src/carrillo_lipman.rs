//! Carrillo–Lipman pruned DP: the classic search-space reduction for
//! exact sum-of-pairs alignment.
//!
//! Any 3D alignment path through cell `(i, j, k)` projects onto three
//! pairwise paths through `(i, j)`, `(i, k)` and `(j, k)`, so its total
//! score is bounded by
//!
//! ```text
//! UB(i, j, k) = through_AB(i, j) + through_AC(i, k) + through_BC(j, k)
//! ```
//!
//! where `through_XY(x, y) = fwd_XY(x, y) + bwd_XY(x, y)` is the best
//! pairwise score of any alignment forced through `(x, y)`. If a feasible
//! alignment of score `L` is already known (we use the center-star
//! heuristic), every cell with `UB < L` can be skipped: no optimal path
//! crosses it. For similar sequences this eliminates the vast majority of
//! the lattice (experiment `table7`), which is how exact SP aligners like
//! MSA made three-and-more-sequence optimality practical.
//!
//! The pruned fill produces the same optimum and the same canonical
//! traceback as the full DP: cells on any optimal path always satisfy
//! `UB ≥ opt ≥ L`, so they (and their on-path predecessors, recursively)
//! are never pruned, and their values are exact.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::center_star;
use crate::dp::{Kernel, NEG_INF};
use crate::full::{traceback, Lattice};
use tsa_pairwise::nw;
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::plane::Extents;

/// Pairwise "through" matrix: `fwd(x, y) + bwd(x, y)` for one pair.
struct Through {
    vals: Vec<i32>,
    cols: usize,
}

impl Through {
    fn build(a: &Seq, b: &Seq, scoring: &Scoring) -> Self {
        let fwd = nw::fill_matrix(a, b, scoring);
        let rev = nw::fill_matrix(&a.reversed(), &b.reversed(), scoring);
        let (n, m) = (a.len(), b.len());
        let mut vals = vec![0i32; (n + 1) * (m + 1)];
        for i in 0..=n {
            for j in 0..=m {
                vals[i * (m + 1) + j] = fwd.at(i, j) + rev.at(n - i, m - j);
            }
        }
        Through { vals, cols: m }
    }

    #[inline(always)]
    fn at(&self, x: usize, y: usize) -> i32 {
        self.vals[x * (self.cols + 1) + y]
    }
}

/// Outcome of a pruned fill: the lattice (pruned cells hold `NEG_INF`)
/// plus visit statistics.
pub struct PrunedLattice {
    /// The (partially filled) score lattice.
    pub lattice: Lattice,
    /// Cells actually computed.
    pub visited: usize,
    /// Total lattice cells.
    pub total: usize,
    /// The heuristic lower bound used for pruning.
    pub lower_bound: i32,
}

impl PrunedLattice {
    /// Fraction of the lattice that was computed.
    pub fn visited_fraction(&self) -> f64 {
        self.visited as f64 / self.total as f64
    }
}

/// Fill the lattice, skipping cells the Carrillo–Lipman bound excludes.
///
/// `lower_bound` must be the score of some *feasible* alignment (pass the
/// center-star score, a previous run's optimum, or `i32::MIN/4` to
/// disable pruning). Polls `cancel` once per `i`-slab; a fired token
/// aborts with the lattice positions swept so far.
pub fn fill_pruned(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    lower_bound: i32,
    cancel: &CancelToken,
) -> Result<PrunedLattice, CancelProgress> {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let t_ab = Through::build(a, b, scoring);
    let t_ac = Through::build(a, c, scoring);
    let t_bc = Through::build(b, c, scoring);

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
        for j in 0..=n2 {
            let ub_ab = t_ab.at(i, j);
            let base = (i * w2 + j) * w3;
            for k in 0..=n3 {
                let ub = ub_ab + t_ac.at(i, k) + t_bc.at(j, k);
                if ub < lower_bound {
                    continue;
                }
                visited += 1;
                scores[base + k] =
                    kernel.cell(i, j, k, |pi, pj, pk| scores[(pi * w2 + pj) * w3 + pk]);
            }
        }
    }
    Ok(PrunedLattice {
        lattice: Lattice { scores, extents: e },
        visited,
        total: e.cells(),
        lower_bound,
    })
}

/// Optimal alignment via Carrillo–Lipman pruning, seeded by the
/// center-star heuristic; the pruned fill polls `cancel` once per
/// `i`-slab.
///
/// ```
/// use tsa_core::carrillo_lipman;
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("ACGTACGTAC").unwrap();
/// let (score, stats) = carrillo_lipman::align_score_with_stats(&a, &a, &a, &s);
/// assert_eq!(score, 10 * 6);
/// assert!(stats.visited_fraction() < 1.0); // most of the cube pruned
/// ```
pub fn align(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    cancel: &CancelToken,
) -> Result<Alignment3, CancelProgress> {
    let seed = center_star::align(a, b, c, scoring).alignment.score;
    let pruned = fill_pruned(a, b, c, scoring, seed, cancel)?;
    debug_assert!(pruned.lattice.final_score() >= seed);
    Ok(traceback(&pruned.lattice, a, b, c, scoring))
}

/// Optimal score plus the pruning statistics (what `table7` reports).
pub fn align_score_with_stats(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
) -> (i32, PrunedLattice) {
    let seed = center_star::align(a, b, c, scoring).alignment.score;
    let pruned = fill_pruned(a, b, c, scoring, seed, &CancelToken::never())
        .expect("a never-firing token cannot cancel");
    (pruned.lattice.final_score(), pruned)
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
    fn pruned_score_equals_full_dp() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 12);
            let (score, _) = align_score_with_stats(&a, &b, &c, &s());
            assert_eq!(score, full::align_score(&a, &b, &c, &s()), "seed {seed}");
        }
    }

    #[test]
    fn pruned_alignment_is_canonical() {
        // Pruning must not change the canonical traceback: the optimal
        // path is fully computed, so the tie-break sees the same values.
        for seed in 0..8 {
            let (a, b, c) = family_triple(seed, 20);
            let pruned = align(&a, &b, &c, &s(), &CancelToken::never()).unwrap();
            let reference = full::align(&a, &b, &c, &s());
            assert_eq!(pruned.score, reference.score, "seed {seed}");
            pruned.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn similar_sequences_prune_most_of_the_lattice() {
        let (a, b, c) = family_triple(3, 48); // 15% sub, 5% indel family
        let (_, st) = align_score_with_stats(&a, &b, &c, &s());
        assert!(
            st.visited_fraction() < 0.35,
            "visited {:.1}% of the lattice",
            100.0 * st.visited_fraction()
        );
    }

    #[test]
    fn identical_sequences_prune_almost_everything() {
        let a = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, 40, 9);
        let (score, st) = align_score_with_stats(&a, &a, &a, &s());
        assert_eq!(score, full::align_score(&a, &a, &a, &s()));
        // Only a thin tube around the main diagonal survives.
        assert!(
            st.visited_fraction() < 0.05,
            "visited {:.2}%",
            100.0 * st.visited_fraction()
        );
    }

    #[test]
    fn unrelated_sequences_prune_little_but_stay_correct() {
        let (a, b, c) = random_triple(5, 14);
        let (score, st) = align_score_with_stats(&a, &b, &c, &s());
        assert_eq!(score, full::align_score(&a, &b, &c, &s()));
        assert!(st.visited <= st.total);
        assert!(st.visited >= 1);
    }

    #[test]
    fn disabled_pruning_visits_everything() {
        let (a, b, c) = random_triple(7, 8);
        let st = fill_pruned(&a, &b, &c, &s(), NEG_INF, &CancelToken::never()).unwrap();
        assert_eq!(st.visited, st.total);
        assert_eq!(
            st.lattice.final_score(),
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn seeding_with_the_exact_optimum_is_still_safe() {
        // The tightest legal bound: L = opt. Cells on optimal paths have
        // UB ≥ opt = L, so the optimum must survive.
        let (a, b, c) = family_triple(11, 16);
        let opt = full::align_score(&a, &b, &c, &s());
        let st = fill_pruned(&a, &b, &c, &s(), opt, &CancelToken::never()).unwrap();
        assert_eq!(st.lattice.final_score(), opt);
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        let al = align(&e, &e, &e, &s(), &CancelToken::never()).unwrap();
        assert!(al.is_empty());
        let al = align(&a, &e, &e, &s(), &CancelToken::never()).unwrap();
        al.validate_scored(&a, &e, &e, &s()).unwrap();
        assert_eq!(al.score, -12);
    }

    #[test]
    fn tighter_bounds_prune_more() {
        let (a, b, c) = family_triple(13, 32);
        let weak = fill_pruned(&a, &b, &c, &s(), -10_000, &CancelToken::never()).unwrap();
        let strong_seed = center_star::align(&a, &b, &c, &s()).alignment.score;
        let strong = fill_pruned(&a, &b, &c, &s(), strong_seed, &CancelToken::never()).unwrap();
        assert!(strong.visited <= weak.visited);
        assert_eq!(strong.lattice.final_score(), weak.lattice.final_score());
    }
}
