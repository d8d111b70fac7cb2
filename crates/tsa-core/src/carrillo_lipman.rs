//! Carrillo–Lipman pruned DP: the classic search-space reduction for
//! exact sum-of-pairs alignment, paying only for the cells it keeps.
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
//! alignment of score `L` is already known (here the best center-star
//! merge over all three centers, read off the forward pairwise matrices
//! the bound needs anyway), every cell with `UB < L` can be skipped: no
//! optimal path crosses it.
//! For similar sequences this eliminates the vast majority of the lattice
//! (experiment `table7`), which is how exact SP aligners like MSA made
//! three-and-more-sequence optimality practical.
//!
//! **Intervals in `O(n²)`.** Each through term is at most its pair's
//! optimum `U_XY`, so a kept cell needs every term to clear `L` less the
//! other two optima: `through_AC(i, k) ≥ L − U_AB − U_BC`,
//! `through_BC(j, k) ≥ L − U_AB − U_AC` and
//! `through_AB(i, j) ≥ L − U_AC − U_BC`. Per `i` the run takes the hull of
//! the `k` passing the first test, per `j` the hull of those passing the
//! second; an `(i, j)` failing the third keeps nothing, and every other
//! one keeps the intersection of its two hulls, trimmed at each end by
//! the exact per-cell bound. That leaves one `k`-interval per `(i, j)`
//! row, holding every kept cell, which [`crate::sweep`]'s sparse slab
//! sweep stores and fills with the SIMD slab rows.
//!
//! **Exactness.** Any superset of the kept cells yields the full DP's
//! optimum and its canonical traceback. Pruned cells read `NEG_INF`, so
//! every computed value is at most the true one. A cell on an optimal
//! path has `UB ≥ opt ≥ L`, so it is kept, and so is its predecessor on
//! that path, back to the origin: along the path the computed values
//! equal the true ones. The traceback's tie-break therefore sees the same
//! values as over the full lattice: at a cell of the canonical path a
//! predecessor on an optimal path reads its true value, and any other
//! reads at most its true value, which already lost.
//!
//! **Fallback.** Unrelated sequences prune little, and over a wide band
//! the sparse rows (three predecessor windows copied per row) lose to the
//! dense SIMD lattice. Once the store — kept cells plus one span per row —
//! would pass [`FALLBACK_SHARE`] of the dense lattice's bytes, the run
//! stops building intervals, drops the bounds and fills the dense lattice
//! instead. The input alone decides.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::center_star;
use crate::full::{self, Scores};
use crate::kernel::SimdKernel;
use crate::sweep::{self, Span, SparseLattice};
use tsa_pairwise::nw::{self, ScoreMatrix};
use tsa_pairwise::PairAlignment;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// The share of the dense lattice's bytes the sparse store may take:
/// past it the dense SIMD lattice runs instead. The store holds the kept
/// cells (4 bytes each) and one 12-byte span per `(i, j)` row, so short
/// rows (a short third sequence) pay a larger fixed share; with
/// `n3 ≤ 11` the spans alone pass it and the run goes dense at once.
///
/// Measured on a 2-core AVX2 host (release build, `auto` kernel, median
/// of 5 to 21, bounds and traceback included) with the fallback disabled,
/// against the dense lattice plus its traceback, by store share: the
/// sparse sweep took 0.09–0.35× the dense time below 10% (`table7`-style
/// families at 0–75% substitutions, n 64–128, unrelated BLOSUM62 protein
/// triples, serve-align problems), 0.49–0.81× from 13% to 23% (unrelated
/// and lopsided DNA triples, n 32–128), 0.73–1.29× from 26% to 30%
/// (lopsided triples, among them rows of 25–31 cells), and 0.88–0.98× at
/// 37–41% (the only random DNA shapes above 30% kept among 400 of edges
/// 4–96). Below a quarter the sparse sweep won on every shape measured.
pub const FALLBACK_SHARE: f64 = 0.25;

/// What one Carrillo–Lipman run computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pruning {
    /// Cells of the whole lattice.
    pub cube: u64,
    /// `(i, j)` rows, one span each in the sparse store.
    pub rows: u64,
    /// Cells the kept intervals hold; `None` when the store would have
    /// passed [`FALLBACK_SHARE`] of the lattice's bytes, which stops the
    /// interval build, and the dense lattice ran instead.
    pub kept: Option<u64>,
}

impl Pruning {
    /// The dense lattice ran instead of the sparse sweep.
    pub fn fallback(&self) -> bool {
        self.kept.is_none()
    }

    /// Cells the run computed: the kept cells, or the whole lattice after
    /// a fallback.
    pub fn cells(&self) -> u64 {
        self.kept.unwrap_or(self.cube)
    }

    /// Bytes of the sparse store, the kept cells plus the spans; `None`
    /// after a fallback.
    pub fn store_bytes(&self) -> Option<u64> {
        let (cell, span) = (std::mem::size_of::<i32>(), std::mem::size_of::<Span>());
        self.kept
            .map(|kept| kept * cell as u64 + self.rows * span as u64)
    }
}

/// Optimal alignment via Carrillo–Lipman pruning, seeded by the
/// center-star heuristic, under `kernel`'s slab rows. Polls `cancel` once
/// per `i`-slab of whichever lattice runs.
///
/// ```
/// use tsa_core::{carrillo_lipman, full, CancelToken, SimdKernel};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("ACGTTGCAACGGTACCATGCAGTCAGGCTTACGATCGGAT").unwrap();
/// let never = CancelToken::never();
/// let (aln, pruning) = carrillo_lipman::align(&a, &a, &a, &s, SimdKernel::Auto, &never).unwrap();
/// assert_eq!(aln, full::align(&a, &a, &a, &s));
/// assert!(pruning.cells() < pruning.cube / 4); // most of the cube pruned
/// ```
pub fn align(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
) -> Result<(Alignment3, Pruning), CancelProgress> {
    run(a, b, c, scoring, kernel, cancel, |lat| {
        full::traceback(lat, a, b, c, scoring)
    })
}

/// The optimal score alone, by the same pruned (or fallen-back) fill.
pub fn score(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
) -> Result<(i32, Pruning), CancelProgress> {
    run(a, b, c, scoring, kernel, cancel, |lat| {
        lat.score_at(a.len(), b.len(), c.len())
    })
}

/// Peak working-set bytes of a run over these lengths, less the `O(n)`
/// terms: the larger of the dense fallback's lattice and the worst pruned
/// phase. A pruned run holds, in turn, the three forward pairwise matrices
/// plus one backward fill; the three through matrices plus the spans; and
/// the sparse store, which stays under [`FALLBACK_SHARE`] of the lattice
/// and so never sets the peak.
pub(crate) fn peak_bytes(n1: usize, n2: usize, n3: usize) -> usize {
    const CELL: usize = std::mem::size_of::<i32>();
    let lattice = (n1 + 1) * (n2 + 1) * (n3 + 1) * CELL;
    let pairs = [
        (n1 + 1) * (n2 + 1),
        (n1 + 1) * (n3 + 1),
        (n2 + 1) * (n3 + 1),
    ];
    let matrices: usize = pairs.iter().sum::<usize>() * CELL;
    let bounds = matrices + pairs.iter().max().expect("three pairs") * CELL;
    let spans = (n1 + 1) * (n2 + 1) * std::mem::size_of::<Span>();
    lattice.max(bounds).max(matrices + spans)
}

/// Bound, then fill the kept intervals (or the dense lattice, past the
/// break-even share), then `finish` reads the filled lattice.
fn run<R>(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
    finish: impl Fn(&dyn Scores) -> R,
) -> Result<(R, Pruning), CancelProgress> {
    const CELL: usize = std::mem::size_of::<i32>();
    let rows = (a.len() + 1) * (b.len() + 1);
    let cube = rows * (c.len() + 1);
    // The kept cells the store may hold next to its spans. No budget left
    // (or a lattice past the `u32` indices of the spans): dense at once.
    let budget = (FALLBACK_SHARE * (cube * CELL) as f64) as usize;
    let limit = match u32::try_from(cube) {
        Ok(_) => budget.saturating_sub(rows * std::mem::size_of::<Span>()) / CELL,
        Err(_) => 0,
    };
    let spans = (limit > 0)
        .then(|| spans(a, b, c, scoring, limit))
        .flatten();
    let pruning = Pruning {
        cube: cube as u64,
        rows: rows as u64,
        kept: spans.as_deref().map(|s| SparseLattice::kept(s) as u64),
    };
    let result = match spans {
        Some(spans) => finish(&sweep::fill_sparse(
            a, b, c, scoring, kernel, spans, cancel,
        )?),
        None => finish(&sweep::fill_lattice(a, b, c, scoring, kernel, cancel)?),
    };
    Ok((result, pruning))
}

/// The kept `k`-interval of every `(i, j)` row (see the module docs), or
/// `None` as soon as they hold more than `limit` cells. The lattice has at
/// most `u32::MAX` cells, so every `k` and offset fits a span. The bound
/// matrices are dropped on return, before any lattice is allocated.
fn spans(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, limit: usize) -> Option<Vec<Span>> {
    // The forward matrices give the pairwise optima and the center-star
    // seed's pairwise alignments, then become the through matrices.
    let mut t_ab = nw::fill_matrix(a, b, scoring);
    let mut t_ac = nw::fill_matrix(a, c, scoring);
    let mut t_bc = nw::fill_matrix(b, c, scoring);
    let optima = [t_ab.final_score(), t_ac.final_score(), t_bc.final_score()];
    // The seed: the best center-star merge over all three centers.
    let seqs = [a, b, c];
    let pairs = [(0, 1, &t_ab), (0, 2, &t_ac), (1, 2, &t_bc)]
        .map(|(x, y, forward)| nw::traceback(forward, seqs[x], seqs[y], scoring));
    let pair = |center: usize, other: usize| {
        let aln = pairs[center + other - 1].clone();
        if center < other {
            aln
        } else {
            PairAlignment {
                row_a: aln.row_b,
                row_b: aln.row_a,
                score: aln.score,
            }
        }
    };
    let lower = (0..3)
        .map(|center| center_star::merged(scoring, center, pair).score)
        .max()
        .expect("three centers");
    for (m, x, y) in [(&mut t_ab, a, b), (&mut t_ac, a, c), (&mut t_bc, b, c)] {
        add_backward(m, x, y, scoring);
    }
    let [u_ab, u_ac, u_bc] = optima;
    let (floor_ab, floor_ac, floor_bc) = (
        lower - u_ac - u_bc,
        lower - u_ab - u_bc,
        lower - u_ab - u_ac,
    );
    let hulls = |t: &ScoreMatrix, floor: i32| -> Vec<Option<(usize, usize)>> {
        t.scores
            .chunks(t.cols + 1)
            .map(|row| {
                let lo = row.iter().position(|&v| v >= floor)?;
                let hi = row.iter().rposition(|&v| v >= floor)?;
                Some((lo, hi))
            })
            .collect()
    };
    let (hull_i, hull_j) = (hulls(&t_ac, floor_ac), hulls(&t_bc, floor_bc));
    let mut spans = Vec::with_capacity(hull_i.len() * hull_j.len());
    let mut off = 0u32;
    for (i, hi_k) in hull_i.iter().enumerate() {
        for (j, hj_k) in hull_j.iter().enumerate() {
            let mut span = Span {
                off,
                ..Span::default()
            };
            let t = t_ab.at(i, j);
            match (hi_k, hj_k) {
                (Some((li, ri)), Some((lj, rj))) if t >= floor_ab => {
                    let ub = |k: usize| t + t_ac.at(i, k) + t_bc.at(j, k);
                    let (mut lo, mut hi) = (*li.max(lj), *ri.min(rj));
                    while lo <= hi && ub(lo) < lower {
                        lo += 1;
                    }
                    while hi > lo && ub(hi) < lower {
                        hi -= 1;
                    }
                    if lo <= hi {
                        span.lo = lo as u32;
                        span.len = (hi - lo + 1) as u32;
                    }
                }
                _ => {}
            }
            off = off.checked_add(span.len).filter(|&o| o as usize <= limit)?;
            spans.push(span);
        }
    }
    Some(spans)
}

/// Turn the forward matrix of `(x, y)` into its through matrix: add the
/// forward DP of the reversed pair, read from the far corner (entry
/// `(i, j)` of the backward fill sits at `(|x| − i, |y| − j)`, the
/// row-major mirror image).
fn add_backward(m: &mut ScoreMatrix, x: &Seq, y: &Seq, scoring: &Scoring) {
    let backward = nw::fill_matrix(&x.reversed(), &y.reversed(), scoring);
    for (f, b) in m.scores.iter_mut().zip(backward.scores.iter().rev()) {
        *f += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn pruned(a: &Seq, b: &Seq, c: &Seq) -> (Alignment3, Pruning) {
        align(a, b, c, &s(), SimdKernel::Auto, &CancelToken::never()).unwrap()
    }

    #[test]
    fn pruned_score_equals_full_dp() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 12);
            let (got, _) =
                score(&a, &b, &c, &s(), SimdKernel::Auto, &CancelToken::never()).unwrap();
            assert_eq!(got, full::align_score(&a, &b, &c, &s()), "seed {seed}");
        }
    }

    #[test]
    fn pruned_alignment_is_canonical() {
        // Pruning must not change the canonical traceback: the optimal
        // path is fully computed, so the tie-break sees the same values.
        for seed in 0..8 {
            let (a, b, c) = family_triple(seed, 40);
            for kernel in [SimdKernel::Scalar, SimdKernel::Auto] {
                let (aln, pruning) =
                    align(&a, &b, &c, &s(), kernel, &CancelToken::never()).unwrap();
                assert!(!pruning.fallback(), "seed {seed}");
                assert_eq!(aln, full::align(&a, &b, &c, &s()), "seed {seed} {kernel}");
            }
        }
    }

    #[test]
    fn similar_sequences_prune_most_of_the_lattice() {
        let (a, b, c) = family_triple(3, 48); // 15% sub, 5% indel family
        let (_, p) = pruned(&a, &b, &c);
        let kept = p.kept.expect("pruned");
        assert_eq!(p.cells(), kept);
        assert!(kept < p.cube / 10, "kept {kept} of {}", p.cube);
        let store = p.store_bytes().unwrap() as f64;
        assert!(store < FALLBACK_SHARE * (4 * p.cube) as f64);
    }

    #[test]
    fn identical_sequences_prune_almost_everything() {
        let a = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, 40, 9);
        let (aln, p) = pruned(&a, &a, &a);
        assert_eq!(aln, full::align(&a, &a, &a, &s()));
        // Only a thin tube around the main diagonal survives.
        assert!(p.cells() < p.cube / 20, "kept {} of {}", p.cells(), p.cube);
    }

    #[test]
    fn wide_stores_fall_back_to_the_dense_lattice() {
        // A lopsided unrelated triple whose bound keeps 36% of the cube:
        // its store would pass the budget.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let (a, b, c) = (dna(48, 9060), dna(8, 19060), dna(64, 29060));
        let kept = SparseLattice::kept(&spans(&a, &b, &c, &s(), u32::MAX as usize).unwrap());
        let (aln, p) = pruned(&a, &b, &c);
        let whole = Pruning {
            kept: Some(kept as u64),
            ..p
        };
        let share = whole.store_bytes().unwrap() as f64 / (4 * p.cube) as f64;
        assert!(share > FALLBACK_SHARE, "store {:.1}%", 100.0 * share);
        assert!(kept as f64 > 0.35 * p.cube as f64);
        assert_eq!(aln, full::align(&a, &b, &c, &s()));
        assert!(p.fallback());
        assert_eq!(p.cells(), p.cube);
        // Rows of 11 cells or fewer: the spans alone pass the budget, so
        // even an identical triple goes dense.
        let short = dna(11, 5);
        let (aln, p) = pruned(&short, &short, &short);
        assert!(p.fallback());
        assert_eq!(aln, full::align(&short, &short, &short, &s()));
    }

    #[test]
    fn spans_hold_every_cell_the_bound_keeps() {
        // Brute force over every cell: a cell whose bound reaches the
        // optimum (the tightest feasible L) must lie in its row's span.
        for seed in 0..6 {
            let (a, b, c) = if seed % 2 == 0 {
                family_triple(seed, 14)
            } else {
                random_triple(seed, 10)
            };
            let spans = spans(&a, &b, &c, &s(), u32::MAX as usize).unwrap();
            let lower = full::align_score(&a, &b, &c, &s()); // the tightest L
            let through = |x: &Seq, y: &Seq| {
                let mut m = nw::fill_matrix(x, y, &s());
                add_backward(&mut m, x, y, &s());
                m
            };
            let (t_ab, t_ac, t_bc) = (through(&a, &b), through(&a, &c), through(&b, &c));
            let w2 = b.len() + 1;
            for i in 0..=a.len() {
                for j in 0..=b.len() {
                    let span = spans[i * w2 + j];
                    for k in 0..=c.len() {
                        let ub = t_ab.at(i, j) + t_ac.at(i, k) + t_bc.at(j, k);
                        let inside = (span.lo as usize..(span.lo + span.len) as usize).contains(&k);
                        assert!(ub < lower || inside, "seed {seed} ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        let (al, _) = pruned(&e, &e, &e);
        assert!(al.is_empty());
        for (x, y, z) in [(&a, &e, &e), (&e, &a, &e), (&e, &e, &a), (&a, &a, &e)] {
            let (al, _) = pruned(x, y, z);
            assert_eq!(al, full::align(x, y, z, &s()));
        }
        let (al, _) = pruned(&a, &e, &e);
        assert_eq!(al.score, -12);
    }

    #[test]
    fn pre_cancelled_runs_stop_on_either_path() {
        let token = CancelToken::never();
        token.cancel();
        let (fam, _, _) = family_triple(2, 30);
        let (x, y, z) = random_triple(3, 30);
        for (a, b, c) in [(&fam, &fam, &fam), (&x, &y, &z)] {
            let p = align(a, b, c, &s(), SimdKernel::Auto, &token).unwrap_err();
            assert_eq!(p.cells_done, 0);
            assert!(p.cells_total > 0);
        }
    }

    #[test]
    fn peak_bytes_prices_the_larger_path() {
        let lattice = 4 * 65 * 65 * 65;
        assert_eq!(peak_bytes(64, 64, 64), lattice);
        // A thin lattice: the pairwise matrices and spans dominate.
        let thin = peak_bytes(1, 300, 300);
        assert!(thin > 4 * 2 * 301 * 301, "{thin}");
    }
}
