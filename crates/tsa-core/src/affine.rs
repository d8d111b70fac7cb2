//! Affine-gap three-sequence alignment under **quasi-natural gap costs**.
//!
//! The natural SP affine cost (each pairwise projection charges
//! `open + k·extend` per maximal gap run) cannot be computed from cell
//! values alone: a run's continuation depends on history erased by
//! intervening gap–gap columns. The standard remedy — introduced for the
//! MSA program of Lipman, Altschul & Kececioglu — is the *quasi-natural*
//! cost: condition only on the **previous column's move**. A pair is
//! charged `open` whenever it enters a gap orientation that the previous
//! column was not already in, and `extend` for every gapped column.
//!
//! The DP state is therefore `(i, j, k, m)` with `m` the move that
//! produced the current column (7 values), giving 7×7 transitions per
//! cell: `O(49·n³)` time and `7·O(n³)` space. Quasi-natural equals natural
//! cost on every alignment whose pairwise gap runs are not interrupted by
//! dormant (gap–gap) columns, and never *under*-charges.

use crate::alignment::{Alignment3, Column3};
use crate::cancel::{CancelProgress, CancelToken};
use crate::dp::{Move, MOVES, NEG_INF};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::plane::Extents;

/// Pair orientation within a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Orient {
    /// Both residues present.
    Aligned,
    /// First member gapped (e.g. `(-, b)`).
    FirstGap,
    /// Second member gapped (e.g. `(a, -)`).
    SecondGap,
    /// Both gapped (pair dormant in this column).
    Dormant,
}

/// The three row pairs, as (row, row) index pairs: AB, AC, BC.
const PAIRS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

fn move_bits(m: Move) -> [bool; 3] {
    [m.da, m.db, m.dc]
}

fn orient(m: Move, pair: usize) -> Orient {
    let bits = move_bits(m);
    let (x, y) = PAIRS[pair];
    match (bits[x], bits[y]) {
        (true, true) => Orient::Aligned,
        (false, true) => Orient::FirstGap,
        (true, false) => Orient::SecondGap,
        (false, false) => Orient::Dormant,
    }
}

/// Number of states: the 7 moves; plus the virtual START predecessor used
/// only on the transition side.
const NUM_STATES: usize = 7;

/// Open charges for transitioning from predecessor state `mp` (0..7 = a
/// move, 7 = START) into move `m`: `open`×(number of pairs newly entering
/// a gap orientation).
fn open_pairs(mp: Option<Move>, m: Move) -> i32 {
    let mut n = 0;
    for p in 0..3 {
        let cur = orient(m, p);
        if matches!(cur, Orient::FirstGap | Orient::SecondGap) {
            let prev = mp.map(|x| orient(x, p)).unwrap_or(Orient::Aligned);
            if prev != cur {
                n += 1;
            }
        }
    }
    n
}

/// Number of gap-orientation pairs in a column produced by `m` (each is
/// charged one `extend`).
fn gap_pairs(m: Move) -> i32 {
    (0..3)
        .filter(|&p| matches!(orient(m, p), Orient::FirstGap | Orient::SecondGap))
        .count() as i32
}

/// The quasi-natural score of an explicit column sequence — the rescoring
/// oracle for this module's DP, and a standalone utility for comparing
/// alignments under this objective.
pub fn quasi_natural_score(columns: &[Column3], scoring: &Scoring) -> i32 {
    let open = scoring.gap.open_penalty();
    let extend = scoring.gap.extend_penalty();
    let mut prev: Option<Move> = None;
    let mut score = 0i32;
    for col in columns {
        let m = Move {
            da: col[0].is_some(),
            db: col[1].is_some(),
            dc: col[2].is_some(),
        };
        assert!(m.arity() > 0, "all-gap column has no move");
        for (p, &(x, y)) in PAIRS.iter().enumerate() {
            if orient(m, p) == Orient::Aligned {
                score += scoring.sub(col[x].unwrap(), col[y].unwrap());
            }
        }
        score += gap_pairs(m) * extend + open_pairs(prev, m) * open;
        prev = Some(m);
    }
    score
}

/// The 4-dimensional affine lattice: per cell, the best score of an
/// alignment whose final column used each of the seven moves.
pub struct AffineLattice {
    scores: Vec<i32>,
    extents: Extents,
}

impl AffineLattice {
    #[inline(always)]
    fn idx(&self, i: usize, j: usize, k: usize, m: usize) -> usize {
        self.extents.index(i, j, k) * NUM_STATES + m
    }

    fn at(&self, i: usize, j: usize, k: usize, m: usize) -> i32 {
        self.scores[self.idx(i, j, k, m)]
    }

    /// Best score over final states at the terminal cell.
    pub fn final_score(&self) -> i32 {
        let e = self.extents;
        if e.cells() == 1 {
            return 0; // three empty sequences
        }
        (0..NUM_STATES)
            .map(|m| self.at(e.n1, e.n2, e.n3, m))
            .max()
            .expect("seven states")
    }

    /// Bytes of score storage.
    pub fn memory_bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<i32>()
    }
}

/// Shared per-problem context of the affine recurrence: residues and the
/// precomputed transition tables.
struct AffineKernel<'s> {
    ra: &'s [u8],
    rb: &'s [u8],
    rc: &'s [u8],
    scoring: &'s Scoring,
    /// `open_cost[prev][cur]`; `prev == NUM_STATES` is the virtual START.
    open_cost: [[i32; NUM_STATES]; NUM_STATES + 1],
    extend_cost: [i32; NUM_STATES],
}

impl<'s> AffineKernel<'s> {
    fn new(a: &'s Seq, b: &'s Seq, c: &'s Seq, scoring: &'s Scoring) -> Self {
        let open = scoring.gap.open_penalty();
        let extend = scoring.gap.extend_penalty();
        let mut open_cost = [[0i32; NUM_STATES]; NUM_STATES + 1];
        for (mi, &m) in MOVES.iter().enumerate() {
            for (pi, &mp) in MOVES.iter().enumerate() {
                open_cost[pi][mi] = open_pairs(Some(mp), m) * open;
            }
            open_cost[NUM_STATES][mi] = open_pairs(None, m) * open;
        }
        let extend_cost: [i32; NUM_STATES] =
            std::array::from_fn(|mi| gap_pairs(MOVES[mi]) * extend);
        AffineKernel {
            ra: a.residues(),
            rb: b.residues(),
            rc: c.residues(),
            scoring,
            open_cost,
            extend_cost,
        }
    }

    /// Substitution contribution of entering `(i, j, k)` via `m`.
    #[inline]
    fn subs(&self, i: usize, j: usize, k: usize, m: Move) -> i32 {
        let mut subs = 0i32;
        if m.da && m.db {
            subs += self.scoring.sub(self.ra[i - 1], self.rb[j - 1]);
        }
        if m.da && m.dc {
            subs += self.scoring.sub(self.ra[i - 1], self.rc[k - 1]);
        }
        if m.db && m.dc {
            subs += self.scoring.sub(self.rb[j - 1], self.rc[k - 1]);
        }
        subs
    }

    /// Compute all seven state values of cell `(i, j, k)`. `get(p, q, r,
    /// state)` must return the already-computed value of a predecessor
    /// cell's state (cells on earlier planes / smaller lexicographic
    /// positions).
    fn cell_states(
        &self,
        i: usize,
        j: usize,
        k: usize,
        get: impl Fn(usize, usize, usize, usize) -> i32,
    ) -> [i32; NUM_STATES] {
        let mut out = [NEG_INF; NUM_STATES];
        if (i, j, k) == (0, 0, 0) {
            return out;
        }
        for (mi, &m) in MOVES.iter().enumerate() {
            if (m.da && i == 0) || (m.db && j == 0) || (m.dc && k == 0) {
                continue;
            }
            let (pi_, pj_, pk_) = (
                i - usize::from(m.da),
                j - usize::from(m.db),
                k - usize::from(m.dc),
            );
            let base = self.subs(i, j, k, m) + self.extend_cost[mi];
            let best_prev = if (pi_, pj_, pk_) == (0, 0, 0) {
                self.open_cost[NUM_STATES][mi]
            } else {
                let mut best = NEG_INF;
                for mp in 0..NUM_STATES {
                    let pv = get(pi_, pj_, pk_, mp);
                    if pv > NEG_INF / 2 {
                        best = best.max(pv + self.open_cost[mp][mi]);
                    }
                }
                best
            };
            if best_prev > NEG_INF / 2 {
                out[mi] = base + best_prev;
            }
        }
        out
    }
}

/// Fill the affine lattice sequentially (lexicographic order), polling
/// `cancel` once per `i`-slab; a fired token aborts the sweep with the
/// lattice cells completed so far.
pub fn fill(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    cancel: &CancelToken,
) -> Result<AffineLattice, CancelProgress> {
    let kernel = AffineKernel::new(a, b, c, scoring);
    let (n1, n2, n3) = (a.len(), b.len(), c.len());
    let e = Extents::new(n1, n2, n3);
    let mut lat = AffineLattice {
        scores: vec![NEG_INF; e.cells() * NUM_STATES],
        extents: e,
    };
    for i in 0..=n1 {
        if cancel.should_stop() {
            return Err(CancelProgress {
                cells_done: e.index(i, 0, 0) as u64,
                cells_total: e.cells() as u64,
            });
        }
        for j in 0..=n2 {
            for k in 0..=n3 {
                let states = kernel.cell_states(i, j, k, |pi, pj, pk, mp| {
                    lat.scores[e.index(pi, pj, pk) * NUM_STATES + mp]
                });
                let base = e.index(i, j, k) * NUM_STATES;
                lat.scores[base..base + NUM_STATES].copy_from_slice(&states);
            }
        }
    }
    Ok(lat)
}

/// Optimal quasi-natural affine alignment with traceback.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Alignment3 {
    traceback(&uncancelled(a, b, c, scoring), a, b, c, scoring)
}

/// Trace one optimal path through a filled affine lattice.
pub(crate) fn traceback(
    lat: &AffineLattice,
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
) -> Alignment3 {
    let e = lat.extents;
    let (ra, rb, rc) = (a.residues(), b.residues(), c.residues());
    let open = scoring.gap.open_penalty();
    let extend = scoring.gap.extend_penalty();

    let score = lat.final_score();
    let mut columns: Vec<Column3> = Vec::with_capacity(e.n1 + e.n2 + e.n3);
    let (mut i, mut j, mut k) = (e.n1, e.n2, e.n3);
    if (i, j, k) == (0, 0, 0) {
        return Alignment3::new(columns, 0);
    }
    let mut mi = (0..NUM_STATES)
        .find(|&m| lat.at(i, j, k, m) == score)
        .expect("final state");

    loop {
        let m = MOVES[mi];
        columns.push([
            m.da.then(|| ra[i - 1]),
            m.db.then(|| rb[j - 1]),
            m.dc.then(|| rc[k - 1]),
        ]);
        let (pi_, pj_, pk_) = (
            i - usize::from(m.da),
            j - usize::from(m.db),
            k - usize::from(m.dc),
        );
        if (pi_, pj_, pk_) == (0, 0, 0) {
            break;
        }
        // Recompute this cell's base to identify the predecessor state.
        let mut subs = 0i32;
        if m.da && m.db {
            subs += scoring.sub(ra[i - 1], rb[j - 1]);
        }
        if m.da && m.dc {
            subs += scoring.sub(ra[i - 1], rc[k - 1]);
        }
        if m.db && m.dc {
            subs += scoring.sub(rb[j - 1], rc[k - 1]);
        }
        let base = subs + gap_pairs(m) * extend;
        let want = lat.at(i, j, k, mi) - base;
        let prev = (0..NUM_STATES)
            .find(|&mp| {
                let pv = lat.at(pi_, pj_, pk_, mp);
                pv > NEG_INF / 2 && pv + open_pairs(Some(MOVES[mp]), m) * open == want
            })
            .expect("broken affine traceback");
        (i, j, k, mi) = (pi_, pj_, pk_, prev);
    }
    columns.reverse();
    Alignment3::new(columns, score)
}

/// Optimal quasi-natural affine score.
pub fn align_score(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
    uncancelled(a, b, c, scoring).final_score()
}

fn uncancelled(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> AffineLattice {
    fill(a, b, c, scoring, &CancelToken::never()).expect("a never-firing token cannot cancel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::test_util::random_triple;
    use tsa_scoring::GapModel;

    fn affine(open: i32, extend: i32) -> Scoring {
        Scoring::dna_default().with_gap(GapModel::affine(open, extend))
    }

    /// Brute force: enumerate every move sequence and score it with the
    /// quasi-natural oracle.
    #[allow(clippy::too_many_arguments)]
    fn brute_force(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
        fn go(
            a: &[u8],
            b: &[u8],
            c: &[u8],
            i: usize,
            j: usize,
            k: usize,
            cols: &mut Vec<Column3>,
            scoring: &Scoring,
            best: &mut i32,
        ) {
            if i == a.len() && j == b.len() && k == c.len() {
                *best = (*best).max(quasi_natural_score(cols, scoring));
                return;
            }
            for da in 0..=usize::from(i < a.len()) {
                for db in 0..=usize::from(j < b.len()) {
                    for dc in 0..=usize::from(k < c.len()) {
                        if da + db + dc == 0 {
                            continue;
                        }
                        cols.push([
                            (da == 1).then(|| a[i]),
                            (db == 1).then(|| b[j]),
                            (dc == 1).then(|| c[k]),
                        ]);
                        go(a, b, c, i + da, j + db, k + dc, cols, scoring, best);
                        cols.pop();
                    }
                }
            }
        }
        let mut best = i32::MIN;
        if a.is_empty() && b.is_empty() && c.is_empty() {
            return 0;
        }
        go(
            a.residues(),
            b.residues(),
            c.residues(),
            0,
            0,
            0,
            &mut Vec::new(),
            scoring,
            &mut best,
        );
        best
    }

    #[test]
    fn matches_brute_force_on_tiny_inputs() {
        let sc = affine(-5, -1);
        for seed in 0..12 {
            let (a, b, c) = random_triple(seed, 3);
            let got = align_score(&a, &b, &c, &sc);
            let want = brute_force(&a, &b, &c, &sc);
            assert_eq!(got, want, "seed {seed}: {a:?} {b:?} {c:?}");
        }
    }

    #[test]
    fn zero_open_reduces_to_linear_dp() {
        let sc0 = affine(0, -2);
        let lin = Scoring::dna_default(); // linear gap -2
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed + 30, 8);
            assert_eq!(
                align_score(&a, &b, &c, &sc0),
                full::align_score(&a, &b, &c, &lin),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn alignment_validates_and_rescores_under_quasi_natural() {
        let sc = affine(-6, -1);
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed + 70, 8);
            let al = align(&a, &b, &c, &sc);
            al.validate(&a, &b, &c)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                quasi_natural_score(&al.columns, &sc),
                al.score,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn expensive_open_groups_gaps() {
        let sc = affine(-20, -1);
        let a = Seq::dna("AAAATTTTGGGG").unwrap();
        let b = Seq::dna("AAAAGGGG").unwrap();
        let c = Seq::dna("AAAAGGGG").unwrap();
        let al = align(&a, &b, &c, &sc);
        al.validate(&a, &b, &c).unwrap();
        // The TTTT block should be deleted as one run in B and C: B-gap and
        // C-gap columns contiguous.
        let gap_cols: Vec<usize> = al
            .columns
            .iter()
            .enumerate()
            .filter_map(|(idx, col)| (col[1].is_none() && col[2].is_none()).then_some(idx))
            .collect();
        assert_eq!(gap_cols.len(), 4, "{}", al.pretty());
        assert!(
            gap_cols.windows(2).all(|w| w[1] == w[0] + 1),
            "{}",
            al.pretty()
        );
    }

    #[test]
    fn empty_inputs() {
        let sc = affine(-4, -1);
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        assert_eq!(align_score(&e, &e, &e, &sc), 0);
        assert!(align(&e, &e, &e, &sc).is_empty());
        // A alone: each residue vs two gap pairs; one run per pair:
        // 2 opens + 3 residues × 2 extends = -8 - 6 = -14.
        assert_eq!(align_score(&a, &e, &e, &sc), 2 * -4 + -6);
        let al = align(&a, &e, &e, &sc);
        al.validate(&a, &e, &e).unwrap();
    }

    #[test]
    fn affine_never_beats_zero_open() {
        let sc = affine(-7, -2);
        let sc0 = affine(0, -2);
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 200, 6);
            assert!(align_score(&a, &b, &c, &sc) <= align_score(&a, &b, &c, &sc0));
        }
    }

    #[test]
    fn quasi_natural_oracle_examples() {
        let sc = affine(-10, -1);
        let col = |s: &str| -> Column3 {
            let v: Vec<Option<u8>> = s
                .chars()
                .map(|ch| (ch != '-').then_some(ch as u8))
                .collect();
            [v[0], v[1], v[2]]
        };
        // (A,A,A) then (A,A,-): the C-pairs open once each at column 2.
        let cols = [col("AAA"), col("AA-")];
        // col1: 3 subs = 6. col2: sub(A,A)=2, AC & BC gapped: 2 extends
        // (−2), 2 opens (−20).
        assert_eq!(quasi_natural_score(&cols, &sc), 6 + 2 - 2 - 20);
        // Extending the C gap pays no second open.
        let cols = [col("AAA"), col("AA-"), col("AA-")];
        assert_eq!(quasi_natural_score(&cols, &sc), (6 + (2 - 2 - 20)));
    }

    #[test]
    fn memory_is_seven_cubes() {
        let (a, b, c) = random_triple(1, 5);
        let lat = fill(&a, &b, &c, &affine(-4, -1), &CancelToken::never()).unwrap();
        assert_eq!(
            lat.memory_bytes(),
            (a.len() + 1) * (b.len() + 1) * (c.len() + 1) * 7 * 4
        );
    }
}
