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
//! other two optima: `through_AB(i, j) ≥ L − U_AC − U_BC`,
//! `through_AC(i, k) ≥ L − U_AB − U_BC` and
//! `through_BC(j, k) ≥ L − U_AB − U_AC`. Each row of each through matrix
//! reduces to the hull of the entries passing its test, one matrix at a
//! time: per `i` the hull of such `j`, and the hull of such `k`; per `j`
//! the hull of such `k`. A row `(i, j)` with `j` outside `i`'s `j`-hull
//! keeps nothing; every other one keeps the intersection of its two
//! `k`-hulls. That leaves one `k`-interval per `(i, j)` row, holding
//! every kept cell, built when the sweep reaches slab `i`; [`crate::sweep`]'s
//! sparse slab sweep stores the intervals and fills them with the SIMD
//! slab rows. An alignment keeps every slab for its traceback; a score
//! rolls two.
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
//! dense SIMD slab rows. The intervals' cells are counted in `O(n1·n2)`
//! before any cell of the cube is computed; past a measured break-even
//! ([`FALLBACK_SHARE`] of the lattice's bytes for an alignment's store,
//! [`SCORE_SHARE`] of the cube for a score) the run drops the bounds and
//! sweeps densely: the dense lattice for an alignment, the rolling slab
//! sweep for a score. Thin cubes, lopsided triples whose bounds would
//! cost a large share of the cube ([`BOUNDS_SHARE`]), skip the bounds at
//! once. The input alone decides.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::checkpoint::DurableStop;
use crate::full::{self, Scores};
use crate::kernel::{Profiles, SimdKernel};
use crate::sweep::{self, Order, Span, SparseSlabs, Sweep};
use tsa_scoring::sp::pair_score;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// The share of the dense lattice's bytes an alignment's sparse store may
/// take: past it the dense SIMD lattice runs instead. The store holds the
/// kept cells (4 bytes each) and one 12-byte span per `(i, j)` row, so
/// short rows (a short third sequence) pay a larger fixed share.
///
/// Measured on a 2-core AVX2 host (release build, `auto` kernel, median
/// of 7 to 11, bounds and traceback included) with the fallback disabled,
/// against the dense lattice plus its traceback, by store share, on random
/// DNA and BLOSUM62 protein triples of 18 shapes past the thin-cube rule
/// ([`BOUNDS_SHARE`]), 40³ to 20×600×600, and DNA families at n 40–64:
/// the sparse sweep took 0.17–0.78× the dense time up to 32%, 0.51–0.97×
/// from 32% to 40%, and 0.53–1.12× from 40% to 52% (1.04–1.12× on three
/// unrelated 20×100×40 triples, 42–46%).
pub const FALLBACK_SHARE: f64 = 0.4;

/// The share of the cube a score's kept intervals may hold: past it the
/// rolling slab sweep runs instead.
///
/// Measured on a 2-core AVX2 host (release build, `auto` kernel, median
/// of 7 to 11) with the fallback disabled, the bounds plus the rolling
/// sparse sweep against the rolling slab sweep, over random DNA and
/// BLOSUM62 protein triples of 18 shapes past the thin-cube rule
/// ([`BOUNDS_SHARE`]), 40³ to 20×600×600, and DNA families at n 40–64:
/// the pruned score took 0.18–0.81× the slab sweep's time up to 30% kept,
/// and 0.69–1.17× from 30% to 46% (above 1 only on unrelated 20×100×40
/// triples, 35–39% kept).
pub const SCORE_SHARE: f64 = 0.3;

/// The bounds phase's pairwise cell updates, as a share of the cube, past
/// which a lopsided triple (one sequence under half as long as another)
/// skips the bounds and sweeps densely at once: on such thin cubes the
/// bounds cost as much as the cells they could prune, and the gaps the
/// lengths force leave them little to prune.
///
/// Measured on a 2-core AVX2 host (release build, `auto` kernel, median
/// of 7): the bounds alone took 14–32% of the dense lattice's time on the
/// lopsided 9×120×30, 12×80×24 and 16×200×30 (their pairwise cells 23–32%
/// of the cube), whose random triples kept 19–50% of the cube, so a run
/// that fell back there cost 1.14–1.32× the dense sweep; on every shape at
/// or below a fifth (cubes from n = 39 on, up to 20×600×600) they took
/// 8–20%. Small cubes of similar lengths pass a fifth too (8/(n+1) at n³)
/// but keep little: random 24³ and 32³ DNA triples 7–23%, DNA families at
/// n 16–32 0.4–21%, pruned at 0.22–0.71× the dense time.
pub const BOUNDS_SHARE: f64 = 0.2;

/// What one Carrillo–Lipman run computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pruning {
    /// Cells of the whole lattice.
    pub cube: u64,
    /// `(i, j)` rows, one span each in an alignment's sparse store.
    pub rows: u64,
    /// Cells the kept intervals hold; `None` when the run swept densely
    /// instead: a thin cube (see [`BOUNDS_SHARE`]), or intervals past the
    /// break-even share ([`FALLBACK_SHARE`] of an alignment's lattice
    /// bytes, [`SCORE_SHARE`] of a score's cube).
    pub kept: Option<u64>,
}

impl Pruning {
    /// Nothing kept yet: the dense sweep's figures.
    fn of(a: &Seq, b: &Seq, c: &Seq) -> Pruning {
        let rows = ((a.len() + 1) * (b.len() + 1)) as u64;
        Pruning {
            cube: rows * (c.len() + 1) as u64,
            rows,
            kept: None,
        }
    }

    /// The dense sweep ran instead of the sparse one.
    pub fn fallback(&self) -> bool {
        self.kept.is_none()
    }

    /// Cells the run computed: the kept cells, or the whole lattice after
    /// a fallback.
    pub fn cells(&self) -> u64 {
        self.kept.unwrap_or(self.cube)
    }

    /// Bytes of an alignment's sparse store, the kept cells plus the
    /// spans; `None` after a fallback.
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
    const CELL: u64 = std::mem::size_of::<i32>() as u64;
    let mut pruning = Pruning::of(a, b, c);
    // The spans index their cells with `u32` offsets.
    let fits = |kept: usize| {
        pruning.cube <= u64::from(u32::MAX) && {
            let store = Pruning {
                kept: Some(kept as u64),
                ..pruning
            };
            let budget = FALLBACK_SHARE * (pruning.cube * CELL) as f64;
            store
                .store_bytes()
                .is_some_and(|bytes| bytes as f64 <= budget)
        }
    };
    let pruned = (!thin(a, b, c)).then(|| {
        let prof = Profiles::new(scoring, a.residues(), b.residues(), c.residues());
        let pruned = bounds(a, b, c, scoring, &prof);
        fits(pruned.1.kept).then_some((prof, pruned))
    });
    let Some((prof, (bounds, census))) = pruned.flatten() else {
        let lat = sweep::fill_lattice(a, b, c, scoring, kernel, cancel)?;
        return Ok((full::traceback(&lat, a, b, c, scoring), pruning));
    };
    pruning.kept = Some(census.kept as u64);
    let slabs = SparseSlabs::All { kept: census.kept };
    let interval = |i, j| bounds.interval(i, j);
    let lat = sweep::fill_sparse(a, b, c, scoring, &prof, kernel, slabs, interval, cancel)?;
    Ok((full::traceback(&lat, a, b, c, scoring), pruning))
}

/// The optimal score alone, by the same bounds over two rolling sparse
/// slabs, or the rolling slab sweep past [`SCORE_SHARE`] of the cube
/// kept, on thin cubes ([`BOUNDS_SHARE`]) and where the bounds phase's
/// largest pairwise matrix would pass the slab sweep's two slabs.
pub fn score(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
) -> Result<(i32, Pruning), CancelProgress> {
    let sweep = Sweep::new(Order::Slabs, kernel).cancel(cancel);
    score_sweep(a, b, c, scoring, &sweep).map_err(|stop| match stop {
        DurableStop::Cancelled(p) => p,
        other => unreachable!("a sweep without checkpoints stopped: {other}"),
    })
}

/// The optimal score under `sweep`'s kernel and cancel token: the bounds,
/// then each slab's kept intervals, built when the sweep reaches the slab,
/// over two rolling sparse slabs. Thin cubes, intervals past
/// [`SCORE_SHARE`] of the cube, rolling slabs past the slab sweep's bytes
/// and lengths whose bounds phase would pass them ([`fits_slab_sweep`])
/// run `sweep` (a slab sweep) instead, which checkpoints and resumes as
/// usual; a snapshot to resume from means an earlier run fell back, so it
/// resumes at once. The pruned sweep writes no snapshot.
pub(crate) fn score_sweep(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    sweep: &Sweep<'_>,
) -> Result<(i32, Pruning), DurableStop> {
    const CELL: usize = std::mem::size_of::<i32>();
    debug_assert_eq!(sweep.order, Order::Slabs);
    let mut pruning = Pruning::of(a, b, c);
    let (n1, n2, n3) = (a.len(), b.len(), c.len());
    let slab = (n2 + 1) * (n3 + 1);
    // Two rolling slabs of spans and kept cells, within the slab sweep's
    // two dense slabs.
    let fits = |census: &Census| {
        let rolling = 2 * ((n2 + 1) * std::mem::size_of::<Span>() + census.slab * CELL);
        census.kept as f64 <= SCORE_SHARE * pruning.cube as f64
            && rolling <= 2 * slab * CELL
            && 2 * census.slab <= u32::MAX as usize
    };
    let resuming = sweep.checkpoint.is_some_and(|ck| ck.resume.is_some());
    let pruned = if resuming || thin(a, b, c) || !fits_slab_sweep(n1, n2, n3) {
        None
    } else {
        let prof = Profiles::new(scoring, a.residues(), b.residues(), c.residues());
        let pruned = bounds(a, b, c, scoring, &prof);
        fits(&pruned.1).then_some((prof, pruned))
    };
    let Some((prof, (bounds, census))) = pruned else {
        return Ok((sweep.score(a, b, c, scoring)?, pruning));
    };
    pruning.kept = Some(census.kept as u64);
    let never = CancelToken::never();
    let slabs = SparseSlabs::Rolling {
        slab: census.slab,
        kept: census.kept,
    };
    let interval = |i, j| bounds.interval(i, j);
    let cancel = sweep.cancel.unwrap_or(&never);
    let lat = sweep::fill_sparse(
        a,
        b,
        c,
        scoring,
        &prof,
        sweep.kernel,
        slabs,
        interval,
        cancel,
    )
    .map_err(DurableStop::Cancelled)?;
    Ok((lat.score_at(n1, n2, n3), pruning))
}

/// Whether a score's bounds phase fits the slab sweep's two
/// `(n2+1)(n3+1)` slabs: it holds one pairwise matrix at a time, the
/// largest of the three. Lengths that fail this keep the slab sweep, so a
/// score's plan never prices more than the slab sweep does.
pub(crate) fn fits_slab_sweep(n1: usize, n2: usize, n3: usize) -> bool {
    (n1 + 1) * (n2 + 1).max(n3 + 1) <= 2 * (n2 + 1) * (n3 + 1)
}

/// The bound of the module docs reduced to one hull per row of each
/// through matrix: inclusive `(lo, hi)`, empty when `lo > hi`.
struct Bounds {
    /// The `j`-hull of `through_AB` per `i`, then the `k`-hulls of
    /// `through_AC` per `i`, then those of `through_BC` per `j`.
    hulls: Vec<(u32, u32)>,
    n1: usize,
}

/// A hull that keeps nothing: it intersects every other to nothing.
const EMPTY: (u32, u32) = (u32::MAX, 0);

/// The kept cells of the intervals, in all and in the largest slab.
#[derive(Debug, Clone, Copy)]
struct Census {
    kept: usize,
    slab: usize,
}

impl Bounds {
    /// The kept `k`-interval `(lo, len)` of row `(i, j)`: the intersection
    /// of its two `k`-hulls when `j` lies in `i`'s `j`-hull.
    #[inline]
    fn interval(&self, i: usize, j: usize) -> (usize, usize) {
        let w = self.n1 + 1;
        let (jl, jh) = self.hulls[i];
        if j < jl as usize || j > jh as usize {
            return (0, 0);
        }
        let ((l1, h1), (l2, h2)) = (self.hulls[w + i], self.hulls[2 * w + j]);
        let (lo, hi) = (l1.max(l2), h1.min(h2));
        if lo > hi {
            (0, 0)
        } else {
            (lo as usize, (hi - lo + 1) as usize)
        }
    }

    /// The intervals' cells, in `O(n1·n2)`: what decides the fallback
    /// before any cell of the cube is computed.
    fn census(&self) -> Census {
        let mut census = Census { kept: 0, slab: 0 };
        for i in 0..=self.n1 {
            let (jl, jh) = self.hulls[i];
            let slab: usize = (jl..=jh).map(|j| self.interval(i, j as usize).1).sum();
            census.kept += slab;
            census.slab = census.slab.max(slab);
        }
        census
    }
}

/// Pairwise moves of a traceback path.
const DIAG: u8 = 0;
/// The first sequence's residue against a gap.
const UP: u8 = 1;
/// The second sequence's residue against a gap.
const LEFT: u8 = 2;

/// A thin cube: a lopsided triple (one sequence under half as long as
/// another, so the gaps it forces leave the bound little to prune) whose
/// bounds phase's pairwise cell updates pass [`BOUNDS_SHARE`] of the
/// cube; or lengths past the `u32` positions of the hulls and spans. No
/// bounds are computed.
fn thin(a: &Seq, b: &Seq, c: &Seq) -> bool {
    let lens = [a, b, c].map(|s| s.len() + 1);
    let lopsided = 2 * lens[0].min(lens[1]).min(lens[2]) < lens[0].max(lens[1]).max(lens[2]);
    let [n1, n2, n3] = lens.map(|n| n as f64);
    let pairwise = 3.0 * n1 * n2 + 3.0 * n1 * n3 + 2.0 * n2 * n3;
    (lopsided && pairwise > BOUNDS_SHARE * n1 * n2 * n3)
        || u32::try_from(b.len().max(c.len())).is_err()
}

/// The bound's hulls and their census.
///
/// One pairwise matrix lives at a time, in one buffer. Forward matrices of
/// AB, AC and BC give the pairwise optima and canonical paths, and the
/// seed `L`, the best center-star merge over all three centers, scored
/// straight off the paths. BC's forward matrix is still in the buffer;
/// AC's and AB's are filled again. For each, the backward DP runs one row
/// at a time from the far corner, and each row of `forward + backward` (the
/// through matrix) reduces at once to the hull of the entries that clear
/// the floor `L` less the other two optima. A handful of allocations: the
/// matrix, one backward row, the paths, the hulls.
fn bounds(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, prof: &Profiles) -> (Bounds, Census) {
    let (n1, n2, n3) = (a.len() + 1, b.len() + 1, c.len() + 1);
    let g = scoring.gap_linear();
    let (ra, rb, rc) = (a.residues(), b.residues(), c.residues());
    // (first sequence, second's length, profile of a first residue).
    let ab = Pair::new(ra, rb.len(), prof, Profiles::ab);
    let ac = Pair::new(ra, rc.len(), prof, Profiles::ac);
    let bc = Pair::new(rb, rc.len(), prof, Profiles::bc);
    let mut matrix = Vec::with_capacity((n1 * n2).max(n1 * n3).max(n2 * n3));
    let mut paths = Vec::with_capacity(2 * (n1 + n2 + n3));
    let mut ends = [0; 3];
    let mut optima = [0; 3];
    for (p, pair) in [&ab, &ac, &bc].into_iter().enumerate() {
        pair.forward(&mut matrix, g);
        optima[p] = *matrix.last().expect("the origin at least");
        pair.trace(&matrix, g, &mut paths);
        ends[p] = paths.len();
    }
    let path = |p: usize| &paths[if p == 0 { 0 } else { ends[p - 1] }..ends[p]];
    let seqs = [ra, rb, rc];
    let lower = (0..3)
        .map(|center| merged_score(scoring, seqs, [path(0), path(1), path(2)], center))
        .max()
        .expect("three centers");
    let [u_ab, u_ac, u_bc] = optima;
    let mut hulls = vec![EMPTY; 2 * n1 + n2];
    let mut row = Vec::with_capacity(n2.max(n3));
    let (h_ab, rest) = hulls.split_at_mut(n1);
    let (h_ac, h_bc) = rest.split_at_mut(n1);
    bc.hulls(&matrix, g, lower - u_ab - u_ac, &mut row, h_bc);
    ac.forward(&mut matrix, g);
    ac.hulls(&matrix, g, lower - u_ab - u_bc, &mut row, h_ac);
    ab.forward(&mut matrix, g);
    ab.hulls(&matrix, g, lower - u_ac - u_bc, &mut row, h_ab);
    let bounds = Bounds { hulls, n1: a.len() };
    let census = bounds.census();
    (bounds, census)
}

/// One pair of the bound: the first sequence's residues, the second's
/// length, and the substitution profile of a first-sequence residue
/// against the whole second sequence.
struct Pair<'a> {
    x: &'a [u8],
    ny: usize,
    prof: &'a Profiles,
    row: fn(&Profiles, u8) -> &[i32],
}

impl<'a> Pair<'a> {
    fn new(x: &'a [u8], ny: usize, prof: &'a Profiles, row: fn(&Profiles, u8) -> &[i32]) -> Self {
        Pair { x, ny, prof, row }
    }

    /// `sub(r, y[j])` at index `j`.
    #[inline(always)]
    fn sub(&self, r: u8) -> &'a [i32] {
        (self.row)(self.prof, r)
    }

    /// The forward matrix `F(i, j)`, the best score of `x[..i]` against
    /// `y[..j]`, row-major into `m`. Each row takes the diagonal and
    /// vertical moves in one vectorizable pass, then the horizontal ones.
    fn forward(&self, m: &mut Vec<i32>, g: i32) {
        let w = self.ny + 1;
        m.clear();
        m.resize((self.x.len() + 1) * w, 0);
        for (j, v) in m[..w].iter_mut().enumerate() {
            *v = j as i32 * g;
        }
        for (i, &xi) in self.x.iter().enumerate() {
            let p = &self.sub(xi)[..self.ny];
            let (done, rest) = m.split_at_mut((i + 1) * w);
            let (prev, cur) = (&done[i * w..], &mut rest[..w]);
            cur[0] = (i as i32 + 1) * g;
            for ((v, s), (diag, up)) in cur[1..].iter_mut().zip(p).zip(prev.iter().zip(&prev[1..]))
            {
                *v = (diag + s).max(up + g);
            }
            for j in 1..w {
                cur[j] = cur[j].max(cur[j - 1] + g);
            }
        }
    }

    /// Append the canonical optimal path through the forward matrix, last
    /// move first; ties go diagonal, then up, then left, as
    /// `tsa_pairwise::nw::traceback` breaks them.
    fn trace(&self, m: &[i32], g: i32, path: &mut Vec<u8>) {
        let w = self.ny + 1;
        let (mut i, mut j) = (self.x.len(), self.ny);
        while i > 0 || j > 0 {
            let v = m[i * w + j];
            if i > 0 && j > 0 && v == m[(i - 1) * w + j - 1] + self.sub(self.x[i - 1])[j - 1] {
                path.push(DIAG);
                (i, j) = (i - 1, j - 1);
            } else if i > 0 && v == m[(i - 1) * w + j] + g {
                path.push(UP);
                i -= 1;
            } else {
                path.push(LEFT);
                j -= 1;
            }
        }
    }

    /// Run the backward DP `B(i, j)`, the best score of `x[i..]` against
    /// `y[j..]`, one row at a time from the far corner, and reduce each
    /// row of the through matrix `F + B` to the hull of its entries at or
    /// above `floor`.
    fn hulls(&self, m: &[i32], g: i32, floor: i32, row: &mut Vec<i32>, hulls: &mut [(u32, u32)]) {
        let (nx, ny, w) = (self.x.len(), self.ny, self.ny + 1);
        row.clear();
        row.extend((0..w).map(|j| (ny - j) as i32 * g));
        for i in (0..=nx).rev() {
            if i < nx {
                let p = self.sub(self.x[i]);
                // Ascending, row[j + 1] still holds B(i + 1, j + 1).
                for j in 0..ny {
                    row[j] = (row[j + 1] + p[j]).max(row[j] + g);
                }
                row[ny] = (nx - i) as i32 * g;
                for j in (0..ny).rev() {
                    row[j] = row[j].max(row[j + 1] + g);
                }
            }
            let forward = &m[i * w..][..w];
            let keep = |j: &usize| forward[*j] + row[*j] >= floor;
            hulls[i] = match (0..w).find(keep) {
                Some(lo) => {
                    let hi = (lo..w).rev().find(keep).expect("lo is kept");
                    (lo as u32, hi as u32)
                }
                None => EMPTY,
            };
        }
    }
}

/// The SP score of the center-star merge on `center` of two canonical
/// paths, one per pair `(center, other)` (`paths` holds AB, AC and BC,
/// last move first), without building the merge: its columns, in the
/// order `center_star::merged` emits them, scored as they go. Gap–gap
/// pairs score 0, so this is the merged alignment's rescore.
fn merged_score(scoring: &Scoring, seqs: [&[u8]; 3], paths: [&[u8]; 3], center: usize) -> i32 {
    let (x, y) = match center {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    // The path of (center, other) with the center as first sequence: a
    // pair stored the other way round swaps its one-sided moves.
    let moves = |other: usize| {
        let swap = center > other;
        paths[center + other - 1]
            .iter()
            .rev()
            .map(move |&m| match m {
                UP if swap => LEFT,
                LEFT if swap => UP,
                m => m,
            })
    };
    let (mut px, mut py) = (moves(x).peekable(), moves(y).peekable());
    let (sc, sx, sy) = (seqs[center], seqs[x], seqs[y]);
    let (mut ic, mut ix, mut iy) = (0, 0, 0);
    let column = |c: Option<u8>, x: Option<u8>, y: Option<u8>| {
        pair_score(scoring, c, x) + pair_score(scoring, c, y) + pair_score(scoring, x, y)
    };
    let mut score = 0;
    loop {
        match (px.peek().copied(), py.peek().copied()) {
            // The center gapped in X's path: an X-only column.
            (Some(LEFT), _) => {
                score += column(None, Some(sx[ix]), None);
                ix += 1;
                px.next();
            }
            // The center gapped in Y's path: a Y-only column.
            (_, Some(LEFT)) => {
                score += column(None, None, Some(sy[iy]));
                iy += 1;
                py.next();
            }
            // A center residue, in both paths.
            (Some(mx), Some(my)) => {
                let rx = (mx == DIAG).then(|| sx[ix]);
                let ry = (my == DIAG).then(|| sy[iy]);
                score += column(Some(sc[ic]), rx, ry);
                ix += usize::from(rx.is_some());
                iy += usize::from(ry.is_some());
                ic += 1;
                px.next();
                py.next();
            }
            (None, None) => return score,
            _ => unreachable!("both paths hold every center residue"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{family_triple, random_triple};
    use tsa_pairwise::nw;

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn pruned(a: &Seq, b: &Seq, c: &Seq) -> (Alignment3, Pruning) {
        align(a, b, c, &s(), SimdKernel::Auto, &CancelToken::never()).unwrap()
    }

    fn scored(a: &Seq, b: &Seq, c: &Seq) -> (i32, Pruning) {
        score(a, b, c, &s(), SimdKernel::Auto, &CancelToken::never()).unwrap()
    }

    /// The bounds over these sequences, thin cubes included.
    fn hulls(a: &Seq, b: &Seq, c: &Seq) -> (Bounds, Census) {
        let prof = Profiles::new(&s(), a.residues(), b.residues(), c.residues());
        bounds(a, b, c, &s(), &prof)
    }

    #[test]
    fn pruned_score_equals_full_dp() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 12);
            let (got, _) = scored(&a, &b, &c);
            assert_eq!(got, full::align_score(&a, &b, &c, &s()), "seed {seed}");
        }
        // Families at 48 stay pruned; their score is still exact.
        for seed in 0..6 {
            let (a, b, c) = family_triple(seed, 48);
            let (got, p) = scored(&a, &b, &c);
            assert!(!p.fallback(), "seed {seed}");
            assert_eq!(got, full::align_score(&a, &b, &c, &s()), "seed {seed}");
        }
    }

    #[test]
    fn pruned_alignment_is_canonical() {
        // Pruning must not change the canonical traceback: the optimal
        // path is fully computed, so the tie-break sees the same values.
        for seed in 0..8 {
            let (a, b, c) = family_triple(seed, 48);
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
        // The score keeps the same intervals.
        assert_eq!(scored(&a, &b, &c).1, p);
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
    fn wide_intervals_fall_back_to_the_dense_sweep() {
        // An unrelated triple, past the thin-cube rule, whose intervals
        // keep 39% of the cube (a 46% store): past both break-evens.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let (a, b, c) = (dna(20, 100), dna(100, 101), dna(40, 102));
        assert!(!thin(&a, &b, &c));
        let (_, census) = hulls(&a, &b, &c);
        let (aln, p) = pruned(&a, &b, &c);
        let share = census.kept as f64 / p.cube as f64;
        assert!(share > SCORE_SHARE, "kept {:.1}%", 100.0 * share);
        let store = Pruning {
            kept: Some(census.kept as u64),
            ..Pruning::of(&a, &b, &c)
        };
        let store_share = store.store_bytes().unwrap() as f64 / (4 * store.cube) as f64;
        assert!(
            store_share > FALLBACK_SHARE,
            "store {:.1}%",
            100.0 * store_share
        );
        assert_eq!(aln, full::align(&a, &b, &c, &s()));
        assert!(p.fallback());
        assert_eq!(p.cells(), p.cube);
        let (score, p) = scored(&a, &b, &c);
        assert_eq!((score, p.fallback()), (aln.score, true));
    }

    #[test]
    fn thin_cubes_skip_the_bounds() {
        // Lopsided triples whose bounds' pairwise cells pass a fifth of the
        // cube: both arms sweep densely without computing them. A small
        // cube of similar lengths passes a fifth too, but is not thin.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        for (n1, n2, n3) in [(9, 120, 30), (12, 80, 24), (16, 200, 30), (48, 8, 64)] {
            let (a, b, c) = (dna(n1, 1), dna(n2, 2), dna(n3, 3));
            assert!(thin(&a, &b, &c), "{n1}×{n2}×{n3}");
            let (aln, p) = pruned(&a, &b, &c);
            assert!(p.fallback());
            assert_eq!(aln, full::align(&a, &b, &c, &s()));
            assert_eq!(scored(&a, &b, &c), (aln.score, p));
        }
        let (a, b, c) = family_triple(4, 24);
        assert!(!thin(&a, &b, &c));
        let (aln, p) = pruned(&a, &b, &c);
        assert!(!p.fallback());
        assert_eq!(aln, full::align(&a, &b, &c, &s()));
    }

    #[test]
    fn intervals_hold_every_cell_the_bound_keeps() {
        // Brute force over every cell: a cell whose bound reaches the seed
        // must lie in its row's interval.
        for seed in 0..6 {
            let (a, b, c) = if seed % 2 == 0 {
                family_triple(seed, 40)
            } else {
                random_triple(seed, 40)
            };
            let (bounds, census) = hulls(&a, &b, &c);
            let through = |x: &Seq, y: &Seq| {
                let forward = nw::fill_matrix(x, y, &s());
                let backward = nw::fill_matrix(&x.reversed(), &y.reversed(), &s());
                let t: Vec<i32> = forward
                    .scores
                    .iter()
                    .zip(backward.scores.iter().rev())
                    .map(|(f, b)| f + b)
                    .collect();
                (t, y.len() + 1)
            };
            let at = |(t, w): &(Vec<i32>, usize), x: usize, y: usize| t[x * w + y];
            let (t_ab, t_ac, t_bc) = (through(&a, &b), through(&a, &c), through(&b, &c));
            let lower = center_star_seed(&a, &b, &c);
            let mut kept = 0;
            for i in 0..=a.len() {
                for j in 0..=b.len() {
                    let (lo, len) = bounds.interval(i, j);
                    kept += len;
                    for k in 0..=c.len() {
                        let ub = at(&t_ab, i, j) + at(&t_ac, i, k) + at(&t_bc, j, k);
                        let inside = (lo..lo + len).contains(&k);
                        assert!(ub < lower || inside, "seed {seed} ({i},{j},{k})");
                    }
                }
            }
            assert_eq!(kept, census.kept, "seed {seed}");
        }
    }

    /// The seed as `center_star::merged` builds it, from `nw` tracebacks.
    fn center_star_seed(a: &Seq, b: &Seq, c: &Seq) -> i32 {
        let seqs = [a, b, c];
        let pairs = [(0, 1), (0, 2), (1, 2)].map(|(x, y)| nw::align(seqs[x], seqs[y], &s()));
        (0..3)
            .map(|center| {
                crate::center_star::merged(&s(), center, |center, other| {
                    let aln = pairs[center + other - 1].clone();
                    if center < other {
                        aln
                    } else {
                        tsa_pairwise::PairAlignment {
                            row_a: aln.row_b,
                            row_b: aln.row_a,
                            score: aln.score,
                        }
                    }
                })
                .score
            })
            .max()
            .unwrap()
    }

    #[test]
    fn the_seed_is_the_best_center_star_merge() {
        for seed in 0..10 {
            let (a, b, c) = if seed % 2 == 0 {
                family_triple(seed, 30)
            } else {
                random_triple(seed, 30)
            };
            let prof = Profiles::new(&s(), a.residues(), b.residues(), c.residues());
            let g = s().gap_linear();
            let seqs = [a.residues(), b.residues(), c.residues()];
            let mut paths = Vec::new();
            let mut ends = [0; 3];
            let pairs = [(0, 1), (0, 2), (1, 2)];
            for (p, (x, y)) in pairs.into_iter().enumerate() {
                let row = [Profiles::ab, Profiles::ac, Profiles::bc][p];
                let pair = Pair::new(seqs[x], seqs[y].len(), &prof, row);
                let mut m = Vec::new();
                pair.forward(&mut m, g);
                assert_eq!(
                    m,
                    nw::fill_matrix([&a, &b, &c][x], [&a, &b, &c][y], &s()).scores
                );
                pair.trace(&m, g, &mut paths);
                ends[p] = paths.len();
            }
            let path = |p: usize| &paths[if p == 0 { 0 } else { ends[p - 1] }..ends[p]];
            let best = (0..3)
                .map(|center| merged_score(&s(), seqs, [path(0), path(1), path(2)], center))
                .max()
                .unwrap();
            assert_eq!(best, center_star_seed(&a, &b, &c), "seed {seed}");
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
            assert_eq!(scored(x, y, z).0, al.score);
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
            let p = score(a, b, c, &s(), SimdKernel::Auto, &token).unwrap_err();
            assert_eq!(p.cells_done, 0);
            assert!(p.cells_total > 0);
        }
    }

    #[test]
    fn score_bounds_fit_the_slab_sweep() {
        // One pairwise matrix at a time: the largest must fit two slabs.
        assert!(fits_slab_sweep(64, 64, 64));
        assert!(fits_slab_sweep(20, 600, 600));
        assert!(fits_slab_sweep(100, 50, 100));
        assert!(!fits_slab_sweep(100, 49, 100));
        assert!(!fits_slab_sweep(100, 100, 10));
        // A score job that fails it runs the slab sweep.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let (a, b, c) = (dna(60, 1), dna(60, 2), dna(12, 3));
        assert!(!fits_slab_sweep(a.len(), b.len(), c.len()));
        let (got, p) = scored(&a, &b, &c);
        assert!(p.fallback());
        assert_eq!(got, full::align_score(&a, &b, &c, &s()));
    }
}
