//! 3D anti-diagonal plane enumeration.
//!
//! For a `(n1+1) × (n2+1) × (n3+1)` DP lattice (indices `0..=n1` etc.), the
//! anti-diagonal plane `d = i + j + k` runs from `0` to `n1 + n2 + n3`.
//! Cells on a plane are mutually independent given planes `d−1`, `d−2`,
//! `d−3`: every DP predecessor `(i−δ₁, j−δ₂, k−δ₃)` with
//! `δ ∈ {0,1}³ \ {000}` lies on one of those three planes.

use crate::diag;

/// Extents of a 3D DP lattice: indices run `0..=n1`, `0..=n2`, `0..=n3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extents {
    /// First-axis sequence length.
    pub n1: usize,
    /// Second-axis sequence length.
    pub n2: usize,
    /// Third-axis sequence length.
    pub n3: usize,
}

impl Extents {
    /// Build extents from the three sequence lengths.
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        Extents { n1, n2, n3 }
    }

    /// Total number of lattice cells, `(n1+1)(n2+1)(n3+1)`.
    pub fn cells(&self) -> usize {
        (self.n1 + 1) * (self.n2 + 1) * (self.n3 + 1)
    }

    /// Number of *interior* cell updates, `n1·n2·n3` — the quantity MCUPS
    /// figures are conventionally normalized by.
    pub fn interior_cells(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// Number of anti-diagonal planes, `n1 + n2 + n3 + 1`. This is the
    /// critical-path length of the cell-level wavefront.
    pub fn num_planes(&self) -> usize {
        self.n1 + self.n2 + self.n3 + 1
    }

    /// Linear index of `(i, j, k)` in row-major (k fastest) order.
    #[inline(always)]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        (i * (self.n2 + 1) + j) * (self.n3 + 1) + k
    }

    /// Number of cells on plane `d`: the lengths of its rows, `O(n1)`.
    pub fn plane_len(&self, d: usize) -> usize {
        plane_rows(*self, d).map(|(_, lo, hi)| hi - lo + 1).sum()
    }

    /// The largest plane size — the maximum available parallelism of the
    /// cell-level wavefront. `O(n1 · (n1 + n2 + n3))`.
    pub fn max_plane_len(&self) -> usize {
        (0..self.num_planes())
            .map(|d| self.plane_len(d))
            .max()
            .unwrap_or(0)
    }
}

/// Iterate the `(i, j, k)` cells of plane `d` (increasing `i`, then `j`).
///
/// For each valid `i`, the valid `j` form a contiguous run determined by the
/// 2D diagonal `d − i` over axes 2 and 3, so enumeration is two nested
/// ranges with no per-cell branching.
pub fn plane_cells(e: Extents, d: usize) -> PlaneIter {
    let i_lo = d.saturating_sub(e.n2 + e.n3);
    let i_hi = d.min(e.n1);
    PlaneIter {
        e,
        d,
        i: i_lo,
        i_hi,
        j: 0,
        j_hi: 0,
        primed: false,
    }
}

/// Iterator over the cells of one anti-diagonal plane. See [`plane_cells`].
#[derive(Debug, Clone)]
pub struct PlaneIter {
    e: Extents,
    d: usize,
    i: usize,
    i_hi: usize,
    j: usize,
    j_hi: usize,
    primed: bool,
}

impl Iterator for PlaneIter {
    type Item = (usize, usize, usize);

    fn next(&mut self) -> Option<(usize, usize, usize)> {
        loop {
            if self.primed {
                if self.j <= self.j_hi {
                    let (i, j) = (self.i, self.j);
                    self.j += 1;
                    return Some((i, j, self.d - i - j));
                }
                self.primed = false;
                self.i += 1;
            }
            if self.i > self.i_hi || self.d > self.e.n1 + self.e.n2 + self.e.n3 {
                return None;
            }
            // j range for this i: the 2D diagonal d − i over (n2, n3).
            match diag::diag_i_range(self.e.n2, self.e.n3, self.d - self.i) {
                Some((lo, hi)) => {
                    self.j = lo;
                    self.j_hi = hi;
                    self.primed = true;
                }
                None => {
                    self.i += 1;
                }
            }
        }
    }
}

/// Collect the cells of plane `d` into a vector (convenience for executors
/// that want slices to `par_iter` over).
pub fn plane_cells_vec(e: Extents, d: usize) -> Vec<(usize, usize, usize)> {
    plane_cells(e, d).collect()
}

/// Iterate plane `d` as whole rows `(i, j_lo, j_hi)`: for each valid `i`,
/// the contiguous run of valid `j` (with `k = d − i − j` implied). This is
/// the unit the SIMD row kernels consume — every cell of a row reads its
/// seven predecessors at unit stride in `j`.
pub fn plane_rows(e: Extents, d: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let i_lo = d.saturating_sub(e.n2 + e.n3);
    let i_hi = d.min(e.n1);
    (i_lo..=i_hi).filter_map(move |i| {
        if d > e.n1 + e.n2 + e.n3 {
            return None;
        }
        diag::diag_i_range(e.n2, e.n3, d - i).map(|(lo, hi)| (i, lo, hi))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_plane(e: Extents, d: usize) -> Vec<(usize, usize, usize)> {
        let mut v = Vec::new();
        for i in 0..=e.n1 {
            for j in 0..=e.n2 {
                for k in 0..=e.n3 {
                    if i + j + k == d {
                        v.push((i, j, k));
                    }
                }
            }
        }
        v
    }

    #[test]
    fn planes_partition_the_lattice() {
        for (n1, n2, n3) in [(0, 0, 0), (1, 2, 3), (4, 4, 4), (5, 1, 0), (2, 7, 3)] {
            let e = Extents::new(n1, n2, n3);
            let total: usize = (0..e.num_planes()).map(|d| e.plane_len(d)).sum();
            assert_eq!(total, e.cells(), "{e:?}");
        }
    }

    #[test]
    fn iterator_matches_exhaustive_enumeration() {
        let e = Extents::new(3, 4, 2);
        for d in 0..e.num_planes() + 2 {
            let got = plane_cells_vec(e, d);
            let want = exhaustive_plane(e, d);
            assert_eq!(got, want, "plane {d}");
        }
    }

    #[test]
    fn rows_flatten_to_cells() {
        for (n1, n2, n3) in [(0, 0, 0), (3, 4, 2), (5, 1, 0), (2, 7, 3), (4, 4, 4)] {
            let e = Extents::new(n1, n2, n3);
            for d in 0..e.num_planes() + 2 {
                let from_rows: Vec<(usize, usize, usize)> = plane_rows(e, d)
                    .flat_map(|(i, lo, hi)| (lo..=hi).map(move |j| (i, j, d - i - j)))
                    .collect();
                assert_eq!(
                    from_rows,
                    plane_cells_vec(e, d),
                    "({n1},{n2},{n3}) plane {d}"
                );
            }
        }
    }

    #[test]
    fn first_and_last_planes_are_corners() {
        let e = Extents::new(3, 5, 4);
        assert_eq!(plane_cells_vec(e, 0), vec![(0, 0, 0)]);
        assert_eq!(plane_cells_vec(e, 12), vec![(3, 5, 4)]);
        assert_eq!(plane_cells_vec(e, 13), vec![]);
    }

    #[test]
    fn index_is_row_major_bijection() {
        let e = Extents::new(2, 3, 4);
        let mut seen = vec![false; e.cells()];
        for i in 0..=2 {
            for j in 0..=3 {
                for k in 0..=4 {
                    let idx = e.index(i, j, k);
                    assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(e.index(0, 0, 0), 0);
        assert_eq!(e.index(2, 3, 4), e.cells() - 1);
    }

    #[test]
    fn cell_counts() {
        let e = Extents::new(3, 4, 5);
        assert_eq!(e.cells(), 4 * 5 * 6);
        assert_eq!(e.interior_cells(), 3 * 4 * 5);
        assert_eq!(e.num_planes(), 13);
    }

    #[test]
    fn max_plane_len_for_cube() {
        // For an n×n×n cube the middle plane has the most cells.
        let e = Extents::new(4, 4, 4);
        let mid = e.plane_len(6);
        assert_eq!(e.max_plane_len(), mid);
        // A plane of a cube d=3n/2 has ~3n²/4 cells; exact check by sum.
        assert_eq!((0..e.num_planes()).map(|d| e.plane_len(d)).max(), Some(mid));
    }

    #[test]
    fn plane_len_sums_rows_like_the_enumeration() {
        for (n1, n2, n3) in [(0, 5, 9), (1, 1, 1), (3, 7, 2), (9, 120, 30)] {
            let e = Extents::new(n1, n2, n3);
            for d in 0..e.num_planes() + 2 {
                assert_eq!(
                    e.plane_len(d),
                    plane_cells(e, d).count(),
                    "({n1},{n2},{n3}) plane {d}"
                );
            }
        }
    }

    #[test]
    fn degenerate_axes() {
        let e = Extents::new(0, 0, 3);
        assert_eq!(e.num_planes(), 4);
        for d in 0..4 {
            assert_eq!(plane_cells_vec(e, d), vec![(0, 0, d)]);
        }
    }

    #[test]
    fn plane_cells_on_each_plane_have_correct_sum() {
        let e = Extents::new(5, 3, 6);
        for d in 0..e.num_planes() {
            for (i, j, k) in plane_cells(e, d) {
                assert_eq!(i + j + k, d);
                assert!(i <= 5 && j <= 3 && k <= 6);
            }
        }
    }
}
