//! Tile grids: coarse-grained decomposition of a 3D lattice.
//!
//! A [`TileGrid`] partitions the `(n1+1)(n2+1)(n3+1)` lattice into
//! axis-aligned blocks of up to `tile³` cells. Tile `(I, J, K)` depends on
//! its (up to seven) predecessor tiles `(I−δ₁, J−δ₂, K−δ₃)`; tiles on a
//! *tile plane* `D = I + J + K` are mutually independent. The coarse
//! wavefront trades parallelism (fewer independent units) for far fewer
//! barriers and much better cache behaviour inside each tile — experiment
//! `fig3` sweeps this trade-off.

use crate::plane::{plane_cells, Extents};

/// A partition of a 3D lattice into tiles of edge ≤ `tile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    extents: Extents,
    tile: usize,
    t1: usize,
    t2: usize,
    t3: usize,
}

impl TileGrid {
    /// Partition `extents` into tiles of edge `tile` (≥ 1).
    ///
    /// # Panics
    /// Panics if `tile == 0`.
    pub fn new(extents: Extents, tile: usize) -> Self {
        assert!(tile > 0, "tile edge must be positive");
        let t = |n: usize| (n + 1).div_ceil(tile);
        TileGrid {
            extents,
            tile,
            t1: t(extents.n1),
            t2: t(extents.n2),
            t3: t(extents.n3),
        }
    }

    /// The lattice this grid partitions.
    pub fn extents(&self) -> Extents {
        self.extents
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Tile counts along each axis.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.t1, self.t2, self.t3)
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.t1 * self.t2 * self.t3
    }

    /// Linear index of tile `(I, J, K)`.
    pub fn tile_index(&self, ti: usize, tj: usize, tk: usize) -> usize {
        (ti * self.t2 + tj) * self.t3 + tk
    }

    /// Tile coordinates from a linear index (inverse of [`Self::tile_index`]).
    pub fn tile_coords(&self, idx: usize) -> (usize, usize, usize) {
        let tk = idx % self.t3;
        let rest = idx / self.t3;
        (rest / self.t2, rest % self.t2, tk)
    }

    /// Inclusive cell range `[lo, hi]` covered by tile index `t` along an
    /// axis of length `n` (indices `0..=n`).
    fn axis_range(&self, t: usize, n: usize) -> (usize, usize) {
        let lo = t * self.tile;
        let hi = (lo + self.tile - 1).min(n);
        (lo, hi)
    }

    /// Inclusive `i`, `j`, `k` ranges of tile `(I, J, K)`.
    pub fn cell_ranges(
        &self,
        ti: usize,
        tj: usize,
        tk: usize,
    ) -> ((usize, usize), (usize, usize), (usize, usize)) {
        (
            self.axis_range(ti, self.extents.n1),
            self.axis_range(tj, self.extents.n2),
            self.axis_range(tk, self.extents.n3),
        )
    }

    /// Number of tile planes (`D = I + J + K` values).
    pub fn num_tile_planes(&self) -> usize {
        self.t1 + self.t2 + self.t3 - 2
    }

    /// The tiles on tile plane `D`, reusing the 3D plane enumerator over
    /// tile coordinates.
    pub fn tiles_on_plane(&self, d: usize) -> Vec<(usize, usize, usize)> {
        plane_cells(Extents::new(self.t1 - 1, self.t2 - 1, self.t3 - 1), d).collect()
    }

    /// Number of predecessor tiles of `(I, J, K)`: the in-degree of the
    /// tile dependency DAG.
    pub fn num_predecessors(&self, ti: usize, tj: usize, tk: usize) -> usize {
        let mut n = 0;
        for di in 0..=usize::from(ti > 0) {
            for dj in 0..=usize::from(tj > 0) {
                for dk in 0..=usize::from(tk > 0) {
                    if di + dj + dk > 0 {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Successor tiles of `(I, J, K)`: tiles that list it as a predecessor.
    pub fn successors(&self, ti: usize, tj: usize, tk: usize) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(7);
        for di in 0..=usize::from(ti + 1 < self.t1) {
            for dj in 0..=usize::from(tj + 1 < self.t2) {
                for dk in 0..=usize::from(tk + 1 < self.t3) {
                    if di + dj + dk > 0 {
                        out.push((ti + di, tj + dj, tk + dk));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn dims_round_up() {
        let g = TileGrid::new(Extents::new(9, 9, 9), 4);
        // 10 cells per axis / 4 per tile = 3 tiles.
        assert_eq!(g.dims(), (3, 3, 3));
        assert_eq!(g.num_tiles(), 27);
        let g = TileGrid::new(Extents::new(7, 7, 7), 4);
        assert_eq!(g.dims(), (2, 2, 2));
    }

    #[test]
    #[should_panic(expected = "tile edge")]
    fn zero_tile_panics() {
        let _ = TileGrid::new(Extents::new(4, 4, 4), 0);
    }

    #[test]
    fn ranges_tile_the_axis_exactly() {
        let g = TileGrid::new(Extents::new(10, 5, 7), 4);
        for (t_count, n, axis) in [(g.t1, 10, 0usize), (g.t2, 5, 1), (g.t3, 7, 2)] {
            let mut covered = vec![false; n + 1];
            for t in 0..t_count {
                let (lo, hi) = match axis {
                    0 => g.cell_ranges(t, 0, 0).0,
                    1 => g.cell_ranges(0, t, 0).1,
                    _ => g.cell_ranges(0, 0, t).2,
                };
                assert!(lo <= hi && hi <= n);
                assert!(hi - lo < 4);
                for c in lo..=hi {
                    assert!(!covered[c], "axis {axis} cell {c} covered twice");
                    covered[c] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "axis {axis} not fully covered");
        }
    }

    #[test]
    fn tile_index_roundtrip() {
        let g = TileGrid::new(Extents::new(9, 6, 13), 3);
        for idx in 0..g.num_tiles() {
            let (i, j, k) = g.tile_coords(idx);
            assert_eq!(g.tile_index(i, j, k), idx);
        }
    }

    #[test]
    fn tile_planes_partition_tiles() {
        let g = TileGrid::new(Extents::new(9, 9, 9), 4);
        let total: usize = (0..g.num_tile_planes())
            .map(|d| g.tiles_on_plane(d).len())
            .sum();
        assert_eq!(total, g.num_tiles());
        assert_eq!(g.tiles_on_plane(0), vec![(0, 0, 0)]);
    }

    #[test]
    fn single_tile_grid() {
        let g = TileGrid::new(Extents::new(3, 3, 3), 64);
        assert_eq!(g.dims(), (1, 1, 1));
        assert_eq!(g.num_tile_planes(), 1);
        assert_eq!(g.num_predecessors(0, 0, 0), 0);
        assert!(g.successors(0, 0, 0).is_empty());
        assert_eq!(g.cell_ranges(0, 0, 0), ((0, 3), (0, 3), (0, 3)));
    }

    #[test]
    fn predecessor_counts() {
        let g = TileGrid::new(Extents::new(11, 11, 11), 4);
        assert_eq!(g.num_predecessors(0, 0, 0), 0);
        assert_eq!(g.num_predecessors(1, 0, 0), 1);
        assert_eq!(g.num_predecessors(1, 1, 0), 3);
        assert_eq!(g.num_predecessors(1, 1, 1), 7);
        assert_eq!(g.num_predecessors(2, 0, 2), 3);
    }

    #[test]
    fn successors_mirror_predecessors() {
        let g = TileGrid::new(Extents::new(11, 11, 11), 4);
        // Count each tile's appearances as a successor: must equal its
        // predecessor count.
        let mut counts = vec![0usize; g.num_tiles()];
        for idx in 0..g.num_tiles() {
            let (i, j, k) = g.tile_coords(idx);
            for (si, sj, sk) in g.successors(i, j, k) {
                counts[g.tile_index(si, sj, sk)] += 1;
            }
        }
        for idx in 0..g.num_tiles() {
            let (i, j, k) = g.tile_coords(idx);
            assert_eq!(
                counts[idx],
                g.num_predecessors(i, j, k),
                "tile {:?}",
                (i, j, k)
            );
        }
    }

    #[test]
    fn interior_tile_has_seven_successors() {
        let g = TileGrid::new(Extents::new(11, 11, 11), 4);
        assert_eq!(g.successors(0, 0, 0).len(), 7);
        assert_eq!(g.successors(2, 2, 2).len(), 0);
        assert_eq!(g.successors(2, 1, 1).len(), 3);
    }
}
