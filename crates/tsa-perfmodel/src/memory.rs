//! Analytic memory footprints of the algorithm variants.
//!
//! Experiment `table3` reports these next to measured allocation sizes.
//! All figures are the dominant score-storage term in bytes (i32 cells);
//! constant-factor bookkeeping (sequences, traceback column buffers) is
//! omitted as it is `O(n)`.

/// Bytes per score cell.
const CELL: usize = std::mem::size_of::<i32>();

/// Full-lattice DP (sequential, wavefront, or blocked): one i32 per cell.
pub fn full_lattice(n1: usize, n2: usize, n3: usize) -> usize {
    (n1 + 1) * (n2 + 1) * (n3 + 1) * CELL
}

/// Quasi-natural affine DP: seven states per cell.
pub fn affine_lattice(n1: usize, n2: usize, n3: usize) -> usize {
    7 * full_lattice(n1, n2, n3)
}

/// Slab-rolling score-only pass: two `(n2+1)(n3+1)` slabs.
pub fn slab_score(n2: usize, n3: usize) -> usize {
    2 * (n2 + 1) * (n3 + 1) * CELL
}

/// Plane-rolling parallel score-only pass: four `(n1+1)(n2+1)` buffers.
pub fn plane_score(n1: usize, n2: usize) -> usize {
    4 * (n1 + 1) * (n2 + 1) * CELL
}

/// Peak working set of the divide-and-conquer aligner: the top-level
/// forward + backward faces, plus the parallel pass's plane buffers that
/// produce them (sub-problems are strictly smaller, and the recursion
/// reuses freed memory).
pub fn hirschberg(n1: usize, n2: usize, n3: usize) -> usize {
    2 * (n2 + 1) * (n3 + 1) * CELL + plane_score(n1, n2)
}

/// Center-star heuristic: Hirschberg pairwise rows, `O(n)` per call — the
/// dominant term is the merged alignment itself.
pub fn center_star(n1: usize, n2: usize, n3: usize) -> usize {
    // Three rows of up to n1+n2+n3 columns, 3 bytes of Option<u8>-ish
    // payload per column per row (rounded up to the actual 2-byte layout
    // would undercount; use size_of::<Option<u8>>()).
    3 * (n1 + n2 + n3) * std::mem::size_of::<Option<u8>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lattice_values() {
        assert_eq!(full_lattice(0, 0, 0), 4);
        assert_eq!(full_lattice(9, 9, 9), 1000 * 4);
        assert_eq!(affine_lattice(9, 9, 9), 7000 * 4);
    }

    #[test]
    fn rolling_score_values() {
        assert_eq!(slab_score(9, 9), 2 * 100 * 4);
        assert_eq!(plane_score(9, 9), 4 * 100 * 4);
    }

    #[test]
    fn quadratic_variants_beat_the_cube() {
        for n in [64usize, 128, 256, 512] {
            let cube = full_lattice(n, n, n);
            assert!(slab_score(n, n) < cube / 8, "n={n}");
            assert!(plane_score(n, n) < cube / 8, "n={n}");
            assert!(hirschberg(n, n, n) < cube / 8, "n={n}");
        }
    }

    #[test]
    fn growth_orders() {
        // Cube memory grows ~8× when n doubles; quadratic ~4×.
        let r_full = full_lattice(256, 256, 256) as f64 / full_lattice(128, 128, 128) as f64;
        assert!((r_full - 8.0).abs() < 0.3, "{r_full}");
        let r_slab = slab_score(256, 256) as f64 / slab_score(128, 128) as f64;
        assert!((r_slab - 4.0).abs() < 0.2, "{r_slab}");
    }

    #[test]
    fn center_star_is_linear() {
        let r = center_star(200, 200, 200) as f64 / center_star(100, 100, 100) as f64;
        assert!((r - 2.0).abs() < 0.1);
    }
}
