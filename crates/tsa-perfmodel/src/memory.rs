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

/// `|A|` at or below which the divide-and-conquer aligner solves its
/// sub-problem with the full lattice (`BASE_CASE_LEN` in
/// `tsa_core::hirschberg3`).
pub const HIRSCHBERG_BASE_CASE_LEN: usize = 4;

/// Peak working set of the divide-and-conquer aligner, `parallel` for the
/// variant that sweeps both faces of a split at once. The larger of two
/// phases, in `(n2+1)(n3+1)` faces:
///
/// * **faces** — each face sweep holds two rolling slabs plus the face it
///   copies out of them (3). The sequential solver keeps the forward face
///   while it sweeps the backward one (1 + 3); the parallel one runs both
///   sweeps at once (3 + 3). A split frees both faces before recursing,
///   and the faces of the two halves together hold at most one cell more
///   than their parent's, so the top level is the peak.
/// * **base case** — the full lattice of an `|A| ≤ 4` sub-problem, at most
///   `(min(n1, 4) + 1)` faces; a job with `n1 ≤ 4` is only this.
pub fn hirschberg(n1: usize, n2: usize, n3: usize, parallel: bool) -> usize {
    let face = (n2 + 1) * (n3 + 1) * CELL;
    let base_case = (n1.min(HIRSCHBERG_BASE_CASE_LEN) + 1) * face;
    if n1 <= HIRSCHBERG_BASE_CASE_LEN {
        return base_case;
    }
    let faces = if parallel { 3 + 3 } else { 1 + 3 };
    base_case.max(faces * face)
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
            assert!(hirschberg(n, n, n, true) < cube / 8, "n={n}");
        }
    }

    #[test]
    fn hirschberg_prices_the_larger_phase() {
        let face = |n2: usize, n3: usize| (n2 + 1) * (n3 + 1) * CELL;
        // A short first sequence is one base case.
        assert_eq!(hirschberg(2, 9, 9, false), 3 * face(9, 9));
        assert_eq!(hirschberg(4, 9, 9, true), 5 * face(9, 9));
        // Past it, the base case (5 faces) outweighs the sequential face
        // phase (4) but not the parallel one (6).
        assert_eq!(hirschberg(20, 600, 600, false), 5 * face(600, 600));
        assert_eq!(hirschberg(20, 600, 600, true), 6 * face(600, 600));
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
