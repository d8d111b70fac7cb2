//! Property tests for the wavefront machinery over arbitrary lattice
//! shapes and tile sizes.

use proptest::prelude::*;
use tsa_wavefront::plane::{plane_cells, Extents};
use tsa_wavefront::stats::WavefrontStats;
use tsa_wavefront::TileGrid;

fn extents() -> impl Strategy<Value = Extents> {
    (0usize..12, 0usize..12, 0usize..12).prop_map(|(a, b, c)| Extents::new(a, b, c))
}

proptest! {
    #[test]
    fn planes_partition_every_lattice(e in extents()) {
        let mut seen = vec![false; e.cells()];
        for d in 0..e.num_planes() {
            for (i, j, k) in plane_cells(e, d) {
                prop_assert_eq!(i + j + k, d);
                let idx = e.index(i, j, k);
                prop_assert!(!seen[idx], "({}, {}, {}) visited twice", i, j, k);
                seen[idx] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn tiles_partition_every_lattice(e in extents(), tile in 1usize..8) {
        let tg = TileGrid::new(e, tile);
        let mut seen = vec![false; e.cells()];
        for t in 0..tg.num_tiles() {
            let (ti, tj, tk) = tg.tile_coords(t);
            let ((ilo, ihi), (jlo, jhi), (klo, khi)) = tg.cell_ranges(ti, tj, tk);
            for i in ilo..=ihi {
                for j in jlo..=jhi {
                    for k in klo..=khi {
                        let idx = e.index(i, j, k);
                        prop_assert!(!seen[idx]);
                        seen[idx] = true;
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn tile_dependency_graph_is_acyclic_and_consistent(e in extents(), tile in 1usize..6) {
        let tg = TileGrid::new(e, tile);
        for t in 0..tg.num_tiles() {
            let (ti, tj, tk) = tg.tile_coords(t);
            // Successors strictly increase the plane index: acyclic.
            for (si, sj, sk) in tg.successors(ti, tj, tk) {
                prop_assert!(si + sj + sk > ti + tj + tk);
            }
        }
        // Sum of predecessor counts == sum of successor list lengths.
        let preds: usize = (0..tg.num_tiles())
            .map(|t| {
                let (i, j, k) = tg.tile_coords(t);
                tg.num_predecessors(i, j, k)
            })
            .sum();
        let succs: usize = (0..tg.num_tiles())
            .map(|t| {
                let (i, j, k) = tg.tile_coords(t);
                tg.successors(i, j, k).len()
            })
            .sum();
        prop_assert_eq!(preds, succs);
    }

    #[test]
    fn stats_rounds_dominate_and_bound_speedup(e in extents(), p in 1usize..16) {
        let s = WavefrontStats::for_cells(e);
        prop_assert!(s.rounds(p) >= s.critical_path().min(s.total_items()));
        prop_assert!(s.rounds(p) <= s.total_items());
        if s.total_items() > 0 {
            let b = s.speedup_bound(p);
            prop_assert!(b <= p as f64 + 1e-9);
            prop_assert!(b >= 1.0 - 1e-9 || p == 1);
        }
    }
}
