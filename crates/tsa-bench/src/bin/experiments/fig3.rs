//! F3 — tile-size sensitivity of the tile schedule.
//!
//! At the reference length, sweep the tile edge and time the sweep
//! engine's tile order under scalar rows (the per-cell kernel, scheduled
//! in `t×t×t` blocks with a barrier per tile plane). Small tiles expose
//! more parallelism but pay per-tile scheduling; large tiles amortize it
//! but starve workers (fewer tiles per plane) — the U-shape the default
//! tile size sits at the bottom of.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{full, SimdKernel};
use tsa_perfmodel::planes;
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    let reference = full::align_score(&a, &b, &c, &scoring);
    let tiles: &[usize] = if cfg.quick {
        &[4, 8, 16, 32]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let mut t = Table::new(
        &["tile", "tiles_total", "tile_planes", "barrier_ms"],
        cfg.csv,
    );
    for &tile in tiles {
        let profile = planes::tile_plane_profile(a.len(), b.len(), c.len(), tile);
        let sweep = Sweep::new(Order::Tiles { tile }, SimdKernel::Scalar);
        let (score, t_bar) = timing::best_of(cfg.reps(), || {
            sweep.score(&a, &b, &c, &scoring).expect("uncancelled")
        });
        assert_eq!(score, reference, "tile order diverged at tile={tile}");
        t.row(vec![
            tile.to_string(),
            profile.iter().sum::<usize>().to_string(),
            profile.len().to_string(),
            timing::fmt_ms(t_bar),
        ]);
    }
    println!("  (n={n}, scalar rows)");
    t.print();
}
