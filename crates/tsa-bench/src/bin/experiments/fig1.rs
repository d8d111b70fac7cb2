//! F1 — speedup curves: cell-level wavefront vs tiled execution.
//!
//! At the reference length, sweep `P` and report measured wall times for
//! both schedules, plus each schedule's model-predicted speedup (cell
//! planes vs tile planes with per-tile granularity). The tile schedule is
//! the sweep engine's tile order under scalar rows — the same per-cell
//! kernel as the cell wavefront, only scheduled in `t×t×t` blocks. The
//! crossover the paper's blocked algorithm exploits — fewer, coarser
//! synchronizations — shows up as the tile model curve staying
//! near-linear where the cell-level curve flattens against its barrier
//! costs.

use tsa_bench::{pool, table::Table, timing, workload, RunConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{wavefront, SimdKernel};
use tsa_perfmodel::{planes, CostModel};
use tsa_scoring::Scoring;

const TILE: usize = 16;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    let cell_profile = planes::plane_profile(a.len(), b.len(), c.len());
    let tile_profile = planes::tile_plane_profile(a.len(), b.len(), c.len(), TILE);

    let mut t = Table::new(
        &["P", "wf_ms", "tile_ms", "wf_model_spd", "tile_model_spd"],
        cfg.csv,
    );
    let mut wf_model: Option<CostModel> = None;
    let mut tile_model: Option<CostModel> = None;
    for p in cfg.thread_sweep() {
        let (_, t_wf) = timing::best_of(cfg.reps(), || {
            pool::with_pool(p, || wavefront::align_score(&a, &b, &c, &scoring))
        });
        let (_, t_tile) = timing::best_of(cfg.reps(), || {
            let tiles = Sweep::new(Order::Tiles { tile: TILE }, SimdKernel::Scalar);
            pool::with_pool(p, || {
                tiles.score(&a, &b, &c, &scoring).expect("uncancelled")
            })
        });
        if p == 1 {
            let cells: usize = cell_profile.iter().sum();
            let mut m = CostModel::calibrate_cell(t_wf.as_nanos() as f64 * 0.95, cells, 0.0);
            m.calibrate_barrier(t_wf.as_nanos() as f64, &cell_profile, 1);
            wf_model = Some(m);
            let tiles: usize = tile_profile.iter().sum();
            let mut m = CostModel::calibrate_cell(t_tile.as_nanos() as f64 * 0.95, tiles, 0.0);
            m.calibrate_barrier(t_tile.as_nanos() as f64, &tile_profile, 1);
            tile_model = Some(m);
        }
        t.row(vec![
            p.to_string(),
            timing::fmt_ms(t_wf),
            timing::fmt_ms(t_tile),
            format!("{:.2}", wf_model.unwrap().predict_speedup(&cell_profile, p)),
            format!(
                "{:.2}",
                tile_model.unwrap().predict_speedup(&tile_profile, p)
            ),
        ]);
    }
    println!("  (n={n}, tile={TILE}, scalar rows; tile model granularity = whole tiles)");
    t.print();
}
