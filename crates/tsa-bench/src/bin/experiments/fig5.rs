//! F5 — simulated cluster scalability (the paper's actual hardware
//! setting, reproduced analytically per the substitution rule).
//!
//! The blocked wavefront under the α–β message model
//! (`tsa-perfmodel::cluster`), with the per-cell cost calibrated from a
//! measured run of the sweep engine's tile order (scalar rows) on this
//! host. Three interconnect classes: shared memory (α = 0), a fast
//! 2007-era interconnect (Myrinet-class), and gigabit Ethernet. Reports predicted speedup per
//! node count and each class's saturation point.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::SimdKernel;
use tsa_perfmodel::{pipeline, ClusterModel};
use tsa_scoring::Scoring;

const TILE: usize = 16;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    let dims = (a.len(), b.len(), c.len());

    // Calibrate the per-cell cost from a real tile-order run.
    let tiles = Sweep::new(Order::Tiles { tile: TILE }, SimdKernel::Scalar);
    let (_, t_seq) = timing::best_of(cfg.reps(), || {
        tiles.score(&a, &b, &c, &scoring).expect("uncancelled")
    });
    let cells = workload::cell_updates(&a, &b, &c);
    let t_cell_ns = t_seq.as_nanos() as f64 / cells as f64;
    println!("  (n={n}, tile={TILE}, calibrated t_cell = {t_cell_ns:.1} ns)");

    let shm = ClusterModel::shared_memory(t_cell_ns);
    let fast = ClusterModel::fast_interconnect(t_cell_ns);
    let eth = ClusterModel::ethernet(t_cell_ns);

    let mut t = Table::new(
        &[
            "P",
            "shm_spd",
            "fast_net_spd",
            "ethernet_spd",
            "eth_pipeline_spd",
        ],
        cfg.csv,
    );
    let sweep: &[usize] = if cfg.quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    for &p in sweep {
        t.row(vec![
            p.to_string(),
            format!("{:.2}", shm.predict_speedup(dims, TILE, p)),
            format!("{:.2}", fast.predict_speedup(dims, TILE, p)),
            format!("{:.2}", eth.predict_speedup(dims, TILE, p)),
            format!("{:.2}", pipeline::pipeline_speedup(&eth, dims, p, 128)),
        ]);
    }
    t.print();
    let max_p = *sweep.last().expect("non-empty sweep");
    println!(
        "  saturation (<2% marginal gain): shm P={}, fast P={}, ethernet P={}",
        shm.saturation_point(dims, TILE, max_p, 0.02),
        fast.saturation_point(dims, TILE, max_p, 0.02),
        eth.saturation_point(dims, TILE, max_p, 0.02),
    );
}
