//! Explore the parallel structure of the 3D wavefront analytically:
//! plane-size profiles, critical path, speedup bounds, the effect of
//! tiling, and the plans (cell updates, peak bytes) of the main
//! algorithms — without running a single alignment. This is the model the
//! measured curves in the benchmark harness are compared against.
//!
//! ```text
//! cargo run --release --example scaling_model [length]
//! ```

use three_seq_align::core::{Algorithm, Aligner};
use three_seq_align::perfmodel::{model, planes, CostModel};
use three_seq_align::scoring::GapModel;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);

    let profile = planes::plane_profile(n, n, n);
    let cells: usize = profile.iter().sum();
    println!(
        "lattice {n}³: {cells} cells, {} planes (critical path)",
        profile.len()
    );
    println!(
        "largest plane: {} cells; mean parallelism (speedup cap): {:.0}",
        profile.iter().max().unwrap(),
        model::speedup_cap(&profile)
    );

    // A model with a measured-ish cell cost and a 5 µs plane barrier.
    let m = CostModel {
        t_cell_ns: 10.0,
        t_barrier_ns: 5_000.0,
    };
    println!("\ncell-level wavefront (t_cell 10 ns, barrier 5 µs):");
    println!("{:>4} {:>12} {:>9} {:>6}", "P", "time_ms", "speedup", "eff");
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        println!(
            "{:>4} {:>12.2} {:>9.2} {:>6.2}",
            p,
            m.predict_time_ns(&profile, p) / 1e6,
            m.predict_speedup(&profile, p),
            m.predict_efficiency(&profile, p)
        );
    }

    // Tiled schedule: the same lattice in 16³ tiles. Per-tile cost =
    // tile volume × t_cell; the barrier count collapses ~48×.
    let tile = 16usize;
    let tile_profile = planes::tile_plane_profile(n, n, n, tile);
    let mt = CostModel {
        t_cell_ns: 10.0 * (tile * tile * tile) as f64,
        t_barrier_ns: 5_000.0,
    };
    println!(
        "\ntiled wavefront (tile {tile}): {} tile planes",
        tile_profile.len()
    );
    println!("{:>4} {:>12} {:>9}", "P", "time_ms", "speedup");
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        println!(
            "{:>4} {:>12.2} {:>9.2}",
            p,
            mt.predict_time_ns(&tile_profile, p) / 1e6,
            mt.predict_speedup(&tile_profile, p)
        );
    }

    println!("\nplanned peak memory at n = {n}:");
    let affine = Aligner::new().gap(GapModel::affine(-4, -1));
    let rows = [
        (
            "full lattice",
            Aligner::new().algorithm(Algorithm::FullDp),
            false,
        ),
        ("affine (7 states)", affine, false),
        (
            "score-only slabs",
            Aligner::new().algorithm(Algorithm::FullDp),
            true,
        ),
        (
            "hirschberg peak",
            Aligner::new().algorithm(Algorithm::Hirschberg),
            false,
        ),
    ];
    for (name, aligner, score_only) in rows {
        let plan = aligner.plan(n, n, n, score_only);
        println!(
            "  {:<20} {:>10.3} MiB  ({} cell updates)",
            format!("{name}:"),
            plan.peak_bytes as f64 / 1048576.0,
            plan.cells
        );
    }
}
