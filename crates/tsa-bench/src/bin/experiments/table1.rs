//! T1 — sequential runtime and cell-update rate vs sequence length.
//!
//! Columns: the full-lattice DP (with traceback storage) and the two
//! quadratic-space score-only passes. MCUPS = million cell updates per
//! second over the `(n1+1)(n2+1)(n3+1)` lattice.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{full, SimdKernel};
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let mut t = Table::new(
        &[
            "n",
            "cells",
            "full_ms",
            "full_MCUPS",
            "slab_ms",
            "slab_MCUPS",
            "planes_ms",
            "planes_MCUPS",
        ],
        cfg.csv,
    );
    for n in cfg.length_sweep() {
        let (a, b, c) = workload::triple(n);
        let cells = workload::cell_updates(&a, &b, &c);
        let (s1, t_full) = timing::best_of(cfg.reps(), || full::align_score(&a, &b, &c, &scoring));
        let sweep = |order| Sweep::new(order, SimdKernel::Auto).score(&a, &b, &c, &scoring);
        let (s2, t_slab) = timing::best_of(cfg.reps(), || sweep(Order::Slabs).unwrap());
        let (s3, t_planes) = timing::best_of(cfg.reps(), || sweep(Order::Planes).unwrap());
        assert_eq!(s1, s2, "slab score diverged at n={n}");
        assert_eq!(s1, s3, "plane score diverged at n={n}");
        t.row(vec![
            n.to_string(),
            cells.to_string(),
            timing::fmt_ms(t_full),
            format!("{:.1}", timing::mcups(cells, t_full)),
            timing::fmt_ms(t_slab),
            format!("{:.1}", timing::mcups(cells, t_slab)),
            timing::fmt_ms(t_planes),
            format!("{:.1}", timing::mcups(cells, t_planes)),
        ]);
    }
    t.print();
}
