//! T9 — search-space reduction: full DP vs Carrillo–Lipman pruning.
//!
//! CL pruning pays six pairwise matrices + a heuristic seed for a
//! provably sufficient region; how much of the lattice it keeps depends
//! on divergence — this table shows it.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::{carrillo_lipman, full};
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = if cfg.quick { 40 } else { 96 };
    let rates: &[f64] = &[0.05, 0.15, 0.30, 0.50];
    let mut t = Table::new(
        &[
            "sub_rate",
            "full_ms",
            "cl_ms",
            "cl_visited_pct",
            "all_equal",
        ],
        cfg.csv,
    );
    for (idx, &rate) in rates.iter().enumerate() {
        let fam = workload::family_at_rate(n, rate, 3000 + idx as u64);
        let (a, b, c) = fam.triple();
        let (reference, t_full) =
            timing::best_of(cfg.reps(), || full::align_score(a, b, c, &scoring));
        let ((cl_score, cl_stats), t_cl) = timing::best_of(cfg.reps(), || {
            carrillo_lipman::align_score_with_stats(a, b, c, &scoring)
        });
        assert_eq!(cl_score, reference, "pruning lost the optimum at {rate}");
        t.row(vec![
            format!("{rate:.2}"),
            timing::fmt_ms(t_full),
            timing::fmt_ms(t_cl),
            format!("{:.1}", 100.0 * cl_stats.visited_fraction()),
            "true".into(),
        ]);
    }
    println!("  (n={n}; CL = center-star seed)");
    t.print();
}
