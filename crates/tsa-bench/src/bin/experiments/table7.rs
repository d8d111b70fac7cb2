//! T7 — Carrillo–Lipman pruning effectiveness.
//!
//! For each divergence level: the share of the lattice the bound keeps,
//! whether the run fell back to the dense lattice, the sparse store's
//! bytes (kept cells plus 12-byte row spans) against the dense lattice's,
//! and the pruned alignment's wall time against the dense SIMD slab
//! lattice (`Aligner` `full`, `auto` kernel), both with the traceback. A
//! run whose store would pass the fallback share, or a thin cube, falls
//! back to the dense lattice, so its kept share and store read `-`. The
//! more similar the sequences, the tighter the center-star lower bound and
//! the pairwise-projection upper bounds — and the thinner the kept tube
//! around the optimal path. Every row asserts column-for-column equality
//! with `full`. The last two rows
//! are unrelated triples: a cube, which still prunes, and a lopsided thin
//! cube, whose bounds would cost a large share of it, which takes the
//! fallback at once.
//!
//! A second table runs the same triples score-only: the pruned score
//! sweep (the same bounds, two rolling sparse slabs, or the slab sweep
//! past its break-even) against the slab score sweep `auto` ran before
//! (`Aligner` `full`, score-only), asserting equal scores.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::{carrillo_lipman, Algorithm, Aligner, CancelToken, SimdKernel};
use tsa_scoring::Scoring;
use tsa_seq::gen::random_seq_seeded;
use tsa_seq::{Alphabet, Seq};

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = if cfg.quick { 40 } else { 96 };
    // (sub rate, seed): the divergence sweep of T7 and the one T9 ran
    // before it was folded in here.
    let rates: &[(f64, u64)] = &[
        (0.02, 1000),
        (0.05, 1001),
        (0.05, 3000),
        (0.10, 1002),
        (0.15, 3001),
        (0.20, 1003),
        (0.30, 1004),
        (0.30, 3002),
        (0.50, 1005),
        (0.50, 3003),
    ];
    let mut rows: Vec<(String, [Seq; 3])> = rates
        .iter()
        .map(|&(rate, seed)| {
            let fam = workload::family_at_rate(n, rate, seed);
            (format!("{rate:.2}"), fam.members)
        })
        .collect();
    let dna = |len, seed| random_seq_seeded(Alphabet::Dna, len, seed);
    rows.push(("unrelated".into(), [0, 1, 2].map(|m| dna(n, 7000 + m))));
    rows.push((
        "unrelated 48×8×64".into(),
        [dna(48, 9060), dna(8, 19060), dna(64, 29060)],
    ));
    let mut t = Table::new(
        &[
            "sub_rate",
            "kept_pct",
            "fallback",
            "store_kb",
            "lattice_kb",
            "dense_ms",
            "pruned_ms",
            "pruned_over_dense",
            "columns_equal",
        ],
        cfg.csv,
    );
    let dense = Aligner::new().algorithm(Algorithm::FullDp);
    let never = CancelToken::never();
    for (label, [a, b, c]) in &rows {
        let (want, t_dense) = timing::best_of(cfg.reps(), || dense.align3(a, b, c).unwrap());
        let ((got, pruning), t_pruned) = timing::best_of(cfg.reps(), || {
            carrillo_lipman::align(a, b, c, &scoring, SimdKernel::Auto, &never).unwrap()
        });
        assert_eq!(got, want, "pruning changed the alignment at {label}");
        let kb = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
        let share = |kept: u64| format!("{:.2}", 100.0 * kept as f64 / pruning.cube as f64);
        t.row(vec![
            label.clone(),
            pruning.kept.map_or("-".into(), share),
            if pruning.fallback() { "full" } else { "-" }.into(),
            pruning.store_bytes().map_or("-".into(), kb),
            kb(4 * pruning.cube),
            timing::fmt_ms(t_dense),
            timing::fmt_ms(t_pruned),
            format!("{:.2}", t_pruned.as_secs_f64() / t_dense.as_secs_f64()),
            "true".into(),
        ]);
    }
    println!(
        "  (n={n}; pruned time includes the center-star seed and the eight pairwise DP fills; \
         fallback once the store passes {:.0}% of the lattice's bytes)",
        100.0 * carrillo_lipman::FALLBACK_SHARE
    );
    t.print();

    let mut scores = Table::new(
        &[
            "sub_rate",
            "kept_pct",
            "fallback",
            "slab_ms",
            "pruned_ms",
            "pruned_over_slab",
            "score_equal",
        ],
        cfg.csv,
    );
    for (label, [a, b, c]) in &rows {
        let (want, t_slab) = timing::best_of(cfg.reps(), || dense.score3(a, b, c).unwrap());
        let ((got, pruning), t_pruned) = timing::best_of(cfg.reps(), || {
            carrillo_lipman::score(a, b, c, &scoring, SimdKernel::Auto, &never).unwrap()
        });
        assert_eq!(got, want, "pruning changed the score at {label}");
        scores.row(vec![
            label.clone(),
            pruning.kept.map_or("-".into(), |kept| {
                format!("{:.2}", 100.0 * kept as f64 / pruning.cube as f64)
            }),
            if pruning.fallback() { "slabs" } else { "-" }.into(),
            timing::fmt_ms(t_slab),
            timing::fmt_ms(t_pruned),
            format!("{:.2}", t_pruned.as_secs_f64() / t_slab.as_secs_f64()),
            "true".into(),
        ]);
    }
    println!(
        "  score-only (two rolling sparse slabs against the slab score sweep; \
         fallback past {:.0}% of the cube kept)",
        100.0 * carrillo_lipman::SCORE_SHARE
    );
    scores.print();
}
