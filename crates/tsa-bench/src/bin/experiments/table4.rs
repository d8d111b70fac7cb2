//! T4 — divide-and-conquer overhead and optimality.
//!
//! Hirschberg recomputes forward/backward faces at every level; the theory
//! bounds total cell work at ~2× the plain DP. This table reports the
//! measured time ratio (expected ≈ 1.5–2.5× once traceback and allocation
//! effects are included) and asserts score equality with the full DP.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::{full, hirschberg3, CancelToken, SimdKernel};
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let mut t = Table::new(
        &[
            "n",
            "full_ms",
            "dc_ms",
            "dc_over_full",
            "scores_equal",
            "dc_mem_quadratic",
        ],
        cfg.csv,
    );
    for n in cfg.length_sweep() {
        let (a, b, c) = workload::triple(n);
        let (full_aln, t_full) = timing::best_of(cfg.reps(), || full::align(&a, &b, &c, &scoring));
        let (dc_aln, t_dc) = timing::best_of(cfg.reps(), || {
            let never = CancelToken::never();
            hirschberg3::align(&a, &b, &c, &scoring, false, SimdKernel::Auto, &never).unwrap()
        });
        let equal = full_aln.score == dc_aln.score;
        assert!(equal, "DC lost optimality at n={n}");
        dc_aln
            .validate_scored(&a, &b, &c, &scoring)
            .expect("DC alignment invalid");
        let ratio = t_dc.as_secs_f64() / t_full.as_secs_f64();
        t.row(vec![
            n.to_string(),
            timing::fmt_ms(t_full),
            timing::fmt_ms(t_dc),
            format!("{ratio:.2}"),
            equal.to_string(),
            "yes (O(n^2))".into(),
        ]);
    }
    t.print();
}
