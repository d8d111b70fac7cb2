//! F2 — runtime vs length for every aligner variant (log–log series).
//!
//! All variants are `O(n³)`; the figure shows the constant factors: the
//! sequential fill's cache-friendly sweep, the wavefront's scheduling
//! overhead, the tile order (scalar rows) between them, and
//! divide-and-conquer's ≤ 2× work in quadratic memory, whose two solvers
//! sweep the same SIMD slab faces, one or two at a time.

use tsa_bench::{table::Table, timing, workload, RunConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{full, hirschberg3, wavefront, CancelToken, SimdKernel};
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let mut t = Table::new(
        &[
            "n",
            "full_ms",
            "wavefront_ms",
            "tiles_ms",
            "hirschberg_ms",
            "par_hirsch_ms",
        ],
        cfg.csv,
    );
    for n in cfg.length_sweep() {
        let (a, b, c) = workload::triple(n);
        let reps = cfg.reps();
        let (s0, t_full) = timing::best_of(reps, || full::align_score(&a, &b, &c, &scoring));
        let (s1, t_wf) = timing::best_of(reps, || wavefront::align_score(&a, &b, &c, &scoring));
        let tiles = Sweep::new(Order::Tiles { tile: 16 }, SimdKernel::Scalar);
        let (s2, t_blk) = timing::best_of(reps, || tiles.score(&a, &b, &c, &scoring).unwrap());
        let dc = |parallel| {
            let never = CancelToken::never();
            hirschberg3::align(&a, &b, &c, &scoring, parallel, SimdKernel::Auto, &never).unwrap()
        };
        let (al3, t_h) = timing::best_of(reps, || dc(false));
        let (al4, t_ph) = timing::best_of(reps, || dc(true));
        for (name, s) in [
            ("wavefront", s1),
            ("tiles", s2),
            ("hirschberg", al3.score),
            ("par-hirschberg", al4.score),
        ] {
            assert_eq!(s, s0, "{name} diverged at n={n}");
        }
        t.row(vec![
            n.to_string(),
            timing::fmt_ms(t_full),
            timing::fmt_ms(t_wf),
            timing::fmt_ms(t_blk),
            timing::fmt_ms(t_h),
            timing::fmt_ms(t_ph),
        ]);
    }
    t.print();
}
