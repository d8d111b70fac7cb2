//! T3 — memory footprint vs length.
//!
//! The planned peak bytes of each variant ([`Aligner::plan`], the figure
//! the service's governor admits by) next to the *measured* allocation of
//! the full lattice (the only one big enough to matter). The
//! cubic-vs-quadratic separation is the reason the divide-and-conquer
//! aligner exists.

use tsa_bench::{table::Table, workload, RunConfig};
use tsa_core::{full, Algorithm, Aligner, CancelToken, SimdKernel};
use tsa_scoring::{GapModel, Scoring};

fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let mut t = Table::new(
        &[
            "n",
            "full_MiB",
            "full_meas_MiB",
            "affine_MiB",
            "slab_MiB",
            "planes_MiB",
            "hirschberg_MiB",
        ],
        cfg.csv,
    );
    for n in cfg.length_sweep() {
        let (a, b, c) = workload::triple(n);
        let (n1, n2, n3) = (a.len(), b.len(), c.len());
        // Measured: actually materialize the lattice (cheap next to the
        // timing experiments) and ask it.
        let measured = full::fill(
            &a,
            &b,
            &c,
            &scoring,
            SimdKernel::Scalar,
            &CancelToken::never(),
        )
        .expect("uncancelled")
        .memory_bytes();
        let plan = |aligner: Aligner, algorithm, score_only| {
            aligner.algorithm(algorithm).plan(n1, n2, n3, score_only)
        };
        let linear = |algorithm, score_only| plan(Aligner::new(), algorithm, score_only);
        let full_dp = linear(Algorithm::FullDp, false);
        assert_eq!(full_dp.lattice_bytes, Some(measured));
        let affine = Aligner::new().gap(GapModel::affine(-4, -1));
        t.row(vec![
            n.to_string(),
            mib(full_dp.peak_bytes),
            mib(measured as u64),
            mib(plan(affine, Algorithm::AffineDp, false).peak_bytes),
            mib(linear(Algorithm::FullDp, true).peak_bytes),
            mib(linear(Algorithm::Wavefront, true).peak_bytes),
            mib(linear(Algorithm::Hirschberg, false).peak_bytes),
        ]);
    }
    t.print();
}
