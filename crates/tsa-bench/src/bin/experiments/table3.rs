//! T3 — memory footprint vs length.
//!
//! Analytic score-storage bytes for each variant (`tsa-perfmodel::memory`)
//! next to the *measured* allocation of the full lattice (the only one big
//! enough to matter). The cubic-vs-quadratic separation is the reason the
//! divide-and-conquer aligner exists.

use tsa_bench::{table::Table, workload, RunConfig};
use tsa_core::{full, CancelToken, SimdKernel};
use tsa_perfmodel::memory;
use tsa_scoring::Scoring;

fn mib(bytes: usize) -> String {
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
        assert_eq!(measured, memory::full_lattice(n1, n2, n3));
        t.row(vec![
            n.to_string(),
            mib(memory::full_lattice(n1, n2, n3)),
            mib(measured),
            mib(memory::affine_lattice(n1, n2, n3)),
            mib(memory::slab_score(n2, n3)),
            mib(memory::plane_score(n1, n2)),
            mib(memory::hirschberg(n1, n2, n3, false)),
        ]);
    }
    t.print();
}
