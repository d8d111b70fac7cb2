//! F6 — wavefront load profile over execution.
//!
//! Runs the plane-parallel DP with the profiled executor and reports, per
//! decile of the plane sequence: cells, wall time, and the effective cell
//! rate. The ramp-up → plateau → ramp-down shape is the empirical
//! counterpart of the analytic plane-size profile; the rate column shows
//! the small early/late planes paying disproportionate scheduling
//! overhead — the direct justification for the tile order.

use tsa_bench::{table::Table, workload, RunConfig};
use tsa_core::wavefront;
use tsa_scoring::Scoring;
use tsa_wavefront::PlaneSample;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    let (lattice, profile) = wavefront::fill_profiled(&a, &b, &c, &scoring);
    println!(
        "  (n={n}, {} planes, final score {})",
        profile.samples.len(),
        lattice.final_score()
    );

    let mut t = Table::new(&["decile", "cells", "time_ms", "Mcells_per_s"], cfg.csv);
    for (idx, (cells, nanos)) in deciles(&profile.samples).iter().enumerate() {
        let secs = *nanos as f64 / 1e9;
        let rate = if secs > 0.0 {
            *cells as f64 / secs / 1e6
        } else {
            f64::INFINITY
        };
        t.row(vec![
            format!("{}%", (idx + 1) * 10),
            cells.to_string(),
            format!("{:.2}", *nanos as f64 / 1e6),
            format!("{rate:.1}"),
        ]);
    }
    t.print();
}

/// Sum cells and wall time over ten equal ranges of the plane sequence
/// (fewer when there are fewer than ten planes).
fn deciles(samples: &[PlaneSample]) -> Vec<(usize, u64)> {
    let buckets = 10.min(samples.len().max(1));
    let mut out = vec![(0usize, 0u64); buckets];
    for (idx, s) in samples.iter().enumerate() {
        let slot = &mut out[idx * buckets / samples.len()];
        slot.0 += s.items;
        slot.1 += s.wall_ns;
    }
    out
}
