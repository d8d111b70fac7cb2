//! Cancellation reaches every exact algorithm: for each one, through both
//! `align3_cancellable` and `score3_cancellable`, deadlines swept from 0
//! to the measured uncancelled run time must yield either the exact
//! optimum or `Cancelled` with coherent progress — and at least one
//! deadline per algorithm and input must land mid-fill (`0 < cells_done <
//! cells_total`), so the sweep cannot pass vacuously by only ever
//! finishing or only ever stopping before the first step. Carrillo–Lipman
//! runs two inputs: one its bound prunes (the sparse sweep: every slab for
//! an alignment, two rolling slabs for a score) and one it sweeps densely
//! (the dense lattice, or the rolling slab sweep), through both entry
//! points.

use std::time::Instant;

use tsa_core::{Algorithm, AlignError, Aligner, CancelToken};
use tsa_scoring::{GapModel, Scoring};
use tsa_seq::family::FamilyConfig;
use tsa_seq::gen::random_seq_seeded;
use tsa_seq::{Alphabet, Seq};

/// Deadlines per (algorithm, entry point), evenly spaced over `[0, T]`.
const STEPS: u32 = 24;

fn exact_aligners() -> Vec<(Algorithm, Aligner)> {
    let linear = [
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 8 },
        Algorithm::Hirschberg,
        Algorithm::ParallelHirschberg,
        Algorithm::CarrilloLipman,
    ]
    .map(|alg| (alg, Aligner::new().algorithm(alg)));
    let affine = Aligner::new()
        .scoring(Scoring::dna_default().with_gap(GapModel::affine(-4, -1)))
        .algorithm(Algorithm::AffineDp);
    let mut all = linear.to_vec();
    all.push((Algorithm::AffineDp, affine));
    all
}

/// Run one entry point under `cancel`: the score, or the error.
fn run(
    aligner: &Aligner,
    seqs: &[Seq; 3],
    align: bool,
    cancel: &CancelToken,
) -> Result<i32, AlignError> {
    let [a, b, c] = seqs;
    if align {
        aligner
            .align3_cancellable(a, b, c, cancel)
            .map(|aln| aln.score)
    } else {
        aligner.score3_cancellable(a, b, c, cancel)
    }
}

#[test]
fn every_exact_algorithm_stops_mid_fill_or_finishes_exactly() {
    // A 30%-substituted family: every algorithm spends most of its time
    // in polled fills, and the bound prunes most of this cube.
    let pruned = FamilyConfig::new(48, 0.3, 0.05).generate(11).members;
    // A lopsided unrelated triple, a thin cube: swept densely at once.
    let dna = |len, seed| random_seq_seeded(Alphabet::Dna, len, seed);
    let dense = [dna(48, 9060), dna(8, 19060), dna(64, 29060)];
    for (alg, aligner) in exact_aligners() {
        let inputs: &[[Seq; 3]] = match alg {
            Algorithm::CarrilloLipman => &[pruned.clone(), dense.clone()],
            _ => std::slice::from_ref(&pruned),
        };
        for seqs in inputs {
            let [a, b, c] = seqs;
            if alg == Algorithm::CarrilloLipman {
                // The two inputs take the two paths, alignment and score.
                for score_only in [false, true] {
                    let ran = aligner.run_cancellable(a, b, c, score_only, &CancelToken::never());
                    assert_eq!(
                        ran.unwrap().fallback.is_some(),
                        std::ptr::eq(seqs, &inputs[1]),
                        "{alg:?} score_only={score_only}"
                    );
                }
            }
            sweep_deadlines(alg, &aligner, seqs);
        }
    }
}

/// Deadlines from 0 to the uncancelled run time, through both entry
/// points; at least one per entry point must stop the run mid-fill.
fn sweep_deadlines(alg: Algorithm, aligner: &Aligner, seqs: &[Seq; 3]) {
    for align in [true, false] {
        let mut mid_fill = 0;
        {
            let started = Instant::now();
            let optimum = run(aligner, seqs, align, &CancelToken::never())
                .unwrap_or_else(|e| panic!("{alg:?} uncancelled: {e}"));
            let full_run = started.elapsed();
            for step in 0..=STEPS {
                let deadline = full_run.mul_f64(f64::from(step) / f64::from(STEPS));
                let token = CancelToken::with_timeout(deadline);
                match run(aligner, seqs, align, &token) {
                    Ok(score) => assert_eq!(score, optimum, "{alg:?} align={align}"),
                    Err(AlignError::Cancelled(p)) => {
                        assert!(
                            p.cells_done <= p.cells_total,
                            "{alg:?} align={align}: {}/{}",
                            p.cells_done,
                            p.cells_total
                        );
                        if p.cells_done > 0 && p.cells_done < p.cells_total {
                            mid_fill += 1;
                        }
                    }
                    Err(e) => panic!("{alg:?} align={align}: {e}"),
                }
            }
        }
        assert!(
            mid_fill > 0,
            "{alg:?} align={align}: no deadline landed mid-fill"
        );
    }
}
