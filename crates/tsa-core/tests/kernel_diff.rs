//! Differential property suite for the SIMD score kernels: every kernel
//! (`scalar`, `sse2`, `avx2`, `auto`) must produce **bit-identical**
//! scores on random sequences across every scoring preset, for the slab
//! and plane sweeps, on empty and length-1 inputs, under matrices with
//! very large terms and running scores far outside the 16-bit range, and
//! through the cancellable and durable entry points — including a
//! checkpoint taken under one kernel and resumed under another (snapshots
//! are portable because the kernel never enters the job fingerprint; the
//! rotation cycles through all four kernels).

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use tsa_core::checkpoint::{
    CheckpointConfig, CheckpointPolicy, CheckpointSink, FrontierSnapshot, MemorySink,
};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{Algorithm, Aligner, CancelToken, DurableStop, SimdKernel};
use tsa_scoring::{GapModel, Scoring, SubstMatrix};
use tsa_seq::Seq;

const KERNELS: [SimdKernel; 4] = [
    SimdKernel::Scalar,
    SimdKernel::Sse2,
    SimdKernel::Avx2,
    SimdKernel::Auto,
];

/// Every named preset, plus a gap override to move g2 off the default.
fn scorings() -> Vec<Scoring> {
    let mut all: Vec<Scoring> = ["dna", "unit", "edit", "blosum62", "blosum50", "pam250"]
        .iter()
        .map(|n| Scoring::by_name(n).expect("preset exists"))
        .collect();
    all.push(Scoring::dna_default().with_gap(GapModel::linear(-7)));
    all
}

fn dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..=max_len,
    )
    .prop_map(|v| Seq::dna(v).unwrap())
}

fn protein(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(
        prop::sample::select(b"ARNDCQEGHILKMFPSTWYV".to_vec()),
        0..=max_len,
    )
    .prop_map(|v| Seq::protein(v).unwrap())
}

/// Both sweeps under every kernel must agree with the scalar slab
/// reference exactly.
fn assert_all_kernels_agree(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) {
    let reference = Sweep::new(Order::Slabs, SimdKernel::Scalar)
        .score(a, b, c, scoring)
        .unwrap();
    for k in KERNELS {
        let slab = Sweep::new(Order::Slabs, k).score(a, b, c, scoring).unwrap();
        assert_eq!(slab, reference, "slab kernel {k} diverged");
        let plane = Sweep::new(Order::Planes, k)
            .score(a, b, c, scoring)
            .unwrap();
        assert_eq!(plane, reference, "plane kernel {k} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dna_scores_are_bit_identical_across_kernels(
        a in dna(40),
        b in dna(40),
        c in dna(40),
        scoring_idx in 0usize..3,
    ) {
        // DNA-alphabet presets: dna, unit, edit.
        let scoring = scorings()[scoring_idx].clone();
        assert_all_kernels_agree(&a, &b, &c, &scoring);
    }

    #[test]
    fn protein_scores_are_bit_identical_across_kernels(
        a in protein(24),
        b in protein(24),
        c in protein(24),
        scoring_idx in 3usize..6,
    ) {
        // Protein matrices: blosum62, blosum50, pam250.
        let scoring = scorings()[scoring_idx].clone();
        assert_all_kernels_agree(&a, &b, &c, &scoring);
    }

    #[test]
    fn cancellable_paths_match_plain_across_kernels(
        a in dna(24),
        b in dna(24),
        c in dna(24),
    ) {
        let scoring = Scoring::dna_default();
        let reference = Sweep::new(Order::Slabs, SimdKernel::Scalar).score(&a, &b, &c, &scoring).unwrap();
        let token = CancelToken::never();
        for k in KERNELS {
            let slab = Sweep::new(Order::Slabs, k)
                .cancel(&token)
                .score(&a, &b, &c, &scoring)
                .expect("never cancelled");
            prop_assert_eq!(slab, reference);
            let plane = Sweep::new(Order::Planes, k)
                .cancel(&token)
                .score(&a, &b, &c, &scoring)
                .expect("never cancelled");
            prop_assert_eq!(plane, reference);
        }
    }
}

#[test]
fn empty_and_tiny_sequences_agree() {
    let empty = Seq::dna("").unwrap();
    let one = Seq::dna("G").unwrap();
    let few = Seq::dna("GATTACA").unwrap();
    let scoring = Scoring::dna_default();
    for a in [&empty, &one, &few] {
        for b in [&empty, &one, &few] {
            for c in [&empty, &one, &few] {
                assert_all_kernels_agree(a, b, c, &scoring);
            }
        }
    }
}

#[test]
fn aligner_kernel_knob_is_score_invariant() {
    let a = Seq::dna("GATTACAGATTACA").unwrap();
    let b = Seq::dna("GATACATTACA").unwrap();
    let c = Seq::dna("GTTACAGGATTA").unwrap();
    for alg in [
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 8 },
    ] {
        let reference = Aligner::new()
            .algorithm(alg)
            .kernel(SimdKernel::Scalar)
            .score3(&a, &b, &c)
            .unwrap();
        for k in KERNELS {
            let score = Aligner::new()
                .algorithm(alg)
                .kernel(k)
                .score3(&a, &b, &c)
                .unwrap();
            assert_eq!(score, reference, "{alg:?} under {k}");
        }
    }
}

/// A matrix with ±30000 terms: per-cell column scores reach ±90000, so
/// the `i32` lanes must carry values no 16-bit lane could, with no score
/// drift against the scalar reference.
#[test]
fn gate_refusing_matrix_falls_back_bit_identically() {
    let wild = Scoring::new(
        SubstMatrix::match_mismatch("wild", 30_000, -30_000),
        GapModel::linear(-2),
    );
    let a = Seq::dna("GATTACAGATTACAGATTACA").unwrap();
    let b = Seq::dna("GATACATTACAGGATACA").unwrap();
    let c = Seq::dna("GTTACAGGATTAGTTACA").unwrap();
    assert_all_kernels_agree(&a, &b, &c, &wild);
}

/// Moderate terms whose running scores ramp far out of the 16-bit range
/// mid-sweep: long match runs accumulate +2700/plane and long mismatch
/// runs plunge the same way, so rows mix small and large values, and the
/// SIMD prefix scans must still match the scalar reference exactly.
#[test]
fn mid_row_saturation_falls_back_bit_identically() {
    let hot = Scoring::new(
        SubstMatrix::match_mismatch("hot", 900, -900),
        GapModel::linear(-512),
    );
    // 48-mers: perfect repeats (positive ramp), anti-correlated repeats
    // (negative ramp), and a mixed triple.
    let run = "GATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTAC";
    let anti = "CTAATGTCTAATGTCTAATGTCTAATGTCTAATGTCTAATGTCTAATG";
    let a = Seq::dna(run).unwrap();
    let b = Seq::dna(run).unwrap();
    let c = Seq::dna(anti).unwrap();
    assert_all_kernels_agree(&a, &a, &b, &hot);
    assert_all_kernels_agree(&a, &b, &c, &hot);
    assert_all_kernels_agree(&c, &c, &c, &hot);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sequences under the hot matrix: whatever mix of small and
    /// large running scores falls out, every kernel must stay
    /// bit-identical to scalar.
    #[test]
    fn saturating_matrix_scores_are_bit_identical(
        a in dna(48),
        b in dna(48),
        c in dna(48),
        mismatch in -1024i32..0,
    ) {
        let hot = Scoring::new(
            SubstMatrix::match_mismatch("hot", 900, mismatch),
            GapModel::linear(-600),
        );
        assert_all_kernels_agree(&a, &b, &c, &hot);
    }
}

/// Forwards snapshots to an inner sink and fires the drain flag, so the
/// sweep stops at the next plane boundary after every checkpoint.
struct DrainOnStore<'a> {
    inner: &'a MemorySink,
    drain: &'a AtomicBool,
}

impl CheckpointSink for DrainOnStore<'_> {
    fn store(&self, s: &FrontierSnapshot) -> std::io::Result<()> {
        self.inner.store(s)?;
        self.drain.store(true, Ordering::Relaxed);
        Ok(())
    }
}

/// Interrupt at every checkpoint and resume each leg under the *next*
/// kernel in rotation: snapshots must be portable across kernels and the
/// final score identical to an uninterrupted scalar run.
#[test]
fn durable_snapshots_are_portable_across_kernels() {
    let a = Seq::dna("GATTACAGATTACAGATTACA").unwrap();
    let b = Seq::dna("GATACATTACAGGATACA").unwrap();
    let c = Seq::dna("GTTACAGGATTAGTTACA").unwrap();
    let scoring = Scoring::dna_default();
    for alg in [
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 4 },
    ] {
        let reference = Aligner::new()
            .scoring(scoring.clone())
            .algorithm(alg)
            .kernel(SimdKernel::Scalar)
            .score3(&a, &b, &c)
            .unwrap();

        let sink = MemorySink::new();
        let drain = AtomicBool::new(false);
        let token = CancelToken::never();
        let mut leg = 0usize;
        let score = loop {
            let kernel = KERNELS[leg % KERNELS.len()];
            leg += 1;
            drain.store(false, Ordering::Relaxed);
            let wrapper = DrainOnStore {
                inner: &sink,
                drain: &drain,
            };
            let ckpt = CheckpointConfig {
                sink: &wrapper,
                policy: CheckpointPolicy {
                    every_planes: 2,
                    every: None,
                },
                drain: Some(&drain),
            };
            let snap = sink
                .last()
                .map(|s| FrontierSnapshot::decode(&s.encode()).expect("round trip"));
            let aligner = Aligner::new()
                .scoring(scoring.clone())
                .algorithm(alg)
                .kernel(kernel);
            match aligner.score3_durable(&a, &b, &c, &token, &ckpt, snap.as_ref()) {
                Ok(score) => break score,
                Err(DurableStop::Drained(_)) => continue,
                Err(e) => panic!("unexpected stop: {e}"),
            }
        };
        assert_eq!(score, reference, "{alg:?}");
        assert!(leg > 1, "{alg:?} was never interrupted");
    }
}
