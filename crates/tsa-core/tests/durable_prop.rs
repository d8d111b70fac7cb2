//! Durability property: interrupting a sweep at *every* checkpoint and
//! resuming from the persisted snapshot must reproduce the uninterrupted
//! run exactly — same SP score, and (via the clean re-run ladder used for
//! alignment jobs) the same optimal alignment — for random sequences,
//! scorings, and every checkpointable algorithm.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use tsa_core::checkpoint::{
    CheckpointConfig, CheckpointPolicy, CheckpointSink, FrontierSnapshot, MemorySink,
};
use tsa_core::{Algorithm, Aligner, CancelToken, DurableStop};
use tsa_scoring::{GapModel, Scoring};
use tsa_seq::Seq;

fn dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..=max_len,
    )
    .prop_map(|v| Seq::dna(v).unwrap())
}

fn scorings() -> Vec<Scoring> {
    vec![
        Scoring::dna_default(),
        Scoring::unit(),
        Scoring::edit_distance(),
        Scoring::dna_default().with_gap(GapModel::linear(-3)),
    ]
}

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::FullDp,
    Algorithm::Hirschberg,
    Algorithm::Wavefront,
    Algorithm::ParallelHirschberg,
];

/// Forwards snapshots to an inner sink and fires the drain flag after
/// each store, so the kernel stops at the very next plane boundary.
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

/// Run the durable score path, interrupting at every checkpoint and
/// resuming from the snapshot (round-tripped through the binary wire
/// format, as a process restart would) until completion.
fn run_interrupted(
    aligner: &Aligner,
    a: &Seq,
    b: &Seq,
    c: &Seq,
    every_planes: usize,
) -> (i32, u64) {
    let sink = MemorySink::new();
    let drain = AtomicBool::new(false);
    let token = CancelToken::never();
    let mut interruptions = 0u64;
    loop {
        drain.store(false, Ordering::Relaxed);
        let wrapper = DrainOnStore {
            inner: &sink,
            drain: &drain,
        };
        let ckpt = CheckpointConfig {
            sink: &wrapper,
            policy: CheckpointPolicy {
                every_planes,
                every: None,
            },
            drain: Some(&drain),
        };
        let snap = sink
            .last()
            .map(|s| FrontierSnapshot::decode(&s.encode()).expect("snapshot round trip"));
        match aligner.score3_durable(a, b, c, &token, &ckpt, snap.as_ref()) {
            Ok(score) => return (score, interruptions),
            Err(DurableStop::Drained(_)) => interruptions += 1,
            Err(e) => panic!("unexpected stop: {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interrupt_at_every_checkpoint_reproduces_the_run(
        a in dna(10),
        b in dna(10),
        c in dna(10),
        scoring_idx in 0usize..4,
        alg_idx in 0usize..4,
        every_planes in 1usize..=3,
    ) {
        let scoring = scorings()[scoring_idx].clone();
        let alg = ALGORITHMS[alg_idx];
        let aligner = Aligner::new().scoring(scoring.clone()).algorithm(alg);

        let reference = aligner.score3(&a, &b, &c).unwrap();
        let (score, interruptions) = run_interrupted(&aligner, &a, &b, &c, every_planes);
        prop_assert_eq!(score, reference, "{:?}", alg);

        // The sweep must genuinely have been interrupted whenever it is
        // long enough for the pacer to fire (slab kernels pace on |a|
        // slabs, plane kernels on |a|+|b|+|c| planes).
        let paced_steps = match alg {
            Algorithm::FullDp | Algorithm::Hirschberg | Algorithm::ParallelHirschberg => a.len(),
            _ => a.len() + b.len() + c.len(),
        };
        if paced_steps >= every_planes {
            prop_assert!(interruptions > 0, "{:?} was never interrupted", alg);
        }

        // Alignment jobs recover via a clean re-run (the `restarted` rung
        // of the service ladder): re-running must reproduce the identical
        // optimal alignment, at the score the resumed sweep reported.
        let aln1 = aligner.align3(&a, &b, &c).unwrap();
        let aln2 = aligner.align3(&a, &b, &c).unwrap();
        prop_assert_eq!(&aln1, &aln2);
        prop_assert_eq!(aln1.score, reference);
        prop_assert!(aln1.validate_scored(&a, &b, &c, &scoring).is_ok());
    }
}
