//! Larger-scale cross-checks, `#[ignore]`d by default (run with
//! `cargo test --release -- --ignored`): the same invariants as the unit
//! suites, at sizes where indexing bugs, overflow, and scheduling races
//! would actually have room to show.

use three_seq_align::core::sweep::{Order, Sweep};
use three_seq_align::core::{
    carrillo_lipman, full, hirschberg3, wavefront, Algorithm, Aligner, CancelToken, SimdKernel,
};
use three_seq_align::prelude::*;

fn big_triple(n: usize, seed: u64) -> (Seq, Seq, Seq) {
    let fam = FamilyConfig::new(n, 0.15, 0.05).generate(seed);
    let [a, b, c] = fam.members;
    (a, b, c)
}

#[test]
#[ignore = "large: ~seconds in release, minutes in debug"]
fn all_variants_agree_at_n128() {
    let scoring = Scoring::dna_default();
    let (a, b, c) = big_triple(128, 1);
    let reference = full::align_score(&a, &b, &c, &scoring);
    assert_eq!(wavefront::align_score(&a, &b, &c, &scoring), reference);
    for order in [Order::Slabs, Order::Planes, Order::Tiles { tile: 16 }] {
        let sweep = Sweep::new(order, SimdKernel::Auto);
        assert_eq!(sweep.score(&a, &b, &c, &scoring).unwrap(), reference);
    }
    let never = CancelToken::never();
    let dc = hirschberg3::align(&a, &b, &c, &scoring, true, SimdKernel::Auto, &never).unwrap();
    assert_eq!(dc.score, reference);
    dc.validate_scored(&a, &b, &c, &scoring).unwrap();
    let (cl, pruning) =
        carrillo_lipman::score(&a, &b, &c, &scoring, SimdKernel::Auto, &never).unwrap();
    assert_eq!(cl, reference);
    assert!(!pruning.fallback());
}

#[test]
#[ignore = "large: full traceback identity at n=96"]
fn tracebacks_identical_at_n96() {
    let scoring = Scoring::dna_default();
    let (a, b, c) = big_triple(96, 2);
    let reference = full::align(&a, &b, &c, &scoring);
    for alg in [
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 16 },
        Algorithm::CarrilloLipman,
    ] {
        let aln = Aligner::new()
            .scoring(scoring.clone())
            .algorithm(alg)
            .align3(&a, &b, &c)
            .unwrap();
        assert_eq!(aln.columns, reference.columns, "{alg:?}");
    }
}

#[test]
#[ignore = "large: asymmetric lengths at the i32 comfort zone"]
fn very_asymmetric_lengths() {
    let scoring = Scoring::dna_default();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let a = three_seq_align::seq::gen::random_seq(Alphabet::Dna, 400, &mut rng);
    let b = three_seq_align::seq::gen::random_seq(Alphabet::Dna, 30, &mut rng);
    let c = three_seq_align::seq::gen::random_seq(Alphabet::Dna, 150, &mut rng);
    let reference = full::align_score(&a, &b, &c, &scoring);
    let never = CancelToken::never();
    let dc = hirschberg3::align(&a, &b, &c, &scoring, false, SimdKernel::Auto, &never).unwrap();
    assert_eq!(dc.score, reference);
    let planes = Sweep::new(Order::Planes, SimdKernel::Auto);
    assert_eq!(planes.score(&a, &b, &c, &scoring).unwrap(), reference);
}

#[test]
#[ignore = "large: k=12 progressive MSA with refinement"]
fn large_progressive_msa() {
    use three_seq_align::msa::{refine, MsaBuilder};
    let mut seqs = Vec::new();
    let mut batch = 0u64;
    while seqs.len() < 12 {
        let fam = FamilyConfig::new(120, 0.15, 0.04).generate(7777 + batch);
        for m in fam.members {
            if seqs.len() < 12 {
                seqs.push(m);
            }
        }
        batch += 1;
    }
    let scoring = Scoring::dna_default();
    let msa = MsaBuilder::new()
        .scoring(scoring.clone())
        .align(&seqs)
        .unwrap();
    msa.validate(&seqs).unwrap();
    let refined = refine::refine(&msa, &scoring, 2);
    assert!(refined.msa.sp_score >= msa.sp_score);
    refined.msa.validate(&seqs).unwrap();
}
