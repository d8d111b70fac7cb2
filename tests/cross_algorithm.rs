//! Cross-crate integration: every exact algorithm, run through the public
//! facade, must agree — on scores, on bounds, and (for the full-lattice
//! family) on the canonical traceback itself.

use three_seq_align::core::{bounds, center_star, Algorithm, Aligner, CancelToken, SimdKernel};
use three_seq_align::prelude::*;

fn exact_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 4 },
        Algorithm::TileWavefront { tile: 16 },
        Algorithm::Hirschberg,
        Algorithm::ParallelHirschberg,
        Algorithm::CarrilloLipman,
    ]
}

fn workloads() -> Vec<(Seq, Seq, Seq)> {
    let mut out = Vec::new();
    for (len, sub, indel, seed) in [
        (12usize, 0.1, 0.02, 1u64),
        (24, 0.2, 0.05, 2),
        (32, 0.4, 0.10, 3),
        (20, 0.05, 0.00, 4),
    ] {
        let fam = FamilyConfig::new(len, sub, indel).generate(seed);
        let [a, b, c] = fam.members;
        out.push((a, b, c));
    }
    // Rotations of one 38-residue block: similar enough that two band
    // widths can score alike short of the optimum (an adaptive band that
    // stopped there returned 108 for 135).
    out.push((
        Seq::dna("ACGAGTCGGTTAAGATTTTCATATTATGCAGAAAATCTACTTCGCCTGAT").unwrap(),
        Seq::dna("AGATTTTCATATTATGCAGAAAATCTACTTCGCCTGATACGAGTCGGTTA").unwrap(),
        Seq::dna("AGATTTTCATATTATGCAGAAAATCTACTTCGCCTGATTCTTCGGATACT").unwrap(),
    ));
    // A deliberately lopsided triple.
    out.push((
        Seq::dna("ACGTACGTACGTACGTACGTACGT").unwrap(),
        Seq::dna("ACG").unwrap(),
        Seq::dna("TTTT").unwrap(),
    ));
    out
}

#[test]
fn exact_algorithms_agree_on_scores_and_validate() {
    for (idx, (a, b, c)) in workloads().iter().enumerate() {
        let reference = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(a, b, c)
            .unwrap();
        reference
            .validate_scored(a, b, c, &Scoring::dna_default())
            .unwrap();
        for alg in exact_algorithms() {
            let aln = Aligner::new().algorithm(alg).align3(a, b, c).unwrap();
            assert_eq!(aln.score, reference.score, "workload {idx}, {alg:?}");
            aln.validate(a, b, c)
                .unwrap_or_else(|e| panic!("workload {idx}, {alg:?}: {e}"));
        }
    }
}

#[test]
fn full_lattice_family_produces_identical_tracebacks() {
    // FullDp, Wavefront and TileWavefront share the canonical tie-break,
    // so their alignments are column-for-column identical. The reference
    // is the scalar slab lattice; `Auto` (what the service answers with:
    // the SIMD slab lattice) must match it too, and so must the tile
    // loop's lattice at every tile edge, ragged boundary tiles included.
    for (a, b, c) in workloads() {
        let reference = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .kernel(SimdKernel::Scalar)
            .align3(&a, &b, &c)
            .unwrap();
        let tiled = [1, 4, 7, 8, 64].map(|tile| Algorithm::TileWavefront { tile });
        for alg in [Algorithm::Auto, Algorithm::Wavefront]
            .into_iter()
            .chain(tiled)
        {
            let aln = Aligner::new().algorithm(alg).align3(&a, &b, &c).unwrap();
            assert_eq!(aln.columns, reference.columns, "{alg:?}");
        }
    }
}

#[test]
fn bounds_bracket_every_workload() {
    let scoring = Scoring::dna_default();
    for (a, b, c) in workloads() {
        let br = bounds::bounds(&a, &b, &c, &scoring);
        let exact = Aligner::new().score3(&a, &b, &c).unwrap();
        assert!(
            br.contains(exact),
            "exact {exact} outside [{}, {}]",
            br.lower,
            br.upper
        );
    }
}

#[test]
fn heuristic_is_feasible_and_dominated() {
    let scoring = Scoring::dna_default();
    for (a, b, c) in workloads() {
        let star = center_star::align(&a, &b, &c, &scoring);
        star.alignment.validate(&a, &b, &c).unwrap();
        let exact = Aligner::new().score3(&a, &b, &c).unwrap();
        assert!(star.alignment.score <= exact);
    }
}

#[test]
fn score3_and_align3_agree_via_facade() {
    let fam = FamilyConfig::new(28, 0.15, 0.05).generate(77);
    let (a, b, c) = fam.triple();
    for alg in exact_algorithms() {
        let aligner = Aligner::new().algorithm(alg);
        assert_eq!(
            aligner.score3(a, b, c).unwrap(),
            aligner.align3(a, b, c).unwrap().score,
            "{alg:?}"
        );
    }
}

#[test]
fn scoring_presets_all_work_end_to_end() {
    let fam = FamilyConfig::protein(16, 0.2, 0.03).generate(5);
    let (a, b, c) = fam.triple();
    for scoring in [
        Scoring::unit(),
        Scoring::edit_distance(),
        Scoring::blosum62(),
        Scoring::blosum50(),
        Scoring::pam250(),
    ] {
        let aln = Aligner::new()
            .scoring(scoring.clone())
            .algorithm(Algorithm::Wavefront)
            .align3(a, b, c)
            .unwrap();
        aln.validate_scored(a, b, c, &scoring).unwrap();
    }
}

/// `Auto` score jobs (the pruned sweep over two rolling sparse slabs, or
/// the slab sweep it falls back to) equal the scalar full DP on random,
/// family, lopsided and protein triples, and each takes the arm named.
#[test]
fn auto_scores_match_the_scalar_full_dp_on_both_arms() {
    use three_seq_align::core::full;
    use three_seq_align::seq::gen::random_seq_seeded;
    let dna = |n, seed| random_seq_seeded(Alphabet::Dna, n, seed);
    let protein = |n, seed| random_seq_seeded(Alphabet::Protein, n, seed);
    let family = |config: FamilyConfig, seed| config.generate(seed).members;
    // (label, triple, scoring, falls back).
    let cases = [
        (
            "random 64³",
            [dna(64, 1), dna(64, 2), dna(64, 3)],
            Scoring::dna_default(),
            false,
        ),
        (
            "family 64",
            family(FamilyConfig::new(64, 0.15, 0.05), 4),
            Scoring::dna_default(),
            false,
        ),
        (
            "protein 48³",
            [protein(48, 5), protein(48, 6), protein(48, 7)],
            Scoring::blosum62(),
            false,
        ),
        (
            "protein family 56",
            family(FamilyConfig::protein(56, 0.3, 0.05), 8),
            Scoring::blosum62(),
            false,
        ),
        (
            "lopsided 40×120×70",
            [dna(40, 9), dna(120, 10), dna(70, 11)],
            Scoring::dna_default(),
            false,
        ),
        (
            "thin 16×200×30",
            [dna(16, 12), dna(200, 13), dna(30, 14)],
            Scoring::dna_default(),
            true,
        ),
        (
            "unrelated 20×100×40",
            [dna(20, 100), dna(100, 101), dna(40, 102)],
            Scoring::dna_default(),
            true,
        ),
    ];
    let never = CancelToken::never();
    for (label, [a, b, c], scoring, falls_back) in cases {
        let aligner = Aligner::new().scoring(scoring.clone());
        let plan = aligner.plan(a.len(), b.len(), c.len(), true);
        assert_eq!(plan.algorithm, Algorithm::CarrilloLipman, "{label}");
        let run = aligner.run_cancellable(&a, &b, &c, true, &never).unwrap();
        assert_eq!(
            run.score,
            full::align_score(&a, &b, &c, &scoring),
            "{label}"
        );
        assert_eq!(run.fallback.is_some(), falls_back, "{label}: {run:?}");
        assert_eq!(run.cells == plan.cells, falls_back, "{label}");
    }
}
