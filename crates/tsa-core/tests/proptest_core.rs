//! Crate-level property tests for the newer aligner variants — the ones
//! the workspace-level suites predate: Carrillo–Lipman, local alignment,
//! and the anchored heuristic.

use proptest::prelude::*;
use tsa_core::anchored::{self, AnchorConfig};
use tsa_core::{carrillo_lipman, center_star, full, local, CancelToken, SimdKernel};
use tsa_scoring::Scoring;
use tsa_seq::family::FamilyConfig;
use tsa_seq::Seq;

fn dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..=max_len,
    )
    .prop_map(|v| Seq::dna(v).unwrap())
}

fn scoring() -> Scoring {
    Scoring::dna_default()
}

/// The pruned sweep's alignment and its score (two rolling sparse slabs,
/// or the slab sweep it falls back to) under `kernel` must equal the
/// scalar full lattice's, column for column; both report the path taken.
fn pruned_matches_full([a, b, c]: &[Seq; 3], s: &Scoring, kernel: SimdKernel) {
    let never = CancelToken::never();
    let want = full::align(a, b, c, s);
    let (aln, pruning) = carrillo_lipman::align(a, b, c, s, kernel, &never).unwrap();
    let (score, scored) = carrillo_lipman::score(a, b, c, s, kernel, &never).unwrap();
    prop_assert_eq!(&aln, &want);
    prop_assert_eq!(score, want.score);
    for p in [pruning, scored] {
        prop_assert!(p.cells() <= p.cube);
        prop_assert_eq!(p.cells() == p.cube, p.fallback());
    }
    // Both arms count the same intervals when they prune.
    if let (Some(kept), Some(scored)) = (pruning.kept, scored.kept) {
        prop_assert_eq!(kept, scored);
    }
}

/// Random residues of `alphabet`, `lo..=hi` long.
fn residues(alphabet: &'static [u8], lo: usize, hi: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(alphabet.to_vec()), lo..=hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn carrillo_lipman_always_recovers_the_optimum(a in dna(40), b in dna(40), c in dna(40)) {
        // Unrelated triples, lengths 0 and 1 included.
        pruned_matches_full(&[a, b, c], &scoring(), SimdKernel::Auto);
    }

    #[test]
    fn pruned_sweep_matches_full_on_families(
        len in 1usize..=64,
        rate in 0.0f64..=0.5,
        seed in any::<u64>(),
        protein in any::<bool>(),
        scalar in any::<bool>(),
    ) {
        // Family triples from identical to half substituted, DNA under the
        // default scoring and protein under BLOSUM62, long enough that
        // intervals span 8 or more SIMD lanes, and past n = 39 long enough
        // to compute the bounds (shorter cubes are thin and sweep densely
        // at once); under the scalar rows too.
        let (config, s) = if protein {
            (FamilyConfig::protein(len, rate, 0.05), Scoring::blosum62())
        } else {
            (FamilyConfig::new(len, rate, 0.05), scoring())
        };
        let kernel = if scalar { SimdKernel::Scalar } else { SimdKernel::Auto };
        pruned_matches_full(&config.generate(seed).members, &s, kernel);
    }

    #[test]
    fn pruned_sweep_matches_full_on_lopsided_triples(
        a in residues(b"ACGT", 8, 48),
        b in residues(b"ACGT", 40, 120),
        c in residues(b"ACGT", 16, 72),
        protein in any::<bool>(),
    ) {
        // Unrelated lopsided triples: thin ones skip the bounds, wide ones
        // fall back past the break-even, the rest stay pruned. As protein,
        // the same bytes under BLOSUM62.
        let (alphabet, s) = if protein {
            (tsa_seq::Alphabet::Protein, Scoring::blosum62())
        } else {
            (tsa_seq::Alphabet::Dna, scoring())
        };
        let seq = |r: Vec<u8>| Seq::new("x", alphabet, r).unwrap();
        pruned_matches_full(&[seq(a), seq(b), seq(c)], &s, SimdKernel::Auto);
    }

    #[test]
    fn local_dominates_global_and_zero(a in dna(9), b in dna(9), c in dna(9)) {
        let s = scoring();
        let loc = local::align(&a, &b, &c, &s);
        prop_assert!(loc.alignment.score >= 0);
        prop_assert!(loc.alignment.score >= full::align_score(&a, &b, &c, &s));
        // The segment re-scores to its reported score.
        prop_assert_eq!(loc.alignment.rescore(&s), loc.alignment.score);
        // Parallel local agrees.
        prop_assert_eq!(
            local::align_score_parallel(&a, &b, &c, &s),
            loc.alignment.score
        );
    }

    #[test]
    fn local_ranges_cover_the_degapped_rows(a in dna(9), b in dna(9), c in dna(9)) {
        let s = scoring();
        let loc = local::align(&a, &b, &c, &s);
        for (r, seq) in [&a, &b, &c].into_iter().enumerate() {
            let (lo, hi) = loc.ranges[r];
            prop_assert!(lo <= hi && hi <= seq.len());
            prop_assert_eq!(loc.alignment.degapped_row(r), &seq.residues()[lo..hi]);
        }
    }

    #[test]
    fn anchored_is_feasible_and_dominated(a in dna(16), b in dna(16), c in dna(16)) {
        let s = scoring();
        let cfg = AnchorConfig { kmer: 4, ..AnchorConfig::default() };
        let aln = anchored::align(&a, &b, &c, &s, &cfg);
        prop_assert!(aln.validate_scored(&a, &b, &c, &s).is_ok());
        prop_assert!(aln.score <= full::align_score(&a, &b, &c, &s));
    }

    #[test]
    fn anchored_chain_is_colinear(a in dna(24)) {
        let cfg = AnchorConfig { kmer: 3, max_occurrences: 8, max_anchors: 500 };
        let anchors = anchored::find_anchors(&a, &a, &a, &cfg);
        let chain = anchored::chain_anchors(&anchors);
        for w in chain.windows(2) {
            prop_assert!(w[0].i + w[0].len <= w[1].i);
            prop_assert!(w[0].j + w[0].len <= w[1].j);
            prop_assert!(w[0].k + w[0].len <= w[1].k);
        }
    }

    #[test]
    fn heuristic_hierarchy_holds(a in dna(10), b in dna(10), c in dna(10)) {
        // exact ≥ anchored and exact ≥ center-star, always.
        let s = scoring();
        let exact = full::align_score(&a, &b, &c, &s);
        let cfg = AnchorConfig { kmer: 4, ..AnchorConfig::default() };
        prop_assert!(anchored::align(&a, &b, &c, &s, &cfg).score <= exact);
        prop_assert!(center_star::align(&a, &b, &c, &s).alignment.score <= exact);
    }
}
