//! Crate-level property tests for the newer aligner variants — the ones
//! the workspace-level suites predate: Carrillo–Lipman, local alignment,
//! and the anchored heuristic.

use proptest::prelude::*;
use tsa_core::anchored::{self, AnchorConfig};
use tsa_core::{carrillo_lipman, center_star, full, local};
use tsa_scoring::Scoring;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn carrillo_lipman_always_recovers_the_optimum(a in dna(10), b in dna(10), c in dna(10)) {
        let s = scoring();
        let (score, stats) = carrillo_lipman::align_score_with_stats(&a, &b, &c, &s);
        prop_assert_eq!(score, full::align_score(&a, &b, &c, &s));
        prop_assert!(stats.visited <= stats.total);
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
