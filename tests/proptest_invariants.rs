//! Property-based invariants over random inputs (proptest).
//!
//! These are the load-bearing correctness arguments of the repository:
//! every cheaper or more parallel algorithm is pinned to the sequential
//! full-lattice DP, every traceback is pinned to its score, and the
//! classic inequalities (projection bound, heuristic domination,
//! permutation invariance) are checked on arbitrary sequences, not just
//! the curated workloads.

use proptest::prelude::*;
use three_seq_align::core::sweep::{Order, Sweep};
use three_seq_align::core::{
    affine, bounds, center_star, full, hirschberg3, wavefront, CancelToken, SimdKernel,
};
use three_seq_align::pairwise::{banded, gotoh, hirschberg as hirschberg2, nw, wavefront_par};
use three_seq_align::prelude::*;
use three_seq_align::scoring::GapModel;

fn dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..=max_len,
    )
    .prop_map(|v| Seq::dna(v).expect("generated DNA is valid"))
}

fn scoring() -> Scoring {
    Scoring::dna_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pairwise_variants_agree(a in dna(40), b in dna(40)) {
        let s = scoring();
        let reference = nw::align_score(&a, &b, &s);
        prop_assert_eq!(hirschberg2::align(&a, &b, &s).score, reference);
        prop_assert_eq!(wavefront_par::align_score(&a, &b, &s), reference);
        prop_assert_eq!(banded::align_adaptive(&a, &b, &s).score, reference);
        // Gotoh with zero open equals linear NW.
        let zero_open = scoring().with_gap(GapModel::affine(0, -2));
        prop_assert_eq!(gotoh::align_score(&a, &b, &zero_open), reference);
    }

    #[test]
    fn pairwise_tracebacks_are_valid(a in dna(32), b in dna(32)) {
        let s = scoring();
        for aln in [nw::align(&a, &b, &s), hirschberg2::align(&a, &b, &s)] {
            prop_assert!(aln.validate(&a, &b, &s).is_ok());
        }
    }

    #[test]
    fn three_seq_variants_agree(a in dna(10), b in dna(10), c in dna(10)) {
        let s = scoring();
        let reference = full::align_score(&a, &b, &c, &s);
        prop_assert_eq!(wavefront::align_score(&a, &b, &c, &s), reference);
        for order in [Order::Slabs, Order::Planes, Order::Tiles { tile: 4 }] {
            let sweep = Sweep::new(order, SimdKernel::Auto);
            prop_assert_eq!(sweep.score(&a, &b, &c, &s).unwrap(), reference);
        }
        for parallel in [false, true] {
            let never = CancelToken::never();
            let dc = hirschberg3::align(&a, &b, &c, &s, parallel, SimdKernel::Auto, &never);
            prop_assert_eq!(dc.unwrap().score, reference);
        }
    }

    #[test]
    fn three_seq_tracebacks_are_valid_and_optimal(a in dna(9), b in dna(9), c in dna(9)) {
        let s = scoring();
        let aln = full::align(&a, &b, &c, &s);
        prop_assert!(aln.validate_scored(&a, &b, &c, &s).is_ok());
        let never = CancelToken::never();
        let dc = hirschberg3::align(&a, &b, &c, &s, false, SimdKernel::Auto, &never).unwrap();
        prop_assert!(dc.validate_scored(&a, &b, &c, &s).is_ok());
        prop_assert_eq!(dc.score, aln.score);
    }

    #[test]
    fn score_is_permutation_invariant(a in dna(8), b in dna(8), c in dna(8)) {
        let s = scoring();
        let base = full::align_score(&a, &b, &c, &s);
        prop_assert_eq!(full::align_score(&a, &c, &b, &s), base);
        prop_assert_eq!(full::align_score(&b, &a, &c, &s), base);
        prop_assert_eq!(full::align_score(&b, &c, &a, &s), base);
        prop_assert_eq!(full::align_score(&c, &a, &b, &s), base);
        prop_assert_eq!(full::align_score(&c, &b, &a, &s), base);
    }

    #[test]
    fn projection_bound_and_heuristic_bracket(a in dna(9), b in dna(9), c in dna(9)) {
        let s = scoring();
        let exact = full::align_score(&a, &b, &c, &s);
        let br = bounds::bounds(&a, &b, &c, &s);
        prop_assert!(br.contains(exact), "{} outside [{}, {}]", exact, br.lower, br.upper);
    }

    #[test]
    fn center_star_is_feasible(a in dna(16), b in dna(16), c in dna(16)) {
        let s = scoring();
        let star = center_star::align(&a, &b, &c, &s);
        prop_assert!(star.alignment.validate(&a, &b, &c).is_ok());
    }

    #[test]
    fn affine_zero_open_matches_linear(a in dna(6), b in dna(6), c in dna(6)) {
        let lin = scoring();
        let aff = scoring().with_gap(GapModel::affine(0, -2));
        prop_assert_eq!(
            affine::align_score(&a, &b, &c, &aff),
            full::align_score(&a, &b, &c, &lin)
        );
    }

    #[test]
    fn affine_traceback_consistent(a in dna(6), b in dna(6), c in dna(6)) {
        let aff = scoring().with_gap(GapModel::affine(-5, -1));
        let aln = affine::align(&a, &b, &c, &aff);
        prop_assert!(aln.validate(&a, &b, &c).is_ok());
        prop_assert_eq!(affine::quasi_natural_score(&aln.columns, &aff), aln.score);
    }

    #[test]
    fn aligning_with_self_gives_triple_pair_score(a in dna(12)) {
        // align3(a, a, a) with identical sequences: every column is a
        // 3-way match, so SP = 3 × (pairwise self score).
        let s = scoring();
        let triple = full::align_score(&a, &a, &a, &s);
        let pair = nw::align_score(&a, &a, &s);
        prop_assert_eq!(triple, 3 * pair);
    }

    #[test]
    fn alignment_length_is_bounded(a in dna(8), b in dna(8), c in dna(8)) {
        let s = scoring();
        let aln = full::align(&a, &b, &c, &s);
        let max_len = a.len() + b.len() + c.len();
        let min_len = a.len().max(b.len()).max(c.len());
        prop_assert!(aln.len() <= max_len);
        prop_assert!(aln.len() >= min_len);
    }
}
