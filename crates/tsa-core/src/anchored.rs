//! Anchored (seed–chain–extend) three-sequence alignment.
//!
//! The production-aligner recipe applied to three sequences:
//!
//! 1. **Seed** — find exact three-way k-mer matches
//!    ([`tsa_seq::kmer::shared_kmers`]);
//! 2. **Chain** — pick the highest-coverage colinear, non-overlapping
//!    subset of anchors (an `O(A²)` longest-chain DP);
//! 3. **Extend** — run the *exact* DP only on the (small) gaps between
//!    consecutive anchors, emitting the anchors themselves as three-way
//!    match columns.
//!
//! The result is a feasible alignment whose score lower-bounds the
//! optimum; for similar sequences the inter-anchor gaps are tiny, so the
//! cost collapses from one `O(n³)` lattice to a sum of small ones —
//! trading the exactness guarantee (kept by `carrillo_lipman`)
//! for speed on long inputs.

use crate::alignment::{Alignment3, Column3};
use crate::full;
use tsa_scoring::Scoring;
use tsa_seq::kmer::shared_kmers;
use tsa_seq::Seq;

/// A three-way exact match: `a[i..i+len] == b[j..j+len] == c[k..k+len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Start in A.
    pub i: usize,
    /// Start in B.
    pub j: usize,
    /// Start in C.
    pub k: usize,
    /// Match length.
    pub len: usize,
}

/// Configuration for the anchored aligner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorConfig {
    /// Seed k-mer length.
    pub kmer: usize,
    /// Skip k-mers occurring more often than this in any input.
    pub max_occurrences: usize,
    /// Keep at most this many seed triples before chaining (`O(A²)`
    /// chaining cost); excess seeds are dropped evenly.
    pub max_anchors: usize,
}

impl Default for AnchorConfig {
    fn default() -> Self {
        AnchorConfig {
            kmer: 12,
            max_occurrences: 4,
            max_anchors: 2000,
        }
    }
}

/// Find seed anchors for the three sequences.
pub fn find_anchors(a: &Seq, b: &Seq, c: &Seq, config: &AnchorConfig) -> Vec<Anchor> {
    let mut seeds = shared_kmers(a, b, c, config.kmer, config.max_occurrences);
    if seeds.len() > config.max_anchors {
        // Thin evenly to keep coverage spread across the sequences.
        let stride = seeds.len().div_ceil(config.max_anchors);
        seeds = seeds.into_iter().step_by(stride).collect();
    }
    seeds
        .into_iter()
        .map(|(i, j, k)| Anchor {
            i,
            j,
            k,
            len: config.kmer,
        })
        .collect()
}

/// Select the maximum-coverage colinear, non-overlapping anchor chain
/// (`O(A²)` DP over anchors sorted by position).
pub fn chain_anchors(anchors: &[Anchor]) -> Vec<Anchor> {
    if anchors.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<Anchor> = anchors.to_vec();
    sorted.sort_by_key(|x| (x.i, x.j, x.k));
    let n = sorted.len();
    // best[x] = max covered length of a chain ending at anchor x.
    let mut best = vec![0usize; n];
    let mut prev = vec![usize::MAX; n];
    for x in 0..n {
        best[x] = sorted[x].len;
        for y in 0..x {
            let fits = sorted[y].i + sorted[y].len <= sorted[x].i
                && sorted[y].j + sorted[y].len <= sorted[x].j
                && sorted[y].k + sorted[y].len <= sorted[x].k;
            if fits && best[y] + sorted[x].len > best[x] {
                best[x] = best[y] + sorted[x].len;
                prev[x] = y;
            }
        }
    }
    let mut at = (0..n).max_by_key(|&x| best[x]).expect("non-empty");
    let mut chain = Vec::new();
    loop {
        chain.push(sorted[at]);
        if prev[at] == usize::MAX {
            break;
        }
        at = prev[at];
    }
    chain.reverse();
    chain
}

/// Anchored heuristic alignment: exact DP between chained anchors, literal
/// match columns inside them. Falls back to the plain exact DP when no
/// anchors are found.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, config: &AnchorConfig) -> Alignment3 {
    let chain = chain_anchors(&find_anchors(a, b, c, config));
    if chain.is_empty() {
        return full::align(a, b, c, scoring);
    }
    let mut columns: Vec<Column3> = Vec::new();
    let (mut pi, mut pj, mut pk) = (0usize, 0usize, 0usize);
    for anchor in &chain {
        // Exact DP on the gap region before this anchor.
        let ga = a.slice(pi, anchor.i);
        let gb = b.slice(pj, anchor.j);
        let gc = c.slice(pk, anchor.k);
        columns.extend(full::align(&ga, &gb, &gc, scoring).columns);
        // The anchor itself: three-way matches by construction.
        for off in 0..anchor.len {
            let r = a.residues()[anchor.i + off];
            debug_assert_eq!(r, b.residues()[anchor.j + off]);
            debug_assert_eq!(r, c.residues()[anchor.k + off]);
            columns.push([Some(r); 3]);
        }
        (pi, pj, pk) = (
            anchor.i + anchor.len,
            anchor.j + anchor.len,
            anchor.k + anchor.len,
        );
    }
    // Tail after the last anchor.
    let ga = a.slice(pi, a.len());
    let gb = b.slice(pj, b.len());
    let gc = c.slice(pk, c.len());
    columns.extend(full::align(&ga, &gb, &gc, scoring).columns);

    let mut aln = Alignment3::new(columns, 0);
    aln.score = aln.rescore(scoring);
    aln
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn cfg(k: usize) -> AnchorConfig {
        AnchorConfig {
            kmer: k,
            ..AnchorConfig::default()
        }
    }

    #[test]
    fn identical_sequences_align_exactly() {
        let a = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, 60, 5);
        let aln = align(&a, &a, &a, &s(), &cfg(8));
        assert_eq!(aln.score, full::align_score(&a, &a, &a, &s()));
        aln.validate_scored(&a, &a, &a, &s()).unwrap();
        assert_eq!(aln.full_match_columns(), 60);
    }

    #[test]
    fn result_is_always_feasible_and_dominated() {
        for seed in 0..10 {
            let (a, b, c) = family_triple(seed + 20, 40);
            let aln = align(&a, &b, &c, &s(), &cfg(8));
            aln.validate_scored(&a, &b, &c, &s())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                aln.score <= full::align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn similar_families_stay_near_optimal() {
        let (a, b, c) = family_triple(3, 80);
        let exact = full::align_score(&a, &b, &c, &s());
        let anchored = align(&a, &b, &c, &s(), &cfg(10)).score;
        assert!(anchored <= exact);
        assert!(
            (exact - anchored) as f64 <= 0.15 * exact.abs().max(1) as f64,
            "exact {exact}, anchored {anchored}"
        );
    }

    #[test]
    fn no_anchors_falls_back_to_exact() {
        // Unrelated randoms with a large k: no shared 12-mers.
        let (a, b, c) = random_triple(9, 20);
        let aln = align(&a, &b, &c, &s(), &cfg(12));
        assert_eq!(aln.score, full::align_score(&a, &b, &c, &s()));
        aln.validate_scored(&a, &b, &c, &s()).unwrap();
    }

    #[test]
    fn chain_respects_colinearity() {
        let anchors = vec![
            Anchor {
                i: 0,
                j: 0,
                k: 0,
                len: 4,
            },
            Anchor {
                i: 10,
                j: 10,
                k: 10,
                len: 4,
            },
            // Crossing anchor: behind in B — cannot chain with both others.
            Anchor {
                i: 6,
                j: 2,
                k: 6,
                len: 4,
            },
        ];
        let chain = chain_anchors(&anchors);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].i, 0);
        assert_eq!(chain[1].i, 10);
        for w in chain.windows(2) {
            assert!(w[0].i + w[0].len <= w[1].i);
            assert!(w[0].j + w[0].len <= w[1].j);
            assert!(w[0].k + w[0].len <= w[1].k);
        }
    }

    #[test]
    fn chain_prefers_total_coverage() {
        // One long anchor vs two short incompatible ones.
        let anchors = vec![
            Anchor {
                i: 0,
                j: 0,
                k: 0,
                len: 3,
            },
            Anchor {
                i: 5,
                j: 5,
                k: 5,
                len: 3,
            },
            Anchor {
                i: 2,
                j: 2,
                k: 2,
                len: 10,
            },
        ];
        let chain = chain_anchors(&anchors);
        let covered: usize = chain.iter().map(|a| a.len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let aln = align(&e, &e, &e, &s(), &cfg(8));
        assert!(aln.is_empty());
        let a = Seq::dna("ACGTACGTACGT").unwrap();
        let aln = align(&a, &e, &e, &s(), &cfg(4));
        aln.validate_scored(&a, &e, &e, &s()).unwrap();
    }

    #[test]
    fn anchor_thinning_keeps_count_bounded() {
        let a = tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, 300, 77);
        let config = AnchorConfig {
            kmer: 4,
            max_occurrences: 20,
            max_anchors: 100,
        };
        let anchors = find_anchors(&a, &a, &a, &config);
        assert!(anchors.len() <= 100 + 1, "{}", anchors.len());
    }
}
