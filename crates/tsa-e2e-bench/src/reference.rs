//! The benchmark's own correctness oracle: a scalar linear-gap
//! sum-of-pairs DP in `O(n²)` memory, and a validator for returned rows.
//!
//! Deliberately independent of every `tsa-core` kernel, so a kernel
//! change cannot make the program and its check agree on a wrong score.

use tsa_scoring::Scoring;

/// Below any reachable score; a sum with a substitution cannot overflow.
const NEG: i32 = i32::MIN / 4;

/// The optimal sum-of-pairs score of `a`, `b`, `c` under linear gaps.
///
/// Rolls two `(|b|+1) × (|c|+1)` planes over `a`; each cell takes the
/// best of its seven predecessors.
///
/// # Panics
/// Panics when `scoring` has an affine gap model.
pub fn sp_score(a: &[u8], b: &[u8], c: &[u8], scoring: &Scoring) -> i32 {
    let g2 = 2 * scoring.gap_linear();
    let w = c.len() + 1;
    let mut prev = vec![NEG; (b.len() + 1) * w];
    let mut cur = vec![NEG; (b.len() + 1) * w];
    for i in 0..=a.len() {
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                let at = j * w + k;
                if i == 0 && j == 0 && k == 0 {
                    cur[at] = 0;
                    continue;
                }
                let mut best = NEG;
                if i > 0 {
                    let x = a[i - 1];
                    best = best.max(prev[at] + g2);
                    if j > 0 {
                        best = best.max(prev[at - w] + scoring.sub(x, b[j - 1]) + g2);
                    }
                    if k > 0 {
                        best = best.max(prev[at - 1] + scoring.sub(x, c[k - 1]) + g2);
                    }
                    if j > 0 && k > 0 {
                        let (y, z) = (b[j - 1], c[k - 1]);
                        best = best.max(
                            prev[at - w - 1]
                                + scoring.sub(x, y)
                                + scoring.sub(x, z)
                                + scoring.sub(y, z),
                        );
                    }
                }
                if j > 0 {
                    best = best.max(cur[at - w] + g2);
                }
                if k > 0 {
                    best = best.max(cur[at - 1] + g2);
                }
                if j > 0 && k > 0 {
                    best = best.max(cur[at - w - 1] + scoring.sub(b[j - 1], c[k - 1]) + g2);
                }
                cur[at] = best;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len() * w + c.len()]
}

/// Check returned rows against the inputs and the reported score: the
/// rows have equal length, removing gaps (`-`) gives back each input,
/// and their linear-gap sum-of-pairs rescoring equals `score`.
pub fn check_rows(
    rows: &[String; 3],
    seqs: [&[u8]; 3],
    scoring: &Scoring,
    score: i32,
) -> Result<(), String> {
    let len = rows[0].len();
    if rows.iter().any(|r| r.len() != len) {
        return Err("rows differ in length".into());
    }
    for (i, (row, seq)) in rows.iter().zip(seqs).enumerate() {
        if !row.bytes().filter(|&r| r != b'-').eq(seq.iter().copied()) {
            return Err(format!("row {i} without gaps is not input {i}"));
        }
    }
    let cell = |row: &String, col: usize| Some(row.as_bytes()[col]).filter(|&r| r != b'-');
    let pair = |x: Option<u8>, y: Option<u8>| match (x, y) {
        (Some(x), Some(y)) => scoring.sub(x, y),
        (None, None) => 0,
        _ => scoring.gap_linear(),
    };
    let rescored: i32 = (0..len)
        .map(|col| {
            let [x, y, z] = [0, 1, 2].map(|r| cell(&rows[r], col));
            pair(x, y) + pair(x, z) + pair(y, z)
        })
        .sum();
    if rescored != score {
        return Err(format!("rows rescore to {rescored}, reported {score}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SplitMix64, DNA, PROTEIN};
    use crate::replay::rows_to_strings;
    use tsa_core::{Algorithm, Aligner, SimdKernel};
    use tsa_seq::Seq;

    fn random(rng: &mut SplitMix64, alphabet: &[u8], max: usize) -> Vec<u8> {
        let n = rng.range(0, max);
        (0..n)
            .map(|_| alphabet[rng.range(0, alphabet.len() - 1)])
            .collect()
    }

    /// 60 seeded triples, DNA and protein, plus the empty and length-1
    /// edge cases, each scored by the reference and by the scalar
    /// full-lattice DP; the DP's rows must also pass the validator.
    #[test]
    fn reference_matches_scalar_full_dp() {
        let mut rng = SplitMix64::new(11);
        let mut cases: Vec<(bool, [Vec<u8>; 3])> = vec![
            (false, [vec![], vec![], vec![]]),
            (false, [b"A".to_vec(), vec![], vec![]]),
            (false, [b"A".to_vec(), b"C".to_vec(), b"A".to_vec()]),
            (true, [b"W".to_vec(), b"W".to_vec(), vec![]]),
            (true, [vec![], b"MK".to_vec(), b"K".to_vec()]),
        ];
        for i in 0..60 {
            let protein = i % 3 == 0;
            let alphabet = if protein { PROTEIN } else { DNA };
            cases.push((
                protein,
                std::array::from_fn(|_| random(&mut rng, alphabet, 24)),
            ));
        }
        for (protein, seqs) in &cases {
            let scoring = if *protein {
                Scoring::blosum62()
            } else {
                Scoring::dna_default()
            };
            let to_seq = |s: &Vec<u8>| {
                if *protein {
                    Seq::protein(s).unwrap()
                } else {
                    Seq::dna(s).unwrap()
                }
            };
            let [a, b, c] = [0, 1, 2].map(|i| to_seq(&seqs[i]));
            let aln = Aligner::new()
                .scoring(scoring.clone())
                .algorithm(Algorithm::FullDp)
                .kernel(SimdKernel::Scalar)
                .align3(&a, &b, &c)
                .unwrap();
            let want = sp_score(&seqs[0], &seqs[1], &seqs[2], &scoring);
            assert_eq!(aln.score, want, "{seqs:?}");
            let slices = [0, 1, 2].map(|i| seqs[i].as_slice());
            check_rows(&rows_to_strings(&aln), slices, &scoring, want).unwrap();
        }
    }

    #[test]
    fn validator_rejects_tampered_rows() {
        let scoring = Scoring::dna_default();
        let seqs: [&[u8]; 3] = [b"ACG", b"AG", b"ACG"];
        let good = ["ACG".to_string(), "A-G".to_string(), "ACG".to_string()];
        let score = sp_score(seqs[0], seqs[1], seqs[2], &scoring);
        check_rows(&good, seqs, &scoring, score).unwrap();
        assert!(check_rows(&good, seqs, &scoring, score + 1).is_err());
        let short = ["ACG".to_string(), "AG".to_string(), "ACG".to_string()];
        assert!(check_rows(&short, seqs, &scoring, score).is_err());
        let wrong = ["ACG".to_string(), "A-C".to_string(), "ACG".to_string()];
        assert!(check_rows(&wrong, seqs, &scoring, score).is_err());
    }
}
