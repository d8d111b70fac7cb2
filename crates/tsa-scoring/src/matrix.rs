//! Substitution matrices.
//!
//! A [`SubstMatrix`] maps a pair of residue bytes to a score through a dense
//! 256×256 table, so the hot-loop lookup is a single indexed load with no
//! branching or case folding (tables are built for both upper- and
//! lower-case bytes). The table is behind an `Arc`, so cloning a matrix (or
//! a `Scoring`) is cheap and sharing one across rayon workers is free.
//!
//! Besides parametric match/mismatch matrices, the standard protein matrices
//! BLOSUM62, BLOSUM50 and PAM250 are bundled, in the conventional
//! `ARNDCQEGHILKMFPSTWYV` residue order.

use std::sync::Arc;

/// Residue order of the bundled protein matrix tables.
pub const PROTEIN_ORDER: &[u8; 20] = b"ARNDCQEGHILKMFPSTWYV";

/// A dense residue-pair substitution matrix.
#[derive(Clone)]
pub struct SubstMatrix {
    name: &'static str,
    table: Arc<[i32]>, // 256 * 256
}

impl std::fmt::Debug for SubstMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubstMatrix")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl SubstMatrix {
    /// Build a matrix from an arbitrary scoring function over byte pairs.
    ///
    /// The function is sampled for every `(a, b)` byte pair once; lookups
    /// afterwards are pure table loads. Case-insensitivity (or not) is up to
    /// the provided function; the preset constructors all fold case.
    pub fn from_fn(name: &'static str, f: impl Fn(u8, u8) -> i32) -> Self {
        let mut table = vec![0i32; 256 * 256];
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                table[(a as usize) << 8 | b as usize] = f(a, b);
            }
        }
        SubstMatrix {
            name,
            table: table.into(),
        }
    }

    /// A match/mismatch matrix: `match_score` when the (case-folded) bytes
    /// are equal, `mismatch_score` otherwise. Wildcards (`N`, `X`) score 0
    /// against everything.
    pub fn match_mismatch(name: &'static str, match_score: i32, mismatch_score: i32) -> Self {
        SubstMatrix::from_fn(name, |a, b| {
            let (a, b) = (a.to_ascii_uppercase(), b.to_ascii_uppercase());
            if a == b'N' || b == b'N' || a == b'X' || b == b'X' {
                0
            } else if a == b {
                match_score
            } else {
                mismatch_score
            }
        })
    }

    /// Build from a 20×20 protein table in [`PROTEIN_ORDER`]. Pairs with a
    /// non-standard residue (including the `X` wildcard) score `default`.
    pub fn from_protein_table(name: &'static str, rows: &[[i32; 20]; 20], default: i32) -> Self {
        let index = |byte: u8| -> Option<usize> {
            PROTEIN_ORDER
                .iter()
                .position(|&r| r == byte.to_ascii_uppercase())
        };
        SubstMatrix::from_fn(name, |a, b| match (index(a), index(b)) {
            (Some(i), Some(j)) => rows[i][j],
            _ => default,
        })
    }

    /// The matrix's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Substitution score of two residue bytes.
    #[inline(always)]
    pub fn sub(&self, a: u8, b: u8) -> i32 {
        // Safety of plain indexing: (a << 8 | b) < 65536 == table.len().
        self.table[(a as usize) << 8 | b as usize]
    }

    /// Whether `other` is a clone of this matrix, sharing its table: the
    /// `O(1)` identity check that lets callers skip comparing all 65,536
    /// entries against a preset.
    pub fn shares_table(&self, other: &SubstMatrix) -> bool {
        std::sync::Arc::ptr_eq(&self.table, &other.table)
    }

    /// Is `m(a, b) == m(b, a)` for every byte pair?
    pub fn is_symmetric(&self) -> bool {
        (0..=255u8).all(|a| (a..=255u8).all(|b| self.sub(a, b) == self.sub(b, a)))
    }

    /// The BLOSUM62 matrix (half-bit units).
    pub fn blosum62() -> Self {
        SubstMatrix::from_protein_table("BLOSUM62", &BLOSUM62, 0)
    }

    /// The BLOSUM50 matrix (third-bit units).
    pub fn blosum50() -> Self {
        SubstMatrix::from_protein_table("BLOSUM50", &BLOSUM50, 0)
    }

    /// The PAM250 matrix.
    pub fn pam250() -> Self {
        SubstMatrix::from_protein_table("PAM250", &PAM250, 0)
    }
}

/// BLOSUM62, rows/cols in [`PROTEIN_ORDER`].
#[rustfmt::skip]
pub const BLOSUM62: [[i32; 20]; 20] = [
    //  A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [   4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0], // A
    [  -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3], // R
    [  -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3], // N
    [  -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3], // D
    [   0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1], // C
    [  -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2], // Q
    [  -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2], // E
    [   0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3], // G
    [  -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3], // H
    [  -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3], // I
    [  -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1], // L
    [  -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2], // K
    [  -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1], // M
    [  -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1], // F
    [  -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2], // P
    [   1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2], // S
    [   0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0], // T
    [  -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3], // W
    [  -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1], // Y
    [   0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4], // V
];

/// BLOSUM50, rows/cols in [`PROTEIN_ORDER`].
#[rustfmt::skip]
pub const BLOSUM50: [[i32; 20]; 20] = [
    //  A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [   5, -2, -1, -2, -1, -1, -1,  0, -2, -1, -2, -1, -1, -3, -1,  1,  0, -3, -2,  0], // A
    [  -2,  7, -1, -2, -4,  1,  0, -3,  0, -4, -3,  3, -2, -3, -3, -1, -1, -3, -1, -3], // R
    [  -1, -1,  7,  2, -2,  0,  0,  0,  1, -3, -4,  0, -2, -4, -2,  1,  0, -4, -2, -3], // N
    [  -2, -2,  2,  8, -4,  0,  2, -1, -1, -4, -4, -1, -4, -5, -1,  0, -1, -5, -3, -4], // D
    [  -1, -4, -2, -4, 13, -3, -3, -3, -3, -2, -2, -3, -2, -2, -4, -1, -1, -5, -3, -1], // C
    [  -1,  1,  0,  0, -3,  7,  2, -2,  1, -3, -2,  2,  0, -4, -1,  0, -1, -1, -1, -3], // Q
    [  -1,  0,  0,  2, -3,  2,  6, -3,  0, -4, -3,  1, -2, -3, -1, -1, -1, -3, -2, -3], // E
    [   0, -3,  0, -1, -3, -2, -3,  8, -2, -4, -4, -2, -3, -4, -2,  0, -2, -3, -3, -4], // G
    [  -2,  0,  1, -1, -3,  1,  0, -2, 10, -4, -3,  0, -1, -1, -2, -1, -2, -3,  2, -4], // H
    [  -1, -4, -3, -4, -2, -3, -4, -4, -4,  5,  2, -3,  2,  0, -3, -3, -1, -3, -1,  4], // I
    [  -2, -3, -4, -4, -2, -2, -3, -4, -3,  2,  5, -3,  3,  1, -4, -3, -1, -2, -1,  1], // L
    [  -1,  3,  0, -1, -3,  2,  1, -2,  0, -3, -3,  6, -2, -4, -1,  0, -1, -3, -2, -3], // K
    [  -1, -2, -2, -4, -2,  0, -2, -3, -1,  2,  3, -2,  7,  0, -3, -2, -1, -1,  0,  1], // M
    [  -3, -3, -4, -5, -2, -4, -3, -4, -1,  0,  1, -4,  0,  8, -4, -3, -2,  1,  4, -1], // F
    [  -1, -3, -2, -1, -4, -1, -1, -2, -2, -3, -4, -1, -3, -4, 10, -1, -1, -4, -3, -3], // P
    [   1, -1,  1,  0, -1,  0, -1,  0, -1, -3, -3,  0, -2, -3, -1,  5,  2, -4, -2, -2], // S
    [   0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  2,  5, -3, -2,  0], // T
    [  -3, -3, -4, -5, -5, -1, -3, -3, -3, -3, -2, -3, -1,  1, -4, -4, -3, 15,  2, -3], // W
    [  -2, -1, -2, -3, -3, -1, -2, -3,  2, -1, -1, -2,  0,  4, -3, -2, -2,  2,  8, -1], // Y
    [   0, -3, -3, -4, -1, -3, -3, -4, -4,  4,  1, -3,  1, -1, -3, -2,  0, -3, -1,  5], // V
];

/// PAM250, rows/cols in [`PROTEIN_ORDER`].
#[rustfmt::skip]
pub const PAM250: [[i32; 20]; 20] = [
    //  A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [   2, -2,  0,  0, -2,  0,  0,  1, -1, -1, -2, -1, -1, -3,  1,  1,  1, -6, -3,  0], // A
    [  -2,  6,  0, -1, -4,  1, -1, -3,  2, -2, -3,  3,  0, -4,  0,  0, -1,  2, -4, -2], // R
    [   0,  0,  2,  2, -4,  1,  1,  0,  2, -2, -3,  1, -2, -3,  0,  1,  0, -4, -2, -2], // N
    [   0, -1,  2,  4, -5,  2,  3,  1,  1, -2, -4,  0, -3, -6, -1,  0,  0, -7, -4, -2], // D
    [  -2, -4, -4, -5, 12, -5, -5, -3, -3, -2, -6, -5, -5, -4, -3,  0, -2, -8,  0, -2], // C
    [   0,  1,  1,  2, -5,  4,  2, -1,  3, -2, -2,  1, -1, -5,  0, -1, -1, -5, -4, -2], // Q
    [   0, -1,  1,  3, -5,  2,  4,  0,  1, -2, -3,  0, -2, -5, -1,  0,  0, -7, -4, -2], // E
    [   1, -3,  0,  1, -3, -1,  0,  5, -2, -3, -4, -2, -3, -5,  0,  1,  0, -7, -5, -1], // G
    [  -1,  2,  2,  1, -3,  3,  1, -2,  6, -2, -2,  0, -2, -2,  0, -1, -1, -3,  0, -2], // H
    [  -1, -2, -2, -2, -2, -2, -2, -3, -2,  5,  2, -2,  2,  1, -2, -1,  0, -5, -1,  4], // I
    [  -2, -3, -3, -4, -6, -2, -3, -4, -2,  2,  6, -3,  4,  2, -3, -3, -2, -2, -1,  2], // L
    [  -1,  3,  1,  0, -5,  1,  0, -2,  0, -2, -3,  5,  0, -5, -1,  0,  0, -3, -4, -2], // K
    [  -1,  0, -2, -3, -5, -1, -2, -3, -2,  2,  4,  0,  6,  0, -2, -2, -1, -4, -2,  2], // M
    [  -3, -4, -3, -6, -4, -5, -5, -5, -2,  1,  2, -5,  0,  9, -5, -3, -3,  0,  7, -1], // F
    [   1,  0,  0, -1, -3,  0, -1,  0,  0, -2, -3, -1, -2, -5,  6,  1,  0, -6, -5, -1], // P
    [   1,  0,  1,  0,  0, -1,  0,  1, -1, -1, -3,  0, -2, -3,  1,  2,  1, -2, -3, -1], // S
    [   1, -1,  0,  0, -2, -1,  0,  0, -1,  0, -2,  0, -1, -3,  0,  1,  3, -5, -3,  0], // T
    [  -6,  2, -4, -7, -8, -5, -7, -7, -3, -5, -2, -3, -4,  0, -6, -2, -5, 17,  0, -6], // W
    [  -3, -4, -2, -4,  0, -4, -4, -5,  0, -1, -1, -4, -2,  7, -5, -3, -3,  0, 10, -2], // Y
    [   0, -2, -2, -2, -2, -2, -2, -1, -2,  4,  2, -2,  2, -1, -1, -1,  0, -6, -2,  4], // V
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_mismatch_basic() {
        let m = SubstMatrix::match_mismatch("t", 3, -2);
        assert_eq!(m.sub(b'A', b'A'), 3);
        assert_eq!(m.sub(b'A', b'a'), 3);
        assert_eq!(m.sub(b'A', b'C'), -2);
        assert_eq!(m.name(), "t");
    }

    #[test]
    fn wildcards_score_zero() {
        let m = SubstMatrix::match_mismatch("t", 3, -2);
        assert_eq!(m.sub(b'N', b'A'), 0);
        assert_eq!(m.sub(b'A', b'N'), 0);
        assert_eq!(m.sub(b'X', b'X'), 0);
    }

    #[test]
    fn all_presets_are_symmetric() {
        for m in [
            SubstMatrix::blosum62(),
            SubstMatrix::blosum50(),
            SubstMatrix::pam250(),
            SubstMatrix::match_mismatch("mm", 5, -4),
        ] {
            assert!(m.is_symmetric(), "{} is not symmetric", m.name());
        }
    }

    #[test]
    fn table_constants_are_symmetric() {
        for (name, t) in [
            ("BLOSUM62", &BLOSUM62),
            ("BLOSUM50", &BLOSUM50),
            ("PAM250", &PAM250),
        ] {
            for i in 0..20 {
                for j in 0..20 {
                    assert_eq!(
                        t[i][j], t[j][i],
                        "{name}[{}][{}] asymmetric",
                        PROTEIN_ORDER[i] as char, PROTEIN_ORDER[j] as char
                    );
                }
            }
        }
    }

    #[test]
    fn blosum62_spot_checks() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.sub(b'W', b'W'), 11);
        assert_eq!(m.sub(b'A', b'A'), 4);
        assert_eq!(m.sub(b'E', b'D'), 2);
        assert_eq!(m.sub(b'I', b'V'), 3);
        assert_eq!(m.sub(b'C', b'C'), 9);
        assert_eq!(m.sub(b'P', b'P'), 7);
    }

    #[test]
    fn pam250_spot_checks() {
        let m = SubstMatrix::pam250();
        assert_eq!(m.sub(b'W', b'W'), 17);
        assert_eq!(m.sub(b'C', b'C'), 12);
        assert_eq!(m.sub(b'F', b'Y'), 7);
        assert_eq!(m.sub(b'D', b'W'), -7);
    }

    #[test]
    fn blosum50_spot_checks() {
        let m = SubstMatrix::blosum50();
        assert_eq!(m.sub(b'W', b'W'), 15);
        assert_eq!(m.sub(b'H', b'H'), 10);
        assert_eq!(m.sub(b'P', b'P'), 10);
    }

    #[test]
    fn protein_diagonals_are_positive() {
        for m in [
            SubstMatrix::blosum62(),
            SubstMatrix::blosum50(),
            SubstMatrix::pam250(),
        ] {
            for &r in PROTEIN_ORDER {
                assert!(m.sub(r, r) > 0, "{}({0}, {0}) <= 0", m.name());
            }
        }
    }

    #[test]
    fn protein_lookup_is_case_insensitive() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.sub(b'w', b'W'), 11);
        assert_eq!(m.sub(b'w', b'w'), 11);
    }

    #[test]
    fn unknown_protein_residue_scores_default() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.sub(b'X', b'W'), 0);
        assert_eq!(m.sub(b'Z', b'Z'), 0);
        assert_eq!(m.sub(b'*', b'A'), 0);
    }

    #[test]
    fn from_fn_is_sampled_exactly() {
        let m = SubstMatrix::from_fn("sum", |a, b| a as i32 + b as i32);
        assert_eq!(m.sub(0, 0), 0);
        assert_eq!(m.sub(255, 255), 510);
        assert_eq!(m.sub(b'A', b'B'), 65 + 66);
    }

    #[test]
    fn clone_shares_table() {
        let m = SubstMatrix::blosum62();
        let c = m.clone();
        assert_eq!(m.sub(b'A', b'R'), c.sub(b'A', b'R'));
    }
}
