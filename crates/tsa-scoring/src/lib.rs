//! Scoring substrate: substitution matrices, gap models, and sum-of-pairs
//! (SP) scoring for two- and three-row alignments.
//!
//! Every aligner in the workspace maximizes a score built from two parts:
//!
//! * a **substitution matrix** ([`SubstMatrix`]) giving `s(a, b)` for two
//!   residues — unit match/mismatch, the DNA default, or a real protein
//!   matrix (BLOSUM62, BLOSUM50, PAM250);
//! * a **gap model** ([`GapModel`]) — linear (`g` per residue against a gap)
//!   or affine (`open + k·extend` for a run of `k` gaps).
//!
//! The pair is bundled as [`Scoring`]. For three sequences the per-column
//! score is the *sum of pairs*: the three pairwise scores of the column's
//! residue/gap entries, where a gap–gap pair contributes 0.
//!
//! ```
//! use tsa_scoring::{Scoring, GapModel};
//!
//! let s = Scoring::dna_default();
//! assert_eq!(s.sub(b'A', b'A'), 2);
//! assert_eq!(s.sub(b'A', b'C'), -1);
//! assert_eq!(s.gap.linear_penalty(), Some(-2));
//!
//! // SP score of the column (A, A, -):
//! let col = [Some(b'A'), Some(b'A'), None];
//! assert_eq!(s.sp_column(col), 2 + (-2) + (-2));
//! ```

pub mod gap;
pub mod matrix;
pub mod sp;

pub use gap::GapModel;
pub use matrix::SubstMatrix;

use std::sync::OnceLock;

/// "Minus infinity" for DP cells that are unreachable. Chosen far below any
/// attainable score yet far above `i32::MIN`, so adding per-cell transition
/// scores to it can never wrap around.
pub const NEG_INF: i32 = i32::MIN / 4;

/// A complete scoring scheme: substitution matrix + gap model.
#[derive(Debug, Clone)]
pub struct Scoring {
    /// Residue-pair substitution scores.
    pub matrix: SubstMatrix,
    /// Gap cost model.
    pub gap: GapModel,
}

impl Scoring {
    /// Bundle an explicit matrix and gap model.
    pub fn new(matrix: SubstMatrix, gap: GapModel) -> Self {
        Scoring { matrix, gap }
    }

    /// The workspace's DNA default: match `+2`, mismatch `-1`, linear gap
    /// `-2` — the classic parameterization for nucleotide global alignment.
    pub fn dna_default() -> Self {
        static DNA: OnceLock<Scoring> = OnceLock::new();
        DNA.get_or_init(|| {
            Scoring::new(
                SubstMatrix::match_mismatch("dna", 2, -1),
                GapModel::linear(-2),
            )
        })
        .clone()
    }

    /// Unit scores: match `+1`, mismatch `-1`, linear gap `-1`. Handy for
    /// hand-checkable tests.
    pub fn unit() -> Self {
        static UNIT: OnceLock<Scoring> = OnceLock::new();
        UNIT.get_or_init(|| {
            Scoring::new(
                SubstMatrix::match_mismatch("unit", 1, -1),
                GapModel::linear(-1),
            )
        })
        .clone()
    }

    /// Edit-distance-like scores: match `0`, mismatch `-1`, gap `-1`.
    /// With these, `-score` of an optimal pairwise alignment equals the
    /// Levenshtein distance.
    pub fn edit_distance() -> Self {
        static EDIT: OnceLock<Scoring> = OnceLock::new();
        EDIT.get_or_init(|| {
            Scoring::new(
                SubstMatrix::match_mismatch("edit", 0, -1),
                GapModel::linear(-1),
            )
        })
        .clone()
    }

    /// BLOSUM62 with a linear gap of `-8` (override with [`Scoring::with_gap`]).
    pub fn blosum62() -> Self {
        static BLOSUM62: OnceLock<Scoring> = OnceLock::new();
        BLOSUM62
            .get_or_init(|| Scoring::new(SubstMatrix::blosum62(), GapModel::linear(-8)))
            .clone()
    }

    /// BLOSUM50 with a linear gap of `-8`.
    pub fn blosum50() -> Self {
        static BLOSUM50: OnceLock<Scoring> = OnceLock::new();
        BLOSUM50
            .get_or_init(|| Scoring::new(SubstMatrix::blosum50(), GapModel::linear(-8)))
            .clone()
    }

    /// PAM250 with a linear gap of `-8`.
    pub fn pam250() -> Self {
        static PAM250: OnceLock<Scoring> = OnceLock::new();
        PAM250
            .get_or_init(|| Scoring::new(SubstMatrix::pam250(), GapModel::linear(-8)))
            .clone()
    }

    /// Look up a preset by its canonical name, as used by the CLI flags
    /// and the batch-service protocol: `dna`, `unit`, `edit`, `blosum62`,
    /// `blosum50` or `pam250`. Returns `None` for unknown names so callers
    /// can report the bad input themselves. Each preset is built once per
    /// process: every lookup, like every preset constructor, shares its
    /// table.
    pub fn by_name(name: &str) -> Option<Scoring> {
        Some(match name {
            "dna" => Scoring::dna_default(),
            "unit" => Scoring::unit(),
            "edit" => Scoring::edit_distance(),
            "blosum62" => Scoring::blosum62(),
            "blosum50" => Scoring::blosum50(),
            "pam250" => Scoring::pam250(),
            _ => return None,
        })
    }

    /// Replace the gap model, keeping the matrix.
    pub fn with_gap(mut self, gap: GapModel) -> Self {
        self.gap = gap;
        self
    }

    /// Substitution score of two residues.
    #[inline(always)]
    pub fn sub(&self, a: u8, b: u8) -> i32 {
        self.matrix.sub(a, b)
    }

    /// Per-residue gap contribution for linear scoring. Panics for affine
    /// models — linear-gap algorithms must check [`GapModel::linear_penalty`]
    /// up front.
    #[inline(always)]
    pub fn gap_linear(&self) -> i32 {
        self.gap
            .linear_penalty()
            .expect("linear gap model required (affine configured)")
    }

    /// Sum-of-pairs score of a single 3-row column under linear gaps.
    #[inline]
    pub fn sp_column(&self, col: [Option<u8>; 3]) -> i32 {
        sp::sp_column(self, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_default_values() {
        let s = Scoring::dna_default();
        assert_eq!(s.sub(b'G', b'G'), 2);
        assert_eq!(s.sub(b'G', b'T'), -1);
        assert_eq!(s.gap_linear(), -2);
    }

    #[test]
    fn unit_and_edit_distance_presets() {
        let u = Scoring::unit();
        assert_eq!(u.sub(b'A', b'A'), 1);
        assert_eq!(u.sub(b'A', b'T'), -1);
        let e = Scoring::edit_distance();
        assert_eq!(e.sub(b'A', b'A'), 0);
        assert_eq!(e.gap_linear(), -1);
    }

    #[test]
    fn with_gap_replaces_model() {
        let s = Scoring::blosum62().with_gap(GapModel::affine(-10, -1));
        assert!(s.gap.linear_penalty().is_none());
        assert_eq!(s.gap.open_penalty(), -10);
        assert_eq!(s.gap.extend_penalty(), -1);
    }

    #[test]
    #[should_panic(expected = "linear gap model required")]
    fn gap_linear_panics_on_affine() {
        let s = Scoring::unit().with_gap(GapModel::affine(-5, -1));
        let _ = s.gap_linear();
    }

    #[test]
    fn protein_presets_load() {
        for s in [Scoring::blosum62(), Scoring::blosum50(), Scoring::pam250()] {
            assert!(s.sub(b'W', b'W') > 0);
            assert!(s.sub(b'W', b'A') < 0);
        }
    }

    #[test]
    fn by_name_resolves_every_preset() {
        for name in ["dna", "unit", "edit", "blosum62", "blosum50", "pam250"] {
            let s = Scoring::by_name(name).unwrap();
            assert!(s.matrix.name().eq_ignore_ascii_case(name), "{name}");
        }
        assert!(Scoring::by_name("nope").is_none());
        assert!(Scoring::by_name("DNA").is_none());
    }

    #[test]
    fn each_preset_builds_one_shared_table() {
        for name in ["dna", "unit", "edit", "blosum62", "blosum50", "pam250"] {
            let (first, second) = (Scoring::by_name(name), Scoring::by_name(name));
            assert!(
                first.unwrap().matrix.shares_table(&second.unwrap().matrix),
                "{name}"
            );
        }
        assert!(Scoring::dna_default()
            .matrix
            .shares_table(&Scoring::by_name("dna").unwrap().matrix));
        // A table built outside the presets is its own, even when equal.
        let fresh = SubstMatrix::match_mismatch("dna", 2, -1);
        assert!(!fresh.shares_table(&Scoring::dna_default().matrix));
    }
}
