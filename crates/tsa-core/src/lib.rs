//! Exact optimal three-sequence alignment — the paper's contribution.
//!
//! Given sequences `A`, `B`, `C` and a [`tsa_scoring::Scoring`], every
//! algorithm in this crate computes the globally optimal sum-of-pairs
//! alignment (or its score) over the `(|A|+1)(|B|+1)(|C|+1)` DP lattice:
//!
//! | module | algorithm | output | time | space |
//! |---|---|---|---|---|
//! | [`full`] | sequential full-lattice DP (the slab sweep, every slab kept, scalar or SIMD rows) | score + alignment | `O(n³)` | `O(n³)` |
//! | [`wavefront`] | plane-parallel DP (rayon) | score + alignment | `O(n³/P)` | `O(n³)` |
//! | [`sweep`] | the exact sweep engine: slab, plane, or `t×t×t` tile order × SIMD kernel × cancel × checkpoint | score (slabs: also Hirschberg faces) | `O(n³)` / `O(n³/P)` | `O(n²)` (tiles `O(n³)`) |
//! | [`hirschberg3`] | 3D divide & conquer over slab faces, one or two face sweeps at a time | score + alignment | `≤ 2·O(n³)` | `O(n²)` |
//! | [`affine`] | quasi-natural affine-gap DP (Gotoh-style, 7 gap states) | score + alignment | `O(7²·n³)` | `O(7·n³)` |
//! | [`carrillo_lipman`] | bound-pruned DP: the slab sweep over each `(i, j)` row's kept `k`-interval (what `auto` alignments run), the dense lattice past a break-even | score + alignment | `O(kept + n²)`, `≪ O(n³)` for similar inputs | `O(kept + n²)`; `O(n³)` after a fallback |
//! | [`local`] | 3D Smith–Waterman (best common sub-segments) | score + local alignment | `O(n³)` | `O(n³)` |
//! | [`anchored`] | seed–chain–extend heuristic (exact DP between shared k-mer anchors) | near-optimal alignment | ≈ linear for similar inputs | gap-sized lattices |
//! | [`center_star`] | heuristic baseline from pairwise alignments | approximate alignment | `O(n²)` | `O(n²)` |
//! | [`bounds`] | pairwise-projection upper bound | bound | `O(n²)` | `O(n)` |
//!
//! The high-level entry point is [`Aligner`], a builder whose
//! [`Aligner::plan`] decides once what a job runs (the resolved algorithm
//! and sweep order), how a score-only job checkpoints, and what the job
//! costs in cell updates and peak bytes; every entry point dispatches on
//! that plan. The result type is [`Alignment3`].
//!
//! ```
//! use tsa_core::{Aligner, Algorithm};
//! use tsa_seq::Seq;
//!
//! let a = Seq::dna("GATTACA").unwrap();
//! let b = Seq::dna("GATACA").unwrap();
//! let c = Seq::dna("GTTACA").unwrap();
//! let aln = Aligner::new().algorithm(Algorithm::Wavefront).align3(&a, &b, &c).unwrap();
//! aln.validate(&a, &b, &c).unwrap();
//! ```

pub mod affine;
pub mod aligner;
pub mod alignment;
pub mod anchored;
pub mod bounds;
pub mod cancel;
pub mod carrillo_lipman;
pub mod center_star;
pub mod checkpoint;
pub mod dp;
pub mod format;
pub mod full;
pub mod hirschberg3;
pub mod kernel;
pub mod local;
pub mod stats;
pub mod sweep;
pub mod wavefront;

pub use aligner::{Algorithm, AlignError, Aligner, Plan, Run};
pub use alignment::{Alignment3, Column3, ValidationError};
pub use cancel::{CancelProgress, CancelToken};
pub use checkpoint::{
    job_fingerprint, scrub_snapshot_dir, CheckpointConfig, CheckpointPolicy, CheckpointSink,
    DurableStop, FrontierSnapshot, KernelKind, MemorySink, ResumeError, SnapshotError,
    SnapshotScrub,
};
pub use dp::NEG_INF;
pub use kernel::{ResolvedKernel, SimdKernel};

#[cfg(test)]
pub(crate) mod test_util {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tsa_seq::gen::random_seq;
    use tsa_seq::{Alphabet, Seq};

    /// Deterministic random DNA triple for cross-algorithm tests.
    pub fn random_triple(seed: u64, max_len: usize) -> (Seq, Seq, Seq) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |_| {
            let len = rng.gen_range(0..=max_len);
            random_seq(Alphabet::Dna, len, &mut rng)
        };
        (mk(0), mk(1), mk(2))
    }

    /// A related (family) triple, more realistic than independent randoms.
    pub fn family_triple(seed: u64, len: usize) -> (Seq, Seq, Seq) {
        let fam = tsa_seq::family::FamilyConfig::new(len, 0.15, 0.05).generate(seed);
        let [a, b, c] = fam.members;
        (a, b, c)
    }
}
