//! The high-level entry point: pick an algorithm, validate the
//! configuration, align.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::checkpoint::{CheckpointConfig, DurableStop, FrontierSnapshot, KernelKind, ResumeError};
use crate::kernel::SimdKernel;
use crate::sweep::{Checkpoint, Order, Sweep};
use crate::{
    affine, anchored, banded3, carrillo_lipman, center_star, full, hirschberg3, wavefront,
};
use std::fmt;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Which aligner to run. All exact variants produce the same optimal
/// score; `FullDp`/`Wavefront`/`TileWavefront` additionally produce
/// identical canonical tracebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Choose automatically: the affine DP for affine gap models, the
    /// parallel divide-and-conquer when the full lattice would exceed the
    /// memory budget, the plane wavefront otherwise.
    Auto,
    /// Sequential full-lattice DP (`O(n³)` time and space).
    FullDp,
    /// Plane-parallel wavefront DP (full lattice).
    Wavefront,
    /// `t×t×t` tile-wavefront: rayon over anti-diagonal planes of tiles,
    /// SIMD slab rows inside each tile (the score path of choice for long
    /// vector rows; `align3` runs the `Wavefront` lattice fill, whose
    /// canonical traceback is identical).
    TileWavefront {
        /// Tile edge length.
        tile: usize,
    },
    /// Sequential divide and conquer: optimal alignment in `O(n²)` space.
    Hirschberg,
    /// Parallel divide and conquer (parallel faces + parallel recursion).
    ParallelHirschberg,
    /// Center-star heuristic — **not exact**; `O(n²)` time.
    CenterStar,
    /// Carrillo–Lipman bound-pruned DP: exact, and far cheaper than the
    /// full lattice when the sequences are similar.
    CarrilloLipman,
    /// Banded DP with adaptive band widening — exact (the final fallback
    /// band covers the whole lattice) and cheap for similar sequences.
    BandedAdaptive,
    /// Seed–chain–extend heuristic (**not exact**): exact DP only between
    /// shared k-mer anchors. Near-linear for similar sequences.
    Anchored,
    /// Quasi-natural affine-gap DP (works for linear models too, as
    /// `open = 0`).
    AffineDp,
}

impl Algorithm {
    /// Look up an algorithm by its canonical name — the single spelling
    /// shared by the CLI `--algorithm` flag and the batch-service protocol.
    /// `tile` parameterizes `tile-wavefront` and is ignored by the other
    /// algorithms.
    pub fn by_name(name: &str, tile: usize) -> Option<Algorithm> {
        Some(match name {
            "auto" => Algorithm::Auto,
            "full" => Algorithm::FullDp,
            "wavefront" => Algorithm::Wavefront,
            "tile-wavefront" => Algorithm::TileWavefront { tile },
            "hirschberg" => Algorithm::Hirschberg,
            "par-hirschberg" => Algorithm::ParallelHirschberg,
            "center-star" => Algorithm::CenterStar,
            "carrillo-lipman" => Algorithm::CarrilloLipman,
            "banded" => Algorithm::BandedAdaptive,
            "anchored" => Algorithm::Anchored,
            "affine" => Algorithm::AffineDp,
            _ => return None,
        })
    }

    /// The canonical name accepted by [`Algorithm::by_name`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::FullDp => "full",
            Algorithm::Wavefront => "wavefront",
            Algorithm::TileWavefront { .. } => "tile-wavefront",
            Algorithm::Hirschberg => "hirschberg",
            Algorithm::ParallelHirschberg => "par-hirschberg",
            Algorithm::CenterStar => "center-star",
            Algorithm::CarrilloLipman => "carrillo-lipman",
            Algorithm::BandedAdaptive => "banded",
            Algorithm::Anchored => "anchored",
            Algorithm::AffineDp => "affine",
        }
    }
}

/// Configuration or input errors reported by [`Aligner::align3`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// The chosen algorithm needs a linear gap model but the scoring is
    /// affine. Use [`Algorithm::AffineDp`] (or `Auto`).
    AffineGapNeedsAffineAlgorithm,
    /// The full lattice would exceed `max_lattice_bytes`.
    LatticeTooLarge {
        /// Bytes the lattice would need.
        required: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Tile edge of zero.
    BadParameter(&'static str),
    /// A [`CancelToken`] fired mid-kernel (only the `*_cancellable` entry
    /// points report this); carries the progress made before stopping.
    Cancelled(CancelProgress),
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::AffineGapNeedsAffineAlgorithm => write!(
                f,
                "affine gap model configured: use Algorithm::AffineDp or Algorithm::Auto"
            ),
            AlignError::LatticeTooLarge { required, budget } => write!(
                f,
                "full lattice needs {required} bytes, over the {budget}-byte budget; \
                 use Hirschberg/ParallelHirschberg or raise max_lattice_bytes"
            ),
            AlignError::BadParameter(p) => write!(f, "invalid parameter: {p}"),
            AlignError::Cancelled(p) => write!(
                f,
                "cancelled mid-kernel after {}/{} cell updates",
                p.cells_done, p.cells_total
            ),
        }
    }
}

impl std::error::Error for AlignError {}

/// Builder for three-sequence alignment runs.
///
/// ```
/// use tsa_core::{Aligner, Algorithm};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let a = Seq::dna("ACGT").unwrap();
/// let aln = Aligner::new()
///     .scoring(Scoring::dna_default())
///     .algorithm(Algorithm::Hirschberg)
///     .align3(&a, &a, &a)
///     .unwrap();
/// assert_eq!(aln.score, 4 * 6);
/// ```
#[derive(Debug, Clone)]
pub struct Aligner {
    scoring: Scoring,
    algorithm: Algorithm,
    max_lattice_bytes: usize,
    kernel: SimdKernel,
}

impl Default for Aligner {
    fn default() -> Self {
        Aligner::new()
    }
}

impl Aligner {
    /// Default configuration: DNA default scoring, `Algorithm::Auto`, a
    /// 4 GiB full-lattice budget.
    pub fn new() -> Self {
        Aligner {
            scoring: Scoring::dna_default(),
            algorithm: Algorithm::Auto,
            max_lattice_bytes: 4 << 30,
            kernel: SimdKernel::Auto,
        }
    }

    /// An aligner that picks the algorithm automatically for the given
    /// scoring — by gap model, then by whether the full lattice fits the
    /// memory budget (see [`Aligner::resolve`]). This is the one selection
    /// code path shared by the CLI and the batch service.
    pub fn auto(scoring: Scoring) -> Self {
        Aligner::new().scoring(scoring)
    }

    /// Set the scoring scheme (matrix + gap model).
    pub fn scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = scoring;
        self
    }

    /// Replace only the gap model of the current scoring.
    pub fn gap(mut self, gap: tsa_scoring::GapModel) -> Self {
        self.scoring = self.scoring.with_gap(gap);
        self
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Cap the memory a full-lattice algorithm may allocate; `Auto` uses
    /// this to fall over to divide-and-conquer.
    pub fn max_lattice_bytes(mut self, bytes: usize) -> Self {
        self.max_lattice_bytes = bytes;
        self
    }

    /// Select the SIMD row kernel of the sweeps (the
    /// `kernel={auto,scalar,sse2,avx2}` knob). `Auto`, the default, is
    /// what served jobs run; explicit kernels serve the differential
    /// oracles, the benchmarks and `tsa align --kernel`. Every choice
    /// produces bit-identical scores; requests the CPU cannot honor
    /// degrade to the widest supported subset (see
    /// [`SimdKernel::resolve`]).
    pub fn kernel(mut self, kernel: SimdKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The effective algorithm `Auto` would resolve to for these lengths.
    pub fn resolve(&self, n1: usize, n2: usize, n3: usize) -> Algorithm {
        match self.algorithm {
            Algorithm::Auto => {
                if self.scoring.gap.linear_penalty().is_none() {
                    Algorithm::AffineDp
                } else if lattice_bytes(n1, n2, n3) > self.max_lattice_bytes {
                    Algorithm::ParallelHirschberg
                } else {
                    Algorithm::Wavefront
                }
            }
            other => other,
        }
    }

    /// The sweep order the score path of `algorithm` runs, if it has one.
    fn score_order(algorithm: Algorithm) -> Option<Order> {
        match algorithm {
            Algorithm::FullDp | Algorithm::Hirschberg => Some(Order::Slabs),
            Algorithm::Wavefront | Algorithm::ParallelHirschberg => Some(Order::Planes),
            Algorithm::TileWavefront { tile } => Some(Order::Tiles { tile }),
            _ => None,
        }
    }

    /// The [`crate::sweep`] order a job of these lengths runs: the score
    /// sweep of a score-only job, or the face sweeps of a Hirschberg
    /// alignment. `None` when no sweep (hence no SIMD row kernel) runs.
    pub fn sweep_order(&self, n1: usize, n2: usize, n3: usize, score_only: bool) -> Option<Order> {
        match self.resolve(n1, n2, n3) {
            alg if score_only => Self::score_order(alg),
            Algorithm::Hirschberg => Some(Order::Slabs),
            Algorithm::ParallelHirschberg => Some(Order::Planes),
            _ => None,
        }
    }

    /// The checkpointable kernel the resolved algorithm's score path maps
    /// to, if any: the slab sweep for `FullDp`/`Hirschberg`, the plane
    /// sweep for `Wavefront`/`ParallelHirschberg`/`TileWavefront`. `None`
    /// means [`Aligner::score3_durable`] cannot checkpoint or resume for
    /// these lengths.
    pub fn durable_kind(&self, n1: usize, n2: usize, n3: usize) -> Option<KernelKind> {
        Self::score_order(self.resolve(n1, n2, n3)).map(Order::checkpoint_kind)
    }

    /// Configuration checks for `algorithm`, run once per job: the gap
    /// model, the full-lattice budget (for paths that materialize the
    /// cube), and the tile edge.
    fn check(
        &self,
        algorithm: Algorithm,
        order: Option<Order>,
        n: [usize; 3],
    ) -> Result<(), AlignError> {
        if algorithm != Algorithm::AffineDp && self.scoring.gap.linear_penalty().is_none() {
            return Err(AlignError::AffineGapNeedsAffineAlgorithm);
        }
        let full_lattice = match order {
            Some(order) => matches!(order, Order::Tiles { .. }),
            None => matches!(
                algorithm,
                Algorithm::FullDp
                    | Algorithm::Wavefront
                    | Algorithm::TileWavefront { .. }
                    | Algorithm::CarrilloLipman
                    | Algorithm::BandedAdaptive
            ),
        };
        let required = lattice_bytes(n[0], n[1], n[2]);
        if full_lattice && required > self.max_lattice_bytes {
            return Err(AlignError::LatticeTooLarge {
                required,
                budget: self.max_lattice_bytes,
            });
        }
        if algorithm == (Algorithm::TileWavefront { tile: 0 }) {
            return Err(AlignError::BadParameter("tile must be ≥ 1"));
        }
        Ok(())
    }

    /// The one dispatch behind every entry point. Score-only jobs of the
    /// sweep algorithms run the [`crate::sweep`] engine (checkpointed when
    /// `checkpoint` is set); everything else runs its lattice algorithm.
    /// Every exact algorithm polls `cancel` once per slab or plane.
    fn run(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        score_only: bool,
        cancel: &CancelToken,
        checkpoint: Option<Checkpoint<'_>>,
    ) -> Result<(i32, Option<Alignment3>), DurableStop> {
        let s = &self.scoring;
        let algorithm = self.resolve(a.len(), b.len(), c.len());
        let order = Self::score_order(algorithm).filter(|_| score_only);
        self.check(algorithm, order, [a.len(), b.len(), c.len()])
            .map_err(DurableStop::Config)?;
        if let Some(order) = order {
            let sweep = Sweep {
                order,
                kernel: self.kernel,
                cancel: Some(cancel),
                checkpoint,
            };
            return sweep.score(a, b, c, s).map(|score| (score, None));
        }
        if let Some(snap) = checkpoint.and_then(|ck| ck.resume) {
            return Err(DurableStop::InvalidResume(ResumeError::Kind {
                expected: 0,
                found: snap.kind,
            }));
        }
        let traced = |lat: full::Lattice| full::traceback(&lat, a, b, c, s);
        let aln = match algorithm {
            Algorithm::Auto => unreachable!("resolve() never returns Auto"),
            Algorithm::FullDp => full::fill(a, b, c, s, cancel).map(traced),
            Algorithm::Wavefront | Algorithm::TileWavefront { .. } => {
                wavefront::fill(a, b, c, s, cancel).map(traced)
            }
            Algorithm::Hirschberg | Algorithm::ParallelHirschberg => {
                let parallel = algorithm == Algorithm::ParallelHirschberg;
                hirschberg3::align(a, b, c, s, parallel, self.kernel, cancel)
            }
            Algorithm::CarrilloLipman => carrillo_lipman::align(a, b, c, s, cancel),
            Algorithm::BandedAdaptive => banded3::align_adaptive(a, b, c, s, cancel),
            Algorithm::AffineDp if score_only => {
                let lat = affine::fill(a, b, c, s, cancel).map_err(DurableStop::Cancelled)?;
                return Ok((lat.final_score(), None));
            }
            Algorithm::AffineDp => {
                affine::fill(a, b, c, s, cancel).map(|lat| affine::traceback(&lat, a, b, c, s))
            }
            // The heuristics are quadratic: one check before starting.
            Algorithm::CenterStar | Algorithm::Anchored if cancel.should_stop() => {
                Err(CancelProgress::default())
            }
            Algorithm::CenterStar => Ok(center_star::align(a, b, c, s).alignment),
            Algorithm::Anchored => Ok(anchored::align(
                a,
                b,
                c,
                s,
                &anchored::AnchorConfig::default(),
            )),
        }
        .map_err(DurableStop::Cancelled)?;
        Ok((aln.score, (!score_only).then_some(aln)))
    }

    /// Align three sequences, producing a full [`Alignment3`].
    pub fn align3(&self, a: &Seq, b: &Seq, c: &Seq) -> Result<Alignment3, AlignError> {
        self.align3_cancellable(a, b, c, &CancelToken::never())
    }

    /// Compute only the optimal score — uses the quadratic-space sweeps
    /// where the algorithm permits.
    pub fn score3(&self, a: &Seq, b: &Seq, c: &Seq) -> Result<i32, AlignError> {
        self.score3_cancellable(a, b, c, &CancelToken::never())
    }

    /// Like [`Aligner::align3`], but cooperatively cancellable: every
    /// exact algorithm polls `cancel` once per `i`-slab or anti-diagonal
    /// plane and aborts with [`AlignError::Cancelled`] (carrying
    /// partial-progress stats) within one step of it firing. The
    /// quadratic heuristics check the token once before starting.
    pub fn align3_cancellable(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        cancel: &CancelToken,
    ) -> Result<Alignment3, AlignError> {
        let (_, aln) = self
            .run(a, b, c, false, cancel, None)
            .map_err(align_error)?;
        Ok(aln.expect("alignment jobs trace back"))
    }

    /// Like [`Aligner::score3`], but cooperatively cancellable (see
    /// [`Aligner::align3_cancellable`] for the checkpoint granularity).
    pub fn score3_cancellable(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        cancel: &CancelToken,
    ) -> Result<i32, AlignError> {
        Ok(self
            .run(a, b, c, true, cancel, None)
            .map_err(align_error)?
            .0)
    }

    /// Like [`Aligner::score3_cancellable`], plus durability: the rolling
    /// score sweeps periodically persist their frontier through `ckpt`
    /// and, when `resume` carries a fingerprint-matching snapshot,
    /// continue the sweep instead of starting over — with a score
    /// bit-identical to an uninterrupted run. Algorithms without a
    /// checkpointable score sweep (see [`Aligner::durable_kind`]) run
    /// their cancellable path and reject any offered snapshot.
    pub fn score3_durable(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        cancel: &CancelToken,
        ckpt: &CheckpointConfig<'_>,
        resume: Option<&FrontierSnapshot>,
    ) -> Result<i32, DurableStop> {
        let checkpoint = Checkpoint {
            config: ckpt,
            resume,
        };
        Ok(self.run(a, b, c, true, cancel, Some(checkpoint))?.0)
    }
}

/// The [`AlignError`] of a run without checkpoints.
fn align_error(stop: DurableStop) -> AlignError {
    match stop {
        DurableStop::Config(e) => e,
        DurableStop::Cancelled(p) => AlignError::Cancelled(p),
        other => unreachable!("a run without checkpoints stopped: {other}"),
    }
}

/// Bytes a full `i32` lattice for these lengths needs.
pub fn lattice_bytes(n1: usize, n2: usize, n3: usize) -> usize {
    (n1 + 1) * (n2 + 1) * (n3 + 1) * std::mem::size_of::<i32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::family_triple;
    use tsa_scoring::GapModel;

    #[test]
    fn all_exact_algorithms_agree() {
        let (a, b, c) = family_triple(8, 20);
        let reference = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        for alg in [
            Algorithm::Auto,
            Algorithm::Wavefront,
            Algorithm::TileWavefront { tile: 8 },
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::CarrilloLipman,
            Algorithm::BandedAdaptive,
        ] {
            let aln = Aligner::new().algorithm(alg).align3(&a, &b, &c).unwrap();
            assert_eq!(aln.score, reference.score, "{alg:?}");
            aln.validate_scored(&a, &b, &c, &Scoring::dna_default())
                .unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        }
    }

    #[test]
    fn score3_agrees_with_align3() {
        let (a, b, c) = family_triple(9, 18);
        for alg in [
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::TileWavefront { tile: 4 },
        ] {
            let al = Aligner::new().algorithm(alg).align3(&a, &b, &c).unwrap();
            let sc = Aligner::new().algorithm(alg).score3(&a, &b, &c).unwrap();
            assert_eq!(al.score, sc, "{alg:?}");
        }
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for alg in [
            Algorithm::Auto,
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::TileWavefront { tile: 8 },
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::CenterStar,
            Algorithm::CarrilloLipman,
            Algorithm::BandedAdaptive,
            Algorithm::Anchored,
            Algorithm::AffineDp,
        ] {
            assert_eq!(Algorithm::by_name(alg.name(), 8), Some(alg));
        }
        for retired in ["nope", "blocked", "dataflow"] {
            assert_eq!(Algorithm::by_name(retired, 8), None);
        }
    }

    #[test]
    fn auto_constructor_selects_like_resolve() {
        let (a, b, c) = family_triple(7, 14);
        let auto = Aligner::auto(Scoring::dna_default());
        assert_eq!(
            auto.resolve(a.len(), b.len(), c.len()),
            Algorithm::Wavefront
        );
        let pinned = Aligner::new().algorithm(Algorithm::FullDp);
        assert_eq!(
            auto.align3(&a, &b, &c).unwrap().score,
            pinned.align3(&a, &b, &c).unwrap().score
        );
    }

    #[test]
    fn auto_resolves_affine_to_affine_dp() {
        let al = Aligner::new().gap(GapModel::affine(-4, -1));
        assert_eq!(al.resolve(10, 10, 10), Algorithm::AffineDp);
    }

    #[test]
    fn auto_resolves_large_to_dc() {
        let al = Aligner::new().max_lattice_bytes(1 << 20);
        assert_eq!(al.resolve(1000, 1000, 1000), Algorithm::ParallelHirschberg);
        assert_eq!(al.resolve(10, 10, 10), Algorithm::Wavefront);
    }

    #[test]
    fn affine_scoring_rejected_by_linear_algorithms() {
        let (a, b, c) = family_triple(2, 6);
        let err = Aligner::new()
            .gap(GapModel::affine(-4, -1))
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap_err();
        assert_eq!(err, AlignError::AffineGapNeedsAffineAlgorithm);
    }

    #[test]
    fn affine_via_auto_works() {
        let (a, b, c) = family_triple(3, 8);
        let aln = Aligner::new()
            .gap(GapModel::affine(-4, -1))
            .align3(&a, &b, &c)
            .unwrap();
        aln.validate(&a, &b, &c).unwrap();
    }

    #[test]
    fn lattice_budget_is_enforced() {
        let (a, b, c) = family_triple(4, 40);
        let err = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .max_lattice_bytes(1024)
            .align3(&a, &b, &c)
            .unwrap_err();
        assert!(matches!(err, AlignError::LatticeTooLarge { .. }));
        // But Hirschberg has no full lattice, so it still runs.
        Aligner::new()
            .algorithm(Algorithm::Hirschberg)
            .max_lattice_bytes(1024)
            .align3(&a, &b, &c)
            .unwrap();
    }

    #[test]
    fn bad_parameters_are_reported() {
        let (a, b, c) = family_triple(5, 6);
        assert!(matches!(
            Aligner::new()
                .algorithm(Algorithm::TileWavefront { tile: 0 })
                .align3(&a, &b, &c),
            Err(AlignError::BadParameter(_))
        ));
        assert!(matches!(
            Aligner::new()
                .algorithm(Algorithm::TileWavefront { tile: 0 })
                .score3(&a, &b, &c),
            Err(AlignError::BadParameter(_))
        ));
    }

    #[test]
    fn anchored_is_a_valid_heuristic() {
        let (a, b, c) = family_triple(14, 30);
        let exact = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        let anchored = Aligner::new()
            .algorithm(Algorithm::Anchored)
            .align3(&a, &b, &c)
            .unwrap();
        anchored.validate(&a, &b, &c).unwrap();
        assert!(anchored.score <= exact.score);
    }

    #[test]
    fn center_star_is_a_valid_heuristic() {
        let (a, b, c) = family_triple(6, 16);
        let exact = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        let star = Aligner::new()
            .algorithm(Algorithm::CenterStar)
            .align3(&a, &b, &c)
            .unwrap();
        star.validate(&a, &b, &c).unwrap();
        assert!(star.score <= exact.score);
    }

    #[test]
    fn cancellable_entry_points_match_plain_when_unfired() {
        let (a, b, c) = family_triple(12, 16);
        let token = CancelToken::never();
        for alg in [
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::TileWavefront { tile: 4 },
        ] {
            let al = Aligner::new().algorithm(alg);
            assert_eq!(
                al.align3_cancellable(&a, &b, &c, &token).unwrap().score,
                al.align3(&a, &b, &c).unwrap().score,
                "{alg:?}"
            );
            assert_eq!(
                al.score3_cancellable(&a, &b, &c, &token).unwrap(),
                al.score3(&a, &b, &c).unwrap(),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn fired_token_yields_cancelled_error_for_every_algorithm() {
        let (a, b, c) = family_triple(13, 16);
        let token = CancelToken::never();
        token.cancel();
        for alg in [
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::TileWavefront { tile: 4 },
            Algorithm::AffineDp,
        ] {
            let al = Aligner::new().algorithm(alg);
            assert!(
                matches!(
                    al.align3_cancellable(&a, &b, &c, &token),
                    Err(AlignError::Cancelled(_))
                ),
                "{alg:?}"
            );
            assert!(
                matches!(
                    al.score3_cancellable(&a, &b, &c, &token),
                    Err(AlignError::Cancelled(_))
                ),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn durable_score_matches_plain_for_every_kernel() {
        use crate::checkpoint::{CheckpointConfig, MemorySink};
        let (a, b, c) = family_triple(17, 18);
        let token = CancelToken::never();
        for alg in [
            Algorithm::FullDp,
            Algorithm::Hirschberg,
            Algorithm::Wavefront,
            Algorithm::ParallelHirschberg,
            Algorithm::AffineDp,
            Algorithm::TileWavefront { tile: 4 },
        ] {
            let al = Aligner::new().algorithm(alg);
            let sink = MemorySink::new();
            let ckpt = CheckpointConfig::new(&sink).every_planes(2);
            assert_eq!(
                al.score3_durable(&a, &b, &c, &token, &ckpt, None).unwrap(),
                al.score3(&a, &b, &c).unwrap(),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn durable_kind_maps_score_kernels() {
        let al = Aligner::new();
        use crate::checkpoint::KernelKind;
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::Hirschberg)
                .durable_kind(8, 8, 8),
            Some(KernelKind::Slabs)
        );
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::Wavefront)
                .durable_kind(8, 8, 8),
            Some(KernelKind::Planes)
        );
        assert_eq!(al.durable_kind(8, 8, 8), Some(KernelKind::Planes)); // Auto
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::CenterStar)
                .durable_kind(8, 8, 8),
            None
        );
        assert_eq!(
            Aligner::new()
                .gap(GapModel::affine(-4, -1))
                .durable_kind(8, 8, 8),
            None
        );
    }

    #[test]
    fn durable_resume_continues_a_drained_sweep() {
        use crate::checkpoint::{CheckpointConfig, DurableStop, MemorySink};
        use std::sync::atomic::{AtomicBool, Ordering};
        let (a, b, c) = family_triple(23, 20);
        let al = Aligner::new().algorithm(Algorithm::Wavefront);
        let token = CancelToken::never();
        let sink = MemorySink::new();
        let drain = AtomicBool::new(false);
        let ckpt = CheckpointConfig::new(&sink)
            .every_planes(1)
            .drain_flag(&drain);

        // Arrange a mid-sweep drain: checkpoint every plane, fire the
        // drain flag once a snapshot exists.
        struct FireAfter<'a> {
            inner: &'a MemorySink,
            drain: &'a AtomicBool,
        }
        impl crate::checkpoint::CheckpointSink for FireAfter<'_> {
            fn store(&self, s: &crate::checkpoint::FrontierSnapshot) -> std::io::Result<()> {
                self.inner.store(s)?;
                self.drain.store(true, Ordering::Relaxed);
                Ok(())
            }
        }
        let firing = FireAfter {
            inner: &sink,
            drain: &drain,
        };
        let interrupting = CheckpointConfig {
            sink: &firing,
            policy: ckpt.policy,
            drain: Some(&drain),
        };
        let stop = al
            .score3_durable(&a, &b, &c, &token, &interrupting, None)
            .unwrap_err();
        assert!(matches!(stop, DurableStop::Drained(_)));

        let snap = sink.last().expect("snapshot stored");
        drain.store(false, Ordering::Relaxed);
        let resumed = al
            .score3_durable(&a, &b, &c, &token, &ckpt, Some(&snap))
            .unwrap();
        assert_eq!(resumed, al.score3(&a, &b, &c).unwrap());
    }

    #[test]
    fn non_durable_algorithm_rejects_snapshots() {
        use crate::checkpoint::{CheckpointConfig, DurableStop, FrontierSnapshot, MemorySink};
        let (a, b, c) = family_triple(29, 10);
        let sink = MemorySink::new();
        let ckpt = CheckpointConfig::new(&sink);
        let token = CancelToken::never();
        let snap = FrontierSnapshot {
            fingerprint: 1,
            kind: 2,
            next_index: 0,
            cells_done: 0,
            buffers: vec![],
        };
        let err = Aligner::new()
            .algorithm(Algorithm::CenterStar)
            .score3_durable(&a, &b, &c, &token, &ckpt, Some(&snap))
            .unwrap_err();
        assert!(matches!(err, DurableStop::InvalidResume(_)));
    }

    #[test]
    fn error_messages_render() {
        assert!(AlignError::AffineGapNeedsAffineAlgorithm
            .to_string()
            .contains("AffineDp"));
        assert!(AlignError::LatticeTooLarge {
            required: 10,
            budget: 5
        }
        .to_string()
        .contains("10"));
        assert!(AlignError::BadParameter("x").to_string().contains('x'));
    }
}
