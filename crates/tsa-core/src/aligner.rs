//! The high-level entry point: pick an algorithm, validate the
//! configuration, align.

use crate::alignment::Alignment3;
use crate::cancel::{CancelProgress, CancelToken};
use crate::checkpoint::{CheckpointConfig, DurableStop, FrontierSnapshot, KernelKind, ResumeError};
use crate::kernel::SimdKernel;
use crate::sweep::{self, Checkpoint, Order, Sweep};
use crate::{affine, anchored, carrillo_lipman, center_star, full, hirschberg3, wavefront};
use std::fmt;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Which aligner to run. All exact variants produce the same optimal
/// score; `FullDp`/`Wavefront`/`TileWavefront` additionally produce
/// identical canonical tracebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Choose automatically, the fastest exact schedule for the job (see
    /// [`Aligner::plan`]): the affine DP for affine gap models,
    /// sequential divide and conquer when the full lattice would exceed
    /// the memory budget, and Carrillo–Lipman's pruned slab sweep
    /// otherwise (which fills the dense lattice when the bound prunes
    /// little). Every linear choice runs the aligner's SIMD slab rows.
    /// Score-only jobs run the same bounds over two rolling sparse slabs
    /// (the rolling slab sweep when the bound prunes little), or, whatever
    /// the budget, the plane sweep when its planes hold fewer cells (a
    /// third sequence more than twice as long as the first).
    Auto,
    /// Sequential full-lattice DP (`O(n³)` time and space): the slab sweep
    /// with every slab kept, under the aligner's row kernel.
    FullDp,
    /// Plane-parallel wavefront DP: per-cell planes over the full lattice
    /// for alignments, the rolling plane sweep for scores.
    Wavefront,
    /// `t×t×t` tile-wavefront: rayon over anti-diagonal planes of tiles,
    /// SIMD slab rows inside each tile, over the full lattice, which
    /// `align3` traces back through (the canonical traceback of
    /// `FullDp`).
    TileWavefront {
        /// Tile edge length.
        tile: usize,
    },
    /// Sequential divide and conquer: optimal alignment in `O(n²)` space.
    Hirschberg,
    /// Divide and conquer with the two face sweeps, and then the two
    /// halves, of each split run in parallel; the same slab faces and
    /// alignment as `Hirschberg`.
    ParallelHirschberg,
    /// Center-star heuristic — **not exact**; `O(n²)` time.
    CenterStar,
    /// Carrillo–Lipman bound-pruned DP: the slab sweep over each `(i, j)`
    /// row's kept `k`-interval only, with the canonical traceback of
    /// `FullDp`, or over two rolling slabs for a score. Exact, and far
    /// cheaper than the full lattice when the sequences are similar; past
    /// a measured break-even it fills the dense lattice (an alignment) or
    /// runs the rolling slab sweep (a score) instead.
    CarrilloLipman,
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

/// What one job runs and what it costs, fixed by [`Aligner::plan`] from
/// the sequence lengths and whether only the score is wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The algorithm that runs; never [`Algorithm::Auto`].
    pub algorithm: Algorithm,
    /// The [`crate::sweep`] order whose rows (hence SIMD rows) run: the
    /// score sweep of a score-only job; for an alignment, the slab loop
    /// of `FullDp` (every slab kept), the face sweeps of both Hirschbergs
    /// or the tile loop of `TileWavefront`. Carrillo–Lipman runs the slab
    /// rows over its kept intervals, or over the dense lattice after a
    /// fallback. `None` for the per-cell `Wavefront` fill and the
    /// algorithms without a sweep.
    pub order: Option<Order>,
    /// The snapshot kind a score-only job checkpoints as through
    /// [`Aligner::score3_durable`] (Carrillo–Lipman's only when it falls
    /// back to the slab sweep: the pruned sweep writes no snapshot);
    /// `None` when it cannot checkpoint, and for every alignment.
    pub checkpoint: Option<KernelKind>,
    /// Bytes of the `i32` score lattice the run materializes, which
    /// `max_lattice_bytes` caps; `None` when it keeps none.
    pub lattice_bytes: Option<usize>,
    /// DP cell updates the run performs (estimated for divide and
    /// conquer, the cubic bound for the pruned DP; [`Run::cells`] has
    /// what a pruned run computed).
    pub cells: u64,
    /// Peak working-set bytes of the run's dominant buffers, less the
    /// `O(n)` terms (sequences, substitution profiles, traceback columns).
    pub peak_bytes: u64,
}

/// What one finished job computed: its answer, and the work behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The job's score.
    pub score: i32,
    /// The alignment; `None` for a score-only job.
    pub alignment: Option<Alignment3>,
    /// DP cells the run computed: the plan's [`Plan::cells`], except that
    /// Carrillo–Lipman reports its kept intervals' cells, or the whole
    /// lattice after a fallback.
    pub cells: u64,
    /// The dense algorithm a pruned run fell back to
    /// ([`Algorithm::FullDp`]), when its bound kept too much to prune.
    pub fallback: Option<Algorithm>,
}

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
    /// this to fall over to sequential divide and conquer.
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

    /// The effective algorithm `Auto` would resolve to for an alignment
    /// of these lengths: the [`Plan::algorithm`] of an alignment job.
    pub fn resolve(&self, n1: usize, n2: usize, n3: usize) -> Algorithm {
        self.plan(n1, n2, n3, false).algorithm
    }

    /// What a job of these lengths runs, what it costs and how it
    /// checkpoints: the one decision behind [`Aligner::align3`] and
    /// friends, the service's admission, cache key and recovery, and
    /// `tsa plan`.
    ///
    /// `Auto` resolves by four rules:
    ///
    /// 1. an affine gap model runs [`Algorithm::AffineDp`];
    /// 2. a score-only job whose four `(n1+1)(n2+1)` planes hold fewer
    ///    cells than two `(n2+1)(n3+1)` slabs (`n3 + 1 > 2(n1 + 1)`) runs
    ///    the plane sweep, [`Algorithm::Wavefront`], whatever the lattice
    ///    budget: the plane sweep holds no lattice;
    /// 3. any other score-only job runs [`Algorithm::CarrilloLipman`]'s
    ///    rolling sparse sweep when its bounds phase (one pairwise matrix
    ///    at a time) fits the slab sweep's two slabs, whatever the lattice
    ///    budget, and the slab sweep ([`Algorithm::FullDp`], or
    ///    [`Algorithm::Hirschberg`] over the lattice budget) otherwise;
    /// 4. an alignment runs [`Algorithm::Hirschberg`] when the full
    ///    lattice would exceed `max_lattice_bytes`, else
    ///    [`Algorithm::CarrilloLipman`].
    ///
    /// The pruned sweep computes only the kept intervals of similar
    /// triples and, when the bound prunes little, falls back inside the
    /// run: an alignment to the SIMD slab lattice, so its plan prices that
    /// lattice, and a score to the rolling slab sweep, so its plan prices
    /// (and checkpoints as) that sweep, which bounds every phase of the
    /// pruned run too. The budget rule and admission see what the run may
    /// hold. The SIMD slab lattice beats the per-cell plane wavefront and
    /// the slab score sweep beats the plane and tile orders on every
    /// measured job shape.
    /// Sequential Hirschberg leaves the other cores to concurrent jobs;
    /// alone on an idle 2-core host the parallel one finishes first from
    /// n = 64 on (`fig2`). Any other algorithm resolves to itself.
    pub fn plan(&self, n1: usize, n2: usize, n3: usize, score_only: bool) -> Plan {
        const CELL: usize = std::mem::size_of::<i32>();
        let cube = (n1 + 1) * (n2 + 1) * (n3 + 1);
        let lattice = cube * CELL;
        let algorithm = match self.algorithm {
            Algorithm::Auto if self.scoring.gap.linear_penalty().is_none() => Algorithm::AffineDp,
            Algorithm::Auto if score_only && n3 + 1 > 2 * (n1 + 1) => Algorithm::Wavefront,
            Algorithm::Auto if score_only && carrillo_lipman::fits_slab_sweep(n1, n2, n3) => {
                Algorithm::CarrilloLipman
            }
            Algorithm::Auto if lattice > self.max_lattice_bytes => Algorithm::Hirschberg,
            Algorithm::Auto if score_only => Algorithm::FullDp,
            Algorithm::Auto => Algorithm::CarrilloLipman,
            pinned => pinned,
        };
        let pairwise = (n1 + 1) * (n2 + 1) + (n1 + 1) * (n3 + 1) + (n2 + 1) * (n3 + 1);
        // (sweep order, materialized lattice, cell updates, peak bytes).
        let (order, lattice_bytes, cells, peak_bytes) = match algorithm {
            Algorithm::Auto => unreachable!("Auto resolves above"),
            // Score-only jobs of the sweep algorithms run a rolling sweep:
            // two `(n2+1)(n3+1)` slabs or four `(n1+1)(n2+1)` planes. The
            // pruned one holds less than the slab sweep it falls back to.
            Algorithm::FullDp
            | Algorithm::Hirschberg
            | Algorithm::ParallelHirschberg
            | Algorithm::CarrilloLipman
                if score_only =>
            {
                let slabs = 2 * (n2 + 1) * (n3 + 1) * CELL;
                (Some(Order::Slabs), None, cube, slabs)
            }
            Algorithm::Wavefront if score_only => {
                let planes = 4 * (n1 + 1) * (n2 + 1) * CELL;
                (Some(Order::Planes), None, cube, planes)
            }
            // The lattice algorithms: the slab loop with every slab kept
            // (Carrillo–Lipman's dense fallback, whose lattice is larger
            // than its bounds' pairwise matrix and caps its sparse store),
            // the tile loop's lattice (score-only jobs too), the per-cell
            // plane fill.
            Algorithm::FullDp | Algorithm::CarrilloLipman => {
                (Some(Order::Slabs), Some(lattice), cube, lattice)
            }
            Algorithm::TileWavefront { tile } => {
                (Some(Order::Tiles { tile }), Some(lattice), cube, lattice)
            }
            Algorithm::Wavefront => (None, Some(lattice), cube, lattice),
            // Slab faces in quadratic space, at most twice the cell updates.
            Algorithm::Hirschberg | Algorithm::ParallelHirschberg => {
                let parallel = algorithm == Algorithm::ParallelHirschberg;
                let peak = hirschberg3::peak_bytes(n1, n2, n3, parallel);
                (Some(Order::Slabs), None, 2 * cube, peak)
            }
            // Seven gap states per lattice cell. The budget caps only the
            // `i32` score lattice, so this one is priced but not capped.
            Algorithm::AffineDp => (None, None, 7 * cube, 7 * lattice),
            // Pairwise-driven heuristics: quadratic time; the merged
            // alignment's three rows of `Option<u8>` dominate their space.
            Algorithm::CenterStar | Algorithm::Anchored => {
                let rows = 3 * (n1 + n2 + n3) * std::mem::size_of::<Option<u8>>();
                (None, None, pairwise, rows)
            }
        };
        Plan {
            algorithm,
            order,
            checkpoint: order.filter(|_| score_only).map(Order::checkpoint_kind),
            lattice_bytes,
            cells: cells as u64,
            peak_bytes: peak_bytes as u64,
        }
    }

    /// The one dispatch behind every entry point, on the job's
    /// [`Aligner::plan`]. Score-only jobs of the rolling sweeps run the
    /// [`crate::sweep`] engine (checkpointed when `checkpoint` is set);
    /// everything else runs its lattice algorithm. Every exact algorithm
    /// polls `cancel` once per slab or plane.
    fn run(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        score_only: bool,
        cancel: &CancelToken,
        checkpoint: Option<Checkpoint<'_>>,
    ) -> Result<Run, DurableStop> {
        let s = &self.scoring;
        let plan = self.plan(a.len(), b.len(), c.len(), score_only);
        let algorithm = plan.algorithm;
        if algorithm != Algorithm::AffineDp && s.gap.linear_penalty().is_none() {
            return Err(DurableStop::Config(
                AlignError::AffineGapNeedsAffineAlgorithm,
            ));
        }
        if let Some(required) = plan.lattice_bytes.filter(|&b| b > self.max_lattice_bytes) {
            return Err(DurableStop::Config(AlignError::LatticeTooLarge {
                required,
                budget: self.max_lattice_bytes,
            }));
        }
        if algorithm == (Algorithm::TileWavefront { tile: 0 }) {
            return Err(DurableStop::Config(AlignError::BadParameter(
                "tile must be ≥ 1",
            )));
        }
        let planned = |score, alignment| Run {
            score,
            alignment,
            cells: plan.cells,
            fallback: None,
        };
        let pruned = |score, alignment, pruning: carrillo_lipman::Pruning| Run {
            score,
            alignment,
            cells: pruning.cells(),
            fallback: pruning.fallback().then_some(Algorithm::FullDp),
        };
        if let (Some(order), Some(_)) = (plan.order, plan.checkpoint) {
            let sweep = Sweep {
                order,
                kernel: self.kernel,
                cancel: Some(cancel),
                checkpoint,
            };
            if algorithm == Algorithm::CarrilloLipman {
                return carrillo_lipman::score_sweep(a, b, c, s, &sweep)
                    .map(|(score, pruning)| pruned(score, None, pruning));
            }
            return sweep.score(a, b, c, s).map(|score| planned(score, None));
        }
        if let Some(snap) = checkpoint.and_then(|ck| ck.resume) {
            return Err(DurableStop::InvalidResume(ResumeError::Kind {
                expected: 0,
                found: snap.kind,
            }));
        }
        if algorithm == Algorithm::CarrilloLipman {
            let (aln, pruning) = carrillo_lipman::align(a, b, c, s, self.kernel, cancel)
                .map_err(DurableStop::Cancelled)?;
            return Ok(pruned(aln.score, Some(aln), pruning));
        }
        let traced = |lat: full::Lattice| full::traceback(&lat, a, b, c, s);
        let aln = match algorithm {
            Algorithm::Auto | Algorithm::CarrilloLipman => {
                unreachable!("plan() never returns Auto; the pruned DP ran above")
            }
            Algorithm::FullDp => full::fill(a, b, c, s, self.kernel, cancel).map(traced),
            Algorithm::Wavefront => wavefront::fill(a, b, c, s, cancel).map(traced),
            Algorithm::TileWavefront { tile } => {
                sweep::fill_tiles(a, b, c, s, self.kernel, tile, cancel).map(traced)
            }
            Algorithm::Hirschberg | Algorithm::ParallelHirschberg => {
                let parallel = algorithm == Algorithm::ParallelHirschberg;
                hirschberg3::align(a, b, c, s, parallel, self.kernel, cancel)
            }
            Algorithm::AffineDp if score_only => {
                let lat = affine::fill(a, b, c, s, cancel).map_err(DurableStop::Cancelled)?;
                return Ok(planned(lat.final_score(), None));
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
        Ok(planned(aln.score, (!score_only).then_some(aln)))
    }

    /// One job, cooperatively cancellable: the alignment (or, with
    /// `score_only`, the score alone) plus what the run computed — the
    /// cells and any fallback a job's trace and `tsa align --stats`
    /// report. [`Aligner::align3_cancellable`] and
    /// [`Aligner::score3_cancellable`] wrap it.
    pub fn run_cancellable(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        score_only: bool,
        cancel: &CancelToken,
    ) -> Result<Run, AlignError> {
        self.run(a, b, c, score_only, cancel, None)
            .map_err(align_error)
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
        let run = self.run_cancellable(a, b, c, false, cancel)?;
        Ok(run.alignment.expect("alignment jobs trace back"))
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
        Ok(self.run_cancellable(a, b, c, true, cancel)?.score)
    }

    /// Like [`Aligner::score3_cancellable`], plus durability: the rolling
    /// score sweeps periodically persist their frontier through `ckpt`
    /// and, when `resume` carries a fingerprint-matching snapshot,
    /// continue the sweep instead of starting over — with a score
    /// bit-identical to an uninterrupted run. Algorithms without a
    /// checkpointable score sweep (no [`Plan::checkpoint`]) run
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
        Ok(self.run_durable(a, b, c, cancel, ckpt, resume)?.score)
    }

    /// [`Aligner::score3_durable`] with what the run computed: the cells,
    /// and the slab sweep a pruned score fell back to, as
    /// [`Aligner::run_cancellable`] reports them.
    pub fn run_durable(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        cancel: &CancelToken,
        ckpt: &CheckpointConfig<'_>,
        resume: Option<&FrontierSnapshot>,
    ) -> Result<Run, DurableStop> {
        let checkpoint = Checkpoint {
            config: ckpt,
            resume,
        };
        self.run(a, b, c, true, cancel, Some(checkpoint))
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
            Algorithm::Anchored,
            Algorithm::AffineDp,
        ] {
            assert_eq!(Algorithm::by_name(alg.name(), 8), Some(alg));
        }
        for retired in ["nope", "blocked", "dataflow", "banded"] {
            assert_eq!(Algorithm::by_name(retired, 8), None);
        }
    }

    #[test]
    fn auto_constructor_selects_like_resolve() {
        let (a, b, c) = family_triple(7, 14);
        let auto = Aligner::auto(Scoring::dna_default());
        assert_eq!(
            auto.resolve(a.len(), b.len(), c.len()),
            Algorithm::CarrilloLipman
        );
        let pinned = Aligner::new().algorithm(Algorithm::FullDp);
        assert_eq!(auto.align3(&a, &b, &c), pinned.align3(&a, &b, &c));
    }

    #[test]
    fn auto_resolves_affine_to_affine_dp() {
        let al = Aligner::new().gap(GapModel::affine(-4, -1));
        assert_eq!(al.resolve(10, 10, 10), Algorithm::AffineDp);
    }

    #[test]
    fn auto_resolves_large_to_dc() {
        let al = Aligner::new().max_lattice_bytes(1 << 20);
        assert_eq!(al.resolve(1000, 1000, 1000), Algorithm::Hirschberg);
        assert_eq!(al.resolve(10, 10, 10), Algorithm::CarrilloLipman);
        // The pruned plan keeps the lattice budget: 64³ is 1.1 MB.
        assert_eq!(al.resolve(64, 64, 64), Algorithm::Hirschberg);
    }

    #[test]
    fn auto_score_jobs_sweep_the_smaller_rolling_buffers() {
        let al = Aligner::new();
        let algorithm = |al: &Aligner, n1, n2, n3| al.plan(n1, n2, n3, true).algorithm;
        // Rule 1: an affine gap model runs the affine DP, score-only or not.
        let affine = Aligner::new().gap(GapModel::affine(-4, -1));
        assert_eq!(algorithm(&affine, 1, 20_000, 20_000), Algorithm::AffineDp);
        // Rule 2: two (n2+1)(n3+1) slabs against four (n1+1)(n2+1) planes:
        // the slabs win ties, the planes win once n3 + 1 > 2(n1 + 1).
        assert_eq!(algorithm(&al, 9, 5, 19), Algorithm::CarrilloLipman);
        assert_eq!(algorithm(&al, 9, 5, 20), Algorithm::Wavefront);
        // 1×20000×20000: 320 KB of planes instead of 3.2 GB of slabs.
        let lopsided = al.plan(1, 20_000, 20_000, true);
        assert_eq!(lopsided.algorithm, Algorithm::Wavefront);
        assert_eq!(lopsided.checkpoint, Some(KernelKind::Planes));
        assert_eq!(lopsided.order, Some(Order::Planes));
        assert_eq!(lopsided.peak_bytes, 4 * 2 * 20_001 * 4);
        // Rule 3: a balanced score job runs the pruned rolling sweep,
        // whose bounds phase holds one pairwise matrix, whatever the
        // lattice budget; a shape whose largest pairwise matrix passes
        // the slab sweep's two slabs keeps the slab sweep, or divide and
        // conquer's (the same sweep) over the lattice budget.
        assert_eq!(algorithm(&al, 100, 100, 100), Algorithm::CarrilloLipman);
        assert_eq!(algorithm(&al, 100, 100, 10), Algorithm::FullDp);
        let small = Aligner::new().max_lattice_bytes(1 << 20);
        assert_eq!(algorithm(&small, 100, 100, 100), Algorithm::CarrilloLipman);
        assert_eq!(algorithm(&small, 200, 200, 20), Algorithm::Hirschberg);
        let pruned = al.plan(100, 100, 100, true);
        assert_eq!(pruned.lattice_bytes, None);
        assert_eq!(pruned.checkpoint, Some(KernelKind::Slabs));
        // Rule 4: an alignment runs the pruned slab sweep whatever the
        // shape, down to divide and conquer over the lattice budget. The
        // plane sweep holds no lattice, so the budget does not move rule 2.
        assert_eq!(al.resolve(1, 20_000, 20_000), Algorithm::CarrilloLipman);
        assert_eq!(al.plan(1, 20_000, 20_000, false).order, Some(Order::Slabs));
        assert_eq!(small.resolve(100, 100, 100), Algorithm::Hirschberg);
        assert_eq!(algorithm(&small, 10, 300, 3000), Algorithm::Wavefront);
        assert_eq!(
            small.plan(10, 300, 3000, true).checkpoint,
            Some(KernelKind::Planes)
        );
        // Whatever the shape, a score job holds the smaller of the two.
        for (n1, n2, n3) in [
            (100, 100, 100),
            (100, 100, 10),
            (9, 5, 19),
            (9, 5, 20),
            (1, 20_000, 20_000),
            (100, 2_000, 10_000),
        ] {
            let slabs = 2 * (n2 + 1) * (n3 + 1) * 4;
            let planes = 4 * (n1 + 1) * (n2 + 1) * 4;
            assert_eq!(
                al.plan(n1, n2, n3, true).peak_bytes,
                slabs.min(planes) as u64,
                "{n1}×{n2}×{n3}"
            );
        }
        // A lopsided score job scores like the full DP.
        let (a, _, _) = family_triple(5, 3);
        let (_, b, c) = family_triple(6, 24);
        assert_eq!(
            algorithm(&al, a.len(), b.len(), c.len()),
            Algorithm::Wavefront
        );
        assert_eq!(
            al.score3(&a, &b, &c).unwrap(),
            full::align_score(&a, &b, &c, &Scoring::dna_default())
        );
    }

    #[test]
    fn plan_names_the_sweep_each_job_runs() {
        let plan = |alg, score_only| Aligner::new().algorithm(alg).plan(8, 8, 8, score_only);
        let order = |alg| plan(alg, false).order;
        assert_eq!(order(Algorithm::FullDp), Some(Order::Slabs));
        assert_eq!(order(Algorithm::Hirschberg), Some(Order::Slabs));
        assert_eq!(order(Algorithm::ParallelHirschberg), Some(Order::Slabs));
        let tiles = Algorithm::TileWavefront { tile: 4 };
        assert_eq!(order(tiles), Some(Order::Tiles { tile: 4 }));
        // The pruned sweep runs slab rows over its intervals (or the dense
        // lattice); a score checkpoints as the slab sweep it falls back to.
        assert_eq!(order(Algorithm::Auto), Some(Order::Slabs));
        assert_eq!(order(Algorithm::CarrilloLipman), Some(Order::Slabs));
        let cl_score = plan(Algorithm::CarrilloLipman, true);
        assert_eq!(
            (cl_score.order, cl_score.checkpoint),
            (Some(Order::Slabs), Some(KernelKind::Slabs))
        );
        // The per-cell plane fill and the non-sweep algorithms run no
        // SIMD rows.
        assert_eq!(order(Algorithm::Wavefront), None);
        assert_eq!(order(Algorithm::CenterStar), None);
        assert_eq!(plan(Algorithm::Wavefront, true).order, Some(Order::Planes));
        assert_eq!(
            plan(Algorithm::ParallelHirschberg, true).order,
            Some(Order::Slabs)
        );
        // Alignments never checkpoint.
        for alg in [Algorithm::Auto, Algorithm::FullDp, Algorithm::Wavefront] {
            assert_eq!(plan(alg, false).checkpoint, None, "{alg:?}");
        }
    }

    #[test]
    fn plan_prices_the_buffers_each_dispatch_holds() {
        let (n1, n2, n3) = (9usize, 19, 29);
        let cube = (10 * 20 * 30) as u64;
        let plan = |alg, score_only| Aligner::new().algorithm(alg).plan(n1, n2, n3, score_only);
        let full = plan(Algorithm::FullDp, false);
        assert_eq!(full.lattice_bytes, Some(4 * cube as usize));
        assert_eq!((full.cells, full.peak_bytes), (cube, 4 * cube));
        // Rolling score sweeps: two slabs, four planes; no lattice.
        let slabs = plan(Algorithm::FullDp, true);
        assert_eq!(
            (slabs.lattice_bytes, slabs.peak_bytes),
            (None, 2 * 20 * 30 * 4)
        );
        let planes = plan(Algorithm::Wavefront, true);
        assert_eq!(planes.peak_bytes, 4 * 10 * 20 * 4);
        // The tile loop keeps its lattice for scores too.
        let tiles = plan(Algorithm::TileWavefront { tile: 4 }, true);
        assert_eq!(tiles.lattice_bytes, Some(4 * cube as usize));
        // Divide and conquer: twice the cells in quadratic space.
        let dc = plan(Algorithm::Hirschberg, false);
        assert_eq!(dc.cells, 2 * cube);
        assert!(dc.peak_bytes < full.peak_bytes);
        assert_eq!(dc.lattice_bytes, None);
        // Carrillo–Lipman prices the dense lattice an alignment may fall
        // back to, larger than its bounds' pairwise matrix and four times
        // its sparse store; `Auto` alignments plan the same. A score prices
        // the slab sweep it falls back to, which bounds the pruned phases.
        let cl = plan(Algorithm::CarrilloLipman, false);
        assert_eq!(cl.lattice_bytes, Some(4 * cube as usize));
        assert_eq!((cl.cells, cl.peak_bytes), (cube, 4 * cube));
        assert_eq!(plan(Algorithm::Auto, false), cl);
        let cl_score = plan(Algorithm::CarrilloLipman, true);
        let priced_as_slabs = Plan {
            algorithm: Algorithm::CarrilloLipman,
            ..slabs
        };
        assert_eq!(cl_score, priced_as_slabs);
        // Seven affine states per cell, priced but not capped.
        let affine = Aligner::new()
            .gap(GapModel::affine(-4, -1))
            .plan(n1, n2, n3, false);
        assert_eq!(affine.algorithm, Algorithm::AffineDp);
        assert_eq!((affine.cells, affine.peak_bytes), (7 * cube, 28 * cube));
        assert_eq!(affine.lattice_bytes, None);
        // The heuristics are quadratic in time, linear in space.
        let star = plan(Algorithm::CenterStar, false);
        assert_eq!(star.cells, 10 * 20 + 10 * 30 + 20 * 30);
        assert_eq!(star.peak_bytes, 3 * (9 + 19 + 29) * 2);
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
            Algorithm::CarrilloLipman,
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
            Algorithm::CarrilloLipman,
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
    fn runs_report_the_cells_they_computed() {
        let never = CancelToken::never();
        let run = |al: &Aligner, (a, b, c): &(Seq, Seq, Seq), score_only| {
            let plan = al.plan(a.len(), b.len(), c.len(), score_only);
            (
                plan,
                al.run_cancellable(a, b, c, score_only, &never).unwrap(),
            )
        };
        // A family triple: the pruned sweep computes a sliver of the cube,
        // for `Auto` alignments and score jobs and pinned score jobs alike.
        let family = family_triple(3, 48);
        let pinned = Aligner::new().algorithm(Algorithm::CarrilloLipman);
        for (al, score_only) in [
            (Aligner::new(), false),
            (Aligner::new(), true),
            (pinned, true),
        ] {
            let (plan, pruned) = run(&al, &family, score_only);
            assert_eq!(plan.algorithm, Algorithm::CarrilloLipman);
            assert!(
                pruned.cells < plan.cells / 4,
                "{} of {}",
                pruned.cells,
                plan.cells
            );
            assert_eq!(pruned.fallback, None);
            assert_eq!(pruned.alignment.is_none(), score_only);
        }
        // A triple whose intervals keep 39% of the cube: the dense
        // lattice, or the slab score sweep.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let wide = (dna(20, 100), dna(100, 101), dna(40, 102));
        let (plan, dense) = run(&Aligner::new(), &wide, false);
        assert_eq!(dense.cells, plan.cells);
        assert_eq!(dense.fallback, Some(Algorithm::FullDp));
        let (plan, slabs) = run(&Aligner::new(), &wide, true);
        assert_eq!(plan.algorithm, Algorithm::CarrilloLipman);
        assert_eq!(
            (slabs.cells, slabs.fallback),
            (plan.cells, Some(Algorithm::FullDp))
        );
        assert_eq!(Some(slabs.score), dense.alignment.as_ref().map(|a| a.score));
        let full = Aligner::new().algorithm(Algorithm::FullDp);
        let (plan, reference) = run(&full, &wide, false);
        assert_eq!((reference.cells, reference.fallback), (plan.cells, None));
        assert_eq!(dense.alignment, reference.alignment);
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
    fn plan_checkpoint_maps_score_kernels() {
        let kind = |al: Aligner| al.plan(8, 8, 8, true).checkpoint;
        let pinned = |alg| Aligner::new().algorithm(alg);
        assert_eq!(kind(pinned(Algorithm::Hirschberg)), Some(KernelKind::Slabs));
        assert_eq!(kind(pinned(Algorithm::Wavefront)), Some(KernelKind::Planes));
        assert_eq!(kind(Aligner::new()), Some(KernelKind::Slabs)); // Auto
                                                                   // Both Hirschbergs score through the slab sweep.
        assert_eq!(
            kind(pinned(Algorithm::ParallelHirschberg)),
            Some(KernelKind::Slabs)
        );
        // Checkpointed tile sweeps run the plane order.
        assert_eq!(
            kind(pinned(Algorithm::TileWavefront { tile: 4 })),
            Some(KernelKind::Planes)
        );
        assert_eq!(kind(pinned(Algorithm::CenterStar)), None);
        assert_eq!(kind(Aligner::new().gap(GapModel::affine(-4, -1))), None);
    }

    #[test]
    fn every_score_plan_stores_the_snapshot_kind_it_names() {
        use crate::checkpoint::{CheckpointConfig, MemorySink};
        let token = CancelToken::never();
        let (a, b, c) = family_triple(31, 12);
        // A third sequence over twice the first's length: `Auto` sweeps
        // planes.
        let (lop_a, _, _) = family_triple(32, 3);
        // A family the pruned score sweep keeps a sliver of: no snapshot.
        let family = family_triple(33, 48);
        let linear = [
            Algorithm::Auto,
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::TileWavefront { tile: 4 },
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::CarrilloLipman,
            Algorithm::CenterStar,
            Algorithm::Anchored,
        ]
        .map(|alg| Aligner::new().algorithm(alg));
        let affine = [Algorithm::Auto, Algorithm::AffineDp]
            .map(|alg| Aligner::new().gap(GapModel::affine(-4, -1)).algorithm(alg));
        for al in linear.iter().chain(&affine) {
            for (a, b, c) in [
                (&a, &b, &c),
                (&lop_a, &b, &c),
                (&family.0, &family.1, &family.2),
            ] {
                let plan = al.plan(a.len(), b.len(), c.len(), true);
                let sink = MemorySink::new();
                let ckpt = CheckpointConfig::new(&sink).every_planes(1);
                let run = al.run_durable(a, b, c, &token, &ckpt, None).unwrap();
                let stored = sink.last().map(|snap| snap.kind);
                let pruned = plan.algorithm == Algorithm::CarrilloLipman && run.fallback.is_none();
                let want = plan.checkpoint.filter(|_| !pruned);
                assert_eq!(stored, want.map(KernelKind::code), "{plan:?} {run:?}");
                if std::ptr::eq(a, &family.0) {
                    assert_eq!(pruned, plan.algorithm == Algorithm::CarrilloLipman);
                }
            }
        }
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
