//! The exact sweep engine: one loop per sweep order.
//!
//! The paper's parallel algorithm is one recurrence run under different
//! schedules. This module owns the three schedules:
//!
//! * [`Order::Slabs`] — `i`-slabs swept sequentially over two rolling
//!   slabs of `(n2+1)(n3+1)` cells. The final slab is exactly
//!   `D[n1][·][·]`, the face Hirschberg's split needs, and the slab loop
//!   is the only producer of faces. [`crate::full`] runs the same loop
//!   with every slab kept, and [`crate::carrillo_lipman`] runs its rows
//!   over each `(i, j)` row's kept `k`-interval only, in a sparse store.
//! * [`Order::Planes`] — anti-diagonal planes `d = i + j + k`, the cells of
//!   each plane in parallel, four rotating `(n1+1)(n2+1)` plane buffers (a
//!   cell's seven predecessors live on planes `d−1..d−3`). Scores only.
//! * [`Order::Tiles`] — `t×t×t` tiles, rayon over anti-diagonal planes of
//!   tiles, SIMD slab rows inside each tile: long unit-stride rows and a
//!   barrier every `O(n²·t)` cells. Keeps the full lattice, which
//!   `Algorithm::TileWavefront` alignments trace back through.
//!
//! Slabs and planes need `O(n²)` memory instead of `O(n³)`, the headline
//! of the memory experiment (`table3`).
//!
//! Everything else is an argument of the loop, carried by a [`Sweep`]:
//! the SIMD row kernel, an optional [`CancelToken`] (polled once per slab,
//! plane, or tile row) and an optional [`Checkpoint`] (periodic frontier
//! snapshots plus a resume point). All kernels produce **bit-identical**
//! scores — the SIMD rows in [`crate::kernel`] restate the same `i32`
//! arithmetic — so the kernel is purely a throughput knob. It stays out
//! of the snapshot fingerprint: a sweep checkpointed under one kernel may
//! resume under another.

use crate::cancel::{CancelProgress, CancelToken};
use crate::checkpoint::{
    job_fingerprint, CheckpointConfig, DurableStop, FrontierSnapshot, KernelKind, Pacer,
    ResumeError,
};
use crate::dp::{Kernel, NEG_INF};
use crate::full::Lattice;
use crate::kernel::{
    plane_row, slab_row, PlaneRow, PlaneScratch, Profiles, ResolvedKernel, SimdKernel, SlabRow,
};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::executor::run_tiles_wavefront;
use tsa_wavefront::plane::{plane_rows, Extents};
use tsa_wavefront::{SharedGrid, TileGrid};

/// A face of the lattice at fixed `i`: scores indexed by `(j, k)` as
/// `j * (n3 + 1) + k`.
pub(crate) type Face = Vec<i32>;

/// The schedule a sweep visits the lattice in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Sequential `i`-slabs, two rolling slabs of memory.
    Slabs,
    /// Parallel anti-diagonal cell planes, four rolling planes of memory.
    Planes,
    /// Parallel anti-diagonal planes of `t×t×t` tiles over the full
    /// lattice. Tiles do not checkpoint: a checkpointed tile sweep runs
    /// the plane order, whose frontier format it shares with `Wavefront`.
    Tiles {
        /// Tile edge length (`0` is clamped to `1`).
        tile: usize,
    },
}

impl Order {
    /// The snapshot kind this order's checkpoints carry (tiles checkpoint
    /// through the plane order).
    pub(crate) fn checkpoint_kind(self) -> KernelKind {
        match self {
            Order::Slabs => KernelKind::Slabs,
            Order::Planes | Order::Tiles { .. } => KernelKind::Planes,
        }
    }
}

/// Durability of a score sweep: where snapshots go, and the snapshot (if
/// any) to continue from instead of starting over.
#[derive(Clone, Copy)]
pub struct Checkpoint<'a> {
    /// Sink, cadence and drain flag.
    pub config: &'a CheckpointConfig<'a>,
    /// A fingerprint-matching snapshot to resume from.
    pub resume: Option<&'a FrontierSnapshot>,
}

/// One exact sweep: order, row kernel, and the optional stop conditions.
///
/// ```
/// use tsa_core::sweep::{Order, Sweep};
/// use tsa_core::{full, SimdKernel};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("GATTACA").unwrap();
/// let b = Seq::dna("GATACA").unwrap();
/// let c = Seq::dna("GTTACA").unwrap();
/// for order in [Order::Slabs, Order::Planes, Order::Tiles { tile: 4 }] {
///     let score = Sweep::new(order, SimdKernel::Auto).score(&a, &b, &c, &s).unwrap();
///     assert_eq!(score, full::align_score(&a, &b, &c, &s));
/// }
/// ```
#[derive(Clone, Copy)]
pub struct Sweep<'a> {
    /// Visit order.
    pub order: Order,
    /// Row kernel request; resolved against the CPU when the sweep runs.
    pub kernel: SimdKernel,
    /// Polled before every slab, plane, and tile row.
    pub cancel: Option<&'a CancelToken>,
    /// Frontier snapshots and resume (score sweeps only).
    pub checkpoint: Option<Checkpoint<'a>>,
}

impl<'a> Sweep<'a> {
    /// A sweep with no cancellation and no checkpoints.
    pub fn new(order: Order, kernel: SimdKernel) -> Self {
        Sweep {
            order,
            kernel,
            cancel: None,
            checkpoint: None,
        }
    }

    /// Poll `token` at every step; a fired token stops the sweep with
    /// [`DurableStop::Cancelled`] and the progress made.
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The optimal score `D[n1][n2][n3]`.
    ///
    /// At each step boundary the sweep polls, in order: the cancel token,
    /// the drain flag of the checkpoint config (store a final snapshot,
    /// stop with [`DurableStop::Drained`]), and the checkpoint pacer
    /// (store a snapshot, keep going). A snapshot holds exactly the
    /// frontier the next step reads — the previous slab, or the last
    /// `min(d, 3)` planes — so a resumed sweep continues the identical
    /// arithmetic and returns a score bit-identical to an uninterrupted
    /// run.
    pub fn score(&self, a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Result<i32, DurableStop> {
        let ctx = Ctx::new(a, b, c, scoring, self.kernel.resolve());
        let order = match self.order {
            Order::Tiles { .. } if self.checkpoint.is_some() => Order::Planes,
            order => order,
        };
        match order {
            Order::Slabs => {
                let mut poll = Poll::new(self, a, b, c, scoring, order);
                let slabs = slab_loop(&ctx, &mut poll, 2)?;
                // Slab n1 sits in slot n1 % 2; its last cell is the score.
                let len = (b.len() + 1) * (c.len() + 1);
                Ok(slabs[(a.len() % 2) * len + len - 1])
            }
            Order::Planes => plane_loop(&ctx, &mut Poll::new(self, a, b, c, scoring, order)),
            Order::Tiles { tile } => {
                let grid = tile_loop(&ctx, tile, self.cancel).map_err(DurableStop::Cancelled)?;
                // SAFETY: the sweep finished; exclusive access.
                Ok(unsafe { grid.get(grid.len() - 1) })
            }
        }
    }
}

/// The face `D[|a|][·][·]` of the slab sweep over `(a, b, c)`, indexed by
/// `(j, k)` as `j * (n3 + 1) + k`: the optimal score of aligning **all of
/// `a`** against the prefixes `b[..j]`, `c[..k]`. With `backward` set the
/// sweep runs over the reversed sequences, and entry `(j, k)` scores all of
/// `a` against the suffixes `b[j..]`, `c[k..]`. Hirschberg's split needs
/// one face of each kind. Faces never checkpoint.
///
/// Peak memory: the two rolling slabs plus the face copied out of them,
/// three `(n2+1)(n3+1)` buffers (`hirschberg3::peak_bytes`).
pub(crate) fn slab_face(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
    backward: bool,
) -> Result<Face, CancelProgress> {
    let reversed;
    let (a, b, c) = if backward {
        reversed = [a.reversed(), b.reversed(), c.reversed()];
        (&reversed[0], &reversed[1], &reversed[2])
    } else {
        (a, b, c)
    };
    let len = (b.len() + 1) * (c.len() + 1);
    let slabs = slabs_without_checkpoints(a, b, c, scoring, kernel, cancel, 2)?;
    let mut face = slabs[(a.len() % 2) * len..][..len].to_vec();
    if backward {
        // Entry (j, k) of the reversed sweep's face is suffix (n2−j, n3−k);
        // row-major reversal maps one onto the other.
        face.reverse();
    }
    Ok(face)
}

/// The slab loop with every slab kept: the full score lattice, in
/// [`Extents::index`] order, under `kernel`'s rows. Every kernel fills a
/// bit-identical lattice; [`crate::full`] traces back through it.
pub(crate) fn fill_lattice(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
) -> Result<Lattice, CancelProgress> {
    Ok(Lattice {
        scores: slabs_without_checkpoints(a, b, c, scoring, kernel, cancel, a.len() + 1)?,
        extents: Extents::new(a.len(), b.len(), c.len()),
    })
}

/// The tile loop's lattice: the same cells as [`fill_lattice`], in the
/// same [`Extents::index`] order, filled tile plane by tile plane.
pub(crate) fn fill_tiles(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    tile: usize,
    cancel: &CancelToken,
) -> Result<Lattice, CancelProgress> {
    let ctx = Ctx::new(a, b, c, scoring, kernel.resolve());
    Ok(Lattice {
        scores: tile_loop(&ctx, tile, Some(cancel))?.into_vec(),
        extents: Extents::new(a.len(), b.len(), c.len()),
    })
}

/// One `(i, j)` row's kept `k`-interval in a [`SparseLattice`]: cells
/// `lo..lo + len`, stored from `off` on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    /// First kept `k`.
    pub lo: u32,
    /// Kept cells (`0` for a pruned row).
    pub len: u32,
    /// Offset of the row's first cell in [`SparseLattice::scores`].
    pub off: u32,
}

/// The pruned sweep's store: each `(i, j)` row's kept `k`-interval of the
/// slabs it holds, back to back in one allocation. Every other cell reads
/// `NEG_INF`. It holds every slab (an alignment traces back through them
/// all) or two rolling ones (a score reads the last).
#[derive(Debug)]
pub(crate) struct SparseLattice {
    /// One span per `(i, j)` of the slabs held, at
    /// `(i % slots) * (n2 + 1) + j`.
    spans: Vec<Span>,
    /// The kept cells, row after row.
    scores: Vec<i32>,
    /// Slabs held: `n1 + 1`, or 2 rolling.
    slots: usize,
    extents: Extents,
}

impl SparseLattice {
    #[inline(always)]
    fn span(&self, i: usize, j: usize) -> Span {
        self.spans[(i % self.slots) * (self.extents.n2 + 1) + j]
    }

    /// Score at `(i, j, k)`; `NEG_INF` outside the row's span.
    #[inline(always)]
    pub(crate) fn at(&self, i: usize, j: usize, k: usize) -> i32 {
        let s = self.span(i, j);
        let x = k.wrapping_sub(s.lo as usize);
        if x < s.len as usize {
            self.scores[s.off as usize + x]
        } else {
            NEG_INF
        }
    }

    /// Cells `kb..kb + out.len()` of row `(i, j)` into `out`, `NEG_INF`
    /// outside its span.
    fn window(&self, i: usize, j: usize, kb: usize, out: &mut [i32]) {
        out.fill(NEG_INF);
        let s = self.span(i, j);
        let (lo, off) = (s.lo as usize, s.off as usize);
        let from = lo.max(kb);
        let to = (lo + s.len as usize).min(kb + out.len());
        if from < to {
            out[from - kb..to - kb].copy_from_slice(&self.scores[off + from - lo..off + to - lo]);
        }
    }
}

impl crate::full::Scores for SparseLattice {
    fn extents(&self) -> Extents {
        self.extents
    }

    fn score_at(&self, i: usize, j: usize, k: usize) -> i32 {
        self.at(i, j, k)
    }
}

/// Which slabs a sparse sweep keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseSlabs {
    /// Every slab, `kept` cells in all: the store an alignment traces
    /// back through.
    All {
        /// Cells of every slab's intervals.
        kept: usize,
    },
    /// Two rolling slabs of at most `slab` kept cells each: a score.
    Rolling {
        /// Cells of the largest slab's intervals.
        slab: usize,
        /// Cells of every slab's intervals (the progress total).
        kept: usize,
    },
}

/// The slab loop over the kept cells only: slab by slab, each `(i, j)`
/// row's interval `interval(i, j) = (lo, len)`, built when the sweep
/// reaches its slab, under `kernel`'s rows. Interior rows run the SIMD
/// slab row over the window `[lo − 1, hi]` (`[0, hi]` when the span starts
/// at the `k = 0` face), reading predecessor windows copied out of the
/// store with `NEG_INF` outside their spans; face rows (`i` or `j` of 0)
/// and the `k = 0` cell take the generic kernel, as [`compute_slab`] does.
/// The intervals must hold at most the cells `slabs` names. Polls `cancel`
/// once per slab; progress counts kept cells.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_sparse(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    prof: &Profiles,
    kernel: SimdKernel,
    slabs: SparseSlabs,
    interval: impl Fn(usize, usize) -> (usize, usize),
    cancel: &CancelToken,
) -> Result<SparseLattice, CancelProgress> {
    let (ra, rb) = (a.residues(), b.residues());
    let dp = Kernel::new(ra, rb, c.residues(), scoring);
    let rk = kernel.resolve();
    let g2 = 2 * scoring.gap_linear();
    let (n1, n2, n3) = (a.len(), b.len(), c.len());
    let (slots, cells, total) = match slabs {
        SparseSlabs::All { kept } => (n1 + 1, kept, kept),
        SparseSlabs::Rolling { slab, kept } => (2, 2 * slab, kept),
    };
    let mut lat = SparseLattice {
        spans: vec![Span::default(); slots * (n2 + 1)],
        scores: vec![NEG_INF; cells],
        slots,
        extents: Extents::new(n1, n2, n3),
    };
    // Predecessor windows and the row being computed, `n3 + 1` at most.
    let mut win = vec![NEG_INF; 4 * (n3 + 1)];
    let (mut done, mut off) = (0usize, 0usize);
    for i in 0..=n1 {
        if cancel.should_stop() {
            return Err(CancelProgress {
                cells_done: done as u64,
                cells_total: total as u64,
            });
        }
        // This slab's spans, over the slot of slab i − 2 when rolling.
        if let SparseSlabs::Rolling { slab, .. } = slabs {
            off = (i % 2) * slab;
        }
        let row0 = (i % slots) * (n2 + 1);
        for (j, span) in lat.spans[row0..row0 + n2 + 1].iter_mut().enumerate() {
            let (lo, len) = interval(i, j);
            *span = Span {
                lo: lo as u32,
                len: len as u32,
                off: off as u32,
            };
            off += len;
        }
        for j in 0..=n2 {
            let s = lat.spans[row0 + j];
            let (lo, len, off) = (s.lo as usize, s.len as usize, s.off as usize);
            if len == 0 {
                continue;
            }
            done += len;
            let hi = lo + len - 1;
            if i == 0 || j == 0 || lo == 0 {
                // Face cells: the generic kernel over sparse reads.
                let face_hi = if i == 0 || j == 0 { hi } else { 0 };
                for k in lo..=face_hi {
                    let v = dp.cell(i, j, k, |pi, pj, pk| lat.at(pi, pj, pk));
                    lat.scores[off + k - lo] = v;
                }
                if face_hi == hi {
                    continue;
                }
            }
            // Interior cells `kb + 1..=hi`, seeded with cell `kb`: the
            // `k = 0` cell just computed, or the pruned cell left of the
            // span.
            let kb = lo.max(1) - 1;
            let w = hi - kb + 1;
            let (prev_j1, rest) = win.split_at_mut(n3 + 1);
            let (prev_j, rest) = rest.split_at_mut(n3 + 1);
            let (cur_j1, row) = rest.split_at_mut(n3 + 1);
            let (prev_j1, prev_j, cur_j1) = (&mut prev_j1[..w], &mut prev_j[..w], &mut cur_j1[..w]);
            lat.window(i - 1, j - 1, kb, prev_j1);
            lat.window(i - 1, j, kb, prev_j);
            lat.window(i, j - 1, kb, cur_j1);
            row[0] = lat.at(i, j, kb);
            let (ai, bj) = (ra[i - 1], rb[j - 1]);
            let slab_row_in = SlabRow {
                g2,
                sab: scoring.sub(ai, bj),
                sac: &prof.ac(ai)[kb..hi],
                sbc: &prof.bc(bj)[kb..hi],
                prev_j1,
                prev_j,
                cur_j1,
            };
            slab_row(rk, &slab_row_in, &mut row[..w]);
            let first = kb + 1 - lo;
            lat.scores[off + first..off + len].copy_from_slice(&row[1..w]);
        }
    }
    Ok(lat)
}

/// The slab loop over `slots` slab slots (see [`slab_loop`]), polling
/// only `cancel`.
fn slabs_without_checkpoints(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kernel: SimdKernel,
    cancel: &CancelToken,
    slots: usize,
) -> Result<Vec<i32>, CancelProgress> {
    let sweep = Sweep::new(Order::Slabs, kernel).cancel(cancel);
    let ctx = Ctx::new(a, b, c, scoring, kernel.resolve());
    let mut poll = Poll::new(&sweep, a, b, c, scoring, Order::Slabs);
    slab_loop(&ctx, &mut poll, slots).map_err(|stop| match stop {
        DurableStop::Cancelled(p) => p,
        other => unreachable!("a sweep without checkpoints stopped: {other}"),
    })
}

/// Loop-invariant inputs of one sweep, shared by every step and worker.
struct Ctx<'a> {
    kernel: Kernel<'a>,
    scoring: &'a Scoring,
    ra: &'a [u8],
    rb: &'a [u8],
    rc: &'a [u8],
    rk: ResolvedKernel,
    g2: i32,
    /// Substitution profiles — built only when a SIMD kernel will consume
    /// them.
    prof: Option<Profiles>,
}

impl<'a> Ctx<'a> {
    fn new(a: &'a Seq, b: &'a Seq, c: &'a Seq, scoring: &'a Scoring, rk: ResolvedKernel) -> Self {
        let (ra, rb, rc) = (a.residues(), b.residues(), c.residues());
        Ctx {
            kernel: Kernel::new(ra, rb, rc, scoring),
            scoring,
            ra,
            rb,
            rc,
            rk,
            g2: 2 * scoring.gap_linear(),
            prof: (!rk.is_scalar()).then(|| Profiles::new(scoring, ra, rb, rc)),
        }
    }
}

/// The per-step stop conditions of one sweep: the cancel token, the drain
/// flag, and checkpoint pacing.
struct Poll<'a> {
    cancel: Option<&'a CancelToken>,
    ckpt: Option<(Checkpoint<'a>, Pacer)>,
    fingerprint: u64,
    kind: KernelKind,
    total: u64,
}

impl<'a> Poll<'a> {
    fn new(sweep: &Sweep<'a>, a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, order: Order) -> Self {
        let kind = order.checkpoint_kind();
        Poll {
            cancel: sweep.cancel,
            ckpt: sweep
                .checkpoint
                .map(|ck| (ck, Pacer::new(ck.config.policy))),
            fingerprint: sweep
                .checkpoint
                .map_or(0, |_| job_fingerprint(a, b, c, scoring, kind)),
            kind,
            total: ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64,
        }
    }

    fn progress(&self, cells_done: u64) -> CancelProgress {
        CancelProgress {
            cells_done,
            cells_total: self.total,
        }
    }

    /// The snapshot to resume from, once its kind and fingerprint check
    /// out (the caller validates index and shape).
    fn resume(&self) -> Result<Option<&'a FrontierSnapshot>, DurableStop> {
        let Some(s) = self.ckpt.as_ref().and_then(|(ck, _)| ck.resume) else {
            return Ok(None);
        };
        if s.kind != self.kind.code() {
            return Err(DurableStop::InvalidResume(ResumeError::Kind {
                expected: self.kind.code(),
                found: s.kind,
            }));
        }
        if s.fingerprint != self.fingerprint {
            return Err(DurableStop::InvalidResume(ResumeError::Fingerprint {
                expected: self.fingerprint,
                found: s.fingerprint,
            }));
        }
        Ok(Some(s))
    }

    /// Poll before step `next`: a fired token stops the sweep; a drain
    /// request stores the frontier and stops.
    fn before(
        &self,
        next: usize,
        done: u64,
        frontier: impl FnOnce() -> Vec<Vec<i32>>,
    ) -> Result<(), DurableStop> {
        if self.cancel.is_some_and(CancelToken::should_stop) {
            return Err(DurableStop::Cancelled(self.progress(done)));
        }
        if let Some((ck, _)) = &self.ckpt {
            if ck.config.drain_requested() {
                self.store(ck.config, next, done, frontier())?;
                return Err(DurableStop::Drained(self.progress(done)));
            }
        }
        Ok(())
    }

    /// After a completed step, with step `next` still to run: store the
    /// frontier when the pacer says a checkpoint is due.
    fn after(
        &mut self,
        next: usize,
        done: u64,
        frontier: impl FnOnce() -> Vec<Vec<i32>>,
    ) -> Result<(), DurableStop> {
        let Some((ck, pacer)) = self.ckpt.as_mut() else {
            return Ok(());
        };
        let config = ck.config;
        if pacer.due() {
            self.store(config, next, done, frontier())?;
        }
        Ok(())
    }

    fn store(
        &self,
        config: &CheckpointConfig<'_>,
        next: usize,
        cells_done: u64,
        buffers: Vec<Vec<i32>>,
    ) -> Result<(), DurableStop> {
        let snapshot = FrontierSnapshot {
            fingerprint: self.fingerprint,
            kind: self.kind.code(),
            next_index: next as u32,
            cells_done,
            buffers,
        };
        config
            .sink
            .store(&snapshot)
            .map_err(|e| DurableStop::Sink(e.to_string()))
    }
}

/// The slab loop: slabs `start..=n1`, each computed from its predecessor.
/// `slots` slab-sized slots back the sweep — 2 roll, `n1 + 1` keep the
/// whole lattice — and slab `i` lives in slot `i % slots`.
fn slab_loop(ctx: &Ctx<'_>, poll: &mut Poll<'_>, slots: usize) -> Result<Vec<i32>, DurableStop> {
    let (n1, n2, n3) = ctx.kernel.lens();
    let len = (n2 + 1) * (n3 + 1);
    let mut buf = vec![NEG_INF; slots * len];
    let prev_slot = |i: usize| (i + slots - 1) % slots;
    let (start, mut done) = match poll.resume()? {
        None => (0, 0),
        Some(s) => {
            let next = s.next_index as usize;
            if next > n1 {
                return Err(DurableStop::InvalidResume(ResumeError::Index));
            }
            if s.buffers.len() != 1 || s.buffers[0].len() != len {
                return Err(DurableStop::InvalidResume(ResumeError::Shape));
            }
            let p = prev_slot(next) * len;
            buf[p..p + len].copy_from_slice(&s.buffers[0]);
            (next, s.cells_done)
        }
    };
    for i in start..=n1 {
        let (p, cur) = (prev_slot(i), i % slots);
        poll.before(i, done, || vec![buf[p * len..][..len].to_vec()])?;
        // Slot p holds slab i−1 (for i = 0 it is never read).
        let (lo, hi) = buf.split_at_mut(cur * len);
        let (cur_slab, rest) = hi.split_at_mut(len);
        let prev_slab: &[i32] = if p == cur {
            &[]
        } else if p < cur {
            &lo[p * len..][..len]
        } else {
            &rest[(p - cur - 1) * len..][..len]
        };
        compute_slab(ctx, i, prev_slab, cur_slab);
        done += len as u64;
        if i < n1 {
            poll.after(i + 1, done, || vec![buf[cur * len..][..len].to_vec()])?;
        }
    }
    Ok(buf)
}

/// Compute slab `i` into `cur`, reading slab `i−1` from `prev`. Every cell
/// of `cur` is overwritten; its previous contents are never read, so a
/// stale (or freshly restored) `cur` buffer is fine.
///
/// The scalar arm below is the reference the SIMD rows are
/// property-tested against.
fn compute_slab(ctx: &Ctx<'_>, i: usize, prev: &[i32], cur: &mut [i32]) {
    let (_n1, n2, n3) = ctx.kernel.lens();
    let (ra, rb, rc, g2) = (ctx.ra, ctx.rb, ctx.rc, ctx.g2);
    let w3 = n3 + 1;
    for j in 0..=n2 {
        if i == 0 || j == 0 {
            // Faces: generic bounds-checked kernel.
            for k in 0..=n3 {
                cur[j * w3 + k] = ctx.kernel.cell(i, j, k, |pi, pj, pk| {
                    if pi == i {
                        cur[pj * w3 + pk]
                    } else {
                        prev[pj * w3 + pk]
                    }
                });
            }
            continue;
        }
        // Interior rows: hoisted strides.
        let (ai, bj) = (ra[i - 1], rb[j - 1]);
        let sab = ctx.scoring.sub(ai, bj);
        let b11 = (j - 1) * w3; // prev slab, row j−1
        let b10 = j * w3; // prev slab, row j
        let b01 = (j - 1) * w3; // cur slab, row j−1
        let base = j * w3;
        cur[base] = ctx.kernel.cell(i, j, 0, |pi, pj, pk| {
            if pi == i {
                cur[pj * w3 + pk]
            } else {
                prev[pj * w3 + pk]
            }
        });
        match &ctx.prof {
            Some(prof) => {
                // SIMD row: the split at `base` makes the completed row
                // `j−1` and the row being written disjoint borrows.
                let (done, open) = cur.split_at_mut(base);
                let row = SlabRow {
                    g2,
                    sab,
                    sac: &prof.ac(ai)[..n3],
                    sbc: &prof.bc(bj)[..n3],
                    prev_j1: &prev[b11..b11 + w3],
                    prev_j: &prev[b10..b10 + w3],
                    cur_j1: &done[b01..b01 + w3],
                };
                slab_row(ctx.rk, &row, &mut open[..w3]);
            }
            None => {
                for k in 1..=n3 {
                    let ck = rc[k - 1];
                    let sac = ctx.scoring.sub(ai, ck);
                    let sbc = ctx.scoring.sub(bj, ck);
                    let p111 = prev[b11 + k - 1] + sab + sac + sbc;
                    let p110 = prev[b11 + k] + sab + g2;
                    let p101 = prev[b10 + k - 1] + sac + g2;
                    let p011 = cur[b01 + k - 1] + sbc + g2;
                    let single = prev[b10 + k].max(cur[b01 + k]).max(cur[base + k - 1]) + g2;
                    cur[base + k] = p111.max(p110).max(p101).max(p011).max(single);
                }
            }
        }
    }
}

/// Planes with fewer cells run on the calling thread.
const MIN_CELLS_PER_TASK: usize = 64;

/// The plane loop: planes `start..num_planes`, each computed from the
/// three before it in four rotating buffers indexed by `(i, j)` (the `k`
/// of a stored value is implied by its plane: `k = d − i − j`).
fn plane_loop(ctx: &Ctx<'_>, poll: &mut Poll<'_>) -> Result<i32, DurableStop> {
    let (n1, n2, n3) = ctx.kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let w2 = n2 + 1;
    let plane_len = (n1 + 1) * w2;
    let mut buffers: [SharedGrid<i32>; 4] =
        std::array::from_fn(|_| SharedGrid::new(plane_len, NEG_INF));
    let (start, mut done) = match poll.resume()? {
        None => (0, 0),
        Some(s) => {
            let next = s.next_index as usize;
            if next >= e.num_planes() {
                return Err(DurableStop::InvalidResume(ResumeError::Index));
            }
            let expect = next.min(3);
            if s.buffers.len() != expect || s.buffers.iter().any(|b| b.len() != plane_len) {
                return Err(DurableStop::InvalidResume(ResumeError::Shape));
            }
            // Restore plane p into its rotation slot p % 4; untouched
            // slots keep the NEG_INF initialization, exactly as at plane
            // `next` of a fresh run.
            for (idx, buf) in s.buffers.iter().enumerate() {
                let target = &buffers[(next - expect + idx) % 4];
                for (si, &v) in buf.iter().enumerate() {
                    // SAFETY: exclusive access — no worker threads yet.
                    unsafe { target.set(si, v) };
                }
            }
            (next, s.cells_done)
        }
    };
    for d in start..e.num_planes() {
        poll.before(d, done, || plane_frontier(&mut buffers, d))?;
        let step = PlaneStep {
            ctx,
            buffers: &buffers,
            w2,
        };
        done += compute_plane(&step, e, d) as u64;
        if d + 1 < e.num_planes() {
            poll.after(d + 1, done, || plane_frontier(&mut buffers, d + 1))?;
        }
    }
    // SAFETY: the sweep finished; exclusive access.
    Ok(unsafe { buffers[(n1 + n2 + n3) % 4].get(n1 * w2 + n2) })
}

/// The `min(next, 3)` planes preceding `next`, oldest first.
fn plane_frontier(buffers: &mut [SharedGrid<i32>; 4], next: usize) -> Vec<Vec<i32>> {
    (next - next.min(3)..next)
        .map(|p| buffers[p % 4].snapshot())
        .collect()
}

/// Everything one plane of the plane loop reads, shared by every worker.
struct PlaneStep<'a> {
    ctx: &'a Ctx<'a>,
    buffers: &'a [SharedGrid<i32>; 4],
    w2: usize,
}

/// Compute anti-diagonal plane `d` into the rotating buffers, its rows in
/// parallel. Returns the number of cells on the plane.
fn compute_plane(step: &PlaneStep<'_>, e: Extents, d: usize) -> usize {
    thread_local! {
        static SCRATCH: RefCell<PlaneScratch> = RefCell::new(PlaneScratch::default());
    }
    let rows: Vec<(usize, usize, usize)> = plane_rows(e, d).collect();
    let total: usize = rows.iter().map(|&(_, lo, hi)| hi - lo + 1).sum();
    let do_row = |&(i, j_lo, j_hi): &(usize, usize, usize)| {
        SCRATCH.with(|s| compute_plane_row(step, d, i, j_lo, j_hi, &mut s.borrow_mut()));
    };
    if total < MIN_CELLS_PER_TASK {
        rows.iter().for_each(do_row);
    } else {
        rows.par_iter().for_each(do_row);
    }
    total
}

/// One plane row `(i, j_lo..=j_hi)`. The scalar reference evaluates every
/// cell with the generic bounds-checked kernel; a SIMD kernel runs the
/// interior segment as one vector row, which reads all seven predecessors
/// (and writes its output) through unit-stride slices of the rotating
/// buffers, and leaves the edge cells (`i`, `j`, or `k` of 0) to the
/// generic kernel. Scores are bit-identical either way.
fn compute_plane_row(
    step: &PlaneStep<'_>,
    d: usize,
    i: usize,
    j_lo: usize,
    j_hi: usize,
    scratch: &mut PlaneScratch,
) {
    let PlaneStep { ctx, buffers, w2 } = *step;
    let slot = |i: usize, j: usize| i * w2 + j;
    let target = &buffers[d % 4];
    // SAFETY: each (i, j) slot of the target buffer corresponds to one
    // distinct plane cell, and rows of a plane are disjoint; reads go to
    // the three previous planes' buffers, complete before this plane
    // starts. The buffer being overwritten (d ≡ d−4) is never read:
    // predecessors reach back at most 3 planes.
    let cell = |i: usize, j: usize, k: usize| {
        let v = ctx.kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            buffers[(pi + pj + pk) % 4].get(slot(pi, pj))
        });
        unsafe { target.set(slot(i, j), v) };
    };
    // Interior cells need i ≥ 1 and j, k ≥ 1; with k = d − i − j that is
    // j ∈ [max(j_lo, 1), min(j_hi, d − i − 1)].
    let interior = ctx
        .prof
        .as_ref()
        .filter(|_| i >= 1 && d > i)
        .and_then(|prof| {
            let (js, je) = (j_lo.max(1), j_hi.min(d - i - 1));
            (js <= je).then_some((prof, js, je))
        });
    let Some((prof, js, je)) = interior else {
        for j in j_lo..=j_hi {
            cell(i, j, d - i - j);
        }
        return;
    };
    for j in j_lo..js {
        cell(i, j, d - i - j);
    }
    let len = je - js + 1;
    let (rb, rc, g2, rk) = (ctx.rb, ctx.rc, ctx.g2, ctx.rk);
    let ai = ctx.ra[i - 1];
    scratch.ensure(len);
    let (pab, pac) = (prof.ab(ai), prof.ac(ai));
    for (x, j) in (js..=je).enumerate() {
        let k = d - i - j;
        let sab = pab[j - 1];
        let sac = pac[k - 1];
        let sbc = ctx.scoring.sub(rb[j - 1], rc[k - 1]);
        scratch.t111[x] = sab + sac + sbc;
        scratch.t110[x] = sab + g2;
        scratch.t101[x] = sac + g2;
        scratch.t011[x] = sbc + g2;
    }
    // Interior cells have d = i + j + k ≥ 3, so planes d−1..d−3 exist and
    // occupy the three rotation slots the target (d mod 4) doesn't.
    let p1 = &buffers[(d - 1) % 4];
    let p2 = &buffers[(d - 2) % 4];
    let p3 = &buffers[(d - 3) % 4];
    // SAFETY: the predecessor slices view earlier planes' buffers, fully
    // written before this plane began and never written during it; the
    // output slice covers exactly this row's target slots, disjoint from
    // every other row of the plane. Slice bounds stay inside the buffers:
    // slots run from (i−1)·w2 + js−1 to i·w2 + je ≤ (n1+1)·w2 − 1.
    unsafe {
        let sl =
            |g: &SharedGrid<i32>, at: usize| std::slice::from_raw_parts(g.as_ptr().add(at), len);
        let row = PlaneRow {
            g2,
            t111: &scratch.t111[..len],
            t110: &scratch.t110[..len],
            t101: &scratch.t101[..len],
            t011: &scratch.t011[..len],
            p3_111: sl(p3, slot(i - 1, js - 1)),
            p2_110: sl(p2, slot(i - 1, js - 1)),
            p2_101: sl(p2, slot(i - 1, js)),
            p2_011: sl(p2, slot(i, js - 1)),
            p1_100: sl(p1, slot(i - 1, js)),
            p1_010: sl(p1, slot(i, js - 1)),
            p1_001: sl(p1, slot(i, js)),
        };
        let out = std::slice::from_raw_parts_mut(target.as_ptr().add(slot(i, js)), len);
        plane_row(rk, &row, out);
    }
    for j in (je + 1)..=j_hi {
        cell(i, j, d - i - j);
    }
}

/// The tile loop: every `t×t×t` tile of the full lattice, rayon over tile
/// planes.
///
/// Correctness of cross-tile reads: a row of tile `(I, J, K)` at cell
/// `(i, j)` reads rows `(i−1, j−1)`, `(i−1, j)`, `(i, j−1)` over
/// `k ∈ [kb, khi]` with `kb = klo−1` reaching one cell into tile `K−1`.
/// Every such read lands in this tile (already computed — the sweep goes
/// `i` outer, `j` inner) or in a tile with strictly smaller `I + J + K`,
/// complete before this tile plane began. Writes stay strictly inside the
/// tile: the row is computed in a per-thread buffer seeded from the grid,
/// and only cells `k ≥ klo` are copied back — re-writing the seed cell of
/// tile `K−1` would race with same-plane readers.
///
/// Cancellation is polled between tile planes (authoritative — every
/// started plane finishes) and again at every tile row of `a` for fast
/// reaction; only a full cell count proves the destination cell was
/// written.
fn tile_loop(
    ctx: &Ctx<'_>,
    tile: usize,
    cancel: Option<&CancelToken>,
) -> Result<SharedGrid<i32>, CancelProgress> {
    let (n1, n2, n3) = ctx.kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let tg = TileGrid::new(e, tile.max(1));
    let grid = SharedGrid::new(e.cells(), NEG_INF);
    let counted = AtomicU64::new(0);
    let stop = || cancel.is_some_and(CancelToken::should_stop);
    let run = |ti, tj, tk| compute_tile(ctx, &tg, &grid, (ti, tj, tk), &stop, &counted);
    let finished = run_tiles_wavefront(&tg, run, &stop).is_ok();
    let cells_done = counted.load(Ordering::Relaxed);
    if finished && cells_done == e.cells() as u64 {
        Ok(grid)
    } else {
        Err(CancelProgress {
            cells_done,
            cells_total: e.cells() as u64,
        })
    }
}

thread_local! {
    /// Per-thread row buffer: rows are computed here and copied back so no
    /// write ever leaves the tile (see [`tile_loop`]).
    static ROWBUF: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// Compute every cell of one tile, adding finished tile rows to
/// `counted`. Checks `stop` before each row of `a` within the tile and
/// returns early (leaving the tile incomplete) when it fires — the caller
/// stops the sweep before anything reads the partial tile.
fn compute_tile(
    ctx: &Ctx<'_>,
    tg: &TileGrid,
    grid: &SharedGrid<i32>,
    (ti, tj, tk): (usize, usize, usize),
    stop: &impl Fn() -> bool,
    counted: &AtomicU64,
) {
    let ((ilo, ihi), (jlo, jhi), (klo, khi)) = tg.cell_ranges(ti, tj, tk);
    let e = tg.extents();
    // SAFETY: writes land in this tile's own cells; reads come from cells
    // of this tile already computed this call or from tiles on strictly
    // smaller tile planes, complete before this plane started.
    let cell = |i: usize, j: usize, k: usize| {
        let v = ctx.kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            grid.get(e.index(pi, pj, pk))
        });
        unsafe { grid.set(e.index(i, j, k), v) };
    };
    let row_cells = ((jhi - jlo + 1) * (khi - klo + 1)) as u64;
    let Some(prof) = &ctx.prof else {
        for i in ilo..=ihi {
            if stop() {
                return;
            }
            for j in jlo..=jhi {
                for k in klo..=khi {
                    cell(i, j, k);
                }
            }
            counted.fetch_add(row_cells, Ordering::Relaxed);
        }
        return;
    };
    // SIMD rows run from the seed cell kb (one cell into tile K−1, or the
    // scalar-computed k = 0 cell) through khi.
    let kb = klo.max(1) - 1;
    let w = khi - kb + 1;
    ROWBUF.with(|rb| {
        let mut rowbuf = rb.borrow_mut();
        if rowbuf.len() < w {
            rowbuf.resize(w, 0);
        }
        for i in ilo..=ihi {
            if stop() {
                return;
            }
            if i == 0 {
                for j in jlo..=jhi {
                    for k in klo..=khi {
                        cell(i, j, k);
                    }
                }
                counted.fetch_add(row_cells, Ordering::Relaxed);
                continue;
            }
            let ai = ctx.ra[i - 1];
            for j in jlo..=jhi {
                if j == 0 {
                    for k in klo..=khi {
                        cell(i, j, k);
                    }
                    continue;
                }
                if klo == 0 {
                    cell(i, j, 0);
                }
                if w < 2 {
                    continue;
                }
                let bj = ctx.rb[j - 1];
                // SAFETY: see `cell` — the predecessor slices are complete
                // and the copy-back targets only this tile's cells
                // (k ≥ kb + 1 ≥ klo). Slices stay in bounds:
                // kb + w − 1 = khi ≤ n3.
                unsafe {
                    let sl = |i_: usize, j_: usize| {
                        std::slice::from_raw_parts(grid.as_ptr().add(e.index(i_, j_, kb)), w)
                    };
                    rowbuf[0] = grid.get(e.index(i, j, kb));
                    let row = SlabRow {
                        g2: ctx.g2,
                        sab: prof.ab(ai)[j - 1],
                        sac: &prof.ac(ai)[kb..khi],
                        sbc: &prof.bc(bj)[kb..khi],
                        prev_j1: sl(i - 1, j - 1),
                        prev_j: sl(i - 1, j),
                        cur_j1: sl(i, j - 1),
                    };
                    slab_row(ctx.rk, &row, &mut rowbuf[..w]);
                    let dst = std::slice::from_raw_parts_mut(
                        grid.as_ptr().add(e.index(i, j, kb + 1)),
                        w - 1,
                    );
                    dst.copy_from_slice(&rowbuf[1..w]);
                }
            }
            counted.fetch_add(row_cells, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointPolicy, CheckpointSink, MemorySink};
    use crate::full;
    use crate::test_util::{family_triple, random_triple};
    use std::sync::atomic::AtomicBool;

    const ORDERS: [Order; 4] = [
        Order::Slabs,
        Order::Planes,
        Order::Tiles { tile: 4 },
        Order::Tiles { tile: 7 },
    ];

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn score(order: Order, a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
        Sweep::new(order, SimdKernel::Auto)
            .score(a, b, c, scoring)
            .unwrap()
    }

    fn face(a: &Seq, b: &Seq, c: &Seq, backward: bool) -> Face {
        let never = CancelToken::never();
        slab_face(a, b, c, &s(), SimdKernel::Auto, &never, backward).unwrap()
    }

    #[test]
    fn every_order_matches_the_full_lattice() {
        for seed in 0..12 {
            let (a, b, c) = random_triple(seed, 12);
            let want = full::align_score(&a, &b, &c, &s());
            for order in ORDERS {
                assert_eq!(
                    score(order, &a, &b, &c, &s()),
                    want,
                    "seed {seed} {order:?}"
                );
            }
        }
    }

    #[test]
    fn every_kernel_and_tile_edge_agree() {
        let (a, b, c) = family_triple(91, 33);
        let want = full::align_score(&a, &b, &c, &s());
        for name in ["scalar", "sse2", "avx2", "auto"] {
            let simd = SimdKernel::by_name(name).unwrap();
            if !simd.is_native() {
                continue;
            }
            for order in [
                Order::Slabs,
                Order::Planes,
                Order::Tiles { tile: 0 },
                Order::Tiles { tile: 8 },
                Order::Tiles { tile: 64 },
            ] {
                let got = Sweep::new(order, simd).score(&a, &b, &c, &s()).unwrap();
                assert_eq!(got, want, "kernel {name} {order:?}");
            }
        }
    }

    #[test]
    fn protein_scoring_agrees() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let gen = |len, rng: &mut _| tsa_seq::gen::random_seq(tsa_seq::Alphabet::Protein, len, rng);
        let (a, b, c) = (gen(21, &mut rng), gen(26, &mut rng), gen(17, &mut rng));
        let scoring = Scoring::blosum62();
        let want = full::align_score(&a, &b, &c, &scoring);
        for order in ORDERS {
            assert_eq!(score(order, &a, &b, &c, &scoring), want, "{order:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGTAC").unwrap();
        for order in ORDERS {
            assert_eq!(score(order, &e, &e, &e, &s()), 0);
            for (x, y, z) in [(&a, &e, &e), (&e, &a, &e), (&e, &e, &a), (&a, &a, &e)] {
                let want = full::align_score(x, y, z, &s());
                assert_eq!(score(order, x, y, z, &s()), want, "{order:?}");
            }
        }
    }

    #[test]
    fn forward_faces_match_lattice_slices() {
        let (a, b, c) = random_triple(7, 10);
        let lat = full::fill(&a, &b, &c, &s(), SimdKernel::Scalar, &CancelToken::never()).unwrap();
        let w3 = c.len() + 1;
        let f = face(&a, &b, &c, false);
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                assert_eq!(f[j * w3 + k], lat.at(a.len(), j, k), "({j},{k})");
            }
        }
        // |a| = 0: the face is the whole B × C lattice.
        let e = Seq::dna("").unwrap();
        let lat = full::fill(&e, &b, &c, &s(), SimdKernel::Scalar, &CancelToken::never()).unwrap();
        assert_eq!(face(&e, &b, &c, false), lat.scores);
    }

    #[test]
    fn backward_face_matches_suffix_alignments() {
        let (a, b, c) = random_triple(3, 8);
        let w3 = c.len() + 1;
        let f = face(&a, &b, &c, true);
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                let (bs, cs) = (b.slice(j, b.len()), c.slice(k, c.len()));
                let want = full::align_score(&a, &bs, &cs, &s());
                assert_eq!(f[j * w3 + k], want, "({j},{k})");
            }
        }
    }

    #[test]
    fn hirschberg_split_identity_holds_in_3d() {
        // max_{j,k} F[j][k] + R[j][k] over the split i = mid equals the
        // full optimum — the 3D divide-and-conquer invariant.
        let (a, b, c) = family_triple(31, 16);
        let mid = a.len() / 2;
        let f = face(&a.slice(0, mid), &b, &c, false);
        let r = face(&a.slice(mid, a.len()), &b, &c, true);
        let combined = f.iter().zip(&r).map(|(x, y)| x + y).max().unwrap();
        assert_eq!(combined, full::align_score(&a, &b, &c, &s()));
    }

    #[test]
    fn tile_lattice_equals_the_scalar_slab_lattice() {
        let never = CancelToken::never();
        // Lengths past the largest tile edge, so it too leaves a ragged
        // boundary tile.
        for (seed, scoring) in [(0, s()), (1, Scoring::blosum62())] {
            let (a, b, c) = family_triple(seed + 60, 70);
            for tile in [1, 4, 7, 64] {
                // Lengths off multiples of the tile (every length is a
                // multiple of 1): ragged boundary tiles on every face.
                let cut = |x: &Seq| {
                    let mut n = x.len();
                    while tile > 1 && n % tile == 0 {
                        n -= 1;
                    }
                    x.slice(0, n)
                };
                let (a, b, c) = (cut(&a), cut(&b), cut(&c));
                let want = full::fill(&a, &b, &c, &scoring, SimdKernel::Scalar, &never).unwrap();
                for name in ["scalar", "sse2", "avx2", "auto"] {
                    let kernel = SimdKernel::by_name(name).unwrap();
                    if !kernel.is_native() {
                        continue;
                    }
                    let got = fill_tiles(&a, &b, &c, &scoring, kernel, tile, &never).unwrap();
                    assert_eq!(got.extents, want.extents);
                    assert!(got.scores == want.scores, "tile {tile} under {name}");
                }
            }
        }
    }

    /// The sparse fill over arbitrary intervals (empty rows, intervals
    /// starting at the `k = 0` face or past it, lengths 0 and 1 included)
    /// equals the generic kernel over a dense lattice whose cells outside
    /// the intervals hold `NEG_INF`, under the scalar and the SIMD rows
    /// alike, keeping every slab or rolling two (whose last slab is
    /// checked). Cells that no path from the origin reaches inside the
    /// intervals hold values below `NEG_INF / 2` in both (the generic
    /// kernel floors them at `NEG_INF`, the slab rows do not), which the
    /// traceback never follows.
    #[test]
    fn sparse_fill_matches_the_generic_kernel_over_any_intervals() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_5a25);
        let never = CancelToken::never();
        for trial in 0..40 {
            let (a, b, c) = random_triple(trial + 200, 24);
            let e = Extents::new(a.len(), b.len(), c.len());
            let (w2, n3) = (e.n2 + 1, e.n3);
            let intervals: Vec<(usize, usize)> = (0..(e.n1 + 1) * w2)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        return (0, 0);
                    }
                    let lo = rng.gen_range(0..=n3);
                    (lo, rng.gen_range(lo..=n3) - lo + 1)
                })
                .collect();
            let scoring = s();
            let dp = Kernel::new(a.residues(), b.residues(), c.residues(), &scoring);
            let mut want = vec![NEG_INF; e.cells()];
            let mut slabs = vec![0; e.n1 + 1];
            for i in 0..=e.n1 {
                for j in 0..=e.n2 {
                    let (lo, len) = intervals[i * w2 + j];
                    slabs[i] += len;
                    for k in lo..lo + len {
                        want[e.index(i, j, k)] =
                            dp.cell(i, j, k, |pi, pj, pk| want[e.index(pi, pj, pk)]);
                    }
                }
            }
            let kept = slabs.iter().sum();
            let prof = Profiles::new(&scoring, a.residues(), b.residues(), c.residues());
            let stores = [
                (SparseSlabs::All { kept }, 0),
                (
                    SparseSlabs::Rolling {
                        slab: *slabs.iter().max().unwrap(),
                        kept,
                    },
                    e.n1,
                ),
            ];
            for kernel in [SimdKernel::Scalar, SimdKernel::Auto] {
                for (store, first) in stores {
                    let interval = |i, j| intervals[i * w2 + j];
                    let got =
                        fill_sparse(&a, &b, &c, &scoring, &prof, kernel, store, interval, &never)
                            .unwrap();
                    for i in first..=e.n1 {
                        for j in 0..=e.n2 {
                            for k in 0..=n3 {
                                let (got, want) = (got.at(i, j, k), want[e.index(i, j, k)]);
                                let at = format!("trial {trial} {kernel} {store:?} ({i},{j},{k})");
                                if want > NEG_INF / 2 {
                                    assert_eq!(got, want, "{at}");
                                } else {
                                    assert!(got <= NEG_INF / 2, "{at}: {got}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_sweeps_stop_immediately() {
        let (a, b, c) = random_triple(52, 12);
        let token = CancelToken::never();
        token.cancel();
        let cells = ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64;
        for order in ORDERS {
            let sweep = Sweep::new(order, SimdKernel::Auto).cancel(&token);
            match sweep.score(&a, &b, &c, &s()) {
                Err(DurableStop::Cancelled(p)) => {
                    assert_eq!((p.cells_done, p.cells_total), (0, cells), "{order:?}")
                }
                other => panic!("{order:?}: {other:?}"),
            }
        }
        for kernel in [SimdKernel::Scalar, SimdKernel::Auto] {
            for backward in [false, true] {
                let face = slab_face(&a, &b, &c, &s(), kernel, &token, backward);
                assert_eq!(face.unwrap_err().cells_done, 0);
            }
            let lattices = [
                fill_lattice(&a, &b, &c, &s(), kernel, &token),
                fill_tiles(&a, &b, &c, &s(), kernel, 4, &token),
            ];
            for lattice in lattices {
                assert_eq!(lattice.unwrap_err().cells_done, 0);
            }
        }
    }

    mod durable {
        use super::*;

        /// Forwards snapshots to an inner [`MemorySink`] and fires a drain
        /// flag after each store — the "interrupt at every checkpoint"
        /// harness.
        struct DrainOnStore<'a> {
            inner: &'a MemorySink,
            drain: &'a AtomicBool,
        }

        impl CheckpointSink for DrainOnStore<'_> {
            fn store(&self, s: &FrontierSnapshot) -> std::io::Result<()> {
                self.inner.store(s)?;
                self.drain.store(true, Ordering::Relaxed);
                Ok(())
            }
        }

        /// The checkpointable orders, with the kind their snapshots carry.
        const DURABLE: [(Order, KernelKind); 3] = [
            (Order::Slabs, KernelKind::Slabs),
            (Order::Planes, KernelKind::Planes),
            (Order::Tiles { tile: 4 }, KernelKind::Planes),
        ];

        fn durable<'a>(
            order: Order,
            config: &'a CheckpointConfig<'a>,
            resume: Option<&'a FrontierSnapshot>,
        ) -> Sweep<'a> {
            Sweep {
                checkpoint: Some(Checkpoint { config, resume }),
                ..Sweep::new(order, SimdKernel::Auto)
            }
        }

        /// Run to completion, draining at every checkpoint and resuming
        /// from the stored snapshot (round-tripped through the binary wire
        /// format) until it finishes. Returns the score and the number of
        /// interruptions survived.
        fn run_interrupted(order: Order, a: &Seq, b: &Seq, c: &Seq) -> (i32, u64) {
            let sink = MemorySink::new();
            let drain = AtomicBool::new(false);
            let mut interruptions = 0u64;
            let mut last_done = 0u64;
            loop {
                drain.store(false, Ordering::Relaxed);
                let wrapper = DrainOnStore {
                    inner: &sink,
                    drain: &drain,
                };
                let config = CheckpointConfig {
                    sink: &wrapper,
                    policy: CheckpointPolicy {
                        every_planes: 1,
                        every: None,
                    },
                    drain: Some(&drain),
                };
                // Round-trip the snapshot through encode/decode so the test
                // covers exactly what a process restart would replay.
                let snap = sink
                    .last()
                    .map(|s| FrontierSnapshot::decode(&s.encode()).expect("round trip"));
                match durable(order, &config, snap.as_ref()).score(a, b, c, &s()) {
                    Ok(score) => return (score, interruptions),
                    Err(DurableStop::Drained(p)) => {
                        assert!(p.cells_done >= last_done, "progress went backwards");
                        last_done = p.cells_done;
                        interruptions += 1;
                    }
                    Err(e) => panic!("unexpected stop: {e}"),
                }
            }
        }

        #[test]
        fn durable_without_interruption_matches_plain() {
            let (a, b, c) = family_triple(61, 14);
            for (order, _) in DURABLE {
                let sink = MemorySink::new();
                let config = CheckpointConfig::new(&sink).every_planes(4);
                let got = durable(order, &config, None).score(&a, &b, &c, &s());
                assert_eq!(got.unwrap(), score(order, &a, &b, &c, &s()), "{order:?}");
                assert!(sink.store_count() > 0, "periodic checkpoints must fire");
            }
        }

        #[test]
        fn interrupt_at_every_checkpoint_is_bit_identical() {
            for seed in 0..6 {
                let (a, b, c) = random_triple(seed + 90, 12);
                let reference = full::align_score(&a, &b, &c, &s());
                for (order, _) in DURABLE {
                    let (score, interruptions) = run_interrupted(order, &a, &b, &c);
                    assert_eq!(score, reference, "{order:?} seed {seed}");
                    // Non-degenerate inputs must actually have been
                    // interrupted, or the harness proves nothing.
                    if a.len() + b.len() + c.len() > 4 {
                        assert!(interruptions > 0, "{order:?} seed {seed} never drained");
                    }
                }
            }
        }

        #[test]
        fn empty_inputs_are_durable_too() {
            let e = Seq::dna("").unwrap();
            let a = Seq::dna("ACGT").unwrap();
            for (order, _) in DURABLE {
                assert_eq!(run_interrupted(order, &e, &e, &e).0, 0, "{order:?}");
                let want = full::align_score(&a, &e, &e, &s());
                assert_eq!(run_interrupted(order, &a, &e, &e).0, want, "{order:?}");
            }
        }

        #[test]
        fn wrong_fingerprint_and_kind_are_rejected() {
            let (a, b, c) = random_triple(70, 10);
            let (d, _, _) = random_triple(71, 10);
            let sink = MemorySink::new();
            let drain = AtomicBool::new(true);
            let config = CheckpointConfig::new(&sink).drain_flag(&drain);
            for (order, _) in DURABLE {
                // Produce a legitimate snapshot for (a, b, c)...
                drain.store(true, Ordering::Relaxed);
                let err = durable(order, &config, None).score(&a, &b, &c, &s());
                assert!(matches!(err, Err(DurableStop::Drained(_))), "{order:?}");
                let snap = sink.last().unwrap();
                drain.store(false, Ordering::Relaxed);
                // ...and offer it to a different job, or another scoring.
                for (x, scoring) in [(&d, s()), (&a, Scoring::unit())] {
                    let err = durable(order, &config, Some(&snap)).score(x, &b, &c, &scoring);
                    assert!(
                        matches!(
                            err,
                            Err(DurableStop::InvalidResume(ResumeError::Fingerprint { .. }))
                        ),
                        "{order:?}: {err:?}"
                    );
                }
            }
            // A slab snapshot cannot resume a plane sweep.
            drain.store(true, Ordering::Relaxed);
            let _ = durable(Order::Slabs, &config, None).score(&a, &b, &c, &s());
            let snap = sink.last().unwrap();
            drain.store(false, Ordering::Relaxed);
            let err = durable(Order::Planes, &config, Some(&snap)).score(&a, &b, &c, &s());
            assert!(matches!(
                err,
                Err(DurableStop::InvalidResume(ResumeError::Kind { .. }))
            ));
        }

        #[test]
        fn malformed_shape_and_index_are_rejected() {
            let (a, b, c) = random_triple(73, 10);
            let sink = MemorySink::new();
            let config = CheckpointConfig::new(&sink);
            for (order, kind) in DURABLE {
                let fingerprint = job_fingerprint(&a, &b, &c, &s(), kind);
                let snap = |next_index, buffers| FrontierSnapshot {
                    fingerprint,
                    kind: kind.code(),
                    next_index,
                    cells_done: 0,
                    buffers,
                };
                for (bogus, want) in [
                    (snap(u32::MAX, vec![]), ResumeError::Index),
                    (snap(1, vec![vec![0; 3]]), ResumeError::Shape),
                ] {
                    let err = durable(order, &config, Some(&bogus)).score(&a, &b, &c, &s());
                    assert_eq!(err, Err(DurableStop::InvalidResume(want)), "{order:?}");
                }
            }
        }

        #[test]
        fn cancel_wins_and_sink_failure_surfaces() {
            struct FailSink;
            impl CheckpointSink for FailSink {
                fn store(&self, _: &FrontierSnapshot) -> std::io::Result<()> {
                    Err(std::io::Error::other("disk full"))
                }
            }
            let (a, b, c) = random_triple(74, 10);
            let token = CancelToken::never();
            token.cancel();
            let failing = CheckpointConfig::new(&FailSink).every_planes(1);
            for (order, _) in DURABLE {
                let cancelled = durable(order, &failing, None).cancel(&token);
                let err = cancelled.score(&a, &b, &c, &s());
                assert!(matches!(err, Err(DurableStop::Cancelled(_))), "{order:?}");
                let err = durable(order, &failing, None).score(&a, &b, &c, &s());
                assert!(
                    matches!(err, Err(DurableStop::Sink(_))),
                    "{order:?}: {err:?}"
                );
            }
        }
    }
}
