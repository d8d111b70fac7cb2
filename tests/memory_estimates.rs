//! Every plan's peak bytes against what its kernel really holds.
//!
//! `tsa-service`'s governor admits a job by the `peak_bytes` of its
//! `Aligner::plan`. A counting global allocator tracks the peak of live
//! heap bytes while each planned kernel runs, and that peak must lie
//! between half the plan's figure and the figure plus an `O(n)`
//! allowance: sequences, substitution profiles, traceback columns and
//! thread bookkeeping, none of which the plans price.
//!
//! Carrillo–Lipman (what `auto` alignments and most `auto` score jobs
//! run) plans what it falls back to when its bound keeps more than the
//! break-even share: the dense lattice for an alignment, the rolling slab
//! sweep for a score. A run that fell back holds that and meets the same
//! rule. An alignment that stayed pruned must hold far less: at most the
//! upper bound, and under a quarter of the plan. A score that stayed
//! pruned must hold no more than the slab sweep measured on the same
//! triple, and make only a handful of heap allocations. Family triples at
//! 64³ and 200³ check the saving; every random shape's path is asserted.
//!
//! The allocator counts every thread of the process, so this file holds a
//! single `#[test]`: nothing else runs while a peak is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use three_seq_align::core::{Algorithm, Aligner, CancelToken, Run};
use three_seq_align::scoring::GapModel;
use three_seq_align::seq::family::FamilyConfig;
use three_seq_align::seq::gen::random_seq_seeded;
use three_seq_align::seq::{Alphabet, Seq};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Heap allocations (moving reallocs included) since the last reset.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::SeqCst);
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // A moving realloc briefly holds both blocks; count the new one
            // before releasing the old, as an alloc + copy + free would.
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live bytes above the starting level while `run` executes,
/// including its result, and the heap allocations it made.
fn peak_of<R>(run: impl FnOnce() -> R) -> (usize, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    let result = run();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    drop(result);
    (peak, allocs)
}

/// Heap allocations a pruned score run may make. Its bounds phase holds
/// the substitution profiles, one pairwise matrix buffer, one backward
/// row, the three pairwise paths and the hulls (5); its sweep the two
/// rolling slabs' spans and cells and the predecessor windows (3). Every
/// pruned score run here made 9. The bound leaves a little slack but
/// fails a change that allocates per pair, per slab or per row: glibc
/// grows a worker's arena with its allocation count, not its live bytes,
/// and 25 small transient allocations per job raised a served worker's
/// peak RSS by 15%.
const PRUNED_SCORE_ALLOCS: usize = 12;

/// The unpriced `O(n)` terms: 64 bytes per residue, for the sequence
/// slices and reversals of each recursion level, the substitution
/// profiles (one row per distinct residue), the traceback columns and the
/// plane loop's row lists, plus 40 KiB for the scoped threads'
/// bookkeeping.
fn allowance(n: [usize; 3]) -> usize {
    64 * (n[0] + n[1] + n[2]) + (40 << 10)
}

#[test]
fn measured_peaks_lie_within_the_governor_estimates() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    // Every exact algorithm the service runs, under the linear gap of the
    // default scoring; the affine DP under an affine gap.
    let linear = [
        Algorithm::Auto,
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::TileWavefront { tile: 16 },
        Algorithm::Hirschberg,
        Algorithm::ParallelHirschberg,
        Algorithm::CarrilloLipman,
    ]
    .map(|algorithm| Aligner::new().algorithm(algorithm));
    let affine = Aligner::new()
        .gap(GapModel::affine(-4, -1))
        .algorithm(Algorithm::AffineDp);
    let aligners: Vec<&Aligner> = linear.iter().chain([&affine]).collect();
    let never = CancelToken::never();
    let mut outside = Vec::new();
    let random = |n: [usize; 3], seed: u64| -> [Seq; 3] {
        std::array::from_fn(|m| random_seq_seeded(Alphabet::Dna, n[m], seed * 10 + m as u64))
    };
    let family = |n: usize, seed: u64| FamilyConfig::new(n, 0.15, 0.05).generate(seed).members;
    // (triple, whether Carrillo–Lipman falls back on it as an alignment
    // and as a score, random shape).
    let triples = [
        (random([20, 600, 600], 1), [false, false], true),
        (random([64, 64, 64], 2), [false, false], true),
        (random([9, 120, 30], 3), [true, true], true),
        (family(64, 4), [false, false], false),
        (family(200, 5), [false, false], false),
    ];
    for ([a, b, c], falls_back, is_random) in &triples {
        let [n1, n2, n3] = [a.len(), b.len(), c.len()];
        let n = [n1, n2, n3];
        // The rolling slab sweep a score job ran before it pruned.
        let slab_sweep = Aligner::new().algorithm(Algorithm::FullDp);
        let (slab_peak, _) =
            peak_of(|| pool.install(|| slab_sweep.run_cancellable(a, b, c, true, &never)));
        for aligner in &aligners {
            for score_only in [false, true] {
                let plan = aligner.plan(n1, n2, n3, score_only);
                let pruned_plan = plan.algorithm == Algorithm::CarrilloLipman;
                // Family triples check the pruned plans only. The affine
                // DP's seven-state lattice skips the first shape: 212 MB
                // and half a minute in a debug build.
                if (!is_random && !pruned_plan)
                    || (n1 == 20 && plan.algorithm == Algorithm::AffineDp)
                {
                    continue;
                }
                let estimate = plan.peak_bytes as usize;
                let mut ran: Option<Run> = None;
                let (measured, allocs) = peak_of(|| {
                    let run = pool.install(|| aligner.run_cancellable(a, b, c, score_only, &never));
                    ran = Some(run.unwrap());
                });
                let ran = ran.expect("the run finished");
                let upper = estimate + allowance(n);
                let at = format!("{plan:?} on {n1}×{n2}×{n3}");
                if pruned_plan {
                    let want = falls_back[usize::from(score_only)];
                    assert_eq!(ran.fallback.is_some(), want, "{at}: the path taken");
                }
                let bounds = if pruned_plan && ran.fallback.is_none() {
                    // The kept share, reported for every run that stays
                    // pruned (random shapes included).
                    eprintln!(
                        "{at}: pruned, kept {:.1}% of the cube, peak {measured} B ({:.1}% of \
                         the plan), {allocs} allocations",
                        100.0 * ran.cells as f64 / plan.cells as f64,
                        100.0 * measured as f64 / estimate as f64,
                    );
                    if score_only {
                        assert!(
                            allocs <= PRUNED_SCORE_ALLOCS,
                            "{at}: {allocs} heap allocations"
                        );
                        (0, upper.min(slab_peak))
                    } else {
                        (0, upper.min(estimate / 4))
                    }
                } else {
                    (estimate / 2, upper)
                };
                if measured < bounds.0 || measured > bounds.1 {
                    outside.push(format!(
                        "{at}: measured peak {measured} B outside [{}, {}] around the plan's \
                         {estimate} B",
                        bounds.0, bounds.1,
                    ));
                }
            }
        }
    }
    assert!(outside.is_empty(), "{}", outside.join("\n"));
}
