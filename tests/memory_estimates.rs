//! Every plan's peak bytes against what its kernel really holds.
//!
//! `tsa-service`'s governor admits a job by the `peak_bytes` of its
//! `Aligner::plan`. A counting global allocator tracks the peak of live
//! heap bytes while each planned kernel runs, and that peak must lie
//! between half the plan's figure and the figure plus an `O(n)`
//! allowance: sequences, substitution profiles, traceback columns and
//! thread bookkeeping, none of which the plans price.
//!
//! The allocator counts every thread of the process, so this file holds a
//! single `#[test]`: nothing else runs while a peak is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use three_seq_align::core::{Algorithm, Aligner};
use three_seq_align::scoring::GapModel;
use three_seq_align::seq::gen::random_seq_seeded;
use three_seq_align::seq::{Alphabet, Seq};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
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
/// including its result.
fn peak_of<R>(run: impl FnOnce() -> R) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let result = run();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    drop(result);
    peak
}

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
    let mut outside = Vec::new();
    for (n, seed) in [([20, 600, 600], 1), ([64, 64, 64], 2), ([9, 120, 30], 3)] {
        let [a, b, c]: [Seq; 3] =
            std::array::from_fn(|m| random_seq_seeded(Alphabet::Dna, n[m], seed * 10 + m as u64));
        let [n1, n2, n3] = n;
        for aligner in &aligners {
            for score_only in [false, true] {
                let plan = aligner.plan(n1, n2, n3, score_only);
                // The affine DP's seven-state lattice skips the first
                // shape: 212 MB and half a minute in a debug build.
                if n1 == 20 && plan.algorithm == Algorithm::AffineDp {
                    continue;
                }
                let estimate = plan.peak_bytes as usize;
                let run = || {
                    pool.install(|| match score_only {
                        true => aligner.score3(&a, &b, &c).map(|_| None),
                        false => aligner.align3(&a, &b, &c).map(Some),
                    })
                    .unwrap()
                };
                let measured = peak_of(run);
                let upper = estimate + allowance(n);
                if measured < estimate / 2 || measured > upper {
                    outside.push(format!(
                        "{plan:?} on {n1}×{n2}×{n3}: measured peak {measured} B outside \
                         [{}, {upper}] around the plan's {estimate} B",
                        estimate / 2,
                    ));
                }
            }
        }
    }
    assert!(outside.is_empty(), "{}", outside.join("\n"));
}
