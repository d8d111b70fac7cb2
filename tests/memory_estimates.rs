//! The memory governor's estimates against what the kernels really hold.
//!
//! `tsa-service`'s governor admits a job by the `tsa_perfmodel::memory`
//! figure of the kernel it will run. A counting global allocator tracks
//! the peak of live heap bytes while each kernel runs, and that peak must
//! lie between half the estimate and the estimate plus an `O(n)`
//! allowance: sequences, substitution profiles, traceback columns and
//! thread bookkeeping, none of which the formulas price.
//!
//! The allocator counts every thread of the process, so this file holds a
//! single `#[test]`: nothing else runs while a peak is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use three_seq_align::core::{Algorithm, Aligner};
use three_seq_align::perfmodel::memory;
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
/// profiles (three 256-entry row tables, then one row per distinct
/// residue), the traceback columns and the plane loop's row lists, plus
/// 64 KiB for the row tables and the scoped threads' bookkeeping.
fn allowance(n: [usize; 3]) -> usize {
    64 * (n[0] + n[1] + n[2]) + (64 << 10)
}

#[test]
fn measured_peaks_lie_within_the_governor_estimates() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    for (n, seed) in [([20, 600, 600], 1), ([64, 64, 64], 2), ([9, 120, 30], 3)] {
        let [a, b, c]: [Seq; 3] =
            std::array::from_fn(|m| random_seq_seeded(Alphabet::Dna, n[m], seed * 10 + m as u64));
        let [n1, n2, n3] = n;
        // Aligners are built, and their scoring presets interned, before
        // any peak is taken.
        let pinned = |algorithm| Aligner::new().algorithm(algorithm);
        let (full, wavefront) = (pinned(Algorithm::FullDp), pinned(Algorithm::Wavefront));
        let tiles = pinned(Algorithm::TileWavefront { tile: 16 });
        let (dc, par_dc) = (
            pinned(Algorithm::Hirschberg),
            pinned(Algorithm::ParallelHirschberg),
        );
        let cases = [
            (
                "hirschberg",
                peak_of(|| dc.align3(&a, &b, &c).unwrap()),
                memory::hirschberg(n1, n2, n3, false),
            ),
            (
                "par-hirschberg",
                peak_of(|| pool.install(|| par_dc.align3(&a, &b, &c).unwrap())),
                memory::hirschberg(n1, n2, n3, true),
            ),
            (
                "full lattice",
                peak_of(|| full.align3(&a, &b, &c).unwrap()),
                memory::full_lattice(n1, n2, n3),
            ),
            (
                "tile lattice",
                peak_of(|| pool.install(|| tiles.align3(&a, &b, &c).unwrap())),
                memory::full_lattice(n1, n2, n3),
            ),
            (
                "slab score sweep",
                peak_of(|| full.score3(&a, &b, &c).unwrap()),
                memory::slab_score(n2, n3),
            ),
            (
                "plane score sweep",
                peak_of(|| wavefront.score3(&a, &b, &c).unwrap()),
                memory::plane_score(n1, n2),
            ),
        ];
        for (name, measured, estimate) in cases {
            let upper = estimate + allowance(n);
            assert!(
                measured >= estimate / 2 && measured <= upper,
                "{name} on {n1}×{n2}×{n3}: measured peak {measured} B outside \
                 [{}, {upper}] around the estimate {estimate} B",
                estimate / 2,
            );
        }
    }
}
