//! A shared write buffer for disjoint parallel writes.
//!
//! Wavefront DP wants many threads writing *different* cells of one big
//! allocation while reading cells written on earlier planes. Safe Rust
//! cannot express "these writes are disjoint because the cells lie on one
//! anti-diagonal plane", so [`SharedGrid`] wraps the buffer in
//! `UnsafeCell`s and exposes an `unsafe` setter whose contract is exactly
//! that disjointness.
//!
//! The plane-barrier discipline makes the contract easy to uphold:
//!
//! 1. within a plane, every cell is written by exactly one closure
//!    invocation (indices on a plane are distinct), and
//! 2. reads only target cells from *earlier* planes, which no thread writes
//!    anymore, and the rayon plane barrier provides the happens-before edge.

use std::cell::UnsafeCell;

/// A fixed-size buffer of `Copy` values permitting disjoint concurrent
/// writes and racing-free reads of previously synchronized values.
pub struct SharedGrid<T> {
    cells: Box<[UnsafeCell<T>]>,
}

// SAFETY: all concurrent access goes through `get`/`set`, whose contracts
// (documented below) forbid data races. `T: Send + Sync + Copy` keeps the
// values themselves safe to move across threads.
unsafe impl<T: Send + Sync> Sync for SharedGrid<T> {}
unsafe impl<T: Send + Sync> Send for SharedGrid<T> {}

impl<T: Copy> SharedGrid<T> {
    /// Allocate a grid of `len` cells, all initialized to `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        let cells: Box<[UnsafeCell<T>]> = (0..len).map(|_| UnsafeCell::new(fill)).collect();
        SharedGrid { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read the value at `idx`.
    ///
    /// # Safety
    /// No thread may be concurrently writing `idx`. Under the plane-barrier
    /// discipline this holds for every cell of an earlier plane and for
    /// cells this thread itself wrote.
    #[inline(always)]
    pub unsafe fn get(&self, idx: usize) -> T {
        *self.cells[idx].get()
    }

    /// Write `value` at `idx`.
    ///
    /// # Safety
    /// No other thread may concurrently read or write `idx`. Under the
    /// plane-barrier discipline this holds when each plane cell is assigned
    /// to exactly one closure invocation.
    #[inline(always)]
    pub unsafe fn set(&self, idx: usize, value: T) {
        *self.cells[idx].get() = value;
    }

    /// Raw pointer to the first cell, for bulk (e.g. SIMD) access to runs
    /// of cells. `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
    /// cast is layout-sound. Dereferencing inherits the [`SharedGrid::get`]
    /// / [`SharedGrid::set`] contracts over every cell touched: reads must
    /// target cells no thread is writing, writes must be exclusive.
    pub fn as_ptr(&self) -> *mut T {
        self.cells.as_ptr() as *mut T
    }

    /// Consume the grid, returning the underlying values in the same
    /// allocation (no copy: a lattice-sized grid must not briefly exist
    /// twice). Requires ownership, so no concurrent access can remain.
    pub fn into_vec(self) -> Vec<T> {
        let cells = Box::into_raw(self.cells) as *mut [T];
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // slice's allocation and layout are those of a `[T]` of the same
        // length, every element initialized; the box is owned, and its
        // ownership passes to the returned vector.
        unsafe { Box::from_raw(cells) }.into_vec()
    }

    /// Read the whole grid into a fresh vector (requires exclusive access).
    pub fn snapshot(&mut self) -> Vec<T> {
        self.cells.iter().map(|c| unsafe { *c.get() }).collect()
    }
}

impl<T: Copy + Default> SharedGrid<T> {
    /// Allocate a grid of `len` default-initialized cells.
    pub fn zeroed(len: usize) -> Self {
        SharedGrid::new(len, T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn new_fills() {
        let g = SharedGrid::new(4, 7i32);
        for i in 0..4 {
            assert_eq!(unsafe { g.get(i) }, 7);
        }
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert!(SharedGrid::<i32>::zeroed(0).is_empty());
    }

    #[test]
    fn set_then_get() {
        let g = SharedGrid::zeroed(10);
        unsafe {
            g.set(3, 42i64);
            assert_eq!(g.get(3), 42);
            assert_eq!(g.get(4), 0);
        }
    }

    #[test]
    fn disjoint_parallel_writes_land() {
        let n = 100_000;
        let g = SharedGrid::zeroed(n);
        (0..n).into_par_iter().for_each(|i| unsafe {
            g.set(i, i as u64 * 3);
        });
        let v = g.into_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 3);
        }
    }

    #[test]
    fn planes_with_barrier_see_previous_plane() {
        // Simulate a 1D "wavefront": element i of round r is
        // previous[i] + 1; rounds are separated by the natural barrier of
        // one par_iter call completing.
        let n = 1000;
        let g = SharedGrid::zeroed(n);
        (0..n)
            .into_par_iter()
            .for_each(|i| unsafe { g.set(i, 1u32) });
        for _round in 1..5 {
            let snapshot: Vec<u32> = (0..n).map(|i| unsafe { g.get(i) }).collect();
            (0..n)
                .into_par_iter()
                .for_each(|i| unsafe { g.set(i, snapshot[i] + 1) });
        }
        assert!(g.into_vec().iter().all(|&x| x == 5));
    }

    #[test]
    fn into_vec_preserves_order() {
        let g = SharedGrid::zeroed(5);
        for i in 0..5 {
            unsafe { g.set(i, (i * i) as i32) };
        }
        assert_eq!(g.into_vec(), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn snapshot_equals_into_vec() {
        let mut g = SharedGrid::new(3, 1.5f64);
        unsafe { g.set(1, 2.5) };
        assert_eq!(g.snapshot(), vec![1.5, 2.5, 1.5]);
        assert_eq!(g.into_vec(), vec![1.5, 2.5, 1.5]);
    }
}
