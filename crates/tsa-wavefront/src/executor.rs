//! Plane-barrier wavefront executors.
//!
//! The executors here run a user kernel over every cell (or tile) of a 3D
//! lattice in wavefront order: plane `d` starts only after plane `d−1`
//! finished. Parallelism within a plane comes from rayon; the caller
//! controls the worker count by invoking these functions inside
//! [`rayon::ThreadPool::install`] (the bench harness builds one pool per
//! measured thread count).
//!
//! The kernels receive cell/tile coordinates only — storage is the
//! caller's, typically a [`crate::SharedGrid`] written under the plane
//! disjointness contract.

use crate::plane::{plane_cells, Extents};
use crate::profile::{PlaneProfile, PlaneSample};
use crate::tiles::TileGrid;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum cells per rayon task when splitting a plane; keeps scheduling
/// overhead negligible for the small early/late planes.
const MIN_CELLS_PER_TASK: usize = 64;

/// Run `kernel(i, j, k)` over every lattice cell with cell-level wavefront
/// parallelism: all cells of a plane in parallel, a barrier between planes.
///
/// `should_stop` is polled once per anti-diagonal plane (one check per
/// `O(n²)` cells; pass `|| false` to run to completion). When it fires
/// the sweep stops before starting the next plane and returns
/// `Err(cells_completed)`; every plane that did start has fully finished,
/// so storage written so far is consistent.
pub fn run_cells_wavefront(
    e: Extents,
    kernel: impl Fn(usize, usize, usize) + Sync,
    mut should_stop: impl FnMut() -> bool,
) -> Result<(), u64> {
    let mut done: u64 = 0;
    let mut cells: Vec<(usize, usize, usize)> = Vec::with_capacity(e.max_plane_len());
    for d in 0..e.num_planes() {
        if should_stop() {
            return Err(done);
        }
        cells.clear();
        cells.extend(plane_cells(e, d));
        if cells.len() < MIN_CELLS_PER_TASK {
            for &(i, j, k) in &cells {
                kernel(i, j, k);
            }
        } else {
            cells
                .par_iter()
                .with_min_len(MIN_CELLS_PER_TASK)
                .for_each(|&(i, j, k)| kernel(i, j, k));
        }
        done += cells.len() as u64;
    }
    Ok(())
}

/// Like [`run_cells_wavefront`] run to completion, but times every plane
/// and returns a [`PlaneProfile`]: per plane, the wall-clock duration, the
/// kernel time summed over tasks, and the longest single task.
///
/// To attribute time to tasks the plane is split into *explicit* chunks
/// (one per worker, floored at `MIN_CELLS_PER_TASK` cells) rather than
/// letting the scheduler pick, so `tasks` in each sample is exact. The
/// cell visit order within a plane matches the plain executor; the
/// plane-disjointness contract is unchanged. Timing adds two `Instant`
/// reads plus two relaxed atomic ops per *task* (not per cell), so the
/// profiled sweep is within noise of the plain one for realistic kernels.
pub fn run_cells_wavefront_profiled(
    e: Extents,
    kernel: impl Fn(usize, usize, usize) + Sync,
) -> PlaneProfile {
    let workers = rayon::current_num_threads().max(1);
    let mut samples = Vec::with_capacity(e.num_planes());
    let mut cells: Vec<(usize, usize, usize)> = Vec::with_capacity(e.max_plane_len());
    for d in 0..e.num_planes() {
        cells.clear();
        cells.extend(plane_cells(e, d));
        let started = Instant::now();
        let (busy_ns, max_task_ns, tasks);
        if cells.len() < MIN_CELLS_PER_TASK {
            for &(i, j, k) in &cells {
                kernel(i, j, k);
            }
            let ns = started.elapsed().as_nanos() as u64;
            busy_ns = ns;
            max_task_ns = ns;
            tasks = 1;
        } else {
            let chunk = cells.len().div_ceil(workers).max(MIN_CELLS_PER_TASK);
            let ranges: Vec<(usize, usize)> = (0..cells.len())
                .step_by(chunk)
                .map(|lo| (lo, (lo + chunk).min(cells.len())))
                .collect();
            let busy = AtomicU64::new(0);
            let max_task = AtomicU64::new(0);
            let cells_ref = &cells;
            ranges.par_iter().with_min_len(1).for_each(|&(lo, hi)| {
                let t0 = Instant::now();
                for &(i, j, k) in &cells_ref[lo..hi] {
                    kernel(i, j, k);
                }
                let ns = t0.elapsed().as_nanos() as u64;
                busy.fetch_add(ns, Ordering::Relaxed);
                max_task.fetch_max(ns, Ordering::Relaxed);
            });
            busy_ns = busy.into_inner();
            max_task_ns = max_task.into_inner();
            tasks = ranges.len();
        }
        samples.push(PlaneSample {
            plane: d,
            items: cells.len(),
            tasks,
            wall_ns: started.elapsed().as_nanos() as u64,
            busy_ns,
            max_task_ns,
        });
    }
    PlaneProfile {
        workers,
        tile: 1,
        samples,
    }
}

/// Run `kernel(ti, tj, tk)` over every tile with tile-level wavefront
/// parallelism: all tiles of a tile plane in parallel, a barrier between
/// tile planes. The kernel itself typically iterates its tile's cells
/// sequentially (good cache locality).
///
/// `should_stop` is polled once per tile plane; when it fires the sweep
/// stops before starting the next tile plane and returns
/// `Err(tiles_completed)`. Every tile plane that did start has fully
/// finished, so storage written so far is consistent.
pub fn run_tiles_wavefront(
    grid: &TileGrid,
    kernel: impl Fn(usize, usize, usize) + Sync,
    mut should_stop: impl FnMut() -> bool,
) -> Result<(), u64> {
    let mut done: u64 = 0;
    for d in 0..grid.num_tile_planes() {
        if should_stop() {
            return Err(done);
        }
        let tiles = grid.tiles_on_plane(d);
        if tiles.len() == 1 {
            let (ti, tj, tk) = tiles[0];
            kernel(ti, tj, tk);
        } else {
            tiles
                .par_iter()
                .for_each(|&(ti, tj, tk)| kernel(ti, tj, tk));
        }
        done += tiles.len() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SharedGrid;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fill a small lattice and verify every cell was visited exactly once.
    fn check_visits_each_cell_once(run: impl Fn(Extents, &(dyn Fn(usize, usize, usize) + Sync))) {
        let e = Extents::new(6, 5, 7);
        let counts: Vec<AtomicUsize> = (0..e.cells()).map(|_| AtomicUsize::new(0)).collect();
        run(e, &|i, j, k| {
            counts[e.index(i, j, k)].fetch_add(1, Ordering::Relaxed);
        });
        for (idx, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "cell {idx}");
        }
    }

    #[test]
    fn wavefront_visits_each_cell_once() {
        check_visits_each_cell_once(|e, f| run_cells_wavefront(e, f, || false).unwrap());
    }

    #[test]
    fn profiled_visits_each_cell_once() {
        check_visits_each_cell_once(|e, f| {
            run_cells_wavefront_profiled(e, f);
        });
    }

    #[test]
    fn profiled_king_distance_matches() {
        king_distance_with(|e, f| {
            run_cells_wavefront_profiled(e, f);
        });
    }

    #[test]
    fn profile_accounts_for_every_plane_and_cell() {
        let e = Extents::new(9, 7, 8);
        let profile = run_cells_wavefront_profiled(e, |_, _, _| {});
        assert_eq!(profile.samples.len(), e.num_planes());
        assert_eq!(profile.total_items(), e.cells() as u64);
        assert!(profile.workers >= 1);
        for (d, s) in profile.samples.iter().enumerate() {
            assert_eq!(s.plane, d);
            assert!(s.tasks >= 1);
            assert!(s.busy_ns <= s.wall_ns.max(s.busy_ns)); // both recorded
        }
        // Small planes run as a single task; split planes never exceed
        // one task per worker (plus the remainder chunk).
        for s in &profile.samples {
            assert!(s.tasks <= profile.workers.max(1) + 1, "tasks {}", s.tasks);
        }
        let summary = profile.summary();
        assert_eq!(summary.items, e.cells() as u64);
        assert!(summary.imbalance >= 1.0 - 1e-9);
    }

    #[test]
    fn profiled_respects_installed_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let profile = pool.install(|| {
            let e = Extents::new(12, 12, 12);
            run_cells_wavefront_profiled(e, |_, _, _| {})
        });
        assert_eq!(profile.workers, 2);
        assert!(profile.samples.iter().all(|s| s.tasks <= 2 + 1));
    }

    #[test]
    fn stops_between_planes_and_reports_cells() {
        let e = Extents::new(6, 6, 6);
        let visited = AtomicUsize::new(0);
        let mut checks = 0;
        let err = run_cells_wavefront(
            e,
            |_, _, _| {
                visited.fetch_add(1, Ordering::Relaxed);
            },
            || {
                checks += 1;
                checks > 4 // allow planes 0..=3, stop before plane 4
            },
        )
        .unwrap_err();
        // Every plane that started has finished; the count is exact.
        assert_eq!(err as usize, visited.load(Ordering::Relaxed));
        assert_eq!(err, 1 + 3 + 6 + 10);
        assert!((err as usize) < e.cells());
    }

    /// King-move longest path: v(i,j,k) = 1 + max(valid predecessors),
    /// v(0,0,0)=0 ⇒ v(i,j,k) == i+j+k (the longest path). Exercises true
    /// cross-plane dependencies, so it fails if the barrier is broken.
    fn king_distance_with(run: impl Fn(Extents, &(dyn Fn(usize, usize, usize) + Sync))) {
        let e = Extents::new(9, 7, 8);
        let grid = SharedGrid::new(e.cells(), -1i32);
        run(e, &|i, j, k| king_cell(&grid, e, i, j, k));
        for i in 0..=9 {
            for j in 0..=7 {
                for k in 0..=8 {
                    let want = (i + j + k) as i32;
                    assert_eq!(unsafe { grid.get(e.index(i, j, k)) }, want, "({i},{j},{k})");
                }
            }
        }
    }

    fn king_cell(grid: &SharedGrid<i32>, e: Extents, i: usize, j: usize, k: usize) {
        let mut best = -1i32;
        for di in 0..=usize::from(i > 0) {
            for dj in 0..=usize::from(j > 0) {
                for dk in 0..=usize::from(k > 0) {
                    if di + dj + dk == 0 {
                        continue;
                    }
                    best = best.max(unsafe { grid.get(e.index(i - di, j - dj, k - dk)) });
                }
            }
        }
        let v = if (i, j, k) == (0, 0, 0) { 0 } else { best + 1 };
        unsafe { grid.set(e.index(i, j, k), v) };
    }

    #[test]
    fn wavefront_king_distance() {
        king_distance_with(|e, f| run_cells_wavefront(e, f, || false).unwrap());
    }

    #[test]
    fn tile_wavefront_king_distance() {
        king_distance_with(|e, f| {
            let tg = TileGrid::new(e, 3);
            run_tiles_wavefront(
                &tg,
                |ti, tj, tk| {
                    let ((ilo, ihi), (jlo, jhi), (klo, khi)) = tg.cell_ranges(ti, tj, tk);
                    for i in ilo..=ihi {
                        for j in jlo..=jhi {
                            for k in klo..=khi {
                                f(i, j, k);
                            }
                        }
                    }
                },
                || false,
            )
            .unwrap();
        });
    }

    #[test]
    fn tiles_without_stop_visit_all_tiles_once() {
        let tg = TileGrid::new(Extents::new(10, 8, 9), 4);
        let seen: Vec<AtomicUsize> = (0..tg.num_tiles()).map(|_| AtomicUsize::new(0)).collect();
        run_tiles_wavefront(
            &tg,
            |i, j, k| {
                seen[tg.tile_index(i, j, k)].fetch_add(1, Ordering::Relaxed);
            },
            || false,
        )
        .unwrap();
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn tiles_stop_between_tile_planes() {
        let tg = TileGrid::new(Extents::new(11, 11, 11), 4);
        let visited = AtomicUsize::new(0);
        let mut checks = 0;
        let err = run_tiles_wavefront(
            &tg,
            |_, _, _| {
                visited.fetch_add(1, Ordering::Relaxed);
            },
            || {
                checks += 1;
                checks > 2 // allow tile planes 0 and 1, stop before 2
            },
        )
        .unwrap_err();
        assert_eq!(err as usize, visited.load(Ordering::Relaxed));
        assert_eq!(err, 1 + 3); // tile planes 0 and 1 of a 3×3×3 tile grid
    }

    #[test]
    fn respects_installed_pool() {
        // Running inside a 2-thread pool must not deadlock and must still
        // produce correct results.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        pool.install(|| {
            king_distance_with(|e, f| run_cells_wavefront(e, f, || false).unwrap());
        });
    }
}
