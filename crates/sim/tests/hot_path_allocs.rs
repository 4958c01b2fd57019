//! The check hot path allocates nothing once warm: a modelled CODAcc check
//! (`CodaccPool::check_cells`) and a template-cache hit
//! (`TemplateCache::get`) run every demand and speculative check of a
//! simulated plan, so one allocation there is paid hundreds of times per
//! plan.
//!
//! A counting global allocator records allocations per thread, so the
//! harness's own threads never leak into a count. Deterministic and
//! timing-free.

use racod_codacc::CodaccPool;
use racod_geom::{Cell2, Cell3};
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_grid::BitGrid;
use racod_sim::{Dim, Footprint2, Footprint3, TemplateCache, D2, D3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the caller's guarantees are exactly the ones `System` needs; counting
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Warms a pool and a cache on `states`, then counts the allocations of
/// 1 000 model checks and 1 000 cache hits cycling over them.
fn hot_path_allocations<D: Dim>(
    grid: &BitGrid<D::Cell>,
    footprint: D::Footprint,
    goal: D::Cell,
    states: &[D::Cell],
) -> (u64, u64) {
    let cache = TemplateCache::<D>::default();
    let keys: Vec<_> = states.iter().map(|&s| D::rot_key(&footprint, s, goal)).collect();
    let cells: Vec<Vec<D::Cell>> =
        states.iter().zip(&keys).map(|(&s, &k)| cache.get(&footprint, k).0.expand(s)).collect();
    let mut pool = CodaccPool::new(8);
    pool.check_cells(0, grid, &cells[0]);
    let model = allocations_in(|| {
        for i in 0..1_000 {
            pool.check_cells(i % 8, grid, &cells[i % cells.len()]);
        }
    });
    let hits = allocations_in(|| {
        for i in 0..1_000 {
            let (_, hit) = cache.get(&footprint, keys[i % keys.len()]);
            assert!(hit);
        }
    });
    (model, hits)
}

#[test]
fn car_checks_allocate_nothing_once_warm() {
    let grid = city_map(CityName::Boston, 128, 128);
    let states: Vec<_> = (0..40).map(|i| Cell2::new(10 + 2 * i, 12 + i)).collect();
    let counts =
        hot_path_allocations::<D2>(&grid, Footprint2::car(), Cell2::new(120, 120), &states);
    assert_eq!(counts, (0, 0), "(model checks, cache hits)");
}

#[test]
fn point_checks_allocate_nothing_once_warm() {
    let grid = city_map(CityName::Boston, 128, 128);
    let states: Vec<_> = (0..40).map(|i| Cell2::new(3 * i, 100 - 2 * i)).collect();
    let counts =
        hot_path_allocations::<D2>(&grid, Footprint2::point(), Cell2::new(120, 4), &states);
    assert_eq!(counts, (0, 0), "(model checks, cache hits)");
}

#[test]
fn drone_checks_allocate_nothing_once_warm() {
    let grid = campus_3d(7, 64, 64, 16);
    let states: Vec<_> = (0..30).map(|i| Cell3::new(4 + i, 6 + 2 * i / 3, 3 + i % 8)).collect();
    let counts =
        hot_path_allocations::<D3>(&grid, Footprint3::drone(), Cell3::new(60, 60, 8), &states);
    assert_eq!(counts, (0, 0), "(model checks, cache hits)");
}
