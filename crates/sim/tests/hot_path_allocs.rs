//! The check hot path allocates nothing once warm: a modelled CODAcc check
//! (`CodaccPool::check_cells`) and a template-cache hit
//! (`TemplateCache::get`) run every demand and speculative check of a
//! simulated plan, and a `Backend::Native` check (`VerdictMemo::get_or_check`
//! → `TemplateSource::template_at` → `template_check`) every demand check of
//! an untimed one, so one allocation there is paid hundreds of times per
//! plan.
//!
//! A counting global allocator records allocations per thread, so the
//! harness's own threads never leak into a count. Deterministic and
//! timing-free.

use racod_codacc::{template_check, CodaccPool};
use racod_geom::{Cell2, Cell3};
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_grid::BitGrid;
use racod_sim::{Dim, Footprint2, Footprint3, TemplateCache, TemplateSource, VerdictMemo, D2, D3};
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

/// Warms a pool, a cache and a verdict memo on `states`, then counts the
/// allocations of 1 000 model checks, 1 000 cache hits and 1 000 native
/// checks cycling over them.
fn hot_path_allocations<D: Dim>(
    grid: &BitGrid<D::Cell>,
    footprint: D::Footprint,
    goal: D::Cell,
    states: &[D::Cell],
) -> (u64, u64, u64) {
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
    // Every pass over `states` opens a new plan, so each call misses the
    // memo and runs the kernel.
    let mut tpls = TemplateSource::new(footprint, goal, &cache);
    let mut memo = VerdictMemo::default();
    let mut native_check = |i: usize| {
        let (idx, s) = (i % states.len(), states[i % states.len()]);
        if idx == 0 {
            memo.begin(states.len());
        }
        memo.get_or_check(idx, || template_check(grid, s, tpls.template_at(s)).verdict.is_free());
    };
    (0..states.len()).for_each(&mut native_check);
    let native = allocations_in(|| (0..1_000).for_each(&mut native_check));
    (model, hits, native)
}

#[test]
fn car_checks_allocate_nothing_once_warm() {
    let grid = city_map(CityName::Boston, 128, 128);
    let states: Vec<_> = (0..40).map(|i| Cell2::new(10 + 2 * i, 12 + i)).collect();
    let counts =
        hot_path_allocations::<D2>(&grid, Footprint2::car(), Cell2::new(120, 120), &states);
    assert_eq!(counts, (0, 0, 0), "(model checks, cache hits, native checks)");
}

#[test]
fn point_checks_allocate_nothing_once_warm() {
    let grid = city_map(CityName::Boston, 128, 128);
    let states: Vec<_> = (0..40).map(|i| Cell2::new(3 * i, 100 - 2 * i)).collect();
    let counts =
        hot_path_allocations::<D2>(&grid, Footprint2::point(), Cell2::new(120, 4), &states);
    assert_eq!(counts, (0, 0, 0), "(model checks, cache hits, native checks)");
}

#[test]
fn drone_checks_allocate_nothing_once_warm() {
    let grid = campus_3d(7, 64, 64, 16);
    let states: Vec<_> = (0..30).map(|i| Cell3::new(4 + i, 6 + 2 * i / 3, 3 + i % 8)).collect();
    let counts =
        hot_path_allocations::<D3>(&grid, Footprint3::drone(), Cell3::new(60, 60, 8), &states);
    assert_eq!(counts, (0, 0, 0), "(model checks, cache hits, native checks)");
}
