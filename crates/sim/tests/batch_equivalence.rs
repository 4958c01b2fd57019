//! Batched collision checks must be invisible: `check_batch` verdicts are
//! bit-identical to per-pose checks and to the scalar oracle, and searches
//! driven through a batched oracle are bit-identical to per-pose searches.

use proptest::prelude::*;
use racod_codacc::template_check_scalar;
use racod_geom::Cell2;
use racod_grid::gen::{city_map, random_map, CityName};
use racod_grid::BitGrid2;
use racod_search::{astar, pase, AstarConfig, BatchFnOracle, FnOracle, GridSpace2, PaseConfig};
use racod_sim::{BatchScratch, Footprint2, TemplateChecker2};
use std::cell::RefCell;

fn pose_batch(seed: u64, n: usize, lo: i64, hi: i64) -> Vec<Cell2> {
    // LCG over a range deliberately wider than the grid so batches mix
    // in-bounds, boundary-straddling, and fully out-of-bounds poses.
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let span = (hi - lo) as u64;
            let a = lo + ((x >> 33) % span) as i64;
            let b = lo + ((x >> 13) % span) as i64;
            Cell2::new(a, b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched verdicts equal per-pose kernel checks *and* the scalar walk,
    /// for every pose in a mixed-RotKey batch over a random map — including
    /// out-of-bounds poses and poses near every edge.
    #[test]
    fn check_batch_matches_per_pose_and_scalar(
        seed in 0u64..10_000,
        density in 0.0f64..0.6,
        n in 1usize..48,
    ) {
        let grid = random_map(seed, 96, 96, density);
        let goal = Cell2::new(90, 90);
        let fp = Footprint2::car();
        let checker = TemplateChecker2::new(&grid, fp, goal);
        let states = pose_batch(seed, n, -20, 116);

        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        checker.check_batch_into(&states, &mut scratch, &mut out);
        prop_assert_eq!(out.len(), states.len());

        for (i, &s) in states.iter().enumerate() {
            let single = checker.check(s);
            prop_assert_eq!(out[i], single, "pose {} diverged from per-pose check", s);
            let key = fp.rot_key(s, goal);
            let (tpl, _) = checker.cache().get(&fp, key);
            let scalar = template_check_scalar(&grid, s, &tpl);
            prop_assert_eq!(out[i], scalar, "pose {} diverged from scalar oracle", s);
        }
    }

    /// Fully-occupied grids: every batched verdict must be the exact
    /// scalar early-exit (first cell collides or first cell is OOB),
    /// with padding bits never leaking into `cells_checked`.
    #[test]
    fn check_batch_on_fully_occupied_rows(
        n in 1usize..32,
        seed in 0u64..1000,
        width in 60u32..70,
    ) {
        let grid = BitGrid2::filled(width, 64);
        let goal = Cell2::new(40, 40);
        let fp = Footprint2::car();
        let checker = TemplateChecker2::new(&grid, fp, goal);
        let states = pose_batch(seed, n, -8, width as i64 + 8);
        let out = checker.check_batch(&states);
        for (i, &s) in states.iter().enumerate() {
            prop_assert_eq!(out[i], checker.check(s), "pose {}", s);
        }
    }

    /// A full A* driven through `BatchFnOracle` + `check_batch_into` is
    /// bit-identical (path, cost bits, expansion order) to the same search
    /// through a per-pose `FnOracle`.
    #[test]
    fn astar_through_batched_oracle_is_bit_identical(
        seed in 0u64..5000,
        density in 0.0f64..0.3,
    ) {
        let grid = random_map(seed, 48, 48, density);
        let goal = Cell2::new(46, 46);
        let fp = Footprint2::small_robot();
        let checker = TemplateChecker2::new(&grid, fp, goal);
        let space = GridSpace2::eight_connected(48, 48);
        let cfg = AstarConfig { record_expansions: true, ..Default::default() };

        let mut per_pose = FnOracle::new(|c: Cell2| checker.is_free(c));
        let reference = astar(&space, Cell2::new(1, 1), goal, &cfg, &mut per_pose);

        let scratch = RefCell::new((BatchScratch::default(), Vec::new()));
        let mut batched = BatchFnOracle::new(|demand: &[Cell2], out: &mut Vec<bool>| {
            let (scratch, checks) = &mut *scratch.borrow_mut();
            checker.check_batch_into(demand, scratch, checks);
            out.extend(checks.iter().map(|c| c.verdict.is_free()));
        });
        let result = astar(&space, Cell2::new(1, 1), goal, &cfg, &mut batched);

        prop_assert_eq!(&reference.path, &result.path);
        prop_assert_eq!(reference.cost.to_bits(), result.cost.to_bits());
        prop_assert_eq!(&reference.expansion_order, &result.expansion_order);
        prop_assert_eq!(reference.stats.expansions, result.stats.expansions);
    }
}

/// PASE consumes whole per-wave demand lists through `resolve_into`; a
/// batched oracle must leave waves, paths, and cost bits unchanged.
#[test]
fn pase_through_batched_oracle_is_bit_identical() {
    let grid = city_map(CityName::Boston, 128, 128);
    let goal = Cell2::new(120, 120);
    let fp = Footprint2::car();
    let checker = TemplateChecker2::new(&grid, fp, goal);
    let space = GridSpace2::eight_connected(128, 128);
    let cfg = PaseConfig::default();

    let mut per_pose = FnOracle::new(|c: Cell2| checker.is_free(c));
    let reference = pase(&space, Cell2::new(4, 4), goal, &cfg, &mut per_pose);

    let scratch = RefCell::new((BatchScratch::default(), Vec::new()));
    let mut batched = BatchFnOracle::new(|demand: &[Cell2], out: &mut Vec<bool>| {
        let (scratch, checks) = &mut *scratch.borrow_mut();
        checker.check_batch_into(demand, scratch, checks);
        out.extend(checks.iter().map(|c| c.verdict.is_free()));
    });
    let result = pase(&space, Cell2::new(4, 4), goal, &cfg, &mut batched);

    assert_eq!(reference.path, result.path);
    assert_eq!(reference.cost.to_bits(), result.cost.to_bits());
    assert_eq!(reference.stats.expansions, result.stats.expansions);
    assert_eq!(reference.wave_sizes, result.wave_sizes);
    assert!(batched.batches() > 0, "batched oracle must actually be exercised");
}

/// Mixed-RotKey batches group poses by orientation; the grouped path and
/// the all-same-key fast path must both reproduce per-pose results.
#[test]
fn mixed_and_uniform_rotkey_batches_agree() {
    let grid = random_map(77, 64, 64, 0.3);
    let goal = Cell2::new(32, 32);
    let fp = Footprint2::car();
    let checker = TemplateChecker2::new(&grid, fp, goal);

    // Uniform: all poses on one heading ray toward the goal (fast path).
    let uniform: Vec<Cell2> = (1..20).map(|i| Cell2::new(i, i)).collect();
    // Mixed: poses scattered on many rays (grouped path).
    let mixed: Vec<Cell2> = (0..24).map(|i| Cell2::new((i * 7) % 60, (i * 13) % 60)).collect();

    for states in [uniform, mixed] {
        let out = checker.check_batch(&states);
        for (i, &s) in states.iter().enumerate() {
            assert_eq!(out[i], checker.check(s), "pose {s}");
        }
    }
}
