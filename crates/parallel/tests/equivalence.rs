//! The threaded planner's contract: a [`ParallelRun`] is bit-identical to a
//! single-threaded A* run with the same checker, across thread counts and
//! runahead depths.
//!
//! Speculation (runahead > 0) may *compute* extra collision checks, but the
//! verdict served for every demand state is the same pure function of the
//! state — so the expansion sequence, the path, and the cost must not move.

use racod_codacc::{software_check_2d, software_check_3d};
use racod_geom::{Cell2, Cell3};
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_grid::{BitGrid2, Occupancy2};
use racod_parallel::{ParallelConfig, ParallelPlanner};
use racod_search::{astar, FnOracle, SearchResult};
use racod_sim::planner::{Scenario2, Scenario3};
use std::sync::Arc;

fn assert_same_run<S: PartialEq + std::fmt::Debug>(
    got: &SearchResult<S>,
    reference: &SearchResult<S>,
    label: &str,
) {
    assert_eq!(got.path, reference.path, "path diverged ({label})");
    assert_eq!(got.cost.to_bits(), reference.cost.to_bits(), "cost diverged ({label})");
    assert_eq!(
        got.stats.expansions, reference.stats.expansions,
        "expansion count diverged ({label})"
    );
}

#[test]
fn parallel_2d_matches_single_threaded_astar() {
    let grid = Arc::new(city_map(CityName::Boston, 96, 96));
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (88, 80));
    let (goal, fp) = (sc.goal, sc.footprint);
    let checker = |g: Arc<BitGrid2>| {
        move |c: Cell2| software_check_2d(g.as_ref(), &fp.obb_at(c, goal)).verdict.is_free()
    };

    let mut oracle = FnOracle::new(checker(grid.clone()));
    let reference = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
    assert!(reference.path.is_some(), "reference plan must succeed");

    for threads in [1, 2, 4] {
        for runahead in [0, 2, 6] {
            let planner =
                ParallelPlanner::new(ParallelConfig { threads, runahead }, checker(grid.clone()));
            let run = planner.plan(&sc.space, sc.start, sc.goal);
            assert_same_run(
                &run.result,
                &reference,
                &format!("threads={threads} runahead={runahead}"),
            );
            if runahead == 0 {
                assert_eq!(run.speculative_checks, 0, "baseline never speculates");
            }
        }
    }
}

#[test]
fn parallel_3d_matches_single_threaded_astar() {
    let grid = Arc::new(campus_3d(2, 40, 40, 20));
    let sc = Scenario3::new(&grid).with_free_endpoints((4, 4, 5), (35, 35, 15));
    let (goal, fp) = (sc.goal, sc.footprint);

    let mut oracle = FnOracle::new({
        let g = grid.clone();
        move |c: Cell3| software_check_3d(g.as_ref(), &fp.obb_at(c, goal)).verdict.is_free()
    });
    let reference = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
    assert!(reference.path.is_some(), "reference plan must succeed");

    for (threads, runahead) in [(1, 0), (4, 0), (2, 3), (4, 6)] {
        let planner = ParallelPlanner::new(ParallelConfig { threads, runahead }, {
            let g = grid.clone();
            move |c: Cell3| software_check_3d(g.as_ref(), &fp.obb_at(c, goal)).verdict.is_free()
        });
        let run = planner.plan(&sc.space, sc.start, sc.goal);
        assert_same_run(&run.result, &reference, &format!("threads={threads} runahead={runahead}"));
    }
}

#[test]
fn batched_planner_matches_per_state_planner() {
    // Chunked dispatch through a batched check closure must be invisible:
    // same path, cost bits, and expansion count as the per-state planner
    // and the single-threaded reference, with and without speculation.
    let grid = Arc::new(city_map(CityName::Boston, 96, 96));
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (88, 80));
    let (goal, fp) = (sc.goal, sc.footprint);
    let checker = |g: Arc<BitGrid2>| {
        move |c: Cell2| software_check_2d(g.as_ref(), &fp.obb_at(c, goal)).verdict.is_free()
    };

    let mut oracle = FnOracle::new(checker(grid.clone()));
    let reference = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
    assert!(reference.path.is_some(), "reference plan must succeed");

    for threads in [1, 2, 4] {
        for runahead in [0, 4] {
            let g = grid.clone();
            let planner = ParallelPlanner::new_batched(
                ParallelConfig { threads, runahead },
                move |states: &[Cell2], out: &mut Vec<bool>| {
                    out.extend(states.iter().map(|&c| {
                        software_check_2d(g.as_ref(), &fp.obb_at(c, goal)).verdict.is_free()
                    }));
                },
            );
            let run = planner.plan(&sc.space, sc.start, sc.goal);
            assert_same_run(
                &run.result,
                &reference,
                &format!("batched threads={threads} runahead={runahead}"),
            );
        }
    }
}

#[test]
fn short_filling_batch_check_poisons_instead_of_hanging() {
    // A batched closure that fills fewer verdicts than states can never
    // deliver the missing ones — the episode must poison (bounded wait),
    // not hang the planner.
    let planner = ParallelPlanner::new_batched(
        ParallelConfig::baseline(2),
        |states: &[Cell2], out: &mut Vec<bool>| {
            out.extend(states.iter().skip(1).map(|_| true));
        },
    );
    let space = racod_search::GridSpace2::eight_connected(24, 24);
    let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(20, 20));
    assert!(!run.result.found(), "missing verdicts must not fake a path");
}

#[test]
fn parallel_agrees_on_infeasible_instances() {
    // A walled-off goal: every configuration must agree there is no path
    // after the same exhaustive search.
    let mut grid = BitGrid2::new(24, 24);
    for y in 0..24 {
        grid.set(Cell2::new(12, y), true);
    }
    let grid = Arc::new(grid);
    let sc = Scenario2::new(&grid).with_footprint(racod_sim::footprint::Footprint2::point());
    let (start, goal) = (Cell2::new(2, 2), Cell2::new(20, 20));
    let checker = |g: Arc<BitGrid2>| move |c: Cell2| g.occupied(c) == Some(false);

    let mut oracle = FnOracle::new(checker(grid.clone()));
    let reference = astar(&sc.space, start, goal, &sc.astar, &mut oracle);
    assert!(reference.path.is_none());

    for (threads, runahead) in [(1, 0), (3, 4)] {
        let planner =
            ParallelPlanner::new(ParallelConfig { threads, runahead }, checker(grid.clone()));
        let run = planner.plan(&sc.space, start, goal);
        assert_same_run(&run.result, &reference, &format!("threads={threads} runahead={runahead}"));
    }
}
