//! The paper's correctness pillar, asserted end to end: *speculation never
//! changes a program's behavior* (§6). Every execution strategy — baseline
//! single-threaded, functional RASExp, timed RACOD at any unit count, and
//! the real thread-pool planner — must return bit-identical search results.

use racod::parallel::{ParallelConfig, ParallelPlanner};
use racod::prelude::*;
use std::sync::Arc;

/// Runs every strategy on the same scenario and cross-checks the results.
fn assert_all_strategies_agree(city: CityName, seed: u64) {
    let grid = city_map(city, 256, 256);
    let sc = Scenario2::new(&grid)
        .with_free_endpoints((10 + seed as i64, 10), (245, 245 - seed as i64))
        .with_astar(AstarConfig { record_expansions: true, ..Default::default() });

    // Reference: single-threaded software.
    let reference = plan(&sc, Backend::software(1, None), &CostModel::i3_software());

    // Functional RASExp oracle at several runahead depths, checking with
    // the same template semantics the timed planners use.
    let checker = TemplateChecker2::new(&grid, sc.footprint, sc.goal);
    for depth in [2usize, 8, 32] {
        let mut oracle =
            RunaheadOracle::new(&sc.space, RunaheadConfig::with_runahead(depth), |c: Cell2| {
                checker.is_free(c)
            });
        let r = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
        assert_eq!(r.path, reference.result.path, "{city}: RASExp depth {depth} diverged");
        assert_eq!(
            r.expansion_order, reference.result.expansion_order,
            "{city}: RASExp depth {depth} changed the expansion order"
        );
    }

    // Timed RACOD at several unit counts.
    for units in [1usize, 8, 32] {
        let r = plan(&sc, Backend::racod(units), &CostModel::racod());
        assert_eq!(r.result.path, reference.result.path, "{city}: RACOD {units}u diverged");
        assert_eq!(
            r.result.cost.to_bits(),
            reference.result.cost.to_bits(),
            "{city}: RACOD {units}u cost drift"
        );
    }
}

#[test]
fn all_strategies_agree_boston() {
    assert_all_strategies_agree(CityName::Boston, 0);
}

#[test]
fn all_strategies_agree_shanghai() {
    assert_all_strategies_agree(CityName::Shanghai, 3);
}

#[test]
fn real_threads_agree_with_reference() {
    // The crossbeam thread-pool planner (point robot) against the
    // single-threaded reference, across thread counts and runahead depths.
    let grid = Arc::new(random_map(17, 96, 96, 0.25));
    let space = GridSpace2::eight_connected(96, 96);
    let (s, g) = (Cell2::new(1, 1), Cell2::new(94, 94));

    let mut reference_oracle = FnOracle::new(|c: Cell2| grid.get(c) == Some(false));
    let reference = astar(&space, s, g, &AstarConfig::default(), &mut reference_oracle);

    for (threads, runahead) in [(1usize, 0usize), (4, 0), (4, 8), (8, 32)] {
        let shared = grid.clone();
        let planner =
            ParallelPlanner::new(ParallelConfig { threads, runahead }, move |c: Cell2| {
                shared.get(c) == Some(false)
            });
        let run = planner.plan(&space, s, g);
        assert_eq!(
            run.result.path, reference.path,
            "threads={threads} runahead={runahead} diverged"
        );
        assert_eq!(run.result.stats.expansions, reference.stats.expansions);
    }
}

#[test]
fn three_d_equivalence() {
    let grid = campus_3d(5, 48, 48, 24);
    let sc = Scenario3::new(&grid).with_free_endpoints((3, 3, 12), (44, 44, 12));
    let reference = plan(&sc, Backend::software(1, None), &CostModel::i3_software());
    for units in [1usize, 16] {
        let r = plan(&sc, Backend::racod(units), &CostModel::racod());
        assert_eq!(r.result.path, reference.result.path, "3D RACOD {units}u diverged");
    }
}
