//! Cross-crate integration: real grids, real footprints, real search —
//! functional planning correctness across the whole stack.

use racod::prelude::*;
use racod::sim::planner::free_near_footprint;
use racod::sim::D2;

#[test]
fn car_plans_through_every_city() {
    for city in CityName::ALL {
        let grid = city_map(city, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let out = plan(&sc, Backend::software(1, None), &CostModel::i3_software());
        let path =
            out.result.path.unwrap_or_else(|| panic!("{city}: no route between snapped endpoints"));
        // Endpoints match the scenario.
        assert_eq!(path[0], sc.start, "{city}");
        assert_eq!(*path.last().unwrap(), sc.goal, "{city}");
        // Every path state keeps the whole car body collision-free, under
        // the same template semantics the planner checks with.
        let checker = TemplateChecker2::new(&grid, sc.footprint, sc.goal);
        for &state in &path {
            assert_eq!(
                checker.check(state).verdict,
                Verdict::Free,
                "{city}: path state {state} collides"
            );
        }
        // Path is 8-connected.
        for w in path.windows(2) {
            assert_eq!(w[0].chebyshev(w[1]), 1, "{city}: non-adjacent step");
        }
    }
}

#[test]
fn drone_plans_through_campus() {
    let grid = campus_3d(7, 64, 64, 24);
    let sc = Scenario3::new(&grid).with_free_endpoints((3, 3, 12), (60, 60, 12));
    let out = plan(&sc, Backend::software(1, None), &CostModel::i3_software());
    let path = out.result.path.expect("campus must be flyable");
    let checker = TemplateChecker3::new(&grid, sc.footprint, sc.goal);
    for &state in &path {
        assert_eq!(checker.check(state).verdict, Verdict::Free);
    }
}

#[test]
fn moving_ai_roundtrip_plans_identically() {
    // Serialize a city to the Moving AI format, parse it back, and verify
    // planning produces identical results.
    let grid = city_map(CityName::Shanghai, 256, 256);
    let text = racod::grid::io::write_map(&grid);
    let reparsed = racod::grid::io::parse_map(&text).expect("own writer output parses");
    assert_eq!(grid, reparsed);

    let sc1 = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let sc2 = Scenario2::new(&reparsed).with_free_endpoints((10, 10), (245, 245));
    let r1 = plan(&sc1, Backend::software(1, None), &CostModel::i3_software());
    let r2 = plan(&sc2, Backend::software(1, None), &CostModel::i3_software());
    assert_eq!(r1.result.path, r2.result.path);
}

#[test]
fn footprint_snapping_respects_orientation() {
    let grid = city_map(CityName::Boston, 256, 256);
    let fp = Footprint2::car();
    let toward = Cell2::new(200, 200);
    let snapped = free_near_footprint::<D2>(&grid, &fp, Cell2::new(30, 30), toward);
    let checker = TemplateChecker2::new(&grid, fp, toward);
    assert_eq!(checker.check(snapped).verdict, Verdict::Free);
}

#[test]
fn hardware_and_software_checkers_agree_across_a_planning_run() {
    // Walk a real path and check every state with both checkers.
    let grid = city_map(CityName::Berlin, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let out = plan(&sc, Backend::software(1, None), &CostModel::i3_software());
    let path = out.result.path.expect("route exists");

    let mut pool = CodaccPool::new(2);
    for (i, &state) in path.iter().enumerate() {
        let obb = sc.footprint.obb_at(state, sc.goal);
        let sw = software_check_2d(&grid, &obb);
        let hw = pool.check_2d(i % 2, &grid, &obb);
        assert_eq!(sw.verdict, hw.verdict, "disagreement at path state {state}");
    }
}
