//! Acceptance: a path computed through the service is bit-identical to the
//! same scenario planned by calling the planner directly.
//!
//! The server never mutates a request — no endpoint snapping, no config
//! rewriting — so for every platform the worker constructs exactly the
//! scenario a direct caller would. These tests build the direct scenario
//! first (using `with_free_endpoints` to obtain valid endpoints), then push
//! the *same* endpoints/footprint/config through the server and compare
//! paths cell by cell, costs bit by bit, and expansion counts.

use racod_geom::Cell2;
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_grid::BitGrid2;
use racod_search::{astar, FnOracle};
use racod_server::{
    MapRegistry, Outcome, PlanRequest, PlanServer, Planned, PlannedPath, Platform, ServerConfig,
    Workload,
};
use racod_sim::planner::{plan, Backend, Scenario2, Scenario3};
use racod_sim::CostModel;
use std::sync::Arc;

fn serve_one(server: &PlanServer, req: PlanRequest) -> Planned {
    let ticket = server.submit(req).expect("admitted");
    match ticket.wait().outcome {
        Outcome::Planned(p) => p,
        other => panic!("expected Planned, got {other:?}"),
    }
}

fn server_over(name: &str, grid: BitGrid2, workers: usize) -> PlanServer {
    let reg = MapRegistry::new();
    reg.insert_grid2(name, grid);
    PlanServer::start(ServerConfig { workers, ..Default::default() }, Arc::new(reg))
}

#[test]
fn racod_2d_path_bit_identical_to_direct_call() {
    let grid = city_map(CityName::Paris, 128, 128);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (115, 105));
    let direct = plan(&sc, Backend::racod(8), &CostModel::racod());
    assert!(direct.result.path.is_some(), "direct plan must succeed");

    let server = server_over("paris", grid.clone(), 1);
    // Twice: the second submission hits the worker's warm per-map pool, and
    // warm accelerator state must not change the answer.
    for round in 0..2 {
        let req = PlanRequest::plan2("paris", sc.start, sc.goal)
            .with_footprint2(sc.footprint)
            .with_astar(sc.astar.clone())
            .with_platform(Platform::Racod { units: 8 });
        let got = serve_one(&server, req);
        let PlannedPath::P2(path) = &got.path else { panic!("2d path") };
        assert_eq!(path, &direct.result.path, "round {round}");
        assert_eq!(got.cost.to_bits(), direct.result.cost.to_bits(), "round {round}");
        assert_eq!(got.expansions, direct.result.stats.expansions, "round {round}");
        if round == 1 {
            assert!(got.warm_start, "second same-map request reuses the warm pool");
        }
    }
}

#[test]
fn software_2d_path_bit_identical_to_direct_call() {
    let grid = city_map(CityName::Berlin, 128, 128);
    let sc = Scenario2::new(&grid).with_free_endpoints((14, 14), (110, 110));
    let direct = plan(&sc, Backend::software(4, Some(6)), &CostModel::i3_software());
    assert!(direct.result.path.is_some());

    let server = server_over("berlin", grid.clone(), 2);
    let req = PlanRequest::plan2("berlin", sc.start, sc.goal)
        .with_footprint2(sc.footprint)
        .with_astar(sc.astar.clone())
        .with_platform(Platform::SimSoftware { threads: 4, runahead: Some(6) });
    let got = serve_one(&server, req);
    let PlannedPath::P2(path) = got.path else { panic!("2d path") };
    assert_eq!(path, direct.result.path);
    assert_eq!(got.cost.to_bits(), direct.result.cost.to_bits());
    assert_eq!(got.expansions, direct.result.stats.expansions);
}

#[test]
fn threaded_2d_path_bit_identical_to_single_threaded_astar() {
    let grid = Arc::new(city_map(CityName::Boston, 96, 96));
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (88, 80));
    let goal = sc.goal;
    let fp = sc.footprint;
    // Same template semantics the server's Threads platform checks with.
    let checker = racod_sim::TemplateChecker2::new(grid.as_ref(), fp, goal);
    let mut oracle = FnOracle::new(|c: Cell2| checker.is_free(c));
    let reference = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
    assert!(reference.path.is_some());

    let server = server_over("boston", grid.as_ref().clone(), 2);
    let req = PlanRequest::plan2("boston", sc.start, sc.goal)
        .with_footprint2(sc.footprint)
        .with_astar(sc.astar.clone())
        .with_platform(Platform::Threads { threads: 3, runahead: 4 });
    let got = serve_one(&server, req);
    let PlannedPath::P2(path) = got.path else { panic!("2d path") };
    assert_eq!(path, reference.path);
    assert_eq!(got.cost.to_bits(), reference.cost.to_bits());
    assert_eq!(got.expansions, reference.stats.expansions);
}

#[test]
fn plan3_path_bit_identical_to_direct_call_on_every_platform() {
    let grid = campus_3d(3, 48, 48, 24);
    let sc = Scenario3::new(&grid).with_free_endpoints((4, 4, 6), (42, 42, 18));
    let software = Backend::software(4, Some(6));
    let reg = MapRegistry::new();
    reg.insert_grid3("campus", grid.clone());
    let server =
        PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, Arc::new(reg));
    // The real-threads arm has no simulated twin; its reference is the
    // software plan, whose search sees the same kernel verdicts.
    for (platform, direct) in [
        (Platform::Racod { units: 8 }, plan(&sc, Backend::racod(8), &CostModel::racod())),
        (
            Platform::SimSoftware { threads: 4, runahead: Some(6) },
            plan(&sc, software, &CostModel::i3_software()),
        ),
        (
            Platform::Threads { threads: 3, runahead: 4 },
            plan(&sc, Backend::software(1, None), &CostModel::i3_software()),
        ),
    ] {
        assert!(direct.result.path.is_some(), "{platform:?}");
        let mut req = PlanRequest::plan3("campus", sc.start, sc.goal)
            .with_astar(sc.astar.clone())
            .with_platform(platform);
        if let Workload::Plan3 { footprint, .. } = &mut req.workload {
            *footprint = sc.footprint;
        }
        let got = serve_one(&server, req);
        let PlannedPath::P3(path) = got.path else { panic!("3d path") };
        assert_eq!(path, direct.result.path, "{platform:?}");
        assert_eq!(got.cost.to_bits(), direct.result.cost.to_bits(), "{platform:?}");
        assert_eq!(got.expansions, direct.result.stats.expansions, "{platform:?}");
    }
}

#[test]
fn threaded_3d_path_bit_identical_to_single_threaded_astar_on_a_warm_worker() {
    let grid = campus_3d(5, 40, 40, 20);
    let pairs = [((3, 3, 5), (36, 36, 14)), ((36, 4, 12), (4, 35, 6))];
    let reg = MapRegistry::new();
    reg.insert_grid3("campus", grid.clone());
    let server =
        PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, Arc::new(reg));
    // Each pair twice on one worker, so the later plans reuse the worker's
    // arena and verdict memo after plans over the other pair.
    for round in 0..2 {
        for &(s, g) in &pairs {
            let sc = Scenario3::new(&grid).with_free_endpoints(s, g);
            let checker = racod_sim::TemplateChecker3::new(&grid, sc.footprint, sc.goal);
            let mut oracle = FnOracle::new(|c| checker.is_free(c));
            let reference = astar(&sc.space, sc.start, sc.goal, &sc.astar, &mut oracle);
            assert!(reference.path.is_some(), "pair {s:?}");

            let mut req = PlanRequest::plan3("campus", sc.start, sc.goal)
                .with_astar(sc.astar.clone())
                .with_platform(Platform::Threads { threads: 4, runahead: 2 });
            if let Workload::Plan3 { footprint, .. } = &mut req.workload {
                *footprint = sc.footprint;
            }
            let got = serve_one(&server, req);
            let PlannedPath::P3(path) = got.path else { panic!("3d path") };
            assert_eq!(path, reference.path, "round {round}, pair {s:?}");
            assert_eq!(got.cost.to_bits(), reference.cost.to_bits(), "round {round}, pair {s:?}");
            assert_eq!(got.expansions, reference.stats.expansions, "round {round}, pair {s:?}");
        }
    }
}

#[test]
fn infeasible_request_agrees_with_direct_call() {
    // Two pockets split by a wall: the server's reachability prefilter
    // answers without searching; the direct call searches exhaustively.
    // Both must report "no path".
    let mut grid = BitGrid2::new(32, 32);
    for y in 0..32 {
        grid.set(Cell2::new(16, y), true);
    }
    let mut sc = Scenario2::new(&grid).with_footprint(racod_sim::footprint::Footprint2::point());
    sc.start = Cell2::new(2, 2);
    sc.goal = Cell2::new(28, 28);
    let direct = plan(&sc, Backend::racod(4), &CostModel::racod());
    assert!(direct.result.path.is_none());

    let server = server_over("split", grid.clone(), 1);
    let req = PlanRequest::plan2("split", sc.start, sc.goal)
        .with_footprint2(sc.footprint)
        .with_platform(Platform::Racod { units: 4 });
    let got = serve_one(&server, req);
    let PlannedPath::P2(path) = got.path else { panic!("2d path") };
    assert!(path.is_none());
    assert_eq!(got.expansions, 0, "prefilter answers without searching");
}
