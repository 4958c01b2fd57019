//! End-to-end ALT landmark behavior through the service: packs build
//! lazily once per map, guided searches return bit-identical optimal
//! *costs* (possibly via a different equal-cost path), and under churn the
//! version fence guarantees no answer is ever derived from a stale pack —
//! plans fall back to octile until the background rebuilder republishes.

use racod_geom::Cell2;
use racod_grid::gen::{city_map, CityName};
use racod_grid::{GridDelta2, Occupancy2};
use racod_search::canonical_cost_2d;
use racod_server::{
    AltConfig, AltFetch, MapRegistry, Outcome, PlanRequest, PlanServer, Planned, PlannedPath,
    ServerConfig,
};
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve_one(server: &PlanServer, req: PlanRequest) -> Planned {
    let ticket = server.submit(req).expect("admitted");
    match ticket.wait().outcome {
        Outcome::Planned(p) => p,
        other => panic!("expected Planned, got {other:?}"),
    }
}

/// The octile-guided reference: a direct planner call against `grid` with
/// the same endpoints and footprint the service request carries.
fn reference_canonical(sc: &Scenario2<'_>) -> Option<f64> {
    let out = plan(sc, Backend::software(1, None), &CostModel::i3_software());
    out.result.path.as_deref().and_then(canonical_cost_2d)
}

#[test]
fn alt_guided_service_matches_octile_costs_and_cuts_expansions() {
    let grid = city_map(CityName::Boston, 128, 128);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (115, 105));
    let direct = plan(&sc, Backend::software(1, None), &CostModel::i3_software());
    let direct_canonical =
        direct.result.path.as_deref().and_then(canonical_cost_2d).expect("direct plan succeeds");

    let reg = MapRegistry::new();
    reg.insert_grid2("boston", grid.clone());
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            alt: AltConfig { enabled: true, landmarks: 8 },
            ..Default::default()
        },
        Arc::new(reg),
    );
    for round in 0..2 {
        let req = PlanRequest::plan2("boston", sc.start, sc.goal)
            .with_footprint2(sc.footprint)
            .with_astar(sc.astar.clone());
        let got = serve_one(&server, req);
        let PlannedPath::P2(Some(path)) = &got.path else { panic!("2d path expected") };
        let canonical = canonical_cost_2d(path).expect("king-move path");
        assert_eq!(
            canonical.to_bits(),
            direct_canonical.to_bits(),
            "round {round}: ALT must keep the optimal cost bit-identical"
        );
        assert!(
            got.expansions <= direct.result.stats.expansions,
            "round {round}: landmarks must not expand more ({} vs {})",
            got.expansions,
            direct.result.stats.expansions
        );
    }
    let m = server.metrics();
    assert_eq!(m.alt_packs_built.load(Ordering::Relaxed), 1, "one lazy cold build, then cached");
    assert!(
        m.alt_expansions_saved.load(Ordering::Relaxed) > 0,
        "landmark bound must beat octile somewhere on a city map"
    );
    assert_eq!(m.alt_pack_fallbacks.load(Ordering::Relaxed), 0, "no churn, no fallback");
}

#[test]
fn churned_map_never_serves_stale_landmark_answers() {
    let grid = city_map(CityName::Berlin, 96, 96);
    let base = Scenario2::new(&grid).with_free_endpoints((8, 8), (88, 80));
    let (start, goal) = (base.start, base.goal);
    // A churn cell away from both endpoints (landmark distances through
    // its neighborhood genuinely change when it toggles).
    let churn = (0..96 * 96)
        .map(|i| Cell2::new(48 + i % 48, 40 + (i / 48) % 48))
        .find(|&c| {
            grid.occupied(c) == Some(false)
                && (c.x - start.x).abs().max((c.y - start.y).abs()) > 8
                && (c.x - goal.x).abs().max((c.y - goal.y).abs()) > 8
        })
        .expect("a free churn cell exists");

    let reg = Arc::new(MapRegistry::new());
    reg.insert_grid2("berlin", grid);
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            alt: AltConfig { enabled: true, landmarks: 8 },
            ..Default::default()
        },
        reg.clone(),
    );
    let entry = reg.get(&"berlin".into()).expect("registered");

    // Prime the pack with one plan, then churn: each round flips the cell,
    // submits immediately (racing the rebuilder — the fence decides whether
    // this plan is guided or falls back), and checks the answer against a
    // direct octile reference on the *current* grid. Stale landmark
    // distances would show up here as a cost divergence.
    let first = serve_one(&server, PlanRequest::plan2("berlin", start, goal));
    assert!(matches!(first.path, PlannedPath::P2(Some(_))));
    for round in 0..6 {
        let delta = if round % 2 == 0 {
            GridDelta2::Appear { cell: churn }
        } else {
            GridDelta2::Disappear { cell: churn }
        };
        let (version, _) = server.apply_map_deltas(&"berlin".into(), &[delta]).expect("2d map");

        let got = serve_one(&server, PlanRequest::plan2("berlin", start, goal));
        let now = entry.grid2().expect("2d map");
        let mut sc = Scenario2::new(&now);
        sc.start = start;
        sc.goal = goal;
        let reference = reference_canonical(&sc);
        let served = match &got.path {
            PlannedPath::P2(p) => p.as_deref().and_then(canonical_cost_2d),
            PlannedPath::P3(_) => panic!("2d path expected"),
        };
        assert_eq!(
            served.map(f64::to_bits),
            reference.map(f64::to_bits),
            "round {round}: served cost must match the post-delta optimum"
        );

        // The background rebuilder must republish a pack fenced to the new
        // version — later plans go back to landmark guidance.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if matches!(entry.landmark_pack2(8, version).0, AltFetch::Ready(_)) {
                break;
            }
            assert!(Instant::now() < deadline, "round {round}: rebuilder never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let guided = serve_one(&server, PlanRequest::plan2("berlin", start, goal));
        let guided_cost = match &guided.path {
            PlannedPath::P2(p) => p.as_deref().and_then(canonical_cost_2d),
            PlannedPath::P3(_) => panic!("2d path expected"),
        };
        assert_eq!(
            guided_cost.map(f64::to_bits),
            reference.map(f64::to_bits),
            "round {round}: rebuilt-pack plan must also match"
        );
    }
    let m = server.metrics();
    assert!(m.alt_packs_built.load(Ordering::Relaxed) >= 2, "churn forces rebuilds");
}
