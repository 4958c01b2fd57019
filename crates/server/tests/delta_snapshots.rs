//! Snapshot consistency under in-flight map deltas.
//!
//! A 2D plan takes one `(grid, version)` snapshot and plans against it, so
//! a delta batch that lands while the plan runs cannot change its answer:
//! every served cost is the cost a direct planner call computes on one of
//! the map's published versions, one no older than the map at submission
//! and no newer than the map at the answer. One worker serves car plans on
//! all three platforms while another thread lands a fixed sequence of
//! delta batches, each one while a request is in the system. The `Threads`
//! arm's per-plan verdict memo must not carry a verdict across a delta.

use racod_geom::Cell2;
use racod_grid::gen::{city_map, CityName};
use racod_grid::{BitGrid2, GridDelta2};
use racod_server::{MapId, MapRegistry, Outcome, PlanRequest, PlanServer, Platform, ServerConfig};
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SIDE: u32 = 96;

fn direct_cost(grid: &BitGrid2, sc: &Scenario2<'_>) -> (u64, Option<Vec<Cell2>>) {
    let mut at = Scenario2::new(grid).with_footprint(sc.footprint).with_astar(sc.astar.clone());
    (at.start, at.goal) = (sc.start, sc.goal);
    let out = plan(&at, Backend::software(1, None), &CostModel::i3_software());
    (out.result.cost.to_bits(), out.result.path)
}

/// A 3×3 block around the middle of `path`: occupying it forces a detour.
fn block_of(path: &[Cell2]) -> Vec<Cell2> {
    let mid = path[path.len() / 2];
    (-1..=1).flat_map(|dy| (-1..=1).map(move |dx| Cell2::new(mid.x + dx, mid.y + dy))).collect()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t = Instant::now();
    while !cond() {
        assert!(t.elapsed() < Duration::from_secs(120), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn served_costs_match_a_direct_plan_on_some_published_version() {
    let grid0 = city_map(CityName::Boston, SIDE, SIDE);
    let scenarios: Vec<Scenario2<'_>> =
        [((8, 8), (88, 80)), ((80, 10), (12, 84)), ((6, 40), (90, 44))]
            .into_iter()
            .map(|(s, g)| Scenario2::new(&grid0).with_free_endpoints(s, g))
            .collect();

    // The fixed delta sequence: block the middle of each pair's version-0
    // path, open the blocks again, block them again, open them again.
    let blocks: Vec<Vec<Cell2>> = scenarios
        .iter()
        .map(|sc| block_of(&direct_cost(&grid0, sc).1.expect("version 0 has a path")))
        .collect();
    let batches: Vec<Vec<GridDelta2>> = (0..4 * blocks.len())
        .map(|k| {
            let cells = &blocks[k % blocks.len()];
            let appear = (k / blocks.len()) % 2 == 0;
            cells
                .iter()
                .map(|&cell| {
                    if appear {
                        GridDelta2::Appear { cell }
                    } else {
                        GridDelta2::Disappear { cell }
                    }
                })
                .collect()
        })
        .collect();

    let versions = batches.len() + 1;
    let reg = Arc::new(MapRegistry::new());
    let entry = reg.insert_grid2("boston", grid0.clone());
    let server =
        Arc::new(PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg.clone()));

    // Every published version, kept by the one thread that publishes them.
    let kept = Arc::new(Mutex::new(vec![entry.snapshot2().unwrap()]));
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let (server, entry, kept, done) =
            (server.clone(), entry.clone(), kept.clone(), done.clone());
        std::thread::spawn(move || {
            let metrics = server.metrics().clone();
            let map = MapId::new("boston");
            for batch in &batches {
                wait_for("a request in the system", || {
                    metrics.in_system.load(Ordering::Relaxed) > 0
                });
                // Past admission, into the plan itself.
                std::thread::sleep(Duration::from_micros(300));
                let completed = metrics.completed.load(Ordering::Relaxed);
                server.apply_map_deltas(&map, batch).expect("a 2D map");
                kept.lock().unwrap().push(entry.snapshot2().unwrap());
                // The next batch lands while a later request runs.
                wait_for("the request to complete", || {
                    metrics.completed.load(Ordering::Relaxed) > completed
                });
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    let platforms = [
        Platform::SimSoftware { threads: 1, runahead: None },
        Platform::Racod { units: 4 },
        Platform::Threads { threads: 2, runahead: 2 },
    ];
    // (scenario, lowest version, highest version, served cost bits)
    let mut served = Vec::new();
    let mut k = 0;
    while !done.load(Ordering::Relaxed) || k < 2 * platforms.len() * scenarios.len() {
        let (i, platform) =
            (k % scenarios.len(), platforms[(k / scenarios.len()) % platforms.len()]);
        let sc = &scenarios[i];
        let before = entry.version2();
        let req = PlanRequest::plan2("boston", sc.start, sc.goal)
            .with_footprint2(sc.footprint)
            .with_astar(sc.astar.clone())
            .with_platform(platform);
        let Outcome::Planned(p) = server.submit(req).expect("admitted").wait().outcome else {
            panic!("request {k} on {platform:?} did not plan");
        };
        served.push((i, before, entry.version2(), p.cost.to_bits(), platform));
        k += 1;
    }
    churn.join().unwrap();

    let kept = kept.lock().unwrap();
    assert_eq!(kept.len(), versions, "one snapshot per version");
    for (v, (_, version)) in kept.iter().enumerate() {
        assert_eq!(*version, v as u64);
    }
    let mut direct: HashMap<(usize, usize), u64> = HashMap::new();
    let mut cost_at = |i: usize, v: usize| {
        *direct.entry((i, v)).or_insert_with(|| direct_cost(&kept[v].0, &scenarios[i]).0)
    };
    for i in 0..scenarios.len() {
        let costs: Vec<u64> = (0..kept.len()).map(|v| cost_at(i, v)).collect();
        assert!(costs.iter().any(|&c| c != costs[0]), "pair {i}: the deltas must move its cost");
    }
    let straddled = served.iter().filter(|s| s.1 < s.2).count();
    assert!(straddled > 0, "some request must have been in the system while a batch landed");
    for (k, &(i, before, after, cost, platform)) in served.iter().enumerate() {
        let matches = (before..=after).any(|v| cost_at(i, v as usize) == cost);
        assert!(
            matches,
            "request {k} (pair {i}, {platform:?}): cost {} is no direct plan's cost on \
             versions {before}..={after}",
            f64::from_bits(cost)
        );
    }
}

#[test]
fn threads_verdicts_do_not_outlive_their_snapshot() {
    let grid0 = city_map(CityName::Boston, SIDE, SIDE);
    let sc = Scenario2::new(&grid0).with_free_endpoints((8, 8), (88, 80));
    let reg = Arc::new(MapRegistry::new());
    let entry = reg.insert_grid2("boston", grid0.clone());
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);
    let serve = || {
        let req = PlanRequest::plan2("boston", sc.start, sc.goal)
            .with_footprint2(sc.footprint)
            .with_astar(sc.astar.clone())
            .with_platform(Platform::Threads { threads: 2, runahead: 2 });
        match server.submit(req).expect("admitted").wait().outcome {
            Outcome::Planned(p) => p.cost.to_bits(),
            other => panic!("expected Planned, got {other:?}"),
        }
    };

    let (cost0, path0) = direct_cost(&grid0, &sc);
    assert_eq!(serve(), cost0, "version 0");
    let block: Vec<GridDelta2> = block_of(&path0.expect("version 0 has a path"))
        .into_iter()
        .map(|cell| GridDelta2::Appear { cell })
        .collect();
    server.apply_map_deltas(&MapId::new("boston"), &block).expect("a 2D map");
    let (grid1, version) = entry.snapshot2().unwrap();
    assert_eq!(version, 1);
    let (cost1, _) = direct_cost(&grid1, &sc);
    assert_ne!(cost1, cost0, "the block must move the cost, or a leaked verdict would pass");
    // The same worker, the same request: verdicts memoised on version 0
    // would mark the blocked path free and repeat `cost0`.
    assert_eq!(serve(), cost1, "version 1");
}
