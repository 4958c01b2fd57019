//! End-to-end service behavior: admission backpressure, deadline expiry,
//! per-request panic isolation, and supervisor worker respawn.

use racod_geom::Cell2;
use racod_grid::gen::{city_map, CityName};
use racod_server::{
    MapRegistry, Outcome, PlanRequest, PlanServer, Platform, Rejected, ServerConfig, TimeoutStage,
    Workload,
};
use racod_sim::planner::Scenario2;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 96×96 city registry plus a start/goal pair valid for the car footprint
/// (snapped exactly the way a direct caller would snap them).
fn boston_world() -> (Arc<MapRegistry>, Cell2, Cell2) {
    let grid = city_map(CityName::Boston, 96, 96);
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (88, 80));
    let (start, goal) = (sc.start, sc.goal);
    let reg = MapRegistry::new();
    reg.insert_grid2("boston", grid);
    (Arc::new(reg), start, goal)
}

#[test]
fn full_queue_rejects_immediately_instead_of_blocking() {
    let (reg, start, goal) = boston_world();
    // No workers: admitted requests stay queued forever, so the queue fills
    // deterministically.
    let server = PlanServer::start(
        ServerConfig { workers: 0, queue_capacity: 3, ..Default::default() },
        reg,
    );
    let tickets: Vec<_> = (0..3)
        .map(|_| server.submit(PlanRequest::plan2("boston", start, goal)).expect("under capacity"))
        .collect();

    let t0 = Instant::now();
    let err = server.submit(PlanRequest::plan2("boston", start, goal)).unwrap_err();
    assert!(matches!(err, Rejected::QueueFull));
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "rejection must not block: took {:?}",
        t0.elapsed()
    );
    assert_eq!(server.metrics().rejected_queue_full.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().in_system.load(Ordering::Relaxed), 3);

    // Shutdown resolves every queued ticket (as Cancelled) — nothing hangs.
    drop(server);
    for t in tickets {
        assert!(matches!(t.wait().outcome, Outcome::Cancelled));
    }
}

#[test]
fn queued_request_past_deadline_times_out() {
    let (reg, start, goal) = boston_world();
    let server = PlanServer::start(
        ServerConfig { workers: 0, queue_capacity: 8, ..Default::default() },
        reg,
    );
    let ticket = server
        .submit(PlanRequest::plan2("boston", start, goal).with_deadline(Duration::from_millis(2)))
        .unwrap();
    let resp = ticket.wait();
    match resp.outcome {
        Outcome::TimedOut { queued_for, stage } => {
            assert!(queued_for >= Duration::from_millis(2));
            assert_eq!(stage, TimeoutStage::Queued, "never dispatched: no planner time spent");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(server.metrics().timed_out.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().in_system.load(Ordering::Relaxed), 0);
}

#[test]
fn panicking_request_is_isolated_and_worker_survives() {
    let (reg, start, goal) = boston_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);

    let mut poison = PlanRequest::plan2("boston", start, goal);
    poison.workload = Workload::Poison;
    let resp = server.submit(poison).unwrap().wait();
    match resp.outcome {
        Outcome::Panicked { message } => assert!(message.contains("poison")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert_eq!(server.metrics().panicked.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().worker_respawns.load(Ordering::Relaxed), 0);

    // The same (only) worker serves the next request.
    let resp = server.submit(PlanRequest::plan2("boston", start, goal)).unwrap().wait();
    match resp.outcome {
        Outcome::Planned(p) => assert!(p.path.found()),
        other => panic!("expected Planned, got {other:?}"),
    }
}

#[test]
fn killed_worker_is_respawned_and_keeps_serving() {
    let (reg, start, goal) = boston_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);

    let mut kill = PlanRequest::plan2("boston", start, goal);
    kill.workload = Workload::PoisonWorker;
    let resp = server.submit(kill).unwrap().wait();
    assert!(
        matches!(resp.outcome, Outcome::Lost),
        "request dying with its worker resolves Lost, got {:?}",
        resp.outcome
    );
    assert_eq!(server.metrics().lost.load(Ordering::Relaxed), 1);

    // The supervisor respawns the slot and service continues.
    let resp = server.submit(PlanRequest::plan2("boston", start, goal)).unwrap().wait();
    match resp.outcome {
        Outcome::Planned(p) => assert!(p.path.found()),
        other => panic!("expected Planned, got {other:?}"),
    }
    assert!(server.metrics().worker_respawns.load(Ordering::Relaxed) >= 1);
}

#[test]
fn sequential_same_map_requests_hit_affinity_and_warm_state() {
    let (reg, start, goal) = boston_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);
    let req =
        || PlanRequest::plan2("boston", start, goal).with_platform(Platform::Racod { units: 4 });
    let first = server.submit(req()).unwrap().wait();
    let second = server.submit(req()).unwrap().wait();
    let (Outcome::Planned(a), Outcome::Planned(b)) = (first.outcome, second.outcome) else {
        panic!("both requests must plan")
    };
    assert!(!a.warm_start, "first request builds the pool cold");
    assert!(b.warm_start, "second same-map request reuses the warm pool");
    assert!(server.metrics().affinity_hits.load(Ordering::Relaxed) >= 1);
    assert_eq!(server.metrics().completed.load(Ordering::Relaxed), 2);
    assert_eq!(server.metrics().in_system.load(Ordering::Relaxed), 0);
}

/// Admission bounds the numbers a request carries: each one, just past
/// its bound, is refused as `InvalidRequest` before anything sizes a
/// thread pool or an allocation from it; each one at its bound is
/// admitted. (No workers: nothing executes, so 64-thread platforms cost
/// nothing here.)
#[test]
fn out_of_range_requests_are_refused_at_admission() {
    use racod_search::AstarConfig;
    use racod_sim::footprint::OrientationPolicy;
    use racod_sim::Footprint2;
    let (reg, start, goal) = boston_world();
    let server = PlanServer::start(
        ServerConfig { workers: 0, queue_capacity: 64, ..Default::default() },
        reg,
    );
    let base = || PlanRequest::plan2("boston", start, goal);
    let sized = |length: f32, width: f32| {
        base().with_footprint2(Footprint2 { length, width, policy: OrientationPolicy::TowardGoal })
    };
    let weighted = |weight: f64| base().with_astar(AstarConfig { weight, ..Default::default() });

    let refused = [
        sized(64.5, 2.0),
        sized(2.0, 1e5),
        sized(-0.5, 2.0),
        sized(f32::NAN, 2.0),
        sized(2.0, f32::INFINITY),
        base().with_platform(Platform::Threads { threads: 0, runahead: 0 }),
        base().with_platform(Platform::Threads { threads: 100_000, runahead: 0 }),
        base().with_platform(Platform::Threads { threads: 4, runahead: 1025 }),
        base().with_platform(Platform::Racod { units: 0 }),
        base().with_platform(Platform::Racod { units: 65 }),
        base().with_platform(Platform::SimSoftware { threads: 0, runahead: None }),
        base().with_platform(Platform::SimSoftware { threads: 65, runahead: None }),
        base().with_platform(Platform::SimSoftware { threads: 4, runahead: Some(1025) }),
        weighted(f64::NAN),
        weighted(f64::INFINITY),
    ];
    for (i, req) in refused.iter().enumerate() {
        let err = server.submit(req.clone()).expect_err("out of range");
        assert!(matches!(err, Rejected::InvalidRequest), "case {i}: {err}");
    }
    assert_eq!(server.metrics().rejected_invalid.load(Ordering::Relaxed), refused.len() as u64);
    assert_eq!(server.metrics().in_system.load(Ordering::Relaxed), 0);

    let admitted = [
        sized(64.0, 0.0),
        base().with_platform(Platform::Threads { threads: 64, runahead: 1024 }),
        base().with_platform(Platform::Racod { units: 64 }),
        base().with_platform(Platform::SimSoftware { threads: 64, runahead: Some(1024) }),
        base().with_platform(Platform::SimSoftware { threads: 1, runahead: None }),
    ];
    for (i, req) in admitted.iter().enumerate() {
        assert!(server.submit(req.clone()).is_ok(), "case {i} is within bounds");
    }
}
