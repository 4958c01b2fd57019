//! Mid-search interruption: deadline expiry while a search is running,
//! cancellation of an in-flight request, and the `Threads` platform
//! serving on the worker's own thread, with no check threads started.

use racod_geom::Cell2;
use racod_grid::BitGrid2;
use racod_server::{
    MapRegistry, Outcome, PlanRequest, PlanServer, Platform, ServerConfig, TimeoutStage,
};
use racod_sim::Footprint2;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: i64 = 512;

/// A 512×512 map split by a vertical wall at x=N/2, with the right half
/// further split by a horizontal wall at y=N/2. The start sits in the
/// upper-right pocket and the goal in the lower-right pocket, so a search
/// between them must exhaust the whole upper-right quadrant (~65k
/// expansions, tens of milliseconds even in release builds). Both
/// endpoints are disconnected from the map's seed component (the left
/// half), which keeps the registry's reachability prefilter from
/// short-circuiting the search.
fn doomed_world() -> (Arc<MapRegistry>, Cell2, Cell2) {
    let half = N / 2;
    let mut grid = BitGrid2::new(N as u32, N as u32);
    grid.fill_rect(half, 0, half, N - 1, true);
    grid.fill_rect(half, half, N - 1, half, true);
    let start = Cell2::new(half + 50, 30);
    let goal = Cell2::new(half + 50, N - 30);
    let reg = MapRegistry::new();
    reg.insert_grid2("walled", grid);
    (Arc::new(reg), start, goal)
}

fn doomed_request(start: Cell2, goal: Cell2) -> PlanRequest {
    PlanRequest::plan2("walled", start, goal).with_footprint2(Footprint2::point())
}

/// Wall-clock cost of exhausting the doomed search, served without a
/// deadline by `server`: the interrupted request it is compared with runs
/// on the same worker, so load from sibling tests weighs on both alike.
fn served_exhaustion_time(server: &PlanServer, start: Cell2, goal: Cell2) -> Duration {
    let t = Instant::now();
    match server.submit(doomed_request(start, goal)).unwrap().wait().outcome {
        Outcome::Planned(p) => assert!(!p.path.found(), "the doomed pair must be unreachable"),
        other => panic!("the undeadlined doomed request must exhaust, got {other:?}"),
    }
    t.elapsed()
}

#[test]
fn deadline_mid_search_stops_the_worker_before_exhaustion() {
    let (reg, start, goal) = doomed_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);
    let t_full = served_exhaustion_time(&server, start, goal);
    assert!(
        t_full >= Duration::from_millis(50),
        "scenario must be slow enough to interrupt: exhausts in {t_full:?}"
    );

    let deadline = Duration::from_millis(25);
    let t0 = Instant::now();
    let resp = server.submit(doomed_request(start, goal).with_deadline(deadline)).unwrap().wait();
    let elapsed = t0.elapsed();

    match resp.outcome {
        Outcome::TimedOut { stage, .. } => {
            assert_eq!(stage, TimeoutStage::MidSearch, "the search was dispatched and running");
        }
        other => panic!("expected mid-search TimedOut, got {other:?}"),
    }
    assert_eq!(server.metrics().interrupted_mid_search.load(Ordering::Relaxed), 1);
    assert_eq!(server.metrics().timed_out.load(Ordering::Relaxed), 1);
    // The worker was freed within a poll batch of the deadline, not after
    // running the search to exhaustion.
    assert!(
        elapsed < t_full * 2 / 3,
        "interrupted search should finish well before exhaustion: {elapsed:?} vs {t_full:?}"
    );

    // The freed worker keeps serving: a short plan inside the start pocket
    // completes and finds a path.
    let quick = PlanRequest::plan2("walled", start, Cell2::new(N / 2 + 70, 40))
        .with_footprint2(Footprint2::point());
    match server.submit(quick).unwrap().wait().outcome {
        Outcome::Planned(p) => assert!(p.path.found(), "follow-up plan must succeed"),
        other => panic!("worker must keep serving after an interrupt, got {other:?}"),
    }
}

#[test]
fn cancel_mid_flight_aborts_a_running_search() {
    let (reg, start, goal) = doomed_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);
    let t_full = served_exhaustion_time(&server, start, goal);
    assert!(t_full >= Duration::from_millis(50), "scenario too fast: {t_full:?}");

    let ticket = server.submit(doomed_request(start, goal)).unwrap();
    // Let the dispatcher hand the request to the worker and the search get
    // underway before pulling the plug.
    std::thread::sleep(Duration::from_millis(15));
    let t0 = Instant::now();
    ticket.cancel();
    let resp = ticket.wait();
    let after_cancel = t0.elapsed();

    assert!(
        matches!(resp.outcome, Outcome::Cancelled),
        "expected Cancelled, got {:?}",
        resp.outcome
    );
    assert_eq!(server.metrics().cancelled.load(Ordering::Relaxed), 1);
    // The abort is cooperative but prompt: the search observed the flag at
    // its next poll instead of running to exhaustion.
    assert!(
        after_cancel < t_full,
        "cancel must not wait for exhaustion: {after_cancel:?} vs {t_full:?}"
    );
}

#[test]
fn threads_platform_keeps_os_thread_count_flat_across_100_requests() {
    let (reg, start, _goal) = doomed_world();
    let server = PlanServer::start(ServerConfig { workers: 1, ..Default::default() }, reg);
    let quick_goal = Cell2::new(N / 2 + 70, 40);
    let req = || {
        PlanRequest::plan2("walled", start, quick_goal)
            .with_footprint2(Footprint2::point())
            .with_platform(Platform::Threads { threads: 4, runahead: 2 })
    };

    for _ in 0..100 {
        match server.submit(req()).unwrap().wait().outcome {
            Outcome::Planned(p) => assert!(p.path.found()),
            other => panic!("every request must plan, got {other:?}"),
        }
    }
    assert_eq!(server.metrics().completed.load(Ordering::Relaxed), 100);
    // The worker checks on its own thread: no check thread was started.
    // Nothing else in this binary starts one, so sibling tests cannot
    // put one in the process while this reads it.
    #[cfg(target_os = "linux")]
    {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process");
        for task in tasks {
            let comm =
                std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
            assert!(!comm.starts_with("racod-check-"), "a check thread is running: {comm}");
        }
    }
}
