//! Interruption and persistent-pool behaviour of the threaded planner.

use racod_geom::Cell2;
use racod_grid::BitGrid2;
use racod_parallel::{ParallelConfig, ParallelPlanner, WorkerPool};
use racod_search::{AstarConfig, GridSpace2, Interrupt, InterruptReason, Termination};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn expired_deadline_frees_planner_within_poll_budget() {
    // A doomed request (expired deadline) over a large map must stop after
    // at most one poll batch of expansions, not run the search to
    // completion.
    let grid = Arc::new(BitGrid2::new(512, 512));
    let g = grid.clone();
    let planner =
        ParallelPlanner::new(ParallelConfig::rasexp(4, 8), move |c: Cell2| g.get(c) == Some(false));
    let space = GridSpace2::eight_connected(512, 512);
    let cfg = AstarConfig::default()
        .with_interrupt(Interrupt::new().with_deadline(Instant::now()))
        .with_poll_interval(128);
    let run = planner.plan_config(&space, Cell2::new(0, 0), Cell2::new(511, 511), &cfg);
    assert_eq!(run.result.termination, Termination::Interrupted(InterruptReason::Deadline));
    assert!(!run.result.found());
    assert!(
        run.result.stats.expansions <= 128,
        "doomed search expanded {} nodes, poll budget is 128",
        run.result.stats.expansions
    );
}

#[test]
fn cancellation_mid_flight_stops_a_running_plan() {
    // The check closure is artificially slow, so the full search would take
    // minutes; a cancel raised from another thread must stop it promptly.
    let cancel = Arc::new(AtomicBool::new(false));
    let planner = ParallelPlanner::new(ParallelConfig::baseline(2), |c: Cell2| {
        std::thread::sleep(Duration::from_micros(500));
        c.x >= 0 && c.y >= 0 && c.x < 256 && c.y < 256
    });
    let space = GridSpace2::eight_connected(256, 256);
    let cfg = AstarConfig::default()
        .with_interrupt(Interrupt::new().with_cancel_flag(cancel.clone()))
        .with_poll_interval(8);

    let canceller = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cancel.store(true, Ordering::Release);
        })
    };
    let begin = Instant::now();
    let run = planner.plan_config(&space, Cell2::new(0, 0), Cell2::new(255, 255), &cfg);
    let elapsed = begin.elapsed();
    canceller.join().unwrap();

    assert_eq!(run.result.termination, Termination::Interrupted(InterruptReason::Cancelled));
    assert!(!run.result.found());
    // Full search: ~65k states x 0.5ms / 2 threads >> 10s. Cancellation
    // must cut that to roughly the cancel delay plus a poll batch.
    assert!(elapsed < Duration::from_secs(5), "cancel took {elapsed:?} to take effect");
}

#[test]
fn persistent_pool_keeps_thread_count_constant_across_100_plans() {
    let grid = Arc::new(BitGrid2::new(64, 64));
    let g = grid.clone();
    let planner =
        ParallelPlanner::new(ParallelConfig::rasexp(4, 8), move |c: Cell2| g.get(c) == Some(false));
    let space = GridSpace2::eight_connected(64, 64);
    // The pool's own census, not the process-wide thread count: sibling
    // tests in this binary spawn and drop pools of their own meanwhile.
    let census = planner.pool().census().clone();
    let reference = planner.plan(&space, Cell2::new(1, 1), Cell2::new(62, 62));
    for _ in 0..100 {
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(62, 62));
        assert_eq!(run.result.path, reference.result.path);
    }
    assert_eq!(census.spawned(), 4, "plan() must not spawn OS threads per request");
    assert_eq!(census.live(), 4);
    assert_eq!(planner.pool().threads(), 4);
}

#[test]
fn dropping_the_planner_joins_its_workers() {
    let census = {
        let planner = ParallelPlanner::new(ParallelConfig::baseline(3), |_c: Cell2| true);
        let space = GridSpace2::eight_connected(16, 16);
        let run = planner.plan(&space, Cell2::new(0, 0), Cell2::new(15, 15));
        assert!(run.result.found());
        assert_eq!(planner.pool().census().live(), 3);
        planner.pool().census().clone()
    };
    assert_eq!(census.spawned(), 3);
    assert_eq!(census.live(), 0, "every spawned worker must be joined on drop");
}

#[test]
fn shared_pool_survives_a_claiming_worker_death() {
    // A check that panics kills the verdict, not the planner: the episode
    // is poisoned, the planner terminates, and the shared pool keeps
    // serving subsequent plans.
    let pool: Arc<WorkerPool<Cell2>> = Arc::new(WorkerPool::new(2));
    let space = GridSpace2::eight_connected(64, 64);

    let faulty = ParallelPlanner::with_pool(
        ParallelConfig::rasexp(2, 4),
        |c: Cell2| {
            assert!(c.x + c.y < 40, "injected fault");
            true
        },
        pool.clone(),
    );
    let begin = Instant::now();
    let run = faulty.plan(&space, Cell2::new(0, 0), Cell2::new(63, 63));
    assert!(begin.elapsed() < Duration::from_secs(10), "poisoning must terminate the wait");
    assert_eq!(run.result.termination, Termination::Interrupted(InterruptReason::Poisoned));

    let healthy = ParallelPlanner::with_pool(ParallelConfig::rasexp(2, 4), |_c: Cell2| true, pool);
    let run = healthy.plan(&space, Cell2::new(0, 0), Cell2::new(63, 63));
    assert_eq!(run.result.termination, Termination::Found);
}
