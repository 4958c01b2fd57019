//! Chaos integration suite: deterministic fault injection across the whole
//! service, asserting the *invariants* that must survive any fault schedule
//! rather than exact outcomes (thread interleaving shifts which check or
//! poll a probabilistic rule fires on, but never what the service owes the
//! client):
//!
//! - every admitted ticket resolves exactly once, within a wall-clock bound
//!   (no deadlock, no lost reply);
//! - the metrics conservation equations hold at quiescence;
//! - once faults stop, the service returns to a healthy steady state;
//! - the circuit breaker demonstrably trips to the software fallback and
//!   recovers half-open once the accelerated path heals;
//! - a worker slot that dies repeatedly without serving anything is
//!   abandoned after bounded respawns instead of storming;
//! - an installed-but-silent fault plan changes nothing: results stay
//!   bit-identical to a direct planner call.

use racod_fault::{FaultAction, FaultPlan, FaultSite};
use racod_geom::Cell2;
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_server::{
    BreakerConfig, MapRegistry, Outcome, PlanRequest, PlanServer, Planned, PlannedPath, Platform,
    Rejected, RespawnConfig, ServerConfig, Workload,
};
use racod_sim::planner::{plan, Backend, Scenario2, Scenario3};
use racod_sim::CostModel;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-ticket resolution bound. Generous: the slowest injected action is a
/// bounded wedge, and respawn backoff tops out at 100ms.
const RESOLVE_BOUND: Duration = Duration::from_secs(20);

struct World {
    registry: Arc<MapRegistry>,
    start2: Cell2,
    goal2: Cell2,
    start3: racod_geom::Cell3,
    goal3: racod_geom::Cell3,
}

/// A small 2D city plus a 3D campus, with endpoints valid for the default
/// footprints (small maps keep per-request work low so eight seeds of chaos
/// stay inside the wall-clock bound).
fn world() -> World {
    let grid2 = city_map(CityName::Boston, 64, 64);
    let sc2 = Scenario2::new(&grid2).with_free_endpoints((8, 8), (56, 52));
    let (start2, goal2) = (sc2.start, sc2.goal);
    let grid3 = campus_3d(2, 24, 24, 12);
    let sc3 = Scenario3::new(&grid3).with_free_endpoints((3, 3, 4), (20, 20, 9));
    let (start3, goal3) = (sc3.start, sc3.goal);
    let reg = MapRegistry::new();
    reg.insert_grid2("boston", grid2);
    reg.insert_grid3("campus", grid3);
    World { registry: Arc::new(reg), start2, goal2, start3, goal3 }
}

/// One request of a rotating platform/workload mix.
fn mixed_request(w: &World, i: usize) -> PlanRequest {
    let req = match i % 6 {
        0 => PlanRequest::plan3("campus", w.start3, w.goal3)
            .with_platform(Platform::Racod { units: 4 }),
        1 => PlanRequest::plan2("boston", w.start2, w.goal2)
            .with_platform(Platform::Threads { threads: 2, runahead: 4 }),
        2 => PlanRequest::plan2("boston", w.start2, w.goal2)
            .with_platform(Platform::SimSoftware { threads: 2, runahead: Some(4) }),
        _ => PlanRequest::plan2("boston", w.start2, w.goal2)
            .with_platform(Platform::Racod { units: 4 }),
    };
    if i % 4 == 3 {
        req.with_deadline(Duration::from_millis(25))
    } else {
        req
    }
}

/// Runs one seeded chaos episode and checks every invariant. Returns the
/// number of faults the plan actually injected (so the matrix can assert
/// the suite exercised injection at all).
fn chaos_episode(seed: u64) -> u64 {
    let w = world();
    let plan = Arc::new(FaultPlan::from_seed(seed));
    let server = PlanServer::start(
        ServerConfig {
            workers: 3,
            queue_capacity: 64,
            fault_plan: Some(plan.clone()),
            breaker: BreakerConfig { cooldown: Duration::from_millis(50), ..Default::default() },
            ..Default::default()
        },
        w.registry.clone(),
    );

    // Phase 1: mixed load with faults armed.
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    let mut queue_full = 0u64;
    for i in 0..24 {
        match server.submit(mixed_request(&w, i)) {
            Ok(t) => {
                if i % 8 == 5 {
                    t.cancel();
                }
                tickets.push(t);
            }
            Err(Rejected::QueueFull) => queue_full += 1,
            Err(Rejected::DeadlineInfeasible { .. }) => shed += 1,
            Err(e) => panic!("seed {seed}: unexpected rejection {e}"),
        }
    }

    // Invariant: every admitted ticket resolves exactly once, in bounded
    // wall-clock time, whatever the fault schedule did.
    let admitted = tickets.len() as u64;
    let mut resolved = 0u64;
    for t in &tickets {
        let resp = t
            .wait_timeout(RESOLVE_BOUND)
            .unwrap_or_else(|| panic!("seed {seed}: ticket {:?} unresolved (deadlock?)", t.id));
        assert_eq!(resp.id, t.id, "seed {seed}: response routed to wrong ticket");
        resolved += 1;
    }
    assert_eq!(resolved, admitted);

    // Invariant: conservation at quiescence.
    let m = server.metrics();
    let ld = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(
        ld(&m.submitted),
        ld(&m.accepted)
            + ld(&m.rejected_queue_full)
            + ld(&m.rejected_invalid)
            + ld(&m.shed_infeasible),
        "seed {seed}: admission conservation"
    );
    assert_eq!(ld(&m.rejected_queue_full), queue_full, "seed {seed}");
    assert_eq!(ld(&m.shed_infeasible), shed, "seed {seed}");
    assert_eq!(
        ld(&m.accepted),
        ld(&m.completed) + ld(&m.timed_out) + ld(&m.cancelled) + ld(&m.panicked) + ld(&m.lost),
        "seed {seed}: outcome conservation"
    );
    assert_eq!(ld(&m.in_system), 0, "seed {seed}: quiescent");

    // Phase 2: faults stop; the service must return to a healthy steady
    // state (breakers may still be open — the software fallback and the
    // half-open probe both produce correct plans, so every healthy request
    // must come back Planned regardless).
    plan.disarm();
    let injected = plan.injected_total();
    for i in 0..6 {
        let t = server.submit(mixed_request(&w, 4 * i)).expect("healthy phase admits");
        let resp = t
            .wait_timeout(RESOLVE_BOUND)
            .unwrap_or_else(|| panic!("seed {seed}: healthy request unresolved"));
        match resp.outcome {
            Outcome::Planned(p) => assert!(p.path.found(), "seed {seed}: healthy plan finds path"),
            other => panic!("seed {seed}: healthy request ended {other:?}"),
        }
    }
    assert_eq!(ld(&m.in_system), 0, "seed {seed}: quiescent after recovery");
    assert_eq!(plan.injected_total(), injected, "seed {seed}: disarmed plan stays silent");
    injected
}

#[test]
fn chaos_matrix_holds_invariants_across_seeds() {
    let mut injected_total = 0u64;
    for seed in [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88] {
        injected_total += chaos_episode(seed);
    }
    // The matrix as a whole must actually inject faults — a silently inert
    // layer would pass every per-seed invariant vacuously.
    assert!(injected_total > 0, "no seed injected any fault");
}

#[test]
fn breaker_trips_to_software_fallback_and_recovers() {
    let w = world();
    // Every accelerated collision check panics; the software path is
    // untouched (probes attach only to native platform scenarios).
    let plan =
        Arc::new(FaultPlan::builder(7).always(FaultSite::MidCheck, FaultAction::Panic).build());
    let cooldown = Duration::from_millis(50);
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            fault_plan: Some(plan.clone()),
            breaker: BreakerConfig { enabled: true, threshold: 3, cooldown },
            ..Default::default()
        },
        w.registry.clone(),
    );
    let req = || {
        PlanRequest::plan2("boston", w.start2, w.goal2).with_platform(Platform::Racod { units: 4 })
    };
    let baseline = {
        let grid = city_map(CityName::Boston, 64, 64);
        let mut sc = Scenario2::new(&grid);
        sc.start = w.start2;
        sc.goal = w.goal2;
        racod_sim::plan(&sc, Backend::racod(4), &CostModel::racod())
    };
    assert!(baseline.result.path.is_some());

    // Three consecutive native failures trip the breaker.
    for i in 0..3 {
        match server.submit(req()).unwrap().wait().outcome {
            Outcome::Panicked { message } => {
                assert!(FaultPlan::is_injected_panic(&message), "request {i}: {message}")
            }
            other => panic!("request {i}: expected injected panic, got {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!(m.breaker_tripped.load(Ordering::Relaxed), 1);
    assert!(server.breakers().racod.is_open());

    // Open: requests fall back to the software checker — and because every
    // platform is bit-identical by construction, the degraded answer is
    // the *correct* answer, not an approximation.
    let fallback = match server.submit(req()).unwrap().wait().outcome {
        Outcome::Planned(p) => p,
        other => panic!("fallback request ended {other:?}"),
    };
    let Planned { path: PlannedPath::P2(path), cost, expansions, .. } = fallback else {
        panic!("2d path expected")
    };
    assert_eq!(path, baseline.result.path);
    assert_eq!(cost.to_bits(), baseline.result.cost.to_bits());
    assert_eq!(expansions, baseline.result.stats.expansions);
    assert!(m.breaker_fallbacks.load(Ordering::Relaxed) >= 1);

    // Heal the native path, wait out the cooldown: the next request runs
    // as the half-open probe, succeeds, and closes the breaker.
    plan.disarm();
    std::thread::sleep(cooldown + Duration::from_millis(10));
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.breakers().racod.is_open() {
        assert!(Instant::now() < deadline, "breaker never recovered");
        match server.submit(req()).unwrap().wait().outcome {
            Outcome::Planned(_) => {}
            other => panic!("post-heal request ended {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(m.breaker_probes.load(Ordering::Relaxed) >= 1);
    assert_eq!(m.breaker_recovered.load(Ordering::Relaxed), 1);
    assert_eq!(m.breaker_tripped.load(Ordering::Relaxed), 1, "no re-trip after heal");

    // Closed again: native path serves and stays bit-identical.
    match server.submit(req()).unwrap().wait().outcome {
        Outcome::Planned(p) => {
            let PlannedPath::P2(path) = p.path else { panic!("2d path") };
            assert_eq!(path, baseline.result.path);
        }
        other => panic!("recovered request ended {other:?}"),
    }
}

#[test]
fn threads_check_panic_answers_the_injected_message_and_counts_one_failure() {
    let w = world();
    // The Threads arm checks on the worker's thread, so a panicking check
    // unwinds to the per-request boundary like a Racod one does.
    let plan =
        Arc::new(FaultPlan::builder(7).always(FaultSite::MidCheck, FaultAction::Panic).build());
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            fault_plan: Some(plan),
            breaker: BreakerConfig {
                enabled: true,
                threshold: 1,
                cooldown: Duration::from_secs(60),
            },
            ..Default::default()
        },
        w.registry.clone(),
    );
    let req = PlanRequest::plan2("boston", w.start2, w.goal2)
        .with_platform(Platform::Threads { threads: 2, runahead: 4 });
    match server.submit(req).unwrap().wait_timeout(RESOLVE_BOUND).expect("resolved").outcome {
        Outcome::Panicked { message } => {
            assert!(FaultPlan::is_injected_panic(&message), "not the injected panic: {message}")
        }
        other => panic!("expected the injected panic, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.panicked.load(Ordering::Relaxed), 1);
    assert_eq!(m.worker_respawns.load(Ordering::Relaxed), 0, "the worker survives");
    // Threshold 1: the one native failure trips the Threads breaker alone.
    assert_eq!(m.breaker_tripped.load(Ordering::Relaxed), 1);
    assert!(server.breakers().threads.is_open());
    assert!(!server.breakers().racod.is_open());
}

#[test]
fn respawn_storm_is_capped_and_slot_abandoned() {
    let w = world();
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            respawn: RespawnConfig {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                max_consecutive: 2,
            },
            ..Default::default()
        },
        w.registry.clone(),
    );
    let kill = || {
        let mut r = PlanRequest::plan2("boston", w.start2, w.goal2);
        r.workload = Workload::PoisonWorker;
        r
    };

    // Deaths 1 and 2 are respawned (with backoff); death 3 exceeds the
    // consecutive cap and the slot is abandoned.
    for i in 0..3 {
        let resp = server
            .submit(kill())
            .unwrap()
            .wait_timeout(RESOLVE_BOUND)
            .unwrap_or_else(|| panic!("kill {i} unresolved"));
        assert!(matches!(resp.outcome, Outcome::Lost), "kill {i}: {:?}", resp.outcome);
    }
    let m = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while m.workers_abandoned.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "slot never abandoned");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(m.worker_respawns.load(Ordering::Relaxed), 2, "respawns capped at max_consecutive");

    // Degraded-but-live: with every worker gone the dispatcher sheds
    // queued work as Lost instead of hanging clients forever.
    let resp = server
        .submit(PlanRequest::plan2("boston", w.start2, w.goal2))
        .unwrap()
        .wait_timeout(RESOLVE_BOUND)
        .expect("post-abandonment request resolves");
    assert!(matches!(resp.outcome, Outcome::Lost));
    assert_eq!(m.in_system.load(Ordering::Relaxed), 0);
}

#[test]
fn progress_between_deaths_resets_the_respawn_streak() {
    let w = world();
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            respawn: RespawnConfig {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                max_consecutive: 2,
            },
            ..Default::default()
        },
        w.registry.clone(),
    );
    // kill, serve, kill, serve...: each served request resets the streak,
    // so the slot is never abandoned even after four deaths.
    for round in 0..4 {
        let mut kill = PlanRequest::plan2("boston", w.start2, w.goal2);
        kill.workload = Workload::PoisonWorker;
        let resp = server.submit(kill).unwrap().wait_timeout(RESOLVE_BOUND).unwrap();
        assert!(matches!(resp.outcome, Outcome::Lost), "round {round}");
        let resp = server
            .submit(PlanRequest::plan2("boston", w.start2, w.goal2))
            .unwrap()
            .wait_timeout(RESOLVE_BOUND)
            .unwrap_or_else(|| panic!("round {round}: healthy request unresolved"));
        match resp.outcome {
            Outcome::Planned(p) => assert!(p.path.found(), "round {round}"),
            other => panic!("round {round}: {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!(m.workers_abandoned.load(Ordering::Relaxed), 0);
    assert_eq!(m.worker_respawns.load(Ordering::Relaxed), 4);
}

#[test]
fn installed_but_silent_fault_plan_is_bit_identical_to_baseline() {
    let grid = city_map(CityName::Paris, 96, 96);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (85, 80));
    let direct = plan(&sc, Backend::racod(8), &CostModel::racod());
    assert!(direct.result.path.is_some());

    // Three silent configurations: no plan, an armed-but-empty plan, and a
    // disarmed seeded plan. All must be indistinguishable from the direct
    // call — the hooks are a single branch, not a behavior change.
    let disarmed = FaultPlan::from_seed(0xC0FFEE);
    disarmed.disarm();
    let plans: [Option<Arc<FaultPlan>>; 3] =
        [None, Some(Arc::new(FaultPlan::inert(1))), Some(Arc::new(disarmed))];
    for (k, fault_plan) in plans.into_iter().enumerate() {
        let reg = MapRegistry::new();
        reg.insert_grid2("paris", grid.clone());
        let server = PlanServer::start(
            ServerConfig { workers: 1, fault_plan: fault_plan.clone(), ..Default::default() },
            Arc::new(reg),
        );
        let req = PlanRequest::plan2("paris", sc.start, sc.goal)
            .with_footprint2(sc.footprint)
            .with_astar(sc.astar.clone())
            .with_platform(Platform::Racod { units: 8 });
        let got = match server.submit(req).unwrap().wait().outcome {
            Outcome::Planned(p) => p,
            other => panic!("config {k}: {other:?}"),
        };
        let PlannedPath::P2(path) = &got.path else { panic!("2d path") };
        assert_eq!(path, &direct.result.path, "config {k}");
        assert_eq!(got.cost.to_bits(), direct.result.cost.to_bits(), "config {k}");
        assert_eq!(got.expansions, direct.result.stats.expansions, "config {k}");
        if let Some(plan) = fault_plan {
            assert_eq!(plan.injected_total(), 0, "config {k}: silent plan injected");
        }
    }
}

#[test]
fn corrupted_map_load_is_detected_and_counted() {
    let grid = city_map(CityName::Boston, 64, 64);
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (56, 52));
    let (start, goal) = (sc.start, sc.goal);
    drop(sc);
    let reg = MapRegistry::new();
    reg.insert_grid2("boston", grid);
    let plan =
        Arc::new(FaultPlan::builder(3).always(FaultSite::MapLoad, FaultAction::Corrupt).build());
    let server = PlanServer::start(
        ServerConfig { workers: 1, fault_plan: Some(plan.clone()), ..Default::default() },
        Arc::new(reg),
    );
    // Every artifact build is corrupted while armed: the checksum catches
    // it, the cache is invalidated, and the worker falls back to planning
    // without the prefilter — the request still completes.
    let req = PlanRequest::plan2("boston", start, goal).with_platform(Platform::Racod { units: 4 });
    match server.submit(req.clone()).unwrap().wait().outcome {
        Outcome::Planned(p) => assert!(p.path.found()),
        other => panic!("corrupted-artifact request ended {other:?}"),
    }
    let m = server.metrics();
    assert!(m.map_corruptions_detected.load(Ordering::Relaxed) >= 1);

    // Healed: the rebuild verifies clean and detection stops advancing.
    plan.disarm();
    let before = m.map_corruptions_detected.load(Ordering::Relaxed);
    match server.submit(req).unwrap().wait().outcome {
        Outcome::Planned(p) => assert!(p.path.found()),
        other => panic!("healed request ended {other:?}"),
    }
    assert_eq!(m.map_corruptions_detected.load(Ordering::Relaxed), before);
}
