//! Metrics conservation under randomized load.
//!
//! Whatever mix of outcomes a run produces, the counters must balance at
//! quiescence:
//!
//! ```text
//! submitted = accepted + rejected_queue_full + rejected_invalid + shed_infeasible
//! accepted  = completed + timed_out + cancelled + panicked + lost
//! in_system = 0
//! ```
//!
//! The load mixes every class the server can produce — healthy plans on
//! all three platforms, tight deadlines, cancellations, per-request
//! poison, worker-killing poison, unknown maps, and a queue small enough
//! to reject under burst — so a drop or double-count anywhere in the
//! admission/dispatch/worker/reply path shows up as an imbalance.

use racod_geom::Cell2;
use racod_grid::gen::{city_map, CityName};
use racod_server::{
    MapRegistry, Outcome, PlanRequest, PlanServer, Platform, Rejected, ServerConfig, Ticket,
    Workload,
};
use racod_sim::planner::Scenario2;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RESOLVE_BOUND: Duration = Duration::from_secs(20);

fn world() -> (Arc<MapRegistry>, Cell2, Cell2) {
    let grid = city_map(CityName::Boston, 64, 64);
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (56, 52));
    let (start, goal) = (sc.start, sc.goal);
    drop(sc);
    let reg = MapRegistry::new();
    reg.insert_grid2("boston", grid);
    (Arc::new(reg), start, goal)
}

fn random_request(rng: &mut SmallRng, start: Cell2, goal: Cell2) -> PlanRequest {
    // ~4% of requests target an unregistered map (rejected_invalid).
    let map = if rng.gen_bool(0.04) { "no-such-map" } else { "boston" };
    let mut req = PlanRequest::plan2(map, start, goal);
    req = match rng.gen_range(0..3u32) {
        0 => req.with_platform(Platform::Racod { units: 4 }),
        1 => req.with_platform(Platform::Threads { threads: 2, runahead: 4 }),
        _ => req.with_platform(Platform::SimSoftware { threads: 2, runahead: Some(4) }),
    };
    // ~6% panic in the worker (panicked), ~3% kill the worker loop (lost
    // plus a respawn).
    if rng.gen_bool(0.06) {
        req.workload = Workload::Poison;
    } else if rng.gen_bool(0.03) {
        req.workload = Workload::PoisonWorker;
    }
    // ~25% carry a deadline tight enough that some expire (timed_out) or
    // are shed at admission once service estimates warm up.
    if rng.gen_bool(0.25) {
        req = req.with_deadline(Duration::from_micros(rng.gen_range(300..20_000)));
    }
    req
}

#[test]
fn randomized_load_conserves_every_request() {
    for seed in [1u64, 2, 3, 4] {
        let (reg, start, goal) = world();
        let server = PlanServer::start(
            ServerConfig {
                workers: 2,
                // Small queue: bursts must produce QueueFull rejections.
                queue_capacity: 6,
                shed_min_samples: 16,
                ..Default::default()
            },
            reg,
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut local_rejected_full = 0u64;
        let mut local_rejected_invalid = 0u64;
        let mut local_shed = 0u64;
        let mut tickets: Vec<Ticket> = Vec::new();
        for _ in 0..80 {
            match server.submit(random_request(&mut rng, start, goal)) {
                Ok(t) => {
                    if rng.gen_bool(0.10) {
                        t.cancel();
                    }
                    tickets.push(t);
                }
                Err(Rejected::QueueFull) => local_rejected_full += 1,
                Err(Rejected::UnknownMap(_)) => local_rejected_invalid += 1,
                Err(Rejected::DeadlineInfeasible { .. }) => local_shed += 1,
                Err(e) => panic!("seed {seed}: unexpected rejection {e}"),
            }
            // Occasional pause lets the queue drain so the run is a mix of
            // burst and trickle rather than one saturated spike.
            if rng.gen_bool(0.2) {
                std::thread::sleep(Duration::from_micros(rng.gen_range(100..2_000)));
            }
        }

        // Every admitted ticket resolves exactly once.
        let admitted = tickets.len() as u64;
        for t in &tickets {
            let resp = t
                .wait_timeout(RESOLVE_BOUND)
                .unwrap_or_else(|| panic!("seed {seed}: ticket {:?} unresolved", t.id));
            assert!(
                matches!(
                    resp.outcome,
                    Outcome::Planned(_)
                        | Outcome::TimedOut { .. }
                        | Outcome::Cancelled
                        | Outcome::Panicked { .. }
                        | Outcome::Lost
                ),
                "seed {seed}: non-terminal outcome"
            );
        }

        let m = server.metrics();
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(ld(&m.submitted), 80, "seed {seed}");
        assert_eq!(ld(&m.accepted), admitted, "seed {seed}");
        assert_eq!(ld(&m.rejected_queue_full), local_rejected_full, "seed {seed}");
        assert_eq!(ld(&m.rejected_invalid), local_rejected_invalid, "seed {seed}");
        assert_eq!(ld(&m.shed_infeasible), local_shed, "seed {seed}");
        assert_eq!(
            ld(&m.submitted),
            ld(&m.accepted)
                + ld(&m.rejected_queue_full)
                + ld(&m.rejected_invalid)
                + ld(&m.shed_infeasible),
            "seed {seed}: admission conservation"
        );
        assert_eq!(
            ld(&m.accepted),
            ld(&m.completed) + ld(&m.timed_out) + ld(&m.cancelled) + ld(&m.panicked) + ld(&m.lost),
            "seed {seed}: outcome conservation"
        );
        assert_eq!(ld(&m.in_system), 0, "seed {seed}: quiescent");
    }
}

#[test]
fn infeasible_deadline_is_shed_at_admission() {
    let (reg, start, goal) = world();
    let server = PlanServer::start(
        ServerConfig { workers: 1, shed_min_samples: 8, ..Default::default() },
        reg,
    );
    // Warm the service-time estimator past the sample gate.
    for _ in 0..10 {
        let t = server.submit(PlanRequest::plan2("boston", start, goal)).unwrap();
        assert!(matches!(t.wait().outcome, Outcome::Planned(_)));
    }
    // Build a backlog, then ask for the impossible: a deadline far below
    // the estimated wait for the queue ahead of it.
    let backlog: Vec<Ticket> = (0..16)
        .map(|_| server.submit(PlanRequest::plan2("boston", start, goal)).unwrap())
        .collect();
    let err = server
        .submit(PlanRequest::plan2("boston", start, goal).with_deadline(Duration::from_nanos(1)))
        .unwrap_err();
    let Rejected::DeadlineInfeasible { estimated_wait, deadline } = err else {
        panic!("expected DeadlineInfeasible, got {err}");
    };
    assert!(estimated_wait > deadline);
    assert_eq!(server.metrics().shed_infeasible.load(Ordering::Relaxed), 1);
    for t in backlog {
        assert!(t.wait_timeout(RESOLVE_BOUND).is_some());
    }

    // A feasible deadline is still admitted once the backlog drains.
    let t = server
        .submit(PlanRequest::plan2("boston", start, goal).with_deadline(Duration::from_secs(5)))
        .expect("feasible deadline admitted");
    assert!(matches!(t.wait().outcome, Outcome::Planned(_)));
}
