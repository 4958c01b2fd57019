//! Regression test for the stale-speculation publish race.
//!
//! The speculator computes a batch of collision verdicts against the grid,
//! then publishes them into the per-map memo. If a map delta lands *between*
//! those two steps, the memo is invalidated (version bump + sweep) while the
//! speculator still holds verdicts describing the pre-delta world. An
//! unguarded publish would repopulate the freshly swept memo with stale
//! verdicts — and the real search would then serve collision answers for a
//! world that no longer exists.
//!
//! The `publish_gate` test hook freezes the speculator deterministically in
//! exactly that window, so the test does not depend on scheduler luck.

use racod_geom::Cell2;
use racod_grid::{BitGrid2, GridDelta2};
use racod_rasexp::speculation_targets;
use racod_server::{
    MapRegistry, PlanRequest, PlanServer, Platform, ServerConfig, SpeculationConfig,
};
use racod_sim::Footprint2;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t = Instant::now();
    while !cond() {
        assert!(t.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn delta_between_precheck_and_publish_cannot_poison_the_memo() {
    // An empty map: every precheck verdict starts out Free, so occupying a
    // target cell provably changes its verdict.
    let reg = Arc::new(MapRegistry::new());
    reg.insert_grid2("m", BitGrid2::new(64, 64));

    // Gate the first precheck batch: flag the window, then hold the
    // speculator until the test has applied a delta.
    let in_window = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (w, r) = (in_window.clone(), release.clone());
    let first = AtomicBool::new(false);
    let gate = move || {
        if first.swap(true, Ordering::Relaxed) {
            return; // later batches flow freely
        }
        w.store(true, Ordering::Relaxed);
        while !r.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let speculation = SpeculationConfig {
        enabled: true,
        threads: 1,
        publish_gate: Some(Arc::new(gate)),
        ..Default::default()
    };
    let cfg = ServerConfig { workers: 1, speculation: speculation.clone(), ..Default::default() };
    let server = PlanServer::start(cfg, reg.clone());

    let (start, goal) = (Cell2::new(10, 10), Cell2::new(50, 50));
    let fp = Footprint2::point();
    let req = PlanRequest::plan2("m", start, goal)
        .with_footprint2(fp)
        .with_platform(Platform::Threads { threads: 1, runahead: 2 });
    let handle = server.submit(req).expect("admitted");

    // The speculator is now frozen with verdicts computed against the
    // empty grid. Land a delta that occupies one of its target cells.
    wait_until("speculator to enter the publish window", Duration::from_secs(10), || {
        in_window.load(Ordering::Relaxed)
    });
    let poisoned = Cell2::new(11, 10); // inside the start neighborhood
    assert!(
        speculation_targets(start, goal, speculation.radius, speculation.chain_depth)
            .contains(&poisoned),
        "test cell must be in the speculated target set"
    );
    let (version, changed) = server
        .apply_map_deltas(&"m".into(), &[GridDelta2::Appear { cell: poisoned }])
        .expect("known 2d map");
    assert_eq!((version, changed), (1, 1));

    // Release the frozen publish and let the batch land (or drop).
    release.store(true, Ordering::Relaxed);
    let metrics = server.metrics().clone();
    wait_until("the gated batch to finish publishing", Duration::from_secs(10), || {
        metrics.speculation_prechecks.load(Ordering::Relaxed) > 0
    });
    let _ = handle.wait();

    // Every verdict the memo serves must match a fresh native check
    // against the *current* grid. The stale batch said `poisoned` was
    // Free; the world now says Occupied.
    let entry = reg.get(&"m".into()).unwrap();
    let memo = entry.spec_memo2();
    let grid = entry.grid2().unwrap();
    for c in speculation_targets(start, goal, speculation.radius, speculation.chain_depth) {
        let key = fp.rot_key(c, goal);
        if let Some(check) = memo.lookup(&fp, key, c) {
            let fresh = racod_codacc::template_check(grid.as_ref(), c, &fp.template(key));
            assert_eq!(
                check, fresh,
                "memo serves a stale verdict for {c:?}: the precheck batch \
                 computed before the delta must not be published after it"
            );
        }
    }
}
