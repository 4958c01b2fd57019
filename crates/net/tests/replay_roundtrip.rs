//! End-to-end proof of the trace subsystem's central claim: a recorded
//! run — map churn, armed chaos seed and all — replays **bit-identically**
//! from its trace file, in-process and over the wire, and a torn trace
//! replays exactly its durable prefix.

use racod_fault::mix64;
use racod_grid::GridDelta2;
use racod_net::{replay_local, replay_remote, MapPool, Netd, NetdConfig, ReplayOptions};
use racod_server::{
    read_trace, read_trace_bytes, BreakerConfig, MapId, OutcomeKind, PlanRequest, PlanServer,
    Platform, ServerConfig, TraceConfig, TraceFile,
};
use std::path::PathBuf;
use std::sync::Arc;

const WORLD_SEED: u64 = 7;
const MAP_SIZE: u32 = 64;

/// Deterministic request stream over the standard world's map pools
/// (same idiom as the remote-equivalence suite).
struct ReqGen {
    pools: Vec<MapPool>,
    state: u64,
}

impl ReqGen {
    fn new() -> Self {
        let (_registry, pools) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
        ReqGen { pools, state: 0x5EED }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = mix64(self.state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self.state
    }

    fn next(&mut self) -> PlanRequest {
        let pool = self.next_u64() as usize % self.pools.len();
        let (ia, ib) = (self.next_u64() as usize, self.next_u64() as usize);
        let req = match &self.pools[pool] {
            MapPool::D2 { name, cells } => {
                let (a, b) = (cells[ia % cells.len()], cells[ib % cells.len()]);
                PlanRequest::plan2(*name, a, b).with_footprint2(racod_sim::Footprint2::point())
            }
            MapPool::D3 { name, cells } => {
                let (a, b) = (cells[ia % cells.len()], cells[ib % cells.len()]);
                PlanRequest::plan3(*name, a, b)
            }
        };
        req.with_platform(Platform::Racod { units: 4 })
    }

    /// A churn batch against the first 2D pool: obstacles appearing on
    /// (and later vacating) free cells near the pool's sampled set.
    fn churn(&mut self) -> (&'static str, Vec<GridDelta2>) {
        let (name, cells) = self
            .pools
            .iter()
            .find_map(|p| match p {
                MapPool::D2 { name, cells } => Some((*name, cells.clone())),
                MapPool::D3 { .. } => None,
            })
            .expect("standard world has a 2D pool");
        let cell = cells[self.next_u64() as usize % cells.len()];
        let deltas = match self.next_u64() % 3 {
            0 => vec![GridDelta2::Appear { cell }],
            1 => vec![GridDelta2::Disappear { cell }],
            _ => {
                let to = cells[self.next_u64() as usize % cells.len()];
                vec![GridDelta2::Move { from: cell, to }]
            }
        };
        (name, deltas)
    }
}

fn unique_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("racod-{name}-{}.trace", std::process::id()));
    p
}

/// Records `requests` sequential plans with a churn batch every four, in
/// a server configured per (`fault_seed`,) and returns the parsed trace.
fn record_run(path: &PathBuf, requests: usize, fault_seed: Option<u64>) -> TraceFile {
    let (registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let server = PlanServer::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            fault_plan: fault_seed.map(|s| Arc::new(racod_fault::FaultPlan::from_seed(s))),
            // Chaos recordings must run breaker-off (cooldowns are
            // wall-clock, and an open breaker routes to the uninjected
            // software fallback) — with breakers on, which request panics
            // depends on timing and cannot replay. This mirrors what
            // loadgen/netd do automatically.
            breaker: BreakerConfig { enabled: fault_seed.is_none(), ..Default::default() },
            trace: Some(TraceConfig {
                tenant: "test".to_string(),
                world_seed: WORLD_SEED,
                map_size: MAP_SIZE,
                note: "replay_roundtrip".to_string(),
                ..TraceConfig::new(path)
            }),
            ..Default::default()
        },
        registry,
    );
    let mut reqs = ReqGen::new();
    for i in 0..requests {
        if i > 0 && i % 4 == 0 {
            let (map, deltas) = reqs.churn();
            server.apply_map_deltas(&MapId::new(map), &deltas);
        }
        // Sequential submission: one request in flight at a time, so the
        // recording and the (one-at-a-time) replay see the same schedule
        // even with a fault plan armed.
        match server.submit(reqs.next()) {
            Ok(ticket) => {
                ticket.wait();
            }
            Err(rej) => panic!("request {i} rejected: {rej}"),
        }
    }
    // Dropping the server joins the writer thread: the trace is durable.
    drop(server);
    read_trace(path).expect("recorded trace must read back")
}

#[test]
fn recorded_churn_run_replays_bit_identically() {
    let path = unique_path("roundtrip");
    let trace = record_run(&path, 24, None);
    assert!(!trace.torn);
    assert_eq!(trace.plans().count(), 24);
    assert!(trace.deltas().count() >= 5);
    assert_eq!(trace.header.world_seed, WORLD_SEED);
    assert_eq!(trace.header.fault_seed, None);

    let report = replay_local(&trace, ReplayOptions::default()).expect("replay must run");
    assert!(report.ok(), "replay diverged:\n{}", report.render());
    assert_eq!(report.replayed, 24);
    assert_eq!(report.planned_recorded, report.planned_replayed);
    assert_eq!(report.recorded_cost_digest, report.replayed_cost_digest);
    assert!(report.deltas_applied >= 5);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_run_replays_with_the_fault_seed_rearmed() {
    let path = unique_path("chaos");
    // Seed chosen so the sampled fault plan actually fires on this run
    // (asserted below — a chaos test that injects nothing proves nothing).
    let trace = record_run(&path, 40, Some(0xC0FFEE));
    assert_eq!(trace.header.fault_seed, Some(0xC0FFEE));
    let injected = trace.plans().filter(|p| p.outcome != OutcomeKind::Planned).count();
    assert!(injected > 0, "fault seed never fired; pick a different seed");

    let report = replay_local(&trace, ReplayOptions::default()).expect("replay must run");
    assert!(report.ok(), "chaos replay diverged:\n{}", report.render());
    assert_eq!(report.replayed, 40);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_trace_replays_its_durable_prefix() {
    let path = unique_path("torn");
    let trace = record_run(&path, 12, None);
    let bytes = std::fs::read(&path).expect("trace bytes");
    let _ = std::fs::remove_file(&path);

    // Tear mid-way through the final record, as a crash during the last
    // write would.
    let torn = read_trace_bytes(&bytes[..bytes.len() - 9]).expect("torn trace must still read");
    assert!(torn.torn);
    assert!(torn.dropped_tail > 0);
    assert_eq!(torn.events.len(), trace.events.len() - 1);

    let report = replay_local(&torn, ReplayOptions::default()).expect("replay must run");
    assert!(report.ok(), "torn-prefix replay diverged:\n{}", report.render());
    assert_eq!(report.replayed as usize, torn.plans().count());
}

#[test]
fn recorded_run_replays_remotely_against_a_fresh_netd() {
    let path = unique_path("remote");
    let trace = record_run(&path, 16, None);
    let _ = std::fs::remove_file(&path);

    // An independently built netd from the same world seed: shares no
    // memory with the recording server, only the seed — exactly what
    // `racod-cli replay --remote` does against a live shard.
    let (registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let netd = Netd::start(
        NetdConfig {
            server: ServerConfig { workers: 1, queue_capacity: 64, ..Default::default() },
            ..Default::default()
        },
        registry,
    )
    .expect("netd start");

    let report = replay_remote(&trace, netd.local_addr(), ReplayOptions::default())
        .expect("remote replay must run");
    assert!(report.ok(), "remote replay diverged:\n{}", report.render());
    assert_eq!(report.replayed, 16);
    assert_eq!(report.recorded_cost_digest, report.replayed_cost_digest);
}
