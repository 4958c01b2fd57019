//! End-to-end proof of the wire layer's central claim: a plan served
//! through sockets, a netd, and a shard router is **bit-identical** —
//! path, cost bits, outcome — to the same request planned in-process,
//! and losing a shard degrades availability, never answers.

use racod_fault::mix64;
use racod_net::{
    ClientConfig, MapPool, NetClient, Netd, NetdConfig, Router, RouterConfig, ShardState,
    WireResult,
};
use racod_server::{Outcome, PlanRequest, PlanServer, Platform, Rejected, ServerConfig, Workload};
use std::time::Duration;

const WORLD_SEED: u64 = 7;
const MAP_SIZE: u32 = 64;

fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, queue_capacity: 64, ..Default::default() }
}

/// Deterministic request stream shared by the local and remote sides.
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
}

fn assert_bit_identical(i: usize, req: &PlanRequest, local: &Outcome, remote: &Outcome) {
    match (local, remote) {
        (Outcome::Planned(l), Outcome::Planned(r)) => {
            assert_eq!(
                l.cost.to_bits(),
                r.cost.to_bits(),
                "request {i} ({}): cost bits diverged: {} vs {}",
                req.map.as_str(),
                l.cost,
                r.cost
            );
            assert_eq!(l.path, r.path, "request {i} ({}): path diverged", req.map.as_str());
            assert_eq!(
                l.expansions, r.expansions,
                "request {i}: expansion count diverged (different search, not just timing)"
            );
        }
        (l, r) => panic!("request {i}: outcomes diverged: local {l:?} vs remote {r:?}"),
    }
}

fn remote_outcome(client: &mut NetClient, req: PlanRequest) -> Outcome {
    match client.plan(req).expect("transport must stay clean") {
        WireResult::Done(resp) => resp.outcome,
        WireResult::Rejected(rej) => panic!("unexpected rejection: {rej}"),
    }
}

#[test]
fn netd_plans_are_bit_identical_to_in_process() {
    // Two *independently built* worlds from the same seed: the netd's and
    // the in-process server's registries share no memory, only the seed.
    let (local_registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let (netd_registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let local = PlanServer::start(server_config(), local_registry);
    let netd =
        Netd::start(NetdConfig { server: server_config(), ..Default::default() }, netd_registry)
            .expect("netd start");
    let mut client = NetClient::connect(netd.local_addr(), ClientConfig::default()).unwrap();

    let mut reqs = ReqGen::new();
    for i in 0..40 {
        let req = reqs.next();
        let local_out = local.submit(req.clone()).expect("local submit").wait().outcome;
        let remote_out = remote_outcome(&mut client, req.clone());
        assert_bit_identical(i, &req, &local_out, &remote_out);
    }
    assert_eq!(netd.stats().protocol_errors.load(std::sync::atomic::Ordering::Relaxed), 0);
}

/// A request whose numbers are out of range gets the same refusal from
/// `submit` and through a netd, in 2D and 3D, and the shard keeps serving:
/// the frame that used to spawn 100 000 threads is just a rejection.
#[test]
fn out_of_range_requests_are_refused_identically_over_the_wire() {
    let (local_registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let (netd_registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let local = PlanServer::start(server_config(), local_registry);
    let netd =
        Netd::start(NetdConfig { server: server_config(), ..Default::default() }, netd_registry)
            .expect("netd start");
    let mut client = NetClient::connect(netd.local_addr(), ClientConfig::default()).unwrap();

    let mut reqs = ReqGen::new();
    let mut hostile = Vec::new();
    while hostile.len() < 8 {
        let mut req = reqs.next();
        match (hostile.len() % 4, &mut req.workload) {
            (0, _) => req.platform = Platform::Threads { threads: 100_000, runahead: 0 },
            (1, _) => req.platform = Platform::Racod { units: 0 },
            (2, Workload::Plan2 { footprint, .. }) => {
                (footprint.length, footprint.width) = (1e5, 1e5)
            }
            (2, Workload::Plan3 { footprint, .. }) => footprint.height = f32::NAN,
            _ => req.astar.weight = f64::INFINITY,
        }
        hostile.push(req);
    }
    for (i, req) in hostile.into_iter().enumerate() {
        let local_err = local.submit(req.clone()).expect_err("refused locally");
        assert_eq!(local_err, Rejected::InvalidRequest, "request {i}");
        match client.plan(req).expect("transport must stay clean") {
            WireResult::Rejected(rej) => assert_eq!(rej, local_err, "request {i}"),
            WireResult::Done(resp) => panic!("request {i} was executed: {resp:?}"),
        }
    }
    // Still serving, still bit-identical.
    let req = reqs.next();
    let local_out = local.submit(req.clone()).expect("local submit").wait().outcome;
    let remote_out = remote_outcome(&mut client, req.clone());
    assert_bit_identical(0, &req, &local_out, &remote_out);
}

#[test]
fn routed_plans_across_two_shards_are_bit_identical() {
    let (local_registry, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
    let local = PlanServer::start(server_config(), local_registry);

    let mut shards = Vec::new();
    for _ in 0..2 {
        let (reg, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
        shards.push(
            Netd::start(NetdConfig { server: server_config(), ..Default::default() }, reg)
                .expect("netd start"),
        );
    }
    let router = Router::start(RouterConfig {
        backends: shards.iter().map(|s| s.local_addr()).collect(),
        probe_interval: Duration::from_millis(20),
        ..Default::default()
    })
    .expect("router start");
    let mut client = NetClient::connect(router.local_addr(), ClientConfig::default()).unwrap();

    let mut reqs = ReqGen::new();
    for i in 0..40 {
        let req = reqs.next();
        let local_out = local.submit(req.clone()).expect("local submit").wait().outcome;
        let remote_out = remote_outcome(&mut client, req.clone());
        assert_bit_identical(i, &req, &local_out, &remote_out);
    }

    let stats = router.shard_stats();
    let routed: u64 = stats.iter().map(|s| s.routed).sum();
    assert_eq!(routed, 40, "every request routed exactly once: {stats:?}");
    assert!(
        stats.iter().all(|s| s.routed > 0),
        "map-affinity hashing should spread the mixed-map workload over both shards: {stats:?}"
    );
    assert!(stats.iter().all(|s| s.errors == 0 && s.lost == 0), "clean run: {stats:?}");
}

#[test]
fn killing_one_shard_degrades_gracefully() {
    let mut shards = Vec::new();
    for _ in 0..2 {
        let (reg, _) = racod_net::standard_world(WORLD_SEED, MAP_SIZE);
        shards.push(
            Netd::start(NetdConfig { server: server_config(), ..Default::default() }, reg)
                .expect("netd start"),
        );
    }
    let router = Router::start(RouterConfig {
        backends: shards.iter().map(|s| s.local_addr()).collect(),
        probe_interval: Duration::from_millis(20),
        ..Default::default()
    })
    .expect("router start");
    let mut client = NetClient::connect(router.local_addr(), ClientConfig::default()).unwrap();
    let mut reqs = ReqGen::new();

    // Phase 1: healthy fleet — everything plans.
    for _ in 0..20 {
        let req = reqs.next();
        assert!(matches!(remote_outcome(&mut client, req), Outcome::Planned(_)));
    }

    // Kill shard 0: its listener closes and its connections die.
    let victim = shards.remove(0);
    drop(victim);

    // Transition phase: requests sent while probes catch up must each get
    // exactly ONE honest answer — planned (failover / survivor), `Lost`
    // (delivered before the death was known), or a rejection. Never a
    // hang, never a silent duplicate.
    let mut planned = 0u32;
    let mut lost = 0u32;
    let mut rejected = 0u32;
    for _ in 0..30 {
        let req = reqs.next();
        match client.plan(req).expect("router stays reachable") {
            WireResult::Done(resp) => match resp.outcome {
                Outcome::Planned(_) => planned += 1,
                Outcome::Lost => lost += 1,
                other => panic!("unexpected outcome during failover: {other:?}"),
            },
            WireResult::Rejected(Rejected::QueueFull | Rejected::ShuttingDown) => rejected += 1,
            WireResult::Rejected(rej) => panic!("unexpected rejection: {rej}"),
        }
    }
    assert_eq!(planned + lost + rejected, 30, "every request answered exactly once");

    // Settled phase: probes have marked the victim Down; the survivor
    // serves the full map set (identical world ⇒ identical answers).
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..20 {
        let req = reqs.next();
        assert!(
            matches!(remote_outcome(&mut client, req), Outcome::Planned(_)),
            "post-settle traffic must all plan on the survivor"
        );
    }

    let stats = router.shard_stats();
    assert_eq!(stats[0].state, ShardState::Down, "victim marked down: {stats:?}");
    assert_eq!(stats[1].state, ShardState::Up, "survivor up: {stats:?}");
    assert!(
        stats[1].failovers > 0,
        "maps whose ring-primary was the victim must be counted as failovers: {stats:?}"
    );
}
