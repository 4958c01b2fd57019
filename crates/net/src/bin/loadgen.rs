//! Load generator for the RACOD planning service.
//!
//! Drives a mixed-map workload (four 2D city maps, a random-obstacle map, a
//! rooms map, and a 3D campus) against either an in-process [`PlanServer`]
//! (default) or a remote `racod-netd` / `racod-router` endpoint
//! (`--remote HOST:PORT`), and prints a throughput/latency report. Modes:
//!
//! * **closed-loop** (default): `--clients N` submitter threads, each
//!   keeping one request in flight — measures capacity. The only mode
//!   `--remote` supports (each client owns one connection).
//! * **open-loop**: `--rate R` requests/second from a single arrival clock
//!   with per-request deadlines — measures behavior under overload, where
//!   admission control and deadline expiry must shed load. Local only.
//!
//! Usage: `cargo run --release -p racod-net --bin loadgen -- --help` lists
//! every flag with examples.
//!
//! `--trace-out PATH` (local only) records the run as a replayable binary
//! trace: every admitted request, rejection, churn batch, and outcome.
//! `racod-cli replay PATH` re-executes it and asserts a bit-identical
//! outcome sequence and canonical cost digest. `--fault-seed S` (local
//! only) arms the embedded server's deterministic chaos plan; the seed is
//! stamped into the trace header so a recorded chaos run replays with the
//! exact same fault schedule. The report gains `trace records` /
//! `trace buffer` lines so silently dropped records are visible in CI.
//!
//! `--churn N` (closed-loop only) splits the run into N rounds and applies
//! a deterministic, seed-derived batch of occupancy deltas to every 2D map
//! between rounds — locally through the registry, remotely through the
//! `MapDeltaReq` wire message. Rounds are barriers: every plan in a round
//! completes before the world changes, so the digest contract below holds
//! under churn too, and the report gains a `map churn` line showing cells
//! changed, map version, in-flight repairs, and forced replans.
//!
//! `--speculate on|off` (default `on`, local only) is the A/B switch for
//! service-scope speculative prechecking: two otherwise-identical runs
//! isolate its effect, and the report's `speculation` line shows the hit
//! rate the prechecker earned. Speculation never changes answers (the plan
//! digest is identical either way) — only latency.
//!
//! `--alt on|off` (default `off`, local only — a remote shard takes its
//! own `--alt` flag) is the A/B switch for ALT landmark guidance. Unlike
//! speculation, landmarks may return a *different equal-cost* optimal
//! path, so the path-sensitive plan digest legitimately moves; the `cost
//! digest` line — folding the canonical re-summed optimal cost instead
//! of path cells — must be identical between `--alt on` and `--alt off`
//! runs (and between a local and a `--remote` run) over the same seed
//! and world. The report's `landmarks` line shows packs built,
//! version-fence fallbacks, and expansions saved.
//!
//! `--deadline` attaches a per-request completion budget (e.g. `5ms`,
//! `250us`, `1s`; a bare number is milliseconds). The run then tracks
//! *overshoot* — how far past `submit + deadline` each response arrived —
//! and fails if the worst overshoot exceeds `--overshoot-budget` (default
//! 250ms). `--cancel-rate F` cancels that fraction of in-flight requests
//! shortly after submission, exercising mid-search aborts (local only: the
//! wire protocol is strict request→response and carries no cancel).
//!
//! Every run prints `plan digest 0x…`: an order-independent XOR of a hash
//! over each planned request's map, endpoints, cost bits, and path cells.
//! A local run and a `--remote` run with the same seed and world must
//! print the same digest — that is the wire layer's bit-identity contract,
//! and CI's `net-smoke` job asserts it.

use racod_fault::{fnv1a, mix64, FaultPlan};
use racod_net::digest::{plan_cost_digest, plan_digest};
use racod_net::{plan_with_retry, standard_world, ClientConfig, MapPool, NetClient, WireResult};
use racod_server::{
    submit_with_retry, AltConfig, BreakerConfig, Outcome, PlanRequest, PlanServer, Platform,
    Priority, Rejected, RetryPolicy, ServerConfig, ServerMetrics, SpeculationConfig, TimeoutStage,
    TraceConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum LoadPlatform {
    Racod,
    Threads,
}

#[derive(Clone)]
struct Options {
    requests: usize,
    clients: usize,
    rate: Option<f64>,
    workers: usize,
    queue: usize,
    units: usize,
    seed: u64,
    map_size: u32,
    deadline: Option<Duration>,
    cancel_rate: f64,
    overshoot_budget: Duration,
    platform: LoadPlatform,
    speculate: bool,
    alt: bool,
    remote: Option<String>,
    churn: usize,
    trace_out: Option<PathBuf>,
    fault_seed: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            requests: 1000,
            clients: 8,
            rate: None,
            workers: 4,
            queue: 256,
            units: 8,
            seed: 7,
            map_size: 128,
            deadline: None,
            cancel_rate: 0.0,
            overshoot_budget: Duration::from_millis(250),
            platform: LoadPlatform::Racod,
            speculate: true,
            alt: false,
            remote: None,
            churn: 0,
            trace_out: None,
            fault_seed: None,
        }
    }
}

/// Parses `5ms`, `250us`, `1s`, or a bare number (milliseconds).
fn parse_duration(name: &str, v: &str) -> Duration {
    let (digits, scale_us) = if let Some(d) = v.strip_suffix("us") {
        (d, 1u64)
    } else if let Some(d) = v.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (v, 1_000)
    };
    match digits.parse::<u64>() {
        Ok(n) => Duration::from_micros(n.saturating_mul(scale_us)),
        Err(_) => {
            eprintln!("invalid duration for {name}: {v} (expected e.g. 5ms, 250us, 1s)");
            std::process::exit(2);
        }
    }
}

fn parsed<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {name}: {v}");
        std::process::exit(2);
    })
}

const USAGE: &str = "\
loadgen — drive a mixed-map planning workload and report throughput/latency

usage: loadgen [--requests N] [--clients N | --rate R] [--workers N] [--queue N]
               [--units N] [--seed S] [--map-size N] [--platform racod|threads]
               [--deadline D] [--cancel-rate F] [--overshoot-budget D]
               [--speculate on|off] [--alt on|off] [--churn N]
               [--remote HOST:PORT] [--trace-out PATH] [--fault-seed S]

  closed loop (default): --clients N submitters, one request in flight each
  open loop:             --rate R requests/second with per-request deadlines (local only)
  durations D:           5ms, 250us, 1s; a bare number is milliseconds

examples:
  loadgen --requests 300
  loadgen --rate 400 --requests 300
  loadgen --platform threads --churn 20
  loadgen --requests 100 --map-size 64 --clients 4 --remote 127.0.0.1:7460

Every run prints `plan digest` and `cost digest`; a local and a --remote run
over the same seed and world must agree on both. Exit 2 on a bad argument.";

fn parse_args() -> Options {
    let mut o = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut i = 0;
    while i < args.len() {
        let take = |name: &str| -> Option<String> {
            if args[i] == name {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                });
                Some(v.clone())
            } else {
                None
            }
        };
        if let Some(v) = take("--requests") {
            o.requests = parsed("--requests", &v);
            i += 2;
        } else if let Some(v) = take("--clients") {
            o.clients = parsed("--clients", &v);
            i += 2;
        } else if let Some(v) = take("--rate") {
            o.rate = Some(parsed("--rate", &v));
            i += 2;
        } else if let Some(v) = take("--workers") {
            o.workers = parsed("--workers", &v);
            i += 2;
        } else if let Some(v) = take("--queue") {
            o.queue = parsed("--queue", &v);
            i += 2;
        } else if let Some(v) = take("--units") {
            o.units = parsed("--units", &v);
            i += 2;
        } else if let Some(v) = take("--seed") {
            o.seed = parsed("--seed", &v);
            i += 2;
        } else if let Some(v) = take("--map-size") {
            o.map_size = parsed("--map-size", &v);
            i += 2;
        } else if let Some(v) = take("--deadline") {
            o.deadline = Some(parse_duration("--deadline", &v));
            i += 2;
        } else if let Some(v) = take("--cancel-rate") {
            o.cancel_rate = parsed("--cancel-rate", &v);
            i += 2;
        } else if let Some(v) = take("--overshoot-budget") {
            o.overshoot_budget = parse_duration("--overshoot-budget", &v);
            i += 2;
        } else if let Some(v) = take("--platform") {
            o.platform = match v.as_str() {
                "racod" => LoadPlatform::Racod,
                "threads" => LoadPlatform::Threads,
                _ => {
                    eprintln!("invalid value for --platform: {v} (expected racod or threads)");
                    std::process::exit(2);
                }
            };
            i += 2;
        } else if let Some(v) = take("--speculate") {
            // A/B switch for service-scope speculative prechecking: `off`
            // throws the server's kill switch so two runs differing only in
            // this flag isolate speculation's latency effect.
            o.speculate = match v.as_str() {
                "on" => true,
                "off" => false,
                _ => {
                    eprintln!("invalid value for --speculate: {v} (expected on or off)");
                    std::process::exit(2);
                }
            };
            i += 2;
        } else if let Some(v) = take("--alt") {
            // A/B switch for ALT landmark guidance: `on` enables packs on
            // the embedded server. The plan *cost* digest is the invariant
            // across this switch; the path-sensitive plan digest may move.
            o.alt = match v.as_str() {
                "on" => true,
                "off" => false,
                _ => {
                    eprintln!("invalid value for --alt: {v} (expected on or off)");
                    std::process::exit(2);
                }
            };
            i += 2;
        } else if let Some(v) = take("--remote") {
            o.remote = Some(v);
            i += 2;
        } else if let Some(v) = take("--churn") {
            // Dynamic-world mode: split the run into N closed-loop rounds
            // and apply a deterministic seed-derived map-delta batch to
            // every 2D map between rounds. Rounds are barriers, so a local
            // run and a --remote run with the same seed and world still
            // print the same plan digest.
            o.churn = parsed("--churn", &v);
            i += 2;
        } else if let Some(v) = take("--trace-out") {
            // Record the run as a replayable trace: every admitted
            // request, rejection, churn batch, and outcome goes into a
            // crash-safe binary log `racod-cli replay` can re-execute.
            o.trace_out = Some(PathBuf::from(v));
            i += 2;
        } else if let Some(v) = take("--fault-seed") {
            // Arm the embedded server's deterministic chaos plan. The
            // seed lands in the trace header, so a recorded chaos run
            // replays with the exact same fault schedule.
            o.fault_seed = Some(parsed("--fault-seed", &v));
            i += 2;
        } else {
            eprintln!("unknown argument {}", args[i]);
            std::process::exit(2);
        }
    }
    if o.workers == 0 {
        // Zero workers is a valid server config for tests, but a load run
        // against it would wait on tickets that can never resolve.
        eprintln!("--workers must be >= 1");
        std::process::exit(2);
    }
    if !(0.0..=1.0).contains(&o.cancel_rate) {
        eprintln!("--cancel-rate must be in [0, 1]");
        std::process::exit(2);
    }
    if o.churn > 0 && o.rate.is_some() {
        eprintln!("--churn requires closed-loop mode (drop --rate)");
        std::process::exit(2);
    }
    if o.remote.is_some() {
        if o.rate.is_some() {
            eprintln!("--rate (open-loop) is not supported with --remote");
            std::process::exit(2);
        }
        if o.cancel_rate > 0.0 {
            eprintln!("--cancel-rate is not supported with --remote (no wire cancel)");
            std::process::exit(2);
        }
        if !o.speculate {
            eprintln!(
                "--speculate off is not supported with --remote (the remote owns its config)"
            );
            std::process::exit(2);
        }
        if o.alt {
            eprintln!(
                "--alt on is not supported with --remote (start the shard with --alt on instead)"
            );
            std::process::exit(2);
        }
        if o.trace_out.is_some() {
            eprintln!("--trace-out is not supported with --remote (start netd with --trace-dir)");
            std::process::exit(2);
        }
        if o.fault_seed.is_some() {
            eprintln!("--fault-seed is not supported with --remote (start netd with --chaos-seed)");
            std::process::exit(2);
        }
    }
    o
}

fn make_request(pools: &[MapPool], o: &Options, rng: &mut SmallRng) -> PlanRequest {
    let pool = &pools[rng.gen_range(0..pools.len())];
    let priority = match rng.gen_range(0..10) {
        0 => Priority::High,
        1..=7 => Priority::Normal,
        _ => Priority::Low,
    };
    let req = match pool {
        MapPool::D2 { name, cells } => {
            let a = cells[rng.gen_range(0..cells.len())];
            let b = cells[rng.gen_range(0..cells.len())];
            PlanRequest::plan2(*name, a, b).with_footprint2(racod_sim::Footprint2::point())
        }
        MapPool::D3 { name, cells } => {
            let a = cells[rng.gen_range(0..cells.len())];
            let b = cells[rng.gen_range(0..cells.len())];
            PlanRequest::plan3(*name, a, b)
        }
    };
    let platform = match o.platform {
        LoadPlatform::Racod => Platform::Racod { units: o.units },
        LoadPlatform::Threads => Platform::Threads { threads: o.units.max(1), runahead: 2 },
    };
    req.with_platform(platform).with_priority(priority)
}

#[derive(Default)]
struct Tally {
    planned: AtomicU64,
    found: AtomicU64,
    timed_out: AtomicU64,
    timed_out_mid_search: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    lost: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    unavailable: AtomicU64,
    retries: AtomicU64,
    give_ups: AtomicU64,
    warm: AtomicU64,
    net_errors: AtomicU64,
    /// XOR fold of per-plan digests; order-independent.
    digest: AtomicU64,
    /// XOR fold of per-plan *canonical cost* digests; order-independent
    /// and invariant under ALT landmark guidance.
    cost_digest: AtomicU64,
    /// Worst observed response lateness past `submit + deadline`, in µs.
    max_overshoot_us: AtomicU64,
}

impl Tally {
    fn absorb(&self, req: &PlanRequest, outcome: &Outcome) {
        match outcome {
            Outcome::Planned(p) => {
                self.planned.fetch_add(1, Ordering::Relaxed);
                self.digest.fetch_xor(plan_digest(req, p), Ordering::Relaxed);
                self.cost_digest.fetch_xor(plan_cost_digest(req, p), Ordering::Relaxed);
                if p.path.found() {
                    self.found.fetch_add(1, Ordering::Relaxed);
                }
                if p.warm_start {
                    self.warm.fetch_add(1, Ordering::Relaxed);
                }
            }
            Outcome::TimedOut { stage, .. } => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                if *stage == TimeoutStage::MidSearch {
                    self.timed_out_mid_search.fetch_add(1, Ordering::Relaxed);
                }
            }
            Outcome::Cancelled => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Panicked { .. } => {
                self.panicked.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Lost => {
                self.lost.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records how late a response arrived relative to its deadline.
    fn record_overshoot(&self, submit_at: Instant, deadline: Option<Duration>) {
        if let Some(d) = deadline {
            let over = submit_at.elapsed().saturating_sub(d);
            self.max_overshoot_us.fetch_max(over.as_micros() as u64, Ordering::Relaxed);
        }
    }
}

/// How many requests churn round `round` gets out of the run total.
fn round_requests(total: usize, rounds: usize, round: usize) -> usize {
    total / rounds + usize::from(round < total % rounds)
}

/// Options for churn round `round`: its share of the requests, and a
/// round-mixed seed so each round draws a fresh (but reproducible) slice
/// of the workload.
fn round_options(o: &Options, round: usize) -> Options {
    Options {
        requests: round_requests(o.requests, o.churn, round),
        seed: mix64(o.seed ^ round as u64),
        ..o.clone()
    }
}

/// The delta batch applied to every 2D map after churn round `round`.
/// Derived purely from `(seed, map name, round)` so a local run and a
/// `--remote` run against shards seeded with the same world apply the
/// exact same churn — the digest-parity contract survives map mutation.
/// Mostly obstacle appearances with occasional clear-outs, drawn
/// map-wide; a delta that happens to land on a pooled endpoint just
/// makes that plan come back path-less, identically on both sides.
fn churn_deltas(
    pools: &[MapPool],
    o: &Options,
    round: usize,
) -> Vec<(&'static str, Vec<racod_grid::GridDelta2>)> {
    use racod_grid::GridDelta2;
    let mut out = Vec::new();
    for pool in pools {
        if let MapPool::D2 { name, .. } = pool {
            let mut rng = SmallRng::seed_from_u64(mix64(
                o.seed ^ fnv1a(name.as_bytes()) ^ ((round as u64 + 1) << 32),
            ));
            let n = 2 + rng.gen_range(0..4);
            let deltas = (0..n)
                .map(|_| {
                    let cell = racod_geom::Cell2::new(
                        rng.gen_range(0..o.map_size as i64),
                        rng.gen_range(0..o.map_size as i64),
                    );
                    if rng.gen_range(0..4) == 0 {
                        GridDelta2::Disappear { cell }
                    } else {
                        GridDelta2::Appear { cell }
                    }
                })
                .collect();
            out.push((*name, deltas));
        }
    }
    out
}

fn run_closed_loop(server: &PlanServer, pools: &[MapPool], o: &Options, tally: &Tally) {
    std::thread::scope(|scope| {
        let per_client = o.requests / o.clients.max(1);
        let remainder = o.requests - per_client * o.clients.max(1);
        let policy = RetryPolicy::default();
        for client in 0..o.clients.max(1) {
            let n = per_client + usize::from(client < remainder);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(o.seed ^ (client as u64) << 17);
                let mut sent = 0;
                while sent < n {
                    let mut req = make_request(pools, o, &mut rng);
                    if let Some(d) = o.deadline {
                        req = req.with_deadline(d);
                    }
                    let cancel = o.cancel_rate > 0.0 && rng.gen_bool(o.cancel_rate);
                    let submit_at = Instant::now();
                    // Transient queue-full rejections are retried with
                    // deterministic jittered backoff; the seed decorrelates
                    // clients so they don't retry in lockstep.
                    let jitter_seed = o.seed ^ ((client as u64) << 40) ^ sent as u64;
                    let attempt = submit_with_retry(server, req.clone(), &policy, jitter_seed);
                    tally.retries.fetch_add(attempt.retries as u64, Ordering::Relaxed);
                    match attempt.result {
                        Ok(ticket) => {
                            sent += 1;
                            if cancel {
                                std::thread::sleep(Duration::from_micros(500));
                                ticket.cancel();
                            }
                            tally.absorb(&req, &ticket.wait().outcome);
                            tally.record_overshoot(submit_at, o.deadline);
                        }
                        Err(Rejected::QueueFull) => {
                            // Retry budget exhausted with the queue still
                            // full: the client gives this request up.
                            tally.rejected.fetch_add(1, Ordering::Relaxed);
                            tally.give_ups.fetch_add(1, Ordering::Relaxed);
                            sent += 1;
                        }
                        Err(Rejected::DeadlineInfeasible { .. }) => {
                            // Admission shed the request: a retry with the
                            // same deadline would only be shed again.
                            tally.shed.fetch_add(1, Ordering::Relaxed);
                            sent += 1;
                        }
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
            });
        }
    });
}

/// The remote twin of [`run_closed_loop`]: identical RNG streams and
/// retry jitter seeds, but each client owns one connection to a netd or
/// router instead of an in-process server handle. A transport error
/// counts as a net error and the client redials — the request is *not*
/// silently resubmitted (any delivered duplicate would break the
/// at-most-once contract the service keeps).
fn run_remote_closed_loop(addr: SocketAddr, pools: &[MapPool], o: &Options, tally: &Tally) {
    std::thread::scope(|scope| {
        let per_client = o.requests / o.clients.max(1);
        let remainder = o.requests - per_client * o.clients.max(1);
        let policy = RetryPolicy::default();
        for client in 0..o.clients.max(1) {
            let n = per_client + usize::from(client < remainder);
            scope.spawn(move || {
                let mut conn = match NetClient::connect(addr, ClientConfig::default()) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("client {client}: connect failed: {e}");
                        tally.net_errors.fetch_add(n as u64, Ordering::Relaxed);
                        return;
                    }
                };
                let mut rng = SmallRng::seed_from_u64(o.seed ^ (client as u64) << 17);
                let mut sent = 0;
                while sent < n {
                    let mut req = make_request(pools, o, &mut rng);
                    if let Some(d) = o.deadline {
                        req = req.with_deadline(d);
                    }
                    let submit_at = Instant::now();
                    let jitter_seed = o.seed ^ ((client as u64) << 40) ^ sent as u64;
                    let attempt = plan_with_retry(&mut conn, &req, &policy, jitter_seed);
                    tally.retries.fetch_add(attempt.retries as u64, Ordering::Relaxed);
                    sent += 1;
                    match attempt.result {
                        Ok(WireResult::Done(resp)) => {
                            tally.absorb(&req, &resp.outcome);
                            tally.record_overshoot(submit_at, o.deadline);
                        }
                        Ok(WireResult::Rejected(Rejected::QueueFull)) => {
                            tally.rejected.fetch_add(1, Ordering::Relaxed);
                            tally.give_ups.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(WireResult::Rejected(Rejected::DeadlineInfeasible { .. })) => {
                            tally.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(WireResult::Rejected(Rejected::ShuttingDown)) => {
                            // The shard (or whole fleet) is draining or
                            // unreachable; the request was never admitted.
                            tally.unavailable.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(WireResult::Rejected(e)) => panic!("unexpected rejection: {e}"),
                        Err(e) => {
                            eprintln!("client {client}: transport error: {e}");
                            tally.net_errors.fetch_add(1, Ordering::Relaxed);
                            // Redial for the *next* request; this one is
                            // spent.
                            match NetClient::connect(addr, ClientConfig::default()) {
                                Ok(c) => conn = c,
                                Err(e) => {
                                    eprintln!("client {client}: reconnect failed: {e}");
                                    tally
                                        .net_errors
                                        .fetch_add((n - sent) as u64, Ordering::Relaxed);
                                    return;
                                }
                            }
                        }
                    }
                }
            });
        }
    });
}

fn run_open_loop(server: &PlanServer, pools: &[MapPool], o: &Options, rate: f64, tally: &Tally) {
    let interval = Duration::from_secs_f64(1.0 / rate.max(1e-6));
    let deadline = o.deadline.unwrap_or(Duration::from_millis(250));
    std::thread::scope(|scope| {
        let mut rng = SmallRng::seed_from_u64(o.seed);
        let start = Instant::now();
        for k in 0..o.requests {
            let due = start + interval.mul_sec(k);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            let req = make_request(pools, o, &mut rng).with_deadline(deadline);
            let cancel = o.cancel_rate > 0.0 && rng.gen_bool(o.cancel_rate);
            let submit_at = Instant::now();
            match server.submit(req.clone()) {
                Ok(ticket) => {
                    scope.spawn(move || {
                        if cancel {
                            std::thread::sleep(Duration::from_micros(500));
                            ticket.cancel();
                        }
                        tally.absorb(&req, &ticket.wait().outcome);
                        tally.record_overshoot(submit_at, Some(deadline));
                    });
                }
                Err(Rejected::QueueFull) => {
                    tally.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(Rejected::DeadlineInfeasible { .. }) => {
                    // Open-loop clients never retry: the arrival clock keeps
                    // ticking whether or not this request was admitted.
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
    });
}

/// `Duration * k` without floating-point drift.
trait MulSec {
    fn mul_sec(self, k: usize) -> Duration;
}
impl MulSec for Duration {
    fn mul_sec(self, k: usize) -> Duration {
        Duration::from_nanos((self.as_nanos() as u64).saturating_mul(k as u64))
    }
}

fn print_report(tally: &Tally, elapsed: Duration, metrics: Option<&ServerMetrics>, o: &Options) {
    let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
    println!();
    println!("== loadgen report ==");
    println!("elapsed            {:.2}s", elapsed.as_secs_f64());
    println!(
        "throughput         {:.1} plans/s",
        n(&tally.planned) as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("planned            {}", n(&tally.planned));
    println!("  paths found      {}", n(&tally.found));
    println!("  warm starts      {}", n(&tally.warm));
    println!("timed out          {}", n(&tally.timed_out));
    println!("  mid-search       {}", n(&tally.timed_out_mid_search));
    println!("cancelled          {}", n(&tally.cancelled));
    println!("panicked           {}", n(&tally.panicked));
    println!("lost               {}", n(&tally.lost));
    println!("queue-full rejects {}", n(&tally.rejected));
    println!("shed (infeasible)  {}", n(&tally.shed));
    println!("unavailable        {}", n(&tally.unavailable));
    println!("client retries     {}", n(&tally.retries));
    println!("client give-ups    {}", n(&tally.give_ups));
    println!("net errors         {}", n(&tally.net_errors));
    println!("plan digest        0x{:016x}", n(&tally.digest));
    println!("cost digest        0x{:016x}", n(&tally.cost_digest));
    if let Some(m) = metrics {
        if o.trace_out.is_some() {
            // Silent trace loss would quietly void the replay contract —
            // surface drops and how close the buffer came to overflowing
            // in every report so CI output shows them.
            println!(
                "trace records      {} written, {} dropped",
                m.trace_records.load(Ordering::Relaxed),
                m.trace_dropped.load(Ordering::Relaxed)
            );
            println!(
                "trace buffer       high water {}",
                m.trace_buffer_high_water.load(Ordering::Relaxed)
            );
        }
        println!(
            "affinity hit rate  {:.1}% over {} dispatches",
            m.affinity_hit_rate() * 100.0,
            m.affinity_hits.load(Ordering::Relaxed) + m.affinity_misses.load(Ordering::Relaxed)
        );
        println!(
            "template hit rate  {:.1}% over {} lookups",
            m.template_hit_rate() * 100.0,
            m.template_hits.load(Ordering::Relaxed) + m.template_misses.load(Ordering::Relaxed)
        );
        println!(
            "templates          {} keys, {} distinct, {} bytes",
            m.template_keys.load(Ordering::Relaxed),
            m.template_distinct.load(Ordering::Relaxed),
            m.template_bytes.load(Ordering::Relaxed)
        );
        println!(
            "speculation        {:.1}% hit rate ({} prechecks, {} hits, {} wasted)",
            m.speculation_hit_rate() * 100.0,
            m.speculation_prechecks.load(Ordering::Relaxed),
            m.speculation_hits.load(Ordering::Relaxed),
            m.speculation_wasted.load(Ordering::Relaxed)
        );
        println!(
            "landmarks          {} packs built, {} fenced fallbacks, {} expansions saved",
            m.alt_packs_built.load(Ordering::Relaxed),
            m.alt_pack_fallbacks.load(Ordering::Relaxed),
            m.alt_expansions_saved.load(Ordering::Relaxed)
        );
        if o.churn > 0 {
            println!(
                "map churn          {} cells changed (map version {}), {} in-flight repairs, \
                 {} replans from scratch",
                m.deltas_applied.load(Ordering::Relaxed),
                m.map_version.load(Ordering::Relaxed),
                m.incremental_repairs.load(Ordering::Relaxed),
                m.replans_from_scratch.load(Ordering::Relaxed)
            );
        }
        println!(
            "dispatch batches   {} (size 1:{} 2:{} 3-4:{} 5-8:{} >8:{})",
            m.dispatch_batches.load(Ordering::Relaxed),
            m.batch_size_1.load(Ordering::Relaxed),
            m.batch_size_2.load(Ordering::Relaxed),
            m.batch_size_3_4.load(Ordering::Relaxed),
            m.batch_size_5_8.load(Ordering::Relaxed),
            m.batch_size_gt_8.load(Ordering::Relaxed)
        );
        let (qw50, qw95, qw99) = m.queue_wait.percentiles();
        let (sv50, sv95, sv99) = m.service.percentiles();
        let (to50, to95, to99) = m.total.percentiles();
        println!();
        println!("latency (µs)        p50      p95      p99");
        println!(
            "  queue wait   {:>8} {:>8} {:>8}",
            qw50.as_micros(),
            qw95.as_micros(),
            qw99.as_micros()
        );
        println!(
            "  service      {:>8} {:>8} {:>8}",
            sv50.as_micros(),
            sv95.as_micros(),
            sv99.as_micros()
        );
        println!(
            "  total        {:>8} {:>8} {:>8}",
            to50.as_micros(),
            to95.as_micros(),
            to99.as_micros()
        );
    }
}

/// Shared FAIL gates; returns whether the run failed.
fn check_failures(tally: &Tally, extra_panics: u64, o: &Options) -> bool {
    let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let mut failed = false;
    let panics = n(&tally.panicked) + extra_panics;
    if panics > 0 {
        if o.fault_seed.is_some() {
            // Chaos mode: the armed plan injects panics on purpose; they
            // are the workload, not a failure.
            println!("chaos: {panics} injected panics/respawns (expected with --fault-seed)");
        } else {
            eprintln!("FAIL: {panics} panics/respawns during run");
            failed = true;
        }
    }
    if n(&tally.net_errors) > 0 {
        eprintln!("FAIL: {} transport/protocol errors during run", n(&tally.net_errors));
        failed = true;
    }
    if o.deadline.is_some() || o.rate.is_some() {
        let worst = Duration::from_micros(n(&tally.max_overshoot_us));
        println!("worst deadline overshoot {worst:?} (budget {:?})", o.overshoot_budget);
        if worst > o.overshoot_budget {
            eprintln!(
                "FAIL: a response arrived {worst:?} past its deadline (budget {:?})",
                o.overshoot_budget
            );
            failed = true;
        }
    }
    failed
}

fn run_local(o: &Options) -> bool {
    let (registry, pools) = standard_world(o.seed, o.map_size);
    println!(
        "racod loadgen: {} requests, {} maps, {} workers, queue {}, {} CODAcc units, \
         speculation {}, landmarks {}",
        o.requests,
        registry.len(),
        o.workers,
        o.queue,
        o.units,
        if o.speculate { "on" } else { "off" },
        if o.alt { "on" } else { "off" }
    );

    if let Some(seed) = o.fault_seed {
        println!("chaos: fault plan armed from seed {seed}");
    }
    // Breaker cooldowns are wall-clock: a chaos recording made with
    // breakers live routes to the uninjected software fallback on a
    // timing-dependent schedule and won't replay. Record chaos runs
    // breakers-off; everything else keeps the production default.
    let chaos_recording = o.fault_seed.is_some() && o.trace_out.is_some();
    if let Some(path) = &o.trace_out {
        println!("trace: recording to {}", path.display());
        if chaos_recording {
            println!("trace: chaos recording; circuit breakers disabled for replayability");
        }
        if o.fault_seed.is_some() && o.speculate {
            // Mid-check fault tokens count checks per request, and
            // speculative memo hits skip checks nondeterministically — the
            // injected-fault schedule won't replay. Answers still will.
            eprintln!(
                "trace: warning: chaos recording with speculation enabled; the injected-fault \
                 schedule is timing-dependent and may not replay (add --speculate off)"
            );
        }
    }
    let server = PlanServer::start(
        ServerConfig {
            workers: o.workers,
            queue_capacity: o.queue,
            speculation: SpeculationConfig { enabled: o.speculate, ..Default::default() },
            breaker: BreakerConfig { enabled: !chaos_recording, ..Default::default() },
            alt: AltConfig { enabled: o.alt, ..Default::default() },
            fault_plan: o.fault_seed.map(|s| Arc::new(FaultPlan::from_seed(s))),
            trace: o.trace_out.as_ref().map(|path| TraceConfig {
                tenant: "loadgen".to_string(),
                world_seed: o.seed,
                map_size: o.map_size,
                note: format!("loadgen --requests {} --churn {}", o.requests, o.churn),
                ..TraceConfig::new(path)
            }),
            ..Default::default()
        },
        registry,
    );

    let tally = Tally::default();
    let begin = Instant::now();
    match o.rate {
        None if o.churn > 0 => {
            println!("mode: closed-loop, {} clients, {} churn rounds", o.clients, o.churn);
            for round in 0..o.churn {
                run_closed_loop(&server, &pools, &round_options(o, round), &tally);
                if round + 1 < o.churn {
                    for (name, deltas) in churn_deltas(&pools, o, round) {
                        server.apply_map_deltas(&name.into(), &deltas);
                    }
                }
            }
        }
        None => {
            println!("mode: closed-loop, {} clients", o.clients);
            run_closed_loop(&server, &pools, o, &tally);
        }
        Some(rate) => {
            let d = o.deadline.unwrap_or(Duration::from_millis(250));
            println!("mode: open-loop, {rate} req/s, {d:?} deadline");
            run_open_loop(&server, &pools, o, rate, &tally);
        }
    }
    let elapsed = begin.elapsed();

    // Shut the server down before reporting: the drop joins the trace
    // writer, so the log is durable and the trace counters are final when
    // the report prints them.
    let m = server.metrics().clone();
    drop(server);
    print_report(&tally, elapsed, Some(&m), o);
    println!();
    println!("-- metrics page --");
    print!("{}", m.render_text());
    println!("racod_server_build_info{{id=\"{}\"}} 1", racod_server::build_id(o.alt, o.speculate));

    let respawns = m.worker_respawns.load(Ordering::Relaxed);
    check_failures(&tally, respawns, o)
}

/// Applies the round's churn batch over the wire — the remote twin of
/// the local `server.apply_map_deltas` loop, byte-for-byte the same
/// deltas. A refused or failed apply counts as a net error: the worlds
/// have diverged and the digest comparison is void.
fn apply_remote_churn(
    addr: SocketAddr,
    pools: &[MapPool],
    o: &Options,
    round: usize,
    tally: &Tally,
) {
    let mut conn = match NetClient::connect(addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("churn round {round}: connect failed: {e}");
            tally.net_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    for (name, deltas) in churn_deltas(pools, o, round) {
        match conn.apply_deltas(name, &deltas) {
            Ok(Some(_)) => {}
            Ok(None) => {
                eprintln!("churn round {round}: server refused deltas for {name}");
                tally.net_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("churn round {round}: delta apply to {name} failed: {e}");
                tally.net_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn run_remote(o: &Options, addr_str: &str) -> bool {
    let addr: SocketAddr = match addr_str.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("invalid --remote address: {addr_str}");
            std::process::exit(2);
        }
    };
    println!(
        "racod loadgen: {} requests against {addr}, {} clients (closed-loop)",
        o.requests, o.clients
    );
    // The endpoint pools must match what the shards were seeded with;
    // only the registry handle is discarded (the remote side owns one).
    let (_registry, pools) = standard_world(o.seed, o.map_size);

    let tally = Tally::default();
    let begin = Instant::now();
    if o.churn > 0 {
        println!("churn: {} rounds", o.churn);
        for round in 0..o.churn {
            run_remote_closed_loop(addr, &pools, &round_options(o, round), &tally);
            if round + 1 < o.churn {
                apply_remote_churn(addr, &pools, o, round, &tally);
            }
        }
    } else {
        run_remote_closed_loop(addr, &pools, o, &tally);
    }
    let elapsed = begin.elapsed();

    // Fleet metrics: a netd answers for itself, a router merges shards.
    let fleet = NetClient::connect(addr, ClientConfig::default())
        .ok()
        .and_then(|mut c| c.metrics().ok())
        .map(|frame| frame.restore());
    print_report(&tally, elapsed, fleet.as_ref(), o);

    if let Ok(mut c) = NetClient::connect(addr, ClientConfig::default()) {
        if let Ok(stats) = c.shard_stats() {
            println!();
            println!("-- shards --");
            for s in &stats {
                println!(
                    "shard {} state={:?} routed={} completed={} errors={} queue_full={} \
                     lost={} failovers={} breaker_open={}",
                    s.addr,
                    s.state,
                    s.routed,
                    s.completed,
                    s.errors,
                    s.queue_full,
                    s.lost,
                    s.failovers,
                    s.breaker_open
                );
            }
        }
    }
    if let Some(m) = &fleet {
        println!();
        println!("-- fleet metrics --");
        print!("{}", m.render_text());
    }

    let respawns = fleet.as_ref().map_or(0, |m| m.worker_respawns.load(Ordering::Relaxed));
    check_failures(&tally, respawns, o)
}

fn main() {
    let o = parse_args();
    let failed = match o.remote.clone() {
        Some(addr) => run_remote(&o, &addr),
        None => run_local(&o),
    };
    if failed {
        std::process::exit(1);
    }
}
