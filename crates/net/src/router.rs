//! `racod-router`: partitions plan traffic across a fleet of
//! `racod-netd` backends.
//!
//! # Map-affinity routing
//!
//! Requests hash by [`MapId`] onto a consistent-hash ring (each backend
//! owns `vnodes` virtual points), so all traffic for one map lands on one
//! shard and keeps that shard's map artifacts, footprint templates, and
//! scratch arenas hot — the same warm-pool locality argument the paper
//! makes for dedicating CoD units, applied fleet-wide. Sharding is a
//! *cache-warmth* optimization, not a data-placement constraint: every
//! backend registers the full world, so failover to the ring successor
//! changes which shard answers, never the answer itself.
//!
//! # Failure handling
//!
//! Three mechanisms, layered:
//!
//! - **Health probes** mark a shard `Up`, `Draining`, or `Down`; the
//!   router walks the ring past unavailable shards (counted as
//!   failovers).
//! - **A circuit breaker per shard** (the same three-state breaker the
//!   scheduler uses per platform) trips after consecutive transport
//!   failures, sheds traffic to ring successors during cooldown, and
//!   re-admits via single half-open probes.
//! - **Bounded in-flight permits per shard** surface overload as an
//!   honest [`Rejected::QueueFull`] instead of buffering unboundedly —
//!   deliberately *without* spilling to other shards, so saturation is
//!   visible to clients (who own backoff) rather than masked until the
//!   whole fleet is saturated.
//!
//! Retry across shards happens only when the request provably did not
//! reach a scheduler (connect/send failed — see the frame-atomicity
//! invariant on [`FramedConn`]). A response that fails to arrive after a
//! successful send is answered [`Outcome::Lost`], preserving the
//! at-most-once execution contract end to end.

use crate::client::ClientConfig;
use crate::conn::{ConnConfig, ConnError, FramedConn, Recv};
use crate::proto::{Health, Message, MetricsFrame, ShardStat, ShardState, WireResult};
use racod_fault::{fnv1a, mix64};
use racod_server::{
    BreakerConfig, CircuitBreaker, MapId, Outcome, PlanRequest, PlanResponse, Rejected, Route,
    ServerMetrics,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to listen on.
    pub addr: String,
    /// Backend netd addresses. Order is identity: shard *i* is
    /// `backends[i]` in stats and logs.
    pub backends: Vec<SocketAddr>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Per-shard circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Bound on concurrently outstanding requests per shard; excess is
    /// answered [`Rejected::QueueFull`].
    pub per_shard_inflight: u64,
    /// Cap on pooled idle connections per shard.
    pub pool_cap: usize,
    /// Framing config for client-facing connections.
    pub conn: ConnConfig,
    /// Client config for router→backend connections (response timeout
    /// must cover worst-case backend service time).
    pub backend: ClientConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(50),
            breaker: BreakerConfig::default(),
            per_shard_inflight: 64,
            pool_cap: 16,
            conn: ConnConfig::default(),
            backend: ClientConfig::default(),
        }
    }
}

struct Shard {
    addr: SocketAddr,
    state: AtomicU8,
    pool: Mutex<Vec<FramedConn>>,
    inflight: AtomicU64,
    breaker: CircuitBreaker,
    routed: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    queue_full: AtomicU64,
    lost: AtomicU64,
    failovers: AtomicU64,
}

impl Shard {
    fn state(&self) -> ShardState {
        match self.state.load(Ordering::Relaxed) {
            0 => ShardState::Down,
            2 => ShardState::Draining,
            _ => ShardState::Up,
        }
    }

    fn set_state(&self, s: ShardState) {
        self.state.store(s as u8, Ordering::Relaxed);
    }

    fn stat(&self) -> ShardStat {
        ShardStat {
            addr: self.addr.to_string(),
            state: self.state(),
            routed: self.routed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            breaker_open: self.breaker.is_open(),
        }
    }
}

struct Shared {
    cfg: RouterConfig,
    shards: Vec<Shard>,
    /// Sorted `(point, shard index)` ring.
    ring: Vec<(u64, usize)>,
    draining: AtomicBool,
    stop: AtomicBool,
    corr: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
}

fn map_key(map: &MapId) -> u64 {
    mix64(fnv1a(map.as_str().as_bytes()))
}

impl Shared {
    /// Candidate shard indices for a map: the ring successor of the map's
    /// point, then further successors, each distinct shard once.
    fn candidates(&self, map: &MapId) -> Vec<usize> {
        if self.ring.is_empty() {
            return Vec::new();
        }
        let key = map_key(map);
        let start = self.ring.partition_point(|(p, _)| *p < key) % self.ring.len();
        let mut seen = vec![false; self.shards.len()];
        let mut order = Vec::with_capacity(self.shards.len());
        for i in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + i) % self.ring.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }

    /// Broadcasts a map-delta batch to every reachable shard. Each shard
    /// owns a full replica of the world, so all of them must see the
    /// mutation; replicas apply the same batch to the same versioned map
    /// and agree on the outcome, so the first successful answer is
    /// returned. `None` means no shard accepted the batch.
    fn route_deltas(&self, map: &str, deltas: &[racod_grid::GridDelta2]) -> Option<(u64, u64)> {
        if self.draining.load(Ordering::Relaxed) {
            return None;
        }
        let mut result = None;
        for shard in self.shards.iter() {
            if matches!(shard.state(), ShardState::Down) {
                continue;
            }
            let Ok(mut conn) = self.backend_conn(shard) else {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let msg = Message::MapDeltaReq { map: map.to_string(), deltas: deltas.to_vec() };
            if conn.send(&msg).is_err() {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match conn.recv_timeout(self.cfg.backend.response_timeout) {
                Ok(Recv::Msg(m)) => {
                    if let Message::MapDeltaResp(r) = *m {
                        self.return_conn(shard, conn);
                        if result.is_none() {
                            result = r;
                        }
                    } else {
                        shard.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    shard.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        result
    }

    fn backend_conn(&self, shard: &Shard) -> io::Result<FramedConn> {
        if let Some(conn) = shard.pool.lock().unwrap().pop() {
            return Ok(conn);
        }
        let stream = TcpStream::connect_timeout(&shard.addr, self.cfg.backend.connect_timeout)?;
        let mut cc = self.cfg.backend.conn.clone();
        cc.fault_salt ^= fnv1a(shard.addr.to_string().as_bytes());
        FramedConn::new(stream, cc)
    }

    fn return_conn(&self, shard: &Shard, conn: FramedConn) {
        let mut pool = shard.pool.lock().unwrap();
        if pool.len() < self.cfg.pool_cap {
            pool.push(conn);
        }
    }

    /// Routes one plan request, failing over across ring successors where
    /// safe. Returns what the client should hear.
    fn route_plan(&self, req: &PlanRequest) -> WireResult {
        if self.draining.load(Ordering::Relaxed) {
            return WireResult::Rejected(Rejected::ShuttingDown);
        }
        let candidates = self.candidates(&req.map);
        for (rank, &idx) in candidates.iter().enumerate() {
            let shard = &self.shards[idx];
            if !matches!(shard.state(), ShardState::Up) {
                continue;
            }
            // Bounded per-shard in-flight: overload surfaces as QueueFull
            // rather than spilling to the next shard, so saturation stays
            // visible to the client that owns backoff. Checked before the
            // breaker so a rejection never consumes the half-open probe
            // slot.
            let permits = shard.inflight.fetch_add(1, Ordering::Relaxed);
            if permits >= self.cfg.per_shard_inflight {
                shard.inflight.fetch_sub(1, Ordering::Relaxed);
                shard.queue_full.fetch_add(1, Ordering::Relaxed);
                return WireResult::Rejected(Rejected::QueueFull);
            }
            let route = shard.breaker.route();
            if route == Route::Fallback {
                // Breaker cooling down: this shard is shed; try successor.
                shard.inflight.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            if rank > 0 {
                shard.failovers.fetch_add(1, Ordering::Relaxed);
            }
            shard.routed.fetch_add(1, Ordering::Relaxed);
            let result = self.try_shard(shard, route, req);
            shard.inflight.fetch_sub(1, Ordering::Relaxed);
            match result {
                ShardAttempt::Answered(result) => {
                    shard.completed.fetch_add(1, Ordering::Relaxed);
                    return result;
                }
                ShardAttempt::NotDelivered => {
                    // The request provably never reached the scheduler;
                    // trying the next ring successor cannot double-run it.
                    continue;
                }
                ShardAttempt::Lost => {
                    shard.lost.fetch_add(1, Ordering::Relaxed);
                    return WireResult::Done(PlanResponse {
                        id: 0,
                        outcome: Outcome::Lost,
                        worker: usize::MAX,
                    });
                }
            }
        }
        WireResult::Rejected(Rejected::ShuttingDown)
    }

    fn try_shard(&self, shard: &Shard, route: Route, req: &PlanRequest) -> ShardAttempt {
        let mut conn = match self.backend_conn(shard) {
            Ok(c) => c,
            Err(_) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                shard.breaker.record(route, false);
                return ShardAttempt::NotDelivered;
            }
        };
        let corr = self.corr.fetch_add(1, Ordering::Relaxed) + 1;
        if conn.send(&Message::PlanReq { corr, req: req.clone() }).is_err() {
            // A failed send is never acted on by the peer (frame
            // atomicity), so this attempt is safely retryable elsewhere.
            shard.errors.fetch_add(1, Ordering::Relaxed);
            shard.breaker.record(route, false);
            return ShardAttempt::NotDelivered;
        }
        match conn.recv_timeout(self.cfg.backend.response_timeout) {
            Ok(Recv::Msg(m)) if matches!(&*m, Message::PlanResp { corr: got, .. } if *got == corr) =>
            {
                let Message::PlanResp { result, .. } = *m else { unreachable!() };
                shard.breaker.record(route, true);
                self.return_conn(shard, conn);
                ShardAttempt::Answered(result)
            }
            Ok(_) | Err(ConnError::Protocol(_)) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                shard.breaker.record(route, false);
                ShardAttempt::Lost
            }
            Err(ConnError::Io(_)) => {
                // Delivered but unanswered: the shard may be mid-search.
                // Retrying elsewhere could run the plan twice; answer
                // honestly instead.
                shard.errors.fetch_add(1, Ordering::Relaxed);
                shard.breaker.record(route, false);
                ShardAttempt::Lost
            }
        }
    }

    /// Fetches and merges every reachable shard's metrics into one fleet
    /// view.
    fn fleet_metrics(&self) -> MetricsFrame {
        let fleet = ServerMetrics::new();
        for shard in &self.shards {
            if matches!(shard.state(), ShardState::Down) {
                continue;
            }
            let mut conn = match self.backend_conn(shard) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if conn.send(&Message::MetricsReq).is_err() {
                continue;
            }
            match conn.recv_timeout(self.cfg.backend.response_timeout) {
                Ok(Recv::Msg(m)) => {
                    if let Message::MetricsResp(frame) = *m {
                        fleet.merge(&frame.restore());
                        self.return_conn(shard, conn);
                    }
                }
                _ => continue,
            }
        }
        MetricsFrame::snapshot(&fleet)
    }

    fn health(&self) -> Health {
        let in_system: u64 = self.shards.iter().map(|s| s.inflight.load(Ordering::Relaxed)).sum();
        Health {
            draining: self.draining.load(Ordering::Relaxed),
            in_system,
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

enum ShardAttempt {
    /// The shard answered; relay its result.
    Answered(WireResult),
    /// The request never reached a scheduler; safe to fail over.
    NotDelivered,
    /// Delivered but unanswered; must surface as `Lost`.
    Lost,
}

/// A running router. Dropping it shuts everything down.
pub struct Router {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds, spawns the prober and accept loop, and returns.
    pub fn start(cfg: RouterConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut ring = Vec::with_capacity(cfg.backends.len() * cfg.vnodes);
        let shards: Vec<Shard> = cfg
            .backends
            .iter()
            .enumerate()
            .map(|(i, &baddr)| {
                let base = fnv1a(baddr.to_string().as_bytes());
                for v in 0..cfg.vnodes {
                    ring.push((mix64(base ^ mix64(v as u64 + 1)), i));
                }
                Shard {
                    addr: baddr,
                    // Probes promote to Up; starting Down avoids routing
                    // into backends that never existed.
                    state: AtomicU8::new(ShardState::Down as u8),
                    pool: Mutex::new(Vec::new()),
                    inflight: AtomicU64::new(0),
                    breaker: CircuitBreaker::new(cfg.breaker),
                    routed: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                    queue_full: AtomicU64::new(0),
                    lost: AtomicU64::new(0),
                    failovers: AtomicU64::new(0),
                }
            })
            .collect();
        ring.sort_unstable();
        let shared = Arc::new(Shared {
            cfg,
            shards,
            ring,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            corr: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        // Synchronous first probe round so the router is routable the
        // moment start() returns.
        probe_round(&shared);
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        {
            let s = Arc::clone(&shared);
            let ct = Arc::clone(&conn_threads);
            threads.push(
                std::thread::Builder::new()
                    .name("router-accept".into())
                    .spawn(move || accept_loop(listener, s, ct))
                    .expect("spawn router accept thread"),
            );
        }
        {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("router-probe".into())
                    .spawn(move || prober(s))
                    .expect("spawn router probe thread"),
            );
        }
        Ok(Router { shared, addr, threads, conn_threads })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-shard routing stats.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shared.shards.iter().map(|s| s.stat()).collect()
    }

    /// Stops accepting, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn probe_round(shared: &Arc<Shared>) {
    for shard in &shared.shards {
        let mut conn = match shared.backend_conn(shard) {
            Ok(c) => c,
            Err(_) => {
                shard.set_state(ShardState::Down);
                continue;
            }
        };
        if conn.send(&Message::HealthReq).is_err() {
            shard.set_state(ShardState::Down);
            continue;
        }
        match conn.recv_timeout(shared.cfg.probe_interval.max(Duration::from_millis(250))) {
            Ok(Recv::Msg(m)) => {
                if let Message::HealthResp(h) = *m {
                    shard.set_state(if h.draining { ShardState::Draining } else { ShardState::Up });
                    shared.return_conn(shard, conn);
                } else {
                    shard.set_state(ShardState::Down);
                }
            }
            _ => shard.set_state(ShardState::Down),
        }
    }
}

fn prober(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(shared.cfg.probe_interval);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        probe_round(&shared);
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_id = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_id += 1;
                let s = Arc::clone(&shared);
                let id = conn_id;
                let handle = std::thread::Builder::new()
                    .name(format!("router-conn-{id}"))
                    .spawn(move || handle_conn(stream, id, s))
                    .expect("spawn router connection thread");
                conn_threads.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(stream: TcpStream, conn_id: u64, shared: Arc<Shared>) {
    let mut cfg = shared.cfg.conn.clone();
    cfg.fault_salt ^= mix64(conn_id ^ 0xB0B0);
    let mut conn = match FramedConn::new(stream, cfg) {
        Ok(c) => c,
        Err(_) => return,
    };
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let msg = match conn.recv() {
            Ok(Recv::Msg(m)) => *m,
            Ok(Recv::Idle) => continue,
            Ok(Recv::Closed) | Err(_) => return,
        };
        let reply = match msg {
            Message::PlanReq { corr, req } => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let result = shared.route_plan(&req);
                shared.completed.fetch_add(1, Ordering::Relaxed);
                Message::PlanResp { corr, result }
            }
            Message::MetricsReq => Message::MetricsResp(shared.fleet_metrics()),
            Message::HealthReq => Message::HealthResp(shared.health()),
            Message::DrainReq => {
                shared.draining.store(true, Ordering::Relaxed);
                Message::DrainResp(true)
            }
            Message::ShardStatsReq => {
                Message::ShardStatsResp(shared.shards.iter().map(|s| s.stat()).collect())
            }
            Message::MapDeltaReq { map, deltas } => {
                Message::MapDeltaResp(shared.route_deltas(&map, &deltas))
            }
            Message::PlanResp { .. }
            | Message::MetricsResp(_)
            | Message::HealthResp(_)
            | Message::DrainResp(_)
            | Message::ShardStatsResp(_)
            | Message::MapDeltaResp(_) => return,
        };
        if conn.send(&reply).is_err() {
            return;
        }
    }
}
