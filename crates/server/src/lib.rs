//! racod-server: a multi-tenant planning service over the RACOD stack.
//!
//! The service turns the repository's planner ([`racod_sim::plan_in`], on
//! every [`Platform`]) into a long-running, shared facility:
//!
//! * **Admission control** — a bounded ingress queue; submissions beyond
//!   capacity are rejected with [`Rejected::QueueFull`] instead of blocking
//!   the caller ([`PlanServer::submit`] never waits).
//! * **Deadline-aware scheduling** — queued requests are ordered by
//!   (priority, deadline, arrival); requests that expire while queued are
//!   answered [`Outcome::TimedOut`] without wasting planner time.
//! * **Mid-search interruption** — each request's deadline and cancel flag
//!   travel into the search as a [`racod_search::Interrupt`] polled every
//!   [`racod_search::AstarConfig::poll_interval`] expansions, so a doomed
//!   request frees its worker within one poll batch instead of running an
//!   arbitrarily long search to completion ([`TimeoutStage::MidSearch`]).
//! * **Map-affinity batching** — the dispatcher prefers handing a worker
//!   requests for the map it served last, so the worker's warm per-map
//!   [`racod_codacc::CodaccPool`] (the simulated CODAcc L0/L1 caches) is
//!   reused — the serving-layer analogue of the paper's observation that
//!   consecutive checks against one map exhibit high spatial locality.
//! * **Fault isolation** — each request executes under `catch_unwind`; a
//!   panicking request is answered [`Outcome::Panicked`] and the worker
//!   survives. A panic that kills a worker loop triggers a supervisor
//!   respawn and the affected requests resolve to [`Outcome::Lost`].
//! * **Latency metrics** — lock-free counters and log2-bucket histograms
//!   (p50/p95/p99 of queue wait, service, and total latency).
//! * **Graceful degradation** — deadline-infeasibility shedding at
//!   admission ([`Rejected::DeadlineInfeasible`]), per-platform circuit
//!   breakers that divert repeatedly failing accelerated platforms to the
//!   software checker ([`breaker`]), a respawn-storm guard on worker
//!   supervisors ([`worker::RespawnConfig`]), and checksum-verified map
//!   artifacts ([`registry`]). All of it is observable through dedicated
//!   `/metrics` counters, and all of it is exercised deterministically by
//!   the seeded fault-injection layer (`racod-fault`) threaded through
//!   every stage via [`ServerConfig::fault_plan`] — a `None` plan costs one
//!   branch per site.
//!
//! Determinism is preserved end to end: the server never mutates a request
//! (no endpoint snapping, no config rewriting), so a path computed through
//! the service is bit-identical to the same scenario planned by calling the
//! planner directly — the workspace test `determinism.rs` proves it.

pub mod alt;
pub mod breaker;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod retry;
pub mod scheduler;
pub mod trace;
pub mod wire;
pub mod worker;

pub use alt::AltConfig;
pub use breaker::{BreakerConfig, BreakerEvent, Breakers, CircuitBreaker, Route};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use registry::{AltFetch, Artifacts2, MapData, MapEntry, MapRegistry};
pub use request::{
    MapId, Outcome, PlanRequest, PlanResponse, Planned, PlannedPath, Platform, Priority, Rejected,
    RequestId, TimeoutStage, Workload,
};
pub use retry::{submit_with_retry, RetryOutcome, RetryPolicy};
pub use trace::{
    build_id, read_trace, read_trace_bytes, DeltaRecord, OutcomeKind, PlanRecord, RejectReason,
    RejectedRecord, TraceConfig, TraceError, TraceEvent, TraceFile, TraceHeader, TraceRecorder,
};
pub use worker::{RespawnConfig, WorkerContext};

/// The neighbourhood radius and chain depth that
/// `benchmark/src/ladder.rs` times [`racod_rasexp::speculation_targets`]
/// with. The server no longer speculates; pinned by
/// `benchmark/src/ladder.rs`; goes with ROADMAP item 1.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct SpeculationConfig {
    /// Chebyshev radius of the start/goal neighbourhoods.
    pub radius: i64,
    /// Length of the predicted start→goal chain.
    pub chain_depth: usize,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig { radius: 2, chain_depth: 8 }
    }
}

/// An empty stand-in for the removed precheck memo: it never wastes a
/// check. Pinned by `benchmark/src/ladder.rs`; goes with ROADMAP item 1.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecMemo2;

impl SpecMemo2 {
    /// Always 0.
    pub fn wasted(&self) -> u64 {
        0
    }
}

use racod_fault::{FaultPlan, FaultSite};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use scheduler::{urgency_key, Admitted, PendingQueue, ReplySlot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::Batch;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count. Zero is allowed (nothing executes — useful for
    /// testing pure admission behavior).
    pub workers: usize,
    /// Maximum number of admitted-but-unfinished requests. Submissions
    /// beyond this are rejected with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests per dispatched batch.
    pub batch_max: usize,
    /// How far (in deadline microseconds, within the same priority class) a
    /// worker's warm-map request may trail the globally most urgent request
    /// and still be chosen first.
    pub affinity_slack: Duration,
    /// Dispatcher wake-up period for deadline expiry sweeps when idle.
    pub tick: Duration,
    /// Deterministic fault-injection plan. `None` (the default, and the
    /// only sane production value) makes every instrumentation site a
    /// single branch; a plan is installed on the registry, the dispatcher,
    /// and every worker at [`PlanServer::start`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Circuit-breaker tuning for the accelerated platforms.
    pub breaker: BreakerConfig,
    /// Respawn-storm guard tuning for worker supervisors.
    pub respawn: RespawnConfig,
    /// Whether admission sheds requests whose deadline is infeasible given
    /// the measured backlog (see [`Rejected::DeadlineInfeasible`]).
    pub shed_infeasible: bool,
    /// Minimum completed-service samples before the shedding estimate is
    /// trusted (protects cold starts from bogus estimates).
    pub shed_min_samples: u64,
    /// ALT landmark heuristics (see [`alt`]). Off by default: landmarks
    /// keep optimal plan costs bit-identical but may return a different
    /// equal-cost path than a direct planner call.
    pub alt: AltConfig,
    /// Trace recording (see [`trace`]). `None` (the default) records
    /// nothing and costs one branch per request; `Some` appends every
    /// admission, rejection, delta batch, and outcome to a crash-safe
    /// binary log that `racod-cli replay` can re-execute bit-identically.
    pub trace: Option<TraceConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            batch_max: 8,
            affinity_slack: Duration::from_millis(5),
            tick: Duration::from_millis(2),
            fault_plan: None,
            breaker: BreakerConfig::default(),
            respawn: RespawnConfig::default(),
            shed_infeasible: true,
            shed_min_samples: 32,
            alt: AltConfig::default(),
            trace: None,
        }
    }
}

/// A claim ticket for one admitted request.
#[derive(Debug)]
pub struct Ticket {
    /// The request id the response will carry.
    pub id: RequestId,
    rx: Receiver<PlanResponse>,
    cancel: Arc<AtomicBool>,
    /// The response already received by a successful `wait_timeout`, so a
    /// later `wait` returns the same (honest) response instead of finding
    /// the channel empty and fabricating `Lost`.
    delivered: std::cell::RefCell<Option<PlanResponse>>,
}

impl Ticket {
    fn new(id: RequestId, rx: Receiver<PlanResponse>, cancel: Arc<AtomicBool>) -> Self {
        Ticket { id, rx, cancel, delivered: std::cell::RefCell::new(None) }
    }

    /// Blocks until the terminal response. If a previous
    /// [`wait_timeout`](Self::wait_timeout) already delivered it, returns
    /// that same response again.
    pub fn wait(self) -> PlanResponse {
        if let Some(resp) = self.delivered.borrow_mut().take() {
            return resp;
        }
        match self.rx.recv() {
            Ok(resp) => resp,
            // Channel torn down without a response (should not happen: the
            // reply slot's drop guard always sends) — report Lost.
            Err(_) => PlanResponse { id: self.id, outcome: Outcome::Lost, worker: usize::MAX },
        }
    }

    /// Waits up to `timeout`; `None` if no response arrived in time (the
    /// request keeps running — call `wait` again or drop the ticket). A
    /// delivered response is remembered: subsequent waits return a clone of
    /// it rather than a misleading [`Outcome::Lost`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<PlanResponse> {
        if let Some(resp) = self.delivered.borrow().as_ref() {
            return Some(resp.clone());
        }
        match self.rx.recv_timeout(timeout) {
            Ok(resp) => {
                *self.delivered.borrow_mut() = Some(resp.clone());
                Some(resp)
            }
            Err(_) => None,
        }
    }

    /// Requests cooperative cancellation: a request still queued resolves
    /// to [`Outcome::Cancelled`] without consuming planner time; one
    /// already executing is stopped at the search's next interrupt poll and
    /// also resolves to [`Outcome::Cancelled`] (individual collision checks
    /// run to completion, the search does not).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

/// The planning service. Create with [`PlanServer::start`]; dropping the
/// server shuts it down (pending requests resolve as cancelled).
pub struct PlanServer {
    registry: Arc<MapRegistry>,
    metrics: Arc<ServerMetrics>,
    breakers: Arc<Breakers>,
    cfg: ServerConfig,
    ingress_tx: Option<Sender<Admitted>>,
    alt_tx: Option<Sender<alt::AltTask>>,
    shutdown: Arc<AtomicBool>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    rebuilders: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    epoch: Instant,
    trace: Option<Arc<TraceRecorder>>,
    trace_writer: Option<JoinHandle<()>>,
}

impl PlanServer {
    /// Starts the dispatcher and worker threads.
    pub fn start(cfg: ServerConfig, registry: Arc<MapRegistry>) -> Self {
        let metrics = Arc::new(ServerMetrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let breakers = Arc::new(Breakers::new(cfg.breaker));
        if cfg.fault_plan.is_some() {
            // The MapLoad site lives in the registry's artifact builder;
            // installing here reaches maps registered before and after.
            registry.set_fault_plan(cfg.fault_plan.clone());
        }
        // Ingress capacity matches the admission limit so `try_send` after
        // an admission win can only fail on disconnect, never on capacity.
        let (ingress_tx, ingress_rx) = bounded::<Admitted>(cfg.queue_capacity.max(1));

        // Trace recording: header first (synchronously, so the file is
        // replayable the moment the first request lands), then an
        // append-only writer thread fed by a bounded never-blocking
        // channel. A recorder that fails to open degrades to not
        // recording — it must never take the service down with it.
        let mut trace = None;
        let mut trace_writer = None;
        if let Some(tc) = &cfg.trace {
            let header = TraceHeader {
                build: build_id(cfg.alt.enabled, false),
                tenant: tc.tenant.clone(),
                world_seed: tc.world_seed,
                map_size: tc.map_size,
                workers: cfg.workers.min(u32::MAX as usize) as u32,
                queue_capacity: cfg.queue_capacity.min(u32::MAX as usize) as u32,
                batch_max: cfg.batch_max.min(u32::MAX as usize) as u32,
                fault_seed: cfg.fault_plan.as_ref().map(|p| p.seed()),
                breaker: cfg.breaker.enabled,
                alt: cfg.alt.enabled,
                note: tc.note.clone(),
            };
            match TraceRecorder::create(tc, &header, metrics.clone()) {
                Ok((recorder, writer)) => {
                    trace = Some(recorder);
                    trace_writer = Some(writer);
                }
                Err(e) => eprintln!("racod-server: trace disabled ({}: {e})", tc.path.display()),
            }
        }

        let ctx = WorkerContext {
            breakers: breakers.clone(),
            fault: cfg.fault_plan.clone(),
            respawn: cfg.respawn,
            alt: cfg.alt,
        };
        let mut worker_txs = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            // Capacity-1 batch channels double as idleness signals: a full
            // channel means the worker still has undispatched work.
            let (tx, rx) = bounded::<Batch>(1);
            worker_txs.push(tx);
            workers.push(worker::spawn_worker(
                i,
                rx,
                metrics.clone(),
                shutdown.clone(),
                ctx.clone(),
            ));
        }

        let dispatcher = {
            let metrics = metrics.clone();
            let cfg2 = cfg.clone();
            std::thread::Builder::new()
                .name("racod-dispatcher".into())
                .spawn(move || dispatch_loop(ingress_rx, worker_txs, cfg2, metrics))
                .expect("spawn dispatcher")
        };

        // ALT rebuilder: deltas enqueue their map here (best effort), and
        // the rebuilder re-derives any stale landmark pack off the request
        // path so plans fall back to octile only while a rebuild is in
        // flight, never indefinitely.
        let mut alt_tx = None;
        let mut rebuilders = Vec::new();
        if cfg.alt.enabled && cfg.workers > 0 {
            let (tx, rx) = bounded::<alt::AltTask>(cfg.queue_capacity.max(1));
            alt_tx = Some(tx);
            let registry = registry.clone();
            let shutdown = shutdown.clone();
            let alt_cfg = cfg.alt;
            let metrics = metrics.clone();
            rebuilders.push(
                std::thread::Builder::new()
                    .name("racod-alt-rebuilder".into())
                    .spawn(move || alt::rebuilder_loop(rx, registry, shutdown, alt_cfg, metrics))
                    .expect("spawn alt rebuilder"),
            );
        }

        PlanServer {
            registry,
            metrics,
            breakers,
            cfg,
            ingress_tx: Some(ingress_tx),
            alt_tx,
            shutdown,
            dispatcher: Some(dispatcher),
            workers,
            rebuilders,
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            epoch: Instant::now(),
            trace,
            trace_writer,
        }
    }

    /// Service metrics (shared; live). The template-cache gauges
    /// (`template_keys`, `template_distinct`, `template_bytes`) are read
    /// from the registry's cache at this call.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        let census = self.registry.template_census();
        for (gauge, value) in [
            (&self.metrics.template_keys, census.keys),
            (&self.metrics.template_distinct, census.distinct),
            (&self.metrics.template_bytes, census.bytes),
        ] {
            gauge.store(value as u64, Ordering::Relaxed);
        }
        &self.metrics
    }

    /// The per-platform circuit breakers (shared; live). Exposed so tests
    /// and operators can observe trip/recovery state directly.
    pub fn breakers(&self) -> &Arc<Breakers> {
        &self.breakers
    }

    /// The map registry backing this server.
    pub fn registry(&self) -> &Arc<MapRegistry> {
        &self.registry
    }

    /// Applies a batch of grid deltas to a live 2D map. Returns the new
    /// map version and the number of cells that actually flipped, or
    /// `None` for an unknown or non-2D map.
    ///
    /// The registry handles consistency (snapshot swap, artifact patch);
    /// this wrapper only folds the outcome into the server's metrics. A
    /// request already executing finishes against the snapshot it took.
    pub fn apply_map_deltas(
        &self,
        id: &MapId,
        deltas: &[racod_grid::GridDelta2],
    ) -> Option<(u64, usize)> {
        let (version, changed) = self.registry.apply_deltas2(id, deltas)?;
        self.metrics.deltas_applied.fetch_add(changed as u64, Ordering::Relaxed);
        self.metrics.map_version.fetch_max(version, Ordering::Relaxed);
        if let Some(rec) = &self.trace {
            rec.record(TraceEvent::Delta(DeltaRecord {
                map: id.as_str().to_string(),
                version,
                changed: changed.min(u32::MAX as usize) as u32,
                deltas: deltas.to_vec(),
            }));
        }
        // Wake the ALT rebuilder for this map: its landmark pack (if one
        // was ever requested) is now version-fenced stale. Best effort — a
        // full channel just means a rebuild order is already queued.
        if let Some(tx) = &self.alt_tx {
            let _ = tx.try_send(id.clone());
        }
        Some((version, changed))
    }

    /// Records a refused submission (no-op when tracing is off).
    fn trace_rejection(&self, map: &MapId, reason: trace::RejectReason) {
        if let Some(rec) = &self.trace {
            rec.record(TraceEvent::Rejected(RejectedRecord {
                tenant: rec.tenant().to_string(),
                map: map.as_str().to_string(),
                reason,
            }));
        }
    }

    /// Submits a request. Never blocks: over-capacity submissions return
    /// [`Rejected::QueueFull`] immediately.
    pub fn submit(&self, req: PlanRequest) -> Result<Ticket, Rejected> {
        let m = &self.metrics;
        m.submitted.fetch_add(1, Ordering::Relaxed);
        if self.shutdown.load(Ordering::Relaxed) {
            self.trace_rejection(&req.map, trace::RejectReason::ShuttingDown);
            return Err(Rejected::ShuttingDown);
        }
        let Some(entry) = self.registry.get(&req.map) else {
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            self.trace_rejection(&req.map, trace::RejectReason::UnknownMap);
            return Err(Rejected::UnknownMap(req.map));
        };
        let dim_ok = match req.workload {
            Workload::Plan2 { .. } => entry.is_2d(),
            Workload::Plan3 { .. } => !entry.is_2d(),
            Workload::Poison | Workload::PoisonWorker => true,
        };
        if !dim_ok {
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            self.trace_rejection(&req.map, trace::RejectReason::DimensionMismatch);
            return Err(Rejected::DimensionMismatch);
        }
        if !req.in_range() {
            m.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            self.trace_rejection(&req.map, trace::RejectReason::InvalidRequest);
            return Err(Rejected::InvalidRequest);
        }

        // Admission fault site (chaos only): models a stalled admission
        // path. A `None` plan costs one branch.
        if let Some(plan) = &self.cfg.fault_plan {
            let _ = plan.perturb(FaultSite::Admission, self.next_id.load(Ordering::Relaxed));
        }

        // Deadline-infeasibility shedding: if the measured mean service
        // time times the backlog already exceeds the request's whole
        // deadline budget, admitting it only burns queue capacity on a
        // guaranteed timeout — reject now so the client can degrade (drop
        // a frame, replan coarser) instead of waiting to fail. Gated on a
        // minimum sample count so cold starts never shed.
        if self.cfg.shed_infeasible && self.cfg.workers > 0 {
            if let Some(deadline) = req.deadline {
                if m.service.count() >= self.cfg.shed_min_samples.max(1) {
                    let backlog = m.in_system.load(Ordering::Relaxed).min(u32::MAX as u64) as u32;
                    let estimated_wait =
                        m.service.mean() * backlog / (self.cfg.workers as u32).max(1);
                    if estimated_wait > deadline {
                        m.shed_infeasible.fetch_add(1, Ordering::Relaxed);
                        self.trace_rejection(&req.map, trace::RejectReason::DeadlineInfeasible);
                        return Err(Rejected::DeadlineInfeasible { estimated_wait, deadline });
                    }
                }
            }
        }

        // Admission: atomically claim a slot below capacity.
        let cap = self.cfg.queue_capacity as u64;
        if m.in_system
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
            .is_err()
        {
            m.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            self.trace_rejection(&req.map, trace::RejectReason::QueueFull);
            return Err(Rejected::QueueFull);
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let submitted_at = Instant::now();
        let deadline_at = req.deadline.map(|d| submitted_at + d);
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<PlanResponse>(1);
        let mut reply = ReplySlot::new(id, tx, m.clone());
        if let Some(rec) = &self.trace {
            // Pin the map version fence now, at admission: replay applies
            // every recorded delta up to (and including) this version
            // before resubmitting the request.
            reply.attach_trace(Box::new(trace::PendingTrace {
                recorder: rec.clone(),
                record: PlanRecord::pending(id, rec.tenant(), &req, entry.version2()),
                entry: entry.clone(),
                submitted_at,
            }));
        }
        let admitted = Admitted {
            id,
            key: urgency_key(req.priority, self.epoch, deadline_at, seq),
            req,
            entry,
            submitted_at,
            deadline_at,
            cancel: cancel.clone(),
            reply,
        };
        let Some(ingress) = &self.ingress_tx else {
            return Err(Rejected::ShuttingDown); // slot released by ReplySlot drop
        };
        if ingress.try_send(admitted).is_err() {
            // Disconnected (shutdown race) — the dropped Admitted's reply
            // slot released the admission slot.
            return Err(Rejected::ShuttingDown);
        }
        m.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket::new(id, rx, cancel))
    }

    /// Plain-text metrics page, plus the build-identifier info line (so a
    /// scrape records exactly which build — git hash, SIMD level, config
    /// switches — produced these numbers).
    pub fn render_metrics(&self) -> String {
        let mut out = self.metrics.render_text();
        out.push_str(&format!(
            "racod_server_build_info{{id=\"{}\"}} 1\n",
            build_id(self.cfg.alt.enabled, false)
        ));
        out
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Closing ingress wakes the dispatcher; it drains pending requests
        // (answering Cancelled), drops the worker channels, and exits;
        // workers then see disconnect and exit.
        self.ingress_tx.take();
        self.alt_tx.take();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for r in self.rebuilders.drain(..) {
            let _ = r.join();
        }
        // Trace shutdown comes last: with every thread joined, all reply
        // slots have resolved and released their recorder clones, so
        // dropping ours disconnects the writer's channel; joining it then
        // guarantees every recorded event is durable (the writer drains
        // and fsyncs before exiting).
        self.trace.take();
        if let Some(w) = self.trace_writer.take() {
            let _ = w.join();
        }
    }
}

fn dispatch_loop(
    ingress: Receiver<Admitted>,
    worker_txs: Vec<Sender<Batch>>,
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
) {
    let mut pending = PendingQueue::new();
    let mut last_map: Vec<Option<MapId>> = vec![None; worker_txs.len()];
    let mut alive: Vec<bool> = vec![true; worker_txs.len()];
    let mut dispatch_tick: u64 = 0;
    let slack_us = cfg.affinity_slack.as_micros().min(u64::MAX as u128) as u64;
    'main: loop {
        // Dispatch fault site (chaos only): a Delay here stalls the ingress
        // queue, building backlog exactly as a wedged dispatcher would.
        if let Some(plan) = &cfg.fault_plan {
            dispatch_tick = dispatch_tick.wrapping_add(1);
            let _ = plan.perturb(FaultSite::Dispatch, dispatch_tick);
        }
        // Block briefly for new work, then drain whatever arrived.
        match ingress.recv_timeout(cfg.tick) {
            Ok(item) => pending.push(item),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'main,
        }
        while let Ok(item) = ingress.try_recv() {
            pending.push(item);
        }

        // Expiry and cancellation sweep: answer without dispatching.
        let now = Instant::now();
        for item in pending.drain_where(|i| i.cancelled() || i.expired(now)) {
            let outcome = if item.cancelled() {
                Outcome::Cancelled
            } else {
                Outcome::TimedOut {
                    queued_for: now.duration_since(item.submitted_at),
                    stage: TimeoutStage::Queued,
                }
            };
            item.reply.finish(outcome, usize::MAX);
        }

        // Hand batches to idle workers, preferring each worker's warm map.
        for (wi, tx) in worker_txs.iter().enumerate() {
            if pending.is_empty() {
                break;
            }
            if alive[wi] && tx.is_empty() {
                let batch = pending.take_batch(cfg.batch_max, last_map[wi].as_ref(), slack_us);
                if batch.is_empty() {
                    continue;
                }
                metrics.record_batch_size(batch.len());
                let map = batch[0].req.map.clone();
                let hit = last_map[wi].as_ref() == Some(&map);
                if hit {
                    metrics.affinity_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    metrics.affinity_misses.fetch_add(1, Ordering::Relaxed);
                }
                last_map[wi] = Some(map);
                if let Err(e) = tx.try_send(batch) {
                    // Worker raced to busy or died; requeue the batch.
                    let batch = match e {
                        crossbeam::channel::TrySendError::Full(b) => b,
                        crossbeam::channel::TrySendError::Disconnected(b) => {
                            // The slot's supervisor abandoned it (respawn
                            // storm): stop offering it work.
                            alive[wi] = false;
                            b
                        }
                    };
                    for item in batch {
                        pending.push(item);
                    }
                }
            }
        }

        // Every worker slot has been abandoned: nothing will ever drain the
        // queue, so resolve what's pending as Lost instead of letting
        // tickets hang until their deadlines (or forever).
        if !worker_txs.is_empty() && alive.iter().all(|a| !a) {
            for item in pending.drain_all() {
                item.reply.finish(Outcome::Lost, usize::MAX);
            }
        }
    }
    // Shutdown: answer everything still queued.
    while let Ok(item) = ingress.try_recv() {
        pending.push(item);
    }
    for item in pending.drain_all() {
        item.reply.finish(Outcome::Cancelled, usize::MAX);
    }
    // Dropping worker_txs disconnects the workers.
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::Cell2;
    use racod_grid::gen::{city_map, CityName};

    fn small_registry() -> Arc<MapRegistry> {
        let reg = MapRegistry::new();
        reg.insert_grid2("boston", city_map(CityName::Boston, 96, 96));
        Arc::new(reg)
    }

    #[test]
    fn submit_unknown_map_rejected() {
        let server =
            PlanServer::start(ServerConfig { workers: 0, ..Default::default() }, small_registry());
        let err = server
            .submit(PlanRequest::plan2("nowhere", Cell2::new(1, 1), Cell2::new(2, 2)))
            .unwrap_err();
        assert!(matches!(err, Rejected::UnknownMap(_)));
    }

    #[test]
    fn submit_dimension_mismatch_rejected() {
        let server =
            PlanServer::start(ServerConfig { workers: 0, ..Default::default() }, small_registry());
        let err = server
            .submit(PlanRequest::plan3(
                "boston",
                racod_geom::Cell3::new(0, 0, 0),
                racod_geom::Cell3::new(1, 1, 1),
            ))
            .unwrap_err();
        assert!(matches!(err, Rejected::DimensionMismatch));
    }

    #[test]
    fn ticket_cancel_resolves() {
        // No workers: the dispatcher answers the cancellation sweep.
        let server = PlanServer::start(
            ServerConfig { workers: 0, queue_capacity: 8, ..Default::default() },
            small_registry(),
        );
        let ticket = server
            .submit(PlanRequest::plan2("boston", Cell2::new(20, 20), Cell2::new(70, 70)))
            .unwrap();
        ticket.cancel();
        let resp = ticket.wait();
        assert!(matches!(resp.outcome, Outcome::Cancelled));
        assert_eq!(server.metrics().cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_after_wait_timeout_is_an_honest_duplicate() {
        let server = PlanServer::start(
            ServerConfig { workers: 1, queue_capacity: 8, ..Default::default() },
            small_registry(),
        );
        let ticket = server
            .submit(PlanRequest::plan2("boston", Cell2::new(20, 20), Cell2::new(70, 70)))
            .unwrap();
        // Poll until delivery.
        let first = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(200)) {
                break r;
            }
        };
        assert!(matches!(first.outcome, Outcome::Planned(_)));
        // A second wait_timeout and a final wait must replay the same
        // response, never fabricate Lost.
        let second = ticket.wait_timeout(Duration::from_millis(1)).expect("remembered");
        assert!(matches!(second.outcome, Outcome::Planned(_)));
        assert_eq!(second.id, first.id);
        let last = ticket.wait();
        assert!(matches!(last.outcome, Outcome::Planned(_)), "double-wait must not report Lost");
        assert_eq!(last.id, first.id);
    }
}
