//! The worker pool: executes map-affine batches with per-request panic
//! isolation, warm per-map accelerator state, and supervisor respawn.
//!
//! Each worker slot is one OS thread running a supervisor loop. The
//! supervisor wraps the serving loop in `catch_unwind`; if a panic ever
//! escapes the per-request boundary (a bug, or the `PoisonWorker` chaos
//! payload), the supervisor counts a respawn and re-enters the loop with
//! fresh state — requests lost with the dying loop resolve to
//! [`Outcome::Lost`] through their [`crate::scheduler::ReplySlot`] drop
//! guards, so no ticket ever hangs.
//!
//! Respawns are guarded against storms: each retry backs off
//! exponentially (capped), and a slot that keeps dying without serving
//! anything in between is abandoned after [`RespawnConfig::max_consecutive`]
//! respawns rather than burning a core forever. Serving any request resets
//! the streak.
//!
//! Accelerated platforms run behind per-kind circuit breakers
//! ([`crate::breaker::Breakers`]): repeated native failures divert traffic
//! to the software checker (bit-identical paths) until a half-open probe
//! succeeds.

use crate::breaker::{BreakerEvent, Breakers, Route};
use crate::metrics::ServerMetrics;
use crate::request::{MapId, Outcome, Planned, PlannedPath, Platform, TimeoutStage, Workload};
use crate::scheduler::Admitted;
use crossbeam::channel::Receiver;
use racod_codacc::CodaccPool;
use racod_fault::{mix64, FaultPlan, FaultSite};
use racod_geom::{Cell2, Cell3};
use racod_search::{Interrupt, InterruptReason, SearchScratch, Termination};
use racod_sim::oracle::{CheckProbe, CheckProbeSlot};
use racod_sim::{
    plan_in, Backend, CostModel, Dim, Scenario, Scenario2, Scenario3, VerdictMemo, D2, D3,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Respawn-storm guard tuning for worker supervisors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespawnConfig {
    /// Backoff before the first respawn; doubles every consecutive respawn.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
    /// Consecutive respawns (no request served in between) after which the
    /// slot is abandoned instead of respawned again.
    pub max_consecutive: u32,
}

impl Default for RespawnConfig {
    fn default() -> Self {
        RespawnConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            max_consecutive: 5,
        }
    }
}

fn backoff_for(cfg: &RespawnConfig, consecutive: u32) -> Duration {
    let exp = consecutive.saturating_sub(1).min(16);
    cfg.backoff_base.checked_mul(1u32 << exp).map_or(cfg.backoff_cap, |d| d.min(cfg.backoff_cap))
}

/// Shared robustness context handed to every worker slot.
#[derive(Debug, Clone)]
pub struct WorkerContext {
    /// Per-platform circuit breakers (shared across all workers so trips
    /// divert the whole fleet, not one slot).
    pub breakers: Arc<Breakers>,
    /// Fault-injection plan; `None` in production (zero-cost).
    pub fault: Option<Arc<FaultPlan>>,
    /// Respawn-storm guard tuning.
    pub respawn: RespawnConfig,
    /// ALT landmark-heuristic tuning; `enabled: false` (the default) keeps
    /// every search octile-guided and bit-identical to a direct planner
    /// call.
    pub alt: crate::alt::AltConfig,
}

/// A batch of same-map requests handed to one worker.
pub type Batch = Vec<Admitted>;

/// What one worker keeps warm per planning dimension, reused across every
/// request: the epoch-stamped search arena and the [`Backend::Native`]
/// verdict memo. After the first plan on the largest map, the steady-state
/// search allocates nothing.
struct WarmDim<D: Dim> {
    scratch: SearchScratch<D::Cell>,
    verdicts: VerdictMemo,
}

impl<D: Dim> WarmDim<D> {
    fn new() -> Self {
        WarmDim { scratch: SearchScratch::new(), verdicts: VerdictMemo::default() }
    }
}

/// Warm execution state owned by one worker: per-`(map, units)` CODAcc
/// pools whose L0/L1 caches hold lines of that map's grid, plus the
/// per-dimension arenas and verdict memos. A panicking request discards the
/// whole `WarmState` with the dying loop, so a poisoned arena never leaks
/// into a later search.
struct WarmState {
    pools: HashMap<(MapId, usize), CodaccPool>,
    d2: WarmDim<D2>,
    d3: WarmDim<D3>,
}

impl WarmState {
    fn new() -> Self {
        WarmState { pools: HashMap::new(), d2: WarmDim::new(), d3: WarmDim::new() }
    }

    /// Takes the pool for `(map, units)` out of the cache (re-inserted
    /// after a successful run; kept out if the run panics, so a poisoned
    /// pool never serves another request). Returns `(pool, was_warm)`.
    fn take(&mut self, map: &MapId, units: usize) -> (CodaccPool, bool) {
        match self.pools.remove(&(map.clone(), units)) {
            Some(pool) => (pool, true),
            None => (CodaccPool::new(units), false),
        }
    }

    fn put_back(&mut self, map: &MapId, pool: CodaccPool) {
        self.pools.insert((map.clone(), pool.units()), pool);
    }
}

/// Where a planning dimension's warm state and response path live.
trait Served: Dim {
    fn warm(warm: &mut WarmState) -> &mut WarmDim<Self>;
    fn path(path: Option<Vec<Self::Cell>>) -> PlannedPath;
}

impl Served for D2 {
    fn warm(warm: &mut WarmState) -> &mut WarmDim<D2> {
        &mut warm.d2
    }
    fn path(path: Option<Vec<Cell2>>) -> PlannedPath {
        PlannedPath::P2(path)
    }
}

impl Served for D3 {
    fn warm(warm: &mut WarmState) -> &mut WarmDim<D3> {
        &mut warm.d3
    }
    fn path(path: Option<Vec<Cell3>>) -> PlannedPath {
        PlannedPath::P3(path)
    }
}

/// Spawns one worker slot: a supervised thread consuming batches from `rx`.
pub fn spawn_worker(
    index: usize,
    rx: Receiver<Batch>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    ctx: WorkerContext,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("racod-worker-{index}"))
        .spawn(move || {
            // Requests resolved by this slot across all loop incarnations;
            // any progress between two panics resets the respawn streak, so
            // only back-to-back deaths with nothing served count toward the
            // storm cap.
            let progress = AtomicU64::new(0);
            let mut consecutive = 0u32;
            loop {
                let served_before = progress.load(Ordering::Relaxed);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(index, &rx, &metrics, &ctx, &progress);
                }));
                match run {
                    Ok(()) => break, // channel disconnected: orderly shutdown
                    Err(_) => {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        consecutive = if progress.load(Ordering::Relaxed) > served_before {
                            1
                        } else {
                            consecutive + 1
                        };
                        if consecutive > ctx.respawn.max_consecutive {
                            // Respawn storm: abandon the slot. Dropping `rx`
                            // tells the dispatcher this worker is gone.
                            metrics.workers_abandoned.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
                        // Exponential backoff before re-entering, sliced so
                        // shutdown is still noticed promptly.
                        let until = Instant::now() + backoff_for(&ctx.respawn, consecutive);
                        loop {
                            let now = Instant::now();
                            if now >= until || shutdown.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::sleep((until - now).min(Duration::from_millis(1)));
                        }
                    }
                }
            }
        })
        .expect("spawn worker thread")
}

fn worker_loop(
    index: usize,
    rx: &Receiver<Batch>,
    metrics: &Arc<ServerMetrics>,
    ctx: &WorkerContext,
    progress: &AtomicU64,
) {
    let mut warm = WarmState::new();
    while let Ok(batch) = rx.recv() {
        for item in batch {
            let now = Instant::now();
            if item.cancelled() {
                item.reply.finish(Outcome::Cancelled, index);
                progress.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if item.expired(now) {
                let queued_for = now.duration_since(item.submitted_at);
                item.reply
                    .finish(Outcome::TimedOut { queued_for, stage: TimeoutStage::Queued }, index);
                progress.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let queue_wait = now.duration_since(item.submitted_at);
            metrics.queue_wait.record(queue_wait);

            let Admitted { id, req, entry, reply, submitted_at, deadline_at, cancel, .. } = item;

            // Circuit-breaker routing: only plan workloads on accelerated
            // platforms are guarded (chaos payloads say nothing about
            // platform health). A tripped breaker reroutes to the software
            // checker — paths stay bit-identical by the determinism
            // invariant, only the execution platform changes.
            let breaker = match req.workload {
                Workload::Plan2 { .. } | Workload::Plan3 { .. } => {
                    ctx.breakers.for_platform(req.platform)
                }
                _ => None,
            };
            let route = breaker.map_or(Route::Native, |b| b.route());
            let platform = match route {
                Route::Fallback => {
                    metrics.breaker_fallbacks.fetch_add(1, Ordering::Relaxed);
                    Platform::SimSoftware { threads: 1, runahead: None }
                }
                Route::Probe => {
                    metrics.breaker_probes.fetch_add(1, Ordering::Relaxed);
                    req.platform
                }
                Route::Native => req.platform,
            };
            // Fault probes ride only on native/probe executions: the
            // fallback path is the degraded-but-trusted one, so breaker
            // recovery is observable even while the plan stays armed.
            let fault = match route {
                Route::Fallback => None,
                _ => ctx.fault.as_ref(),
            };

            // The request's deadline and cancel flag travel into the
            // search: every planner entry point polls this handle, so a
            // doomed request frees this worker within one poll batch.
            let interrupt = {
                let mut i = Interrupt::new().with_cancel_flag(cancel.clone());
                if let Some(at) = deadline_at {
                    i = i.with_deadline(at);
                }
                if let Some(plan) = fault {
                    // Mid-search site: fires at the search's cooperative
                    // interrupt polls, with a per-request deterministic
                    // token stream.
                    let plan = plan.clone();
                    let base = mix64(id ^ 0x4d69_6453);
                    let n = AtomicU64::new(0);
                    i = i.with_probe(Arc::new(move || {
                        let k = n.fetch_add(1, Ordering::Relaxed);
                        let _ = plan.perturb(FaultSite::MidSearch, base ^ k);
                    }));
                }
                i
            };
            let check_probe: Option<CheckProbe> = fault.map(|plan| {
                let plan = plan.clone();
                let base = mix64(id ^ 0x4d69_6443);
                let n = AtomicU64::new(0);
                Arc::new(move || {
                    let k = n.fetch_add(1, Ordering::Relaxed);
                    let _ = plan.perturb(FaultSite::MidCheck, base ^ k);
                }) as CheckProbe
            });

            let exec = catch_unwind(AssertUnwindSafe(|| {
                execute(
                    &req.workload,
                    platform,
                    &req.astar,
                    &interrupt,
                    check_probe,
                    &entry,
                    &mut warm,
                    metrics,
                    ctx.alt,
                )
            }));
            let service_time = Instant::now().duration_since(now);
            metrics.service.record(service_time);

            // Feed the breaker: native panics and deadline blowouts
            // mid-search are platform failures; cancellations and clean
            // completions are not. Fallback outcomes never count.
            let native_failure = match &exec {
                Err(payload) => !payload.is::<WorkerPoison>(),
                Ok((_, Termination::Interrupted(InterruptReason::Deadline))) => true,
                Ok(_) => false,
            };
            if let Some(b) = breaker {
                match b.record(route, !native_failure) {
                    BreakerEvent::Tripped => {
                        metrics.breaker_tripped.fetch_add(1, Ordering::Relaxed);
                    }
                    BreakerEvent::Recovered => {
                        metrics.breaker_recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    BreakerEvent::None => {}
                }
            }

            let outcome = match exec {
                Ok((planned, termination)) => match termination {
                    Termination::Interrupted(InterruptReason::Cancelled) => {
                        metrics.interrupted_mid_search.fetch_add(1, Ordering::Relaxed);
                        Outcome::Cancelled
                    }
                    Termination::Interrupted(InterruptReason::Deadline) => {
                        metrics.interrupted_mid_search.fetch_add(1, Ordering::Relaxed);
                        Outcome::TimedOut { queued_for: queue_wait, stage: TimeoutStage::MidSearch }
                    }
                    _ => {
                        let mut planned = planned;
                        planned.queue_wait = queue_wait;
                        planned.service_time = service_time;
                        Outcome::Planned(planned)
                    }
                },
                Err(payload) => {
                    if payload.is::<WorkerPoison>() {
                        // Chaos payload: re-raise past the per-request
                        // boundary so the supervisor observes a worker
                        // death. The dropped reply resolves as Lost.
                        drop(reply);
                        std::panic::resume_unwind(payload);
                    }
                    // `as_ref` matters: `&payload` would coerce the *Box*
                    // itself into `&dyn Any` and every downcast would miss.
                    Outcome::Panicked { message: panic_message(payload.as_ref()) }
                }
            };
            metrics.total.record(Instant::now().duration_since(submitted_at));
            // Completion site: fires *outside* the per-request boundary,
            // after planning but before the reply settles — a panic here
            // kills the loop and the dropped reply resolves as Lost, which
            // is exactly the containment the chaos suite asserts.
            if let Some(plan) = fault {
                let _ = plan.perturb(FaultSite::Completion, id);
            }
            reply.finish(outcome, index);
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one request against its pinned map entry, returning the plan
/// and how its search terminated (so the caller can map interruptions to
/// timeout/cancel outcomes). Panics propagate to the per-request
/// `catch_unwind` in [`worker_loop`] (which re-raises the [`WorkerPoison`]
/// marker to kill the whole loop).
#[allow(clippy::too_many_arguments)]
fn execute(
    workload: &Workload,
    platform: Platform,
    astar: &racod_search::AstarConfig,
    interrupt: &Interrupt,
    check_probe: Option<CheckProbe>,
    entry: &crate::registry::MapEntry,
    warm: &mut WarmState,
    metrics: &Arc<ServerMetrics>,
    alt: crate::alt::AltConfig,
) -> (Planned, Termination) {
    // Thread the request's interrupt into the search configuration; the
    // request itself is never mutated, and an unfired interrupt leaves the
    // search bit-identical to a direct planner call.
    let astar = {
        let mut a = astar.clone();
        a.interrupt = Some(interrupt.clone());
        a
    };
    match workload {
        Workload::Poison => panic!("poison request"),
        Workload::PoisonWorker => {
            std::panic::resume_unwind(Box::new(WorkerPoison));
        }
        Workload::Plan2 { start, goal, footprint } => {
            // One consistent `(grid, version)` snapshot: every oracle answer
            // comes from this immutable grid, so a delta landing mid-plan
            // cannot touch the answer.
            let (grid, v0) = entry.snapshot2().expect("dimension checked at admission");
            // Definite-infeasibility prefilter from the cached per-map
            // reachability artifact: if exactly one endpoint is in the
            // seed's free component no path can exist, and a direct planner
            // call would also return an empty path — skip the search. The
            // bundle is checksum-verified first; a corrupted one is
            // discarded and the request plans without the prefilter, so
            // correctness never rests on an unverified artifact. The
            // artifact tracks the *current* grid, so its verdict is only
            // trusted while the map still sits at our snapshot version.
            let (art, corrupted) = entry.artifacts2_verified();
            if corrupted {
                metrics.map_corruptions_detected.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(art) = art {
                if entry.version2() == v0 && art.definitely_disconnected(*start, *goal) {
                    return (
                        planned(PlannedPath::P2(None), f64::INFINITY, 0, 0, false),
                        Termination::Exhausted,
                    );
                }
            }
            // Version-fenced landmark fetch: the pack guides this plan only
            // if it was derived from exactly the snapshot grid (`v0`). A
            // stale or still-building pack means an octile fallback —
            // counted, never blocked on: the background rebuilder
            // republishes off the request path.
            let alt_pack = if alt.enabled {
                let (fetch, built) = entry.landmark_pack2(alt.landmarks, v0);
                if built {
                    metrics.alt_packs_built.fetch_add(1, Ordering::Relaxed);
                }
                match fetch {
                    crate::registry::AltFetch::Ready(p) => Some(p),
                    crate::registry::AltFetch::Stale => {
                        metrics.alt_pack_fallbacks.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                    crate::registry::AltFetch::Absent => None,
                }
            } else {
                None
            };
            let mut sc = Scenario2::new(&grid)
                .with_astar(astar)
                .with_template_cache(entry.template_cache2())
                .with_footprint(*footprint);
            (sc.start, sc.goal, sc.alt) = (*start, *goal, alt_pack);
            sc.check_probe = CheckProbeSlot(check_probe);
            run_platform(sc, platform, &entry.id, warm, metrics)
        }
        Workload::Plan3 { start, goal, footprint } => {
            let grid = entry.grid3().expect("dimension checked at admission");
            let mut sc = Scenario3::new(&grid)
                .with_astar(astar)
                .with_template_cache(entry.template_cache3())
                .with_footprint(*footprint);
            (sc.start, sc.goal) = (*start, *goal);
            sc.check_probe = CheckProbeSlot(check_probe);
            run_platform(sc, platform, &entry.id, warm, metrics)
        }
    }
}

/// Plans `sc` on `platform` with one [`plan_in`] call, once for both
/// dimensions. `sc.check_probe` carries the mid-check fault site.
fn run_platform<D: Served>(
    mut sc: Scenario<'_, D>,
    platform: Platform,
    map: &MapId,
    warm: &mut WarmState,
    metrics: &Arc<ServerMetrics>,
) -> (Planned, Termination) {
    let mut pooled = match platform {
        Platform::Racod { units } => Some(warm.take(map, units)),
        _ => None,
    };
    let WarmDim { scratch, verdicts } = D::warm(warm);
    let (backend, cost) = match (platform, &mut pooled) {
        (Platform::SimSoftware { threads, runahead }, _) => {
            // The mid-check fault site instruments the *native* checker
            // paths (RACOD's timed oracle, the `Threads` kernel checks);
            // the plain software path stays trusted so breaker fallbacks
            // demonstrably work while faults are armed.
            sc.check_probe = CheckProbeSlot::default();
            (Backend::software(threads, runahead), CostModel::i3_software())
        }
        (Platform::Racod { .. }, Some((pool, _))) => {
            (Backend::RacodPooled(pool), CostModel::racod())
        }
        (Platform::Racod { .. }, None) => unreachable!("a Racod plan takes its pool above"),
        // Served on this thread: a kernel check costs a fraction of a
        // microsecond and a hand-off to a pool thread several, so no pool
        // pays (EXPERIMENTS.md). `Native` reads no cost model.
        (Platform::Threads { .. }, _) => (Backend::Native(verdicts), CostModel::default()),
    };
    let out = plan_in(&sc, backend, &cost, scratch);
    let was_warm = match pooled {
        Some((pool, was_warm)) => {
            warm.put_back(map, pool);
            was_warm
        }
        None => false,
    };
    metrics.template_hits.fetch_add(out.tstats.hits, Ordering::Relaxed);
    metrics.template_misses.fetch_add(out.tstats.misses, Ordering::Relaxed);
    metrics.alt_expansions_saved.fetch_add(out.alt_tightened, Ordering::Relaxed);
    let r = out.result;
    if r.stats.scratch_reused {
        metrics.scratch_reuses.fetch_add(1, Ordering::Relaxed);
    } else {
        metrics.scratch_cold_starts.fetch_add(1, Ordering::Relaxed);
    }
    metrics.stale_pops.fetch_add(r.stats.stale_pops, Ordering::Relaxed);
    metrics.peak_open.fetch_max(r.stats.peak_open, Ordering::Relaxed);
    (planned(D::path(r.path), r.cost, r.stats.expansions, out.cycles, was_warm), r.termination)
}

/// Marker payload for the `PoisonWorker` chaos workload: the per-request
/// catch re-raises it so the worker loop itself dies and the supervisor
/// respawns the slot.
pub struct WorkerPoison;

fn planned(
    path: PlannedPath,
    cost: f64,
    expansions: u64,
    sim_cycles: u64,
    warm_start: bool,
) -> Planned {
    Planned {
        path,
        cost,
        expansions,
        sim_cycles,
        queue_wait: Default::default(),
        service_time: Default::default(),
        warm_start,
    }
}
