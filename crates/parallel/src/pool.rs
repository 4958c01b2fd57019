//! The worker pool and the threaded planner.

use crate::status::{StatusTable, WaitOutcome};
use crossbeam::channel::{unbounded, Receiver, Sender};
use racod_rasexp::{DirectedState, LastDirectionPredictor};
use racod_search::{
    astar_in, AstarConfig, CollisionOracle, ExpansionContext, Interrupt, InterruptReason,
    SearchResult, SearchScratch, SearchSpace, Termination,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Threaded-planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Runahead depth; `0` disables speculation (baseline multithreading).
    pub runahead: usize,
}

impl ParallelConfig {
    /// Baseline multithreading: demand checks fan out, no speculation.
    pub fn baseline(threads: usize) -> Self {
        ParallelConfig { threads, runahead: 0 }
    }

    /// Software RASExp with the given runahead depth.
    pub fn rasexp(threads: usize, runahead: usize) -> Self {
        ParallelConfig { threads, runahead }
    }
}

/// A completed threaded planning run.
#[derive(Debug, Clone)]
pub struct ParallelRun<S> {
    /// The search result (identical to a single-threaded run).
    pub result: SearchResult<S>,
    /// Wall-clock duration of the planning call.
    pub elapsed: Duration,
    /// Checks computed by workers on demand batches.
    pub demand_checks: u64,
    /// Speculative checks computed by workers.
    pub speculative_checks: u64,
    /// Demand requests served from the memo table (a speculative check
    /// already resolved the state by the time demand asked for it).
    pub memo_hits: u64,
    /// Demand requests that found another claim in flight and waited for
    /// it — the PENDING overlap of Algorithm 1. Distinct from `memo_hits`:
    /// the verdict was not yet available, only the work was deduplicated.
    pub overlap_waits: u64,
}

/// A batched collision predicate: fills one verdict per state of the slice.
type BatchedCheckFn<S> = dyn Fn(&[S], &mut Vec<bool>) + Send + Sync;

/// The check an episode's workers run: either a per-state predicate or a
/// batched one that fills one verdict per state (amortizing template lookup
/// and grid base-address math across the chunk).
enum CheckFn<S> {
    Single(Arc<dyn Fn(S) -> bool + Send + Sync>),
    Batched(Arc<BatchedCheckFn<S>>),
}

impl<S> Clone for CheckFn<S> {
    fn clone(&self) -> Self {
        match self {
            CheckFn::Single(f) => CheckFn::Single(f.clone()),
            CheckFn::Batched(f) => CheckFn::Batched(f.clone()),
        }
    }
}

impl<S: Copy> CheckFn<S> {
    fn check_one(&self, s: S) -> bool {
        match self {
            CheckFn::Single(f) => f(s),
            CheckFn::Batched(f) => {
                let mut out = Vec::with_capacity(1);
                f(&[s], &mut out);
                out.first().copied().unwrap_or(false)
            }
        }
    }

    /// Fills `out` with one verdict per state (pre-cleared by the caller).
    fn check_chunk(&self, states: &[S], out: &mut Vec<bool>) {
        match self {
            CheckFn::Single(f) => out.extend(states.iter().map(|&s| f(s))),
            CheckFn::Batched(f) => f(states, out),
        }
    }
}

/// One planning episode's shared check state. Jobs carry an `Arc` of their
/// episode, so stale speculative jobs from a finished plan can never
/// publish into a later plan's table.
struct Episode<S> {
    table: StatusTable,
    check: CheckFn<S>,
    /// Raised when the plan ends (normally or interrupted): workers drop
    /// any still-queued jobs for this episode instead of computing them.
    aborted: AtomicBool,
}

enum Job<S> {
    Check {
        state: S,
        idx: usize,
        episode: Arc<Episode<S>>,
    },
    /// A batch of claimed states resolved by one worker in a single check
    /// call; `states` and `idxs` are parallel arrays.
    CheckChunk {
        states: Vec<S>,
        idxs: Vec<usize>,
        episode: Arc<Episode<S>>,
    },
    Shutdown,
}

/// A persistent pool of collision-check worker threads.
///
/// The pool outlives individual planning calls: workers are spawned once
/// and reused across plans (and across maps — the check closure travels
/// with each episode, not with the pool), eliminating the per-request
/// thread spawn/join churn of a pool-per-call design. Share one pool
/// between planners with `Arc` and [`ParallelPlanner::with_pool`].
///
/// A panicking check closure poisons its episode's status table (releasing
/// any planner blocked on that verdict) but leaves the worker thread — and
/// thus the pool — healthy for subsequent plans.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool<S> {
    threads: usize,
    tx: Sender<Job<S>>,
    workers: Vec<JoinHandle<()>>,
    census: Arc<ThreadCensus>,
    /// Lifetime count of check closures that panicked (each one poisoned
    /// its episode). A pool-health signal for serving layers.
    check_panics: Arc<AtomicU64>,
}

/// One pool's own thread accounting: how many OS threads it has ever
/// spawned and how many of them have run to completion. Shared with the
/// workers, so it can be read after the pool is gone — `live() == 0` then
/// means `Drop` joined every thread the pool started.
#[derive(Debug, Default)]
pub struct ThreadCensus {
    spawned: AtomicUsize,
    exited: AtomicUsize,
}

impl ThreadCensus {
    /// Threads this pool has spawned over its lifetime.
    pub fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Acquire)
    }

    /// Spawned threads that have not yet finished.
    pub fn live(&self) -> usize {
        self.spawned() - self.exited.load(Ordering::Acquire)
    }
}

/// Marks its worker thread as exited however the thread body ends.
struct ExitMark(Arc<ThreadCensus>);

impl Drop for ExitMark {
    fn drop(&mut self) {
        self.0.exited.fetch_add(1, Ordering::Release);
    }
}

impl<S: Copy + Send + 'static> WorkerPool<S> {
    /// Spawns `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread");
        let (tx, rx) = unbounded::<Job<S>>();
        let check_panics = Arc::new(AtomicU64::new(0));
        let census = Arc::new(ThreadCensus::default());
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<Job<S>> = rx.clone();
                let check_panics = check_panics.clone();
                census.spawned.fetch_add(1, Ordering::Release);
                let exit = ExitMark(census.clone());
                std::thread::Builder::new()
                    .name(format!("racod-check-{i}"))
                    .spawn(move || {
                        let _exit = exit;
                        let mut verdicts: Vec<bool> = Vec::new();
                        while let Ok(job) = rx.recv() {
                            match job {
                                Job::Check { state, idx, episode } => {
                                    if episode.aborted.load(Ordering::Acquire) {
                                        continue;
                                    }
                                    let check = episode.check.clone();
                                    match catch_unwind(AssertUnwindSafe(move || {
                                        check.check_one(state)
                                    })) {
                                        Ok(free) => episode.table.publish(idx, free),
                                        // The verdict can never arrive;
                                        // release anyone waiting on it.
                                        Err(_) => {
                                            check_panics.fetch_add(1, Ordering::Relaxed);
                                            episode.table.poison();
                                        }
                                    }
                                }
                                Job::CheckChunk { states, idxs, episode } => {
                                    if episode.aborted.load(Ordering::Acquire) {
                                        continue;
                                    }
                                    verdicts.clear();
                                    let check = episode.check.clone();
                                    let ok = catch_unwind(AssertUnwindSafe(|| {
                                        check.check_chunk(&states, &mut verdicts)
                                    }))
                                    .is_ok()
                                        && verdicts.len() == idxs.len();
                                    if ok {
                                        for (&idx, &free) in idxs.iter().zip(verdicts.iter()) {
                                            episode.table.publish(idx, free);
                                        }
                                    } else {
                                        // A panicking or short-filling batch
                                        // check leaves verdicts undeliverable;
                                        // release anyone waiting on them.
                                        check_panics.fetch_add(1, Ordering::Relaxed);
                                        episode.table.poison();
                                    }
                                }
                                Job::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn check worker")
            })
            .collect();
        WorkerPool { threads, tx, workers, census, check_panics }
    }

    /// The pool's thread accounting: `spawned()` stays at
    /// [`WorkerPool::threads`] however many plans run on it. Clone the
    /// `Arc` to keep reading after the pool is dropped.
    pub fn census(&self) -> &Arc<ThreadCensus> {
        &self.census
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime count of panicking check closures across all episodes.
    pub fn check_panics(&self) -> u64 {
        self.check_panics.load(Ordering::Relaxed)
    }
}

impl<S> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.tx.send(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A planner that executes collision checks on a real thread pool, generic
/// over the search space (2D cities, 3D campuses, anything implementing
/// [`SearchSpace`] with [`DirectedState`] states).
///
/// The checker function is shared by every worker, so it must be
/// `Fn + Send + Sync` (typically a closure over an `Arc<BitGrid2>`).
pub struct ParallelPlanner<S> {
    config: ParallelConfig,
    check: CheckFn<S>,
    pool: Arc<WorkerPool<S>>,
}

impl<S> ParallelPlanner<S>
where
    S: DirectedState + Send + Sync + 'static,
{
    /// Creates a planner with the given configuration and checker, backed
    /// by a freshly spawned pool of `config.threads` workers that persists
    /// for the planner's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    pub fn new<F>(config: ParallelConfig, check: F) -> Self
    where
        F: Fn(S) -> bool + Send + Sync + 'static,
    {
        let pool = Arc::new(WorkerPool::new(config.threads.max(1)));
        Self::with_pool(config, check, pool)
    }

    /// Creates a planner on an existing shared pool — the server keeps one
    /// warm pool per thread-count and reuses it across requests, so no OS
    /// threads are spawned per call.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    pub fn with_pool<F>(config: ParallelConfig, check: F, pool: Arc<WorkerPool<S>>) -> Self
    where
        F: Fn(S) -> bool + Send + Sync + 'static,
    {
        assert!(config.threads > 0, "at least one worker thread");
        ParallelPlanner { config, check: CheckFn::Single(Arc::new(check)), pool }
    }

    /// Like [`ParallelPlanner::new`], but with a *batched* checker: claimed
    /// demand states of one expansion are fanned out in chunks and each
    /// chunk resolves in a single closure call, so the checker can amortize
    /// per-orientation work (e.g. [`racod-sim`'s `check_batch`][batch])
    /// across the wavefront. The closure must push exactly one verdict per
    /// state, in order; a short fill poisons the episode rather than
    /// hanging the planner. Verdicts — and therefore plans — are
    /// bit-identical to the per-state path.
    ///
    /// [batch]: ../racod_sim/struct.TemplateChecker.html
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    pub fn new_batched<F>(config: ParallelConfig, check: F) -> Self
    where
        F: Fn(&[S], &mut Vec<bool>) + Send + Sync + 'static,
    {
        let pool = Arc::new(WorkerPool::new(config.threads.max(1)));
        Self::with_pool_batched(config, check, pool)
    }

    /// [`ParallelPlanner::new_batched`] on an existing shared pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`.
    pub fn with_pool_batched<F>(config: ParallelConfig, check: F, pool: Arc<WorkerPool<S>>) -> Self
    where
        F: Fn(&[S], &mut Vec<bool>) + Send + Sync + 'static,
    {
        assert!(config.threads > 0, "at least one worker thread");
        ParallelPlanner { config, check: CheckFn::Batched(Arc::new(check)), pool }
    }

    /// The pool backing this planner.
    pub fn pool(&self) -> &Arc<WorkerPool<S>> {
        &self.pool
    }

    /// Plans from `start` to `goal` over `space` with the default search
    /// configuration.
    pub fn plan<Sp>(&self, space: &Sp, start: S, goal: S) -> ParallelRun<S>
    where
        Sp: SearchSpace<State = S>,
    {
        self.plan_config(space, start, goal, &AstarConfig::default())
    }

    /// Plans with an explicit [`AstarConfig`] — in particular one carrying
    /// an [`Interrupt`], which both the A* loop and any worker-verdict
    /// waits observe. Interrupted runs return
    /// [`Termination::Interrupted`] with no path; uninterrupted runs are
    /// bit-identical to a single-threaded search.
    ///
    /// The reported wall time covers the planning episode only — the
    /// persistent pool is already running.
    pub fn plan_config<Sp>(
        &self,
        space: &Sp,
        start: S,
        goal: S,
        config: &AstarConfig,
    ) -> ParallelRun<S>
    where
        Sp: SearchSpace<State = S>,
    {
        self.plan_config_in(space, start, goal, config, &mut SearchScratch::new())
    }

    /// [`ParallelPlanner::plan_config`] running the search inside a
    /// caller-owned [`SearchScratch`]; the speculation episode also borrows
    /// the scratch-owned demand buffers, so a warm caller performs no
    /// per-plan search allocation.
    pub fn plan_config_in<Sp>(
        &self,
        space: &Sp,
        start: S,
        goal: S,
        config: &AstarConfig,
        scratch: &mut SearchScratch<S>,
    ) -> ParallelRun<S>
    where
        Sp: SearchSpace<State = S>,
    {
        let episode = Arc::new(Episode {
            table: StatusTable::new(space.state_count()),
            check: self.check.clone(),
            aborted: AtomicBool::new(false),
        });

        let begin = Instant::now();
        let mut oracle = PoolOracle {
            space,
            episode: &episode,
            tx: &self.pool.tx,
            predictor: LastDirectionPredictor::new(self.config.runahead.max(1)),
            runahead: self.config.runahead,
            threads: self.config.threads,
            batched: matches!(self.check, CheckFn::Batched(_)),
            interrupt: config.interrupt.clone(),
            demand_checks: 0,
            speculative_checks: 0,
            memo_hits: 0,
            overlap_waits: 0,
            abandoned: None,
            waits: Vec::new(),
            resolved: Vec::new(),
            neigh: Vec::new(),
            chunk: Vec::new(),
        };
        let mut result = astar_in(space, start, goal, config, &mut oracle, scratch);
        let elapsed = begin.elapsed();
        let (demand_checks, speculative_checks, memo_hits, overlap_waits) = (
            oracle.demand_checks,
            oracle.speculative_checks,
            oracle.memo_hits,
            oracle.overlap_waits,
        );
        // If a verdict wait was abandoned, the oracle answered `false` for
        // states it never resolved — the search outcome past that point is
        // not a verdict, so surface the interruption instead.
        if let Some(reason) = oracle.abandoned {
            result.path = None;
            result.cost = f64::INFINITY;
            result.termination = Termination::Interrupted(reason);
        }
        // Stale speculative jobs still queued for this episode are dropped
        // by the workers rather than computed.
        episode.aborted.store(true, Ordering::Release);

        ParallelRun { result, elapsed, demand_checks, speculative_checks, memo_hits, overlap_waits }
    }
}

/// The oracle run by the planner thread: demand batches join; speculative
/// jobs are fire-and-forget.
struct PoolOracle<'a, Sp: SearchSpace> {
    space: &'a Sp,
    episode: &'a Arc<Episode<Sp::State>>,
    tx: &'a Sender<Job<Sp::State>>,
    predictor: LastDirectionPredictor,
    runahead: usize,
    threads: usize,
    /// Whether the episode's check is batched: claimed states are fanned
    /// out as chunk jobs instead of one job per state.
    batched: bool,
    interrupt: Option<Interrupt>,
    demand_checks: u64,
    speculative_checks: u64,
    memo_hits: u64,
    overlap_waits: u64,
    /// Set when a verdict wait returned without a verdict (poisoned table
    /// or fired interrupt); the plan must be reported as interrupted.
    abandoned: Option<InterruptReason>,
    /// Reused per-expansion buffers (no steady-state allocation): the
    /// indices awaiting worker verdicts, the per-demand resolution slots,
    /// and the runahead neighbor gather.
    waits: Vec<usize>,
    resolved: Vec<Option<bool>>,
    neigh: Vec<(Sp::State, f64)>,
    /// Claimed `(state, idx)` pairs gathered for chunked dispatch.
    chunk: Vec<(Sp::State, usize)>,
}

impl<'a, Sp> CollisionOracle<Sp> for PoolOracle<'a, Sp>
where
    Sp: SearchSpace,
    Sp::State: DirectedState + Send + Sync + 'static,
{
    fn resolve(&mut self, ctx: &ExpansionContext<Sp::State>, demand: &[Sp::State]) -> Vec<bool> {
        let mut out = Vec::with_capacity(demand.len());
        self.resolve_into(ctx, demand, &mut out);
        out
    }

    fn resolve_into(
        &mut self,
        ctx: &ExpansionContext<Sp::State>,
        demand: &[Sp::State],
        out: &mut Vec<bool>,
    ) {
        out.clear();
        // Once a wait has been abandoned the verdicts no longer matter —
        // answer "blocked" to drain the search to its next interrupt poll.
        if self.abandoned.is_some() {
            out.resize(demand.len(), false);
            return;
        }
        let table = &self.episode.table;
        // Issue demand jobs for unresolved states. The buffers live on the
        // oracle; move them out so `self.send` can borrow `self` meanwhile.
        let mut waits = std::mem::take(&mut self.waits);
        let mut resolved = std::mem::take(&mut self.resolved);
        let mut chunk = std::mem::take(&mut self.chunk);
        waits.clear();
        resolved.clear();
        chunk.clear();
        let mut outstanding = 0usize;
        for &s in demand {
            match self.space.index(s) {
                None => resolved.push(Some(false)),
                Some(idx) => {
                    if let Some(v) = table.get(idx) {
                        self.memo_hits += 1;
                        resolved.push(Some(v));
                    } else if table.try_claim(idx) {
                        self.demand_checks += 1;
                        outstanding += 1;
                        if self.batched {
                            chunk.push((s, idx));
                        } else {
                            self.send(Job::Check { state: s, idx, episode: self.episode.clone() });
                        }
                        waits.push(idx);
                        resolved.push(None);
                    } else {
                        // Another (speculative) claim is in flight: wait for
                        // it below — the PENDING overlap of Algorithm 1.
                        // Deduplicated work, but not a memo hit: no verdict
                        // was available yet.
                        self.overlap_waits += 1;
                        waits.push(idx);
                        resolved.push(None);
                    }
                }
            }
        }

        // Fan the claimed demand states out as chunks sized so every
        // worker gets at most one — parallelism is preserved while each
        // chunk's template lookups amortize inside one check call.
        if self.batched && !chunk.is_empty() {
            self.send_chunks(&chunk);
        }
        chunk.clear();

        // Runahead while demand checks are outstanding.
        if self.runahead > 0 && outstanding > 0 && ctx.parent.is_some() {
            let mut budget = self.threads.saturating_sub(outstanding);
            let chain = self.predictor.predict(ctx.expanded, ctx.parent);
            let mut neigh = std::mem::take(&mut self.neigh);
            'runahead: for pred in chain {
                neigh.clear();
                self.space.neighbors(pred, &mut neigh);
                for &(nb, _) in &neigh {
                    if budget == 0 {
                        break 'runahead;
                    }
                    let Some(idx) = self.space.index(nb) else { continue };
                    if table.get(idx).is_some() || table.is_pending(idx) {
                        continue;
                    }
                    if table.try_claim(idx) {
                        self.speculative_checks += 1;
                        if self.batched {
                            chunk.push((nb, idx));
                        } else {
                            self.send(Job::Check { state: nb, idx, episode: self.episode.clone() });
                        }
                        budget -= 1;
                    }
                }
            }
            self.neigh = neigh;
            if self.batched && !chunk.is_empty() {
                self.send_chunks(&chunk);
            }
        }

        // Join demand results (Algorithm 1 line 18).
        let mut next_wait = 0usize;
        for &r in resolved.iter() {
            match r {
                Some(v) => out.push(v),
                None => {
                    let idx = waits[next_wait];
                    next_wait += 1;
                    if self.abandoned.is_some() {
                        out.push(false);
                        continue;
                    }
                    match table.wait_interruptible(idx, self.interrupt.as_ref()) {
                        WaitOutcome::Resolved(v) => out.push(v),
                        WaitOutcome::Poisoned => {
                            self.abandoned = Some(InterruptReason::Poisoned);
                            out.push(false);
                        }
                        WaitOutcome::Interrupted(reason) => {
                            self.abandoned = Some(reason);
                            out.push(false);
                        }
                    }
                }
            }
        }
        debug_assert_eq!(next_wait, waits.len(), "every wait consumed");
        self.waits = waits;
        self.resolved = resolved;
        self.chunk = chunk;
    }
}

impl<'a, Sp> PoolOracle<'a, Sp>
where
    Sp: SearchSpace,
    Sp::State: Send + 'static,
{
    fn send(&self, job: Job<Sp::State>) {
        self.tx.send(job).expect("pool outlives the planner");
    }

    /// Splits claimed pairs into `ceil(n / threads)`-sized chunk jobs so no
    /// worker idles while another holds more than one chunk.
    fn send_chunks(&self, pairs: &[(Sp::State, usize)]) {
        let per = pairs.len().div_ceil(self.threads).max(1);
        for chunk in pairs.chunks(per) {
            self.send(Job::CheckChunk {
                states: chunk.iter().map(|&(s, _)| s).collect(),
                idxs: chunk.iter().map(|&(_, i)| i).collect(),
                episode: self.episode.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::{Cell2, Cell3};
    use racod_grid::gen::{campus_3d, random_map};
    use racod_grid::{BitGrid2, Occupancy2, Occupancy3};
    use racod_search::{astar, FnOracle, GridSpace2, GridSpace3};

    fn reference_plan(grid: &BitGrid2, start: Cell2, goal: Cell2) -> SearchResult<Cell2> {
        let space = GridSpace2::eight_connected(grid.width(), grid.height());
        let mut oracle = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        astar(&space, start, goal, &AstarConfig::default(), &mut oracle)
    }

    #[test]
    fn threaded_baseline_matches_reference() {
        let grid = Arc::new(random_map(3, 48, 48, 0.25));
        let reference = reference_plan(&grid, Cell2::new(1, 1), Cell2::new(46, 46));
        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::baseline(4), move |c: Cell2| {
            g.get(c) == Some(false)
        });
        let space = GridSpace2::eight_connected(48, 48);
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(46, 46));
        assert_eq!(run.result.path, reference.path);
        assert_eq!(run.result.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(run.speculative_checks, 0);
    }

    #[test]
    fn threaded_rasexp_matches_reference() {
        for seed in [5u64, 9, 13] {
            let grid = Arc::new(random_map(seed, 48, 48, 0.2));
            let reference = reference_plan(&grid, Cell2::new(1, 1), Cell2::new(46, 46));
            let g = grid.clone();
            let planner = ParallelPlanner::new(ParallelConfig::rasexp(4, 8), move |c: Cell2| {
                g.get(c) == Some(false)
            });
            let space = GridSpace2::eight_connected(48, 48);
            let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(46, 46));
            assert_eq!(run.result.path, reference.path, "seed {seed}");
            assert_eq!(run.result.stats.expansions, reference.stats.expansions);
        }
    }

    #[test]
    fn rasexp_actually_speculates() {
        let grid = Arc::new(BitGrid2::new(96, 96));
        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::rasexp(8, 16), move |c: Cell2| {
            g.get(c) == Some(false)
        });
        let space = GridSpace2::eight_connected(96, 96);
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(94, 94));
        assert!(run.result.found());
        assert!(run.speculative_checks > 0, "speculation must happen");
        assert!(run.memo_hits > 0, "speculation must pay off");
    }

    #[test]
    fn overlap_waits_are_not_memo_hits() {
        // With speculation on, some demand requests land on states whose
        // speculative check is still in flight — those must be counted as
        // overlap waits, never as memo hits, and every demand state is
        // accounted for exactly once.
        let grid = Arc::new(BitGrid2::new(96, 96));
        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::rasexp(8, 16), move |c: Cell2| {
            g.get(c) == Some(false)
        });
        let space = GridSpace2::eight_connected(96, 96);
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(94, 94));
        assert_eq!(
            run.demand_checks + run.memo_hits + run.overlap_waits,
            run.result.stats.demand_checks,
            "every demand check is exactly one of: computed, memoized, overlapped"
        );
    }

    #[test]
    fn each_state_checked_at_most_once() {
        let grid = Arc::new(random_map(1, 64, 64, 0.2));
        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::rasexp(8, 16), move |c: Cell2| {
            g.get(c) == Some(false)
        });
        let space = GridSpace2::eight_connected(64, 64);
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(62, 62));
        let total = run.demand_checks + run.speculative_checks;
        assert!(
            total <= (64 * 64) as u64,
            "checks {total} exceed state count — double computation"
        );
    }

    #[test]
    fn threaded_planner_works_in_3d() {
        let grid = Arc::new(campus_3d(7, 48, 48, 24));
        let space = GridSpace3::twenty_six_connected(48, 48, 24);
        let (s, g3) = (Cell3::new(3, 3, 12), Cell3::new(44, 44, 12));

        let mut reference_oracle = FnOracle::new(|c: Cell3| grid.occupied(c) == Some(false));
        let reference = astar(&space, s, g3, &AstarConfig::default(), &mut reference_oracle);

        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::rasexp(4, 8), move |c: Cell3| {
            g.occupied(c) == Some(false)
        });
        let run = planner.plan(&space, s, g3);
        assert_eq!(run.result.path, reference.path, "3D threaded run diverged");
    }

    #[test]
    fn elapsed_is_measured() {
        let grid = Arc::new(BitGrid2::new(32, 32));
        let g = grid.clone();
        let planner = ParallelPlanner::new(ParallelConfig::baseline(2), move |c: Cell2| {
            g.get(c) == Some(false)
        });
        let space = GridSpace2::eight_connected(32, 32);
        let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(30, 30));
        assert!(run.elapsed > Duration::ZERO);
    }

    #[test]
    fn shared_pool_is_reused_across_planners_and_plans() {
        let pool: Arc<WorkerPool<Cell2>> = Arc::new(WorkerPool::new(4));
        let space = GridSpace2::eight_connected(48, 48);
        for seed in [3u64, 5, 9] {
            let grid = Arc::new(random_map(seed, 48, 48, 0.2));
            let reference = reference_plan(&grid, Cell2::new(1, 1), Cell2::new(46, 46));
            let g = grid.clone();
            let planner = ParallelPlanner::with_pool(
                ParallelConfig::rasexp(4, 8),
                move |c: Cell2| g.get(c) == Some(false),
                pool.clone(),
            );
            // Two plans on the same planner, one pool for all of them.
            for _ in 0..2 {
                let run = planner.plan(&space, Cell2::new(1, 1), Cell2::new(46, 46));
                assert_eq!(run.result.path, reference.path, "seed {seed}");
            }
        }
    }

    #[test]
    fn panicking_check_poisons_episode_not_pool() {
        let pool: Arc<WorkerPool<Cell2>> = Arc::new(WorkerPool::new(2));
        let space = GridSpace2::eight_connected(32, 32);
        // First plan: the check panics on a cell the search must cross.
        let bad = ParallelPlanner::with_pool(
            ParallelConfig::baseline(2),
            |c: Cell2| {
                assert!(c.x < 10, "injected check fault");
                true
            },
            pool.clone(),
        );
        let run = bad.plan(&space, Cell2::new(1, 1), Cell2::new(30, 30));
        assert!(!run.result.found());
        assert_eq!(
            run.result.termination,
            Termination::Interrupted(InterruptReason::Poisoned),
            "a dead verdict must surface as poisoning, not hang or a fake 'unreachable'"
        );
        // Second plan on the same pool: workers survived the panic.
        let good =
            ParallelPlanner::with_pool(ParallelConfig::baseline(2), |_c: Cell2| true, pool.clone());
        let run = good.plan(&space, Cell2::new(1, 1), Cell2::new(30, 30));
        assert!(run.result.found(), "pool must stay healthy after a poisoned episode");
        // The pool remembers that a check died — serving layers read this
        // as a platform-health signal.
        assert!(pool.check_panics() >= 1, "check panic must be counted");
    }
}
