//! The planner surface: one scenario type, one planning body, the platform
//! as data.
//!
//! [`plan_in`] runs a *real* search over a real grid on the [`Backend`] it
//! is given and returns both the functional result and the simulated
//! timing, so experiment harnesses can compute speedups as ratios of cycle
//! counts; [`Backend::Native`] runs the same search untimed. It is written
//! once over [`Dim`]; [`Scenario2`] and [`Scenario3`] are the two
//! instantiations.

use crate::cost::CostModel;
use crate::dim::{Dim, D2, D3};
use crate::oracle::{
    CheckProbe, CheckProbeSlot, PlanTiming, TimedChecker, TimedOracle, TimedOracleConfig,
};
use crate::tcache::{TemplateCache, TemplateSource, TemplateStats};
use racod_codacc::{template_check, CodaccPool, CodaccTiming};
use racod_geom::{Cell2, Cell3};
use racod_grid::BitGrid;
use racod_mem::{CacheConfig, CacheStats, LatencyModel};
use racod_rasexp::RasexpStats;
use racod_search::{astar_in, AstarConfig, FnOracle, SearchResult, SearchScratch, SearchSpace};
use std::borrow::BorrowMut;
use std::sync::Arc;

/// A planning scenario: grid + footprint + endpoints + search config.
#[derive(Debug, Clone)]
pub struct Scenario<'g, D: Dim> {
    /// The environment.
    pub grid: &'g BitGrid<D::Cell>,
    /// The robot footprint.
    pub footprint: D::Footprint,
    /// Start state.
    pub start: D::Cell,
    /// Goal state.
    pub goal: D::Cell,
    /// The search space (connectivity + heuristic).
    pub space: D::Space,
    /// Search configuration (weight, recording).
    pub astar: AstarConfig,
    /// Optional shared template cache (e.g. a serving registry's, shared
    /// by all its maps). `None` gives every plan a fresh cache.
    pub tcache: Option<Arc<TemplateCache<D>>>,
    /// Optional probe run before every collision check (fault injection /
    /// instrumentation). Empty by default and free when empty.
    pub check_probe: CheckProbeSlot,
    /// Optional ALT landmark pack: when present, the plan maxes the
    /// configured heuristic with the pack's triangle-inequality bound
    /// (admissible, so paths stay optimal — only expansion order and
    /// equal-cost path choice may change). `None` is a bit-identical
    /// passthrough of the configured heuristic. No 3D pack exists, so a
    /// [`Scenario3`] never carries one.
    pub alt: Option<Arc<D::Landmarks>>,
}

/// A 2D planning scenario (car footprint, 8-connectivity by default).
pub type Scenario2<'g> = Scenario<'g, D2>;
/// A 3D planning scenario (drone footprint, 26-connectivity by default).
pub type Scenario3<'g> = Scenario<'g, D3>;

impl<'g, D: Dim> Scenario<'g, D> {
    /// Creates a scenario with the dimension's default robot (car or
    /// drone), full connectivity, the Euclidean heuristic, and endpoints at
    /// opposite corners (snap them to free space with
    /// [`Scenario::with_free_endpoints`]).
    pub fn new(grid: &'g BitGrid<D::Cell>) -> Self {
        let (footprint, start, goal, space) = D::defaults(grid);
        Scenario {
            grid,
            footprint,
            start,
            goal,
            space,
            astar: AstarConfig::default(),
            tcache: None,
            check_probe: CheckProbeSlot::default(),
            alt: None,
        }
    }

    /// Sets start/goal to the cells nearest `start` and `goal` where the
    /// *robot footprint* (not just the cell) is collision-free, so the
    /// search never starts inside a wall or squeezed against one.
    pub fn with_free_endpoints(
        mut self,
        start: impl Into<D::Cell>,
        goal: impl Into<D::Cell>,
    ) -> Self {
        let (s, g) = (start.into(), goal.into());
        let near = |at, toward| free_near_footprint::<D>(self.grid, &self.footprint, at, toward);
        // Snap with provisional orientations, then re-verify: orientation
        // depends on the goal, so a second pass settles both.
        let mut goal = near(g, s);
        let mut start = near(s, goal);
        for _ in 0..3 {
            let g2 = near(g, start);
            let s2 = near(s, g2);
            if g2 == goal && s2 == start {
                break;
            }
            goal = g2;
            start = s2;
        }
        self.start = start;
        self.goal = goal;
        self
    }

    /// Replaces the footprint.
    pub fn with_footprint(mut self, footprint: D::Footprint) -> Self {
        self.footprint = footprint;
        self
    }

    /// Replaces the search space.
    pub fn with_space(mut self, space: D::Space) -> Self {
        self.space = space;
        self
    }

    /// Replaces the search configuration.
    pub fn with_astar(mut self, astar: AstarConfig) -> Self {
        self.astar = astar;
        self
    }

    /// Shares a template cache across plans (a serving registry's).
    pub fn with_template_cache(mut self, cache: Arc<TemplateCache<D>>) -> Self {
        self.tcache = Some(cache);
        self
    }

    /// Attaches a cooperative interruption handle to the search
    /// configuration; every [`Backend`] observes it.
    pub fn with_interrupt(mut self, interrupt: racod_search::Interrupt) -> Self {
        self.astar.interrupt = Some(interrupt);
        self
    }

    /// Attaches a probe run before every collision check.
    pub fn with_check_probe(mut self, probe: CheckProbe) -> Self {
        self.check_probe = CheckProbeSlot(Some(probe));
        self
    }

    /// Guides the search with an ALT landmark pack (built for this grid's
    /// dimensions; [`plan_in`] panics on a mismatch).
    pub fn with_landmarks(mut self, pack: Arc<D::Landmarks>) -> Self {
        self.alt = Some(pack);
        self
    }
}

/// Finds the cell nearest `at` at which the robot footprint is
/// collision-free both oriented toward `toward` *and* at rest.
///
/// The at-rest check matters for goal cells: the search checker evaluates
/// the body at `(goal, goal)`, whose zero direction degenerates to the
/// identity orientation, so a cell that is only free when oriented toward
/// the start would make the goal state itself infeasible.
///
/// # Panics
///
/// Panics if no such cell exists anywhere on the grid.
pub fn free_near_footprint<D: Dim>(
    grid: &BitGrid<D::Cell>,
    footprint: &D::Footprint,
    at: D::Cell,
    toward: D::Cell,
) -> D::Cell {
    let cache = TemplateCache::<D>::default();
    let free = |c, key| template_check(grid, c, &cache.get(footprint, key).0).verdict.is_free();
    D::nearest(grid, at, |c| {
        free(c, D::rot_key(footprint, c, toward)) && free(c, D::rot_key(footprint, c, c))
    })
    .unwrap_or_else(|| panic!("grid has no footprint-free cell near {at:?}"))
}

/// Finds the free cell nearest `at` by an expanding shell scan.
///
/// # Panics
///
/// Panics if the grid has no free cell at all.
pub fn free_near<D: Dim>(grid: &BitGrid<D::Cell>, at: D::Cell) -> D::Cell {
    D::nearest(grid, at, |c| grid.get(c) == Some(false))
        .unwrap_or_else(|| panic!("grid has no free cell near {at:?}"))
}

/// The result of one planning run.
#[derive(Debug, Clone)]
pub struct PlanOutcome<S> {
    /// The functional search result.
    pub result: SearchResult<S>,
    /// Total simulated cycles (0 on [`Backend::Native`], which is untimed).
    pub cycles: u64,
    /// Detailed timing (all zero on [`Backend::Native`]).
    pub timing: PlanTiming,
    /// RASExp statistics (zeroed fields for non-runahead runs).
    pub stats: RasexpStats,
    /// Aggregate L0 statistics (RACOD runs only).
    pub l0_stats: Option<CacheStats>,
    /// Template-cache hit/miss counts for this run's collision checks.
    pub tstats: TemplateStats,
    /// Heuristic evaluations where the ALT landmark bound strictly beat
    /// the configured heuristic (0 when no pack was attached).
    pub alt_tightened: u64,
}

/// The platform a plan runs on.
#[derive(Debug)]
pub enum Backend<'p> {
    /// Software threads running the template kernel, charged the paper's
    /// per-cell software cost.
    Software {
        /// Execution contexts.
        threads: usize,
        /// `None` is baseline multithreading (BM); `Some(depth)` enables
        /// RASExp with the given MAX_DEPTH.
        runahead: Option<usize>,
    },
    /// `units` CODAcc accelerators with fresh caches.
    Racod {
        /// Accelerator count; with `runahead` also the runahead depth, as
        /// in the paper's sweeps.
        units: usize,
        /// RASExp on or off (off is the §5.2 "one CODAcc, no RASExp" point).
        runahead: bool,
        /// Memory latencies (Fig 7 sweeps).
        latency: LatencyModel,
        /// L0 geometry (Fig 11 sweeps).
        l0: CacheConfig,
    },
    /// CODAcc accelerators from a caller-owned pool, with RASExp.
    ///
    /// Verdicts — and therefore the returned path — are bit-identical to
    /// [`Backend::Racod`]; only the *cycle* attribution differs, because
    /// the pool's L0/L1 caches stay warm across calls. A serving layer that
    /// batches consecutive requests on the same map through one pool models
    /// exactly the paper's "shared environment state" amortization.
    RacodPooled(&'p mut CodaccPool),
    /// The template kernel with no timing model, each state checked at
    /// most once per plan through a caller-owned [`VerdictMemo`]. The
    /// outcome has 0 cycles, no L0 statistics, and `stats.demand_computed`
    /// equal to the checks run; the path is every timed backend's.
    Native(&'p mut VerdictMemo),
}

impl Backend<'static> {
    /// Software threads: `runahead = None` is baseline multithreading,
    /// `Some(depth)` RASExp.
    pub fn software(threads: usize, runahead: Option<usize>) -> Self {
        Backend::Software { threads, runahead }
    }

    /// The paper's RACOD configuration: `units` accelerators, RASExp on,
    /// default latencies and L0.
    pub fn racod(units: usize) -> Self {
        Backend::Racod {
            units,
            runahead: true,
            latency: LatencyModel::default(),
            l0: CacheConfig::l0_default(),
        }
    }
}

/// The collision verdicts of one [`Backend::Native`] plan, by dense state
/// index. The engine demands a state again from every parent that reaches
/// it before it closes; the memo checks it once per plan. An entry is
/// `epoch << 1 | free` and is live only while `epoch` is the current plan's,
/// so opening a plan is one increment and no verdict outlives the snapshot
/// it was computed on. A 63-bit epoch does not wrap.
#[derive(Debug, Default)]
pub struct VerdictMemo {
    epoch: u64,
    entries: Vec<u64>,
}

impl VerdictMemo {
    /// Opens a plan over `states` dense indices.
    pub fn begin(&mut self, states: usize) {
        self.epoch += 1;
        if self.entries.len() < states {
            self.entries.resize(states, 0);
        }
    }

    /// This plan's verdict for `idx`, computed by `check` on first demand.
    pub fn get_or_check(&mut self, idx: usize, check: impl FnOnce() -> bool) -> bool {
        let entry = self.entries[idx];
        if entry >> 1 == self.epoch {
            return entry & 1 == 1;
        }
        let free = check();
        self.entries[idx] = self.epoch << 1 | u64::from(free);
        free
    }
}

/// What [`plan_in`] reads back from a checker after the search.
trait PlanChecker<D: Dim>: TimedChecker<D::Cell> {
    fn tstats(&self) -> TemplateStats;
    fn l0_stats(&self) -> Option<CacheStats>;
}

/// Software checker (one thread's work per check).
///
/// Verdict and `cells_checked` come from the word-parallel template kernel;
/// the modeled cycle cost still charges the paper's per-cell software cost
/// for the cells an early-exiting scalar walk would have visited, so cycle
/// comparisons against the i3/Xeon baselines are unchanged.
struct SwChecker<'a, D: Dim> {
    grid: &'a BitGrid<D::Cell>,
    tpls: TemplateSource<'a, D>,
    cost: CostModel,
}

impl<D: Dim> TimedChecker<D::Cell> for SwChecker<'_, D> {
    fn check(&mut self, _unit: usize, s: D::Cell) -> (bool, u64) {
        let out = template_check(self.grid, s, self.tpls.template_at(s));
        (out.verdict.is_free(), self.cost.sw_check_cycles(out.cells_checked))
    }
}

impl<D: Dim> PlanChecker<D> for SwChecker<'_, D> {
    fn tstats(&self) -> TemplateStats {
        self.tpls.stats()
    }
    fn l0_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// CODAcc checker (per-unit L0 state lives in the pool, which is owned for
/// a one-off run and borrowed when the caller keeps it warm).
///
/// The AGU's sample set is the cached template expanded at the state
/// (`expand_into` reuses one scratch buffer, so the steady state is
/// allocation-free); the accelerator model then tiles, coalesces, and
/// charges cycles.
struct HwChecker<'a, D: Dim, P> {
    grid: &'a BitGrid<D::Cell>,
    tpls: TemplateSource<'a, D>,
    pool: P,
    cells: Vec<D::Cell>,
}

impl<D: Dim, P: BorrowMut<CodaccPool>> TimedChecker<D::Cell> for HwChecker<'_, D, P> {
    fn check(&mut self, unit: usize, s: D::Cell) -> (bool, u64) {
        self.tpls.template_at(s).expand_into(s, &mut self.cells);
        let out = self.pool.borrow_mut().check_cells(unit, self.grid, &self.cells);
        (out.verdict.is_free(), out.cycles)
    }
}

impl<D: Dim, P: BorrowMut<CodaccPool>> PlanChecker<D> for HwChecker<'_, D, P> {
    fn tstats(&self) -> TemplateStats {
        self.tpls.stats()
    }
    fn l0_stats(&self) -> Option<CacheStats> {
        Some(self.pool.borrow().mem().l0_stats_total())
    }
}

/// Plans `sc` on `backend` with a fresh search arena.
pub fn plan<D: Dim>(
    sc: &Scenario<'_, D>,
    backend: Backend<'_>,
    cost: &CostModel,
) -> PlanOutcome<D::Cell> {
    plan_in(sc, backend, cost, &mut SearchScratch::new())
}

/// Plans `sc` on `backend`, running the search inside a caller-owned
/// [`SearchScratch`] (warm workers skip per-plan allocation; results are
/// bit-identical to [`plan`]). With [`Backend::RacodPooled`] and a shared
/// template cache this is the fully warm serving path: pool caches,
/// templates, and search arrays all survive across requests;
/// [`Backend::Native`] keeps its verdict memo warm the same way.
pub fn plan_in<D: Dim>(
    sc: &Scenario<'_, D>,
    backend: Backend<'_>,
    cost: &CostModel,
    scratch: &mut SearchScratch<D::Cell>,
) -> PlanOutcome<D::Cell> {
    let fresh;
    let cache = match &sc.tcache {
        Some(shared) => &**shared,
        None => {
            fresh = TemplateCache::default();
            &fresh
        }
    };
    let tpls = TemplateSource::new(sc.footprint, sc.goal, cache);
    match backend {
        Backend::Software { threads, runahead } => {
            let config = match runahead {
                None => TimedOracleConfig::baseline(threads),
                Some(depth) => TimedOracleConfig::runahead_depth(threads, depth),
            };
            run(sc, SwChecker { grid: sc.grid, tpls, cost: *cost }, config, cost, scratch)
        }
        Backend::Racod { units, runahead, latency, l0 } => {
            let pool = CodaccPool::with_config(
                units,
                CodaccTiming { dispatch_cycles: 0, ..Default::default() },
                l0,
                CacheConfig::l1_default(),
                latency,
            );
            let config = if runahead {
                TimedOracleConfig::runahead(units)
            } else {
                TimedOracleConfig::baseline(units)
            };
            run(
                sc,
                HwChecker { grid: sc.grid, tpls, pool, cells: Vec::new() },
                config,
                cost,
                scratch,
            )
        }
        Backend::RacodPooled(pool) => {
            let config = TimedOracleConfig::runahead(pool.units());
            run(
                sc,
                HwChecker { grid: sc.grid, tpls, pool, cells: Vec::new() },
                config,
                cost,
                scratch,
            )
        }
        Backend::Native(memo) => native(sc, tpls, memo, scratch),
    }
}

/// The [`Backend::Native`] body: the search over the template kernel, each
/// state checked once per plan, the check probe run before each check.
fn native<D: Dim>(
    sc: &Scenario<'_, D>,
    mut tpls: TemplateSource<'_, D>,
    memo: &mut VerdictMemo,
    scratch: &mut SearchScratch<D::Cell>,
) -> PlanOutcome<D::Cell> {
    let space = D::guided(&sc.space, sc.alt.as_deref());
    memo.begin(space.state_count());
    let probe = sc.check_probe.0.as_deref();
    let mut checks = 0;
    let mut oracle = FnOracle::new(|s: D::Cell| {
        let idx = space.index(s).expect("demand states are in-space");
        memo.get_or_check(idx, || {
            if let Some(p) = probe {
                p();
            }
            checks += 1;
            template_check(sc.grid, s, tpls.template_at(s)).verdict.is_free()
        })
    });
    let result = astar_in(&space, sc.start, sc.goal, &sc.astar, &mut oracle, scratch);
    PlanOutcome {
        result,
        cycles: 0,
        timing: PlanTiming::default(),
        stats: RasexpStats { demand_computed: checks, ..RasexpStats::default() },
        l0_stats: None,
        tstats: tpls.stats(),
        alt_tightened: D::tightened(&space),
    }
}

fn run<D: Dim, C: PlanChecker<D>>(
    sc: &Scenario<'_, D>,
    checker: C,
    config: TimedOracleConfig,
    cost: &CostModel,
    scratch: &mut SearchScratch<D::Cell>,
) -> PlanOutcome<D::Cell> {
    let space = D::guided(&sc.space, sc.alt.as_deref());
    let mut oracle =
        TimedOracle::new(&space, checker, *cost, config).with_check_probe(sc.check_probe.0.clone());
    let result = astar_in(&space, sc.start, sc.goal, &sc.astar, &mut oracle, scratch);
    PlanOutcome {
        result,
        cycles: oracle.clock(),
        timing: oracle.timing(),
        stats: oracle.stats().clone(),
        l0_stats: oracle.checker().l0_stats(),
        tstats: oracle.checker().tstats(),
        alt_tightened: D::tightened(&space),
    }
}

// Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
// caller, and the next `benchmark` PR deletes this.
#[doc(hidden)]
pub fn plan_racod_2d_pooled_in(
    sc: &Scenario2<'_>,
    pool: &mut CodaccPool,
    cost: &CostModel,
    scratch: &mut SearchScratch<Cell2>,
) -> PlanOutcome<Cell2> {
    plan_in(sc, Backend::RacodPooled(pool), cost, scratch)
}

// Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
// caller, and the next `benchmark` PR deletes this.
#[doc(hidden)]
pub fn plan_racod_3d_pooled_in(
    sc: &Scenario3<'_>,
    pool: &mut CodaccPool,
    cost: &CostModel,
    scratch: &mut SearchScratch<Cell3>,
) -> PlanOutcome<Cell3> {
    plan_in(sc, Backend::RacodPooled(pool), cost, scratch)
}

// Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
// caller, and the next `benchmark` PR deletes this.
#[doc(hidden)]
pub fn plan_software_2d_in(
    sc: &Scenario2<'_>,
    threads: usize,
    runahead: Option<usize>,
    cost: &CostModel,
    scratch: &mut SearchScratch<Cell2>,
) -> PlanOutcome<Cell2> {
    plan_in(sc, Backend::software(threads, runahead), cost, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_grid::gen::{campus_3d, city_map, CityName};
    use racod_grid::BitGrid2;
    use racod_search::{Interrupt, InterruptReason, Termination};
    use std::sync::atomic::{AtomicU64, Ordering};

    const BM4: Backend<'static> = Backend::Software { threads: 4, runahead: None };

    /// The §5.2 point: one CODAcc, RASExp off.
    fn one_codacc() -> Backend<'static> {
        Backend::Racod {
            units: 1,
            runahead: false,
            latency: LatencyModel::default(),
            l0: CacheConfig::l0_default(),
        }
    }

    /// Every [`Backend`] shape with its cost model: software BM, software
    /// RASExp, RACOD, one CODAcc without RASExp, RACOD on `pool`, and the
    /// untimed kernel on `memo`.
    fn backend(i: usize, (pool, memo): &mut (CodaccPool, VerdictMemo)) -> (Backend<'_>, CostModel) {
        let (sw, hw) = (CostModel::i3_software(), CostModel::racod());
        match i {
            0 => (Backend::Software { threads: 2, runahead: None }, sw),
            1 => (Backend::Software { threads: 4, runahead: Some(8) }, sw),
            2 => (Backend::racod(4), hw),
            3 => (one_codacc(), hw),
            4 => (Backend::RacodPooled(pool), hw),
            5 => (Backend::Native(memo), sw),
            _ => unreachable!("six backends"),
        }
    }

    /// The surface contract, once for both dimensions and every backend.
    fn surface_contract<D: Dim>(sc: Scenario<'_, D>) {
        let mut arena = SearchScratch::new();
        let mut warm = (CodaccPool::new(4), VerdictMemo::default());
        let mut first = None;
        for i in 0..6 {
            let run = |sc: &Scenario<'_, D>| {
                let mut fresh = (CodaccPool::new(4), VerdictMemo::default());
                let (b, cost) = backend(i, &mut fresh);
                plan(sc, b, &cost)
            };
            let fresh = run(&sc);
            assert!(fresh.result.found(), "backend {i}");
            assert_eq!(fresh.l0_stats.is_some(), (2..5).contains(&i), "L0 statistics are CODAcc's");

            // Every backend finds backend 0's path, cost and expansions.
            let base = first.get_or_insert_with(|| fresh.result.clone());
            assert_eq!(fresh.result.path, base.path, "backend {i}");
            assert_eq!(fresh.result.cost.to_bits(), base.cost.to_bits(), "backend {i}");
            if i == 5 {
                assert_eq!(fresh.result.stats.expansions, base.stats.expansions);
                assert_eq!(fresh.cycles, 0, "the native backend is untimed");
            }

            // An interrupt that never fires changes neither answer nor timing.
            let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
            let watched = run(&sc.clone().with_interrupt(Interrupt::new().with_deadline(far)));
            assert_eq!(watched.result.path, fresh.result.path, "backend {i}");
            assert_eq!(watched.cycles, fresh.cycles, "backend {i}");

            // `plan` is `plan_in` on a fresh arena, and a reused arena (and,
            // on the native backend, a reused memo) changes nothing.
            for _ in 0..2 {
                warm.0 = CodaccPool::new(4);
                let (b, cost) = backend(i, &mut warm);
                let again = plan_in(&sc, b, &cost, &mut arena);
                assert_eq!(again.result.path, fresh.result.path, "backend {i}");
                assert_eq!(again.result.cost.to_bits(), fresh.result.cost.to_bits());
                assert_eq!(again.result.stats.expansions, fresh.result.stats.expansions);
                assert_eq!(again.cycles, fresh.cycles, "backend {i}");
                assert_eq!(again.stats.demand_computed, fresh.stats.demand_computed);
                assert_eq!(again.tstats, fresh.tstats, "backend {i}");
            }

            // The check probe runs once per dispatched check and costs no
            // simulated time.
            let probes = Arc::new(AtomicU64::new(0));
            let n = probes.clone();
            let probed = run(&sc.clone().with_check_probe(Arc::new(move || {
                n.fetch_add(1, Ordering::Relaxed);
            })));
            assert_eq!(
                probes.load(Ordering::Relaxed),
                probed.stats.demand_computed + probed.stats.spec_issued,
                "backend {i}"
            );
            assert_eq!(probed.cycles, fresh.cycles, "backend {i}");
            assert!(
                i < 5 || probed.stats.spec_issued == 0,
                "the native backend does not speculate"
            );

            // An already-expired deadline with a tight poll interval stops
            // the search within one poll batch instead of finishing.
            let mut doomed = sc
                .clone()
                .with_interrupt(Interrupt::new().with_deadline(std::time::Instant::now()));
            doomed.astar.poll_interval = 32;
            let out = run(&doomed);
            assert_eq!(
                out.result.termination,
                Termination::Interrupted(InterruptReason::Deadline),
                "backend {i}"
            );
            assert!(!out.result.found());
            assert!(out.result.stats.expansions <= 32);
        }
    }

    /// `memo`'s verdict for `idx`, where a check would answer `free`;
    /// counts the checks it runs.
    fn lookup(memo: &mut VerdictMemo, idx: usize, free: bool, checks: &mut u32) -> bool {
        memo.get_or_check(idx, || {
            *checks += 1;
            free
        })
    }

    #[test]
    fn verdict_memo_checks_once_per_plan_and_forgets_between_plans() {
        let (mut memo, mut checks) = (VerdictMemo::default(), 0);
        memo.begin(4);
        assert!(lookup(&mut memo, 1, true, &mut checks));
        assert!(!lookup(&mut memo, 2, false, &mut checks));
        assert!(lookup(&mut memo, 1, false, &mut checks), "a memoised verdict is not rechecked");
        assert!(!lookup(&mut memo, 2, true, &mut checks));
        assert_eq!(checks, 2);
        // A new plan, perhaps on a new snapshot: every verdict is checked
        // afresh, and a larger space grows the memo.
        memo.begin(8);
        assert_eq!(memo.entries.len(), 8);
        assert!(!lookup(&mut memo, 1, false, &mut checks));
        assert!(lookup(&mut memo, 2, true, &mut checks));
        assert!(lookup(&mut memo, 7, true, &mut checks));
        assert_eq!(checks, 5);
    }

    #[test]
    fn surface_contract_2d() {
        let grid = city_map(CityName::Boston, 128, 128);
        surface_contract(Scenario2::new(&grid).with_free_endpoints((5, 5), (120, 120)));
    }

    #[test]
    fn surface_contract_3d() {
        let grid = campus_3d(3, 48, 48, 24);
        surface_contract(Scenario3::new(&grid).with_free_endpoints((3, 3, 6), (44, 44, 10)));
    }

    #[test]
    fn racod_beats_software_baseline_2d() {
        let grid = city_map(CityName::Boston, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let base = plan(&sc, BM4, &CostModel::i3_software());
        let racod = plan(&sc, Backend::racod(8), &CostModel::racod());
        assert!(base.result.found());
        assert!(racod.result.found());
        assert_eq!(base.result.path, racod.result.path, "same functional answer");
        assert!(racod.cycles < base.cycles);
    }

    #[test]
    fn speedup_scales_with_units_2d() {
        let grid = city_map(CityName::Berlin, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let cost = CostModel::racod();
        let t1 = plan(&sc, Backend::racod(1), &cost).cycles;
        let t8 = plan(&sc, Backend::racod(8), &cost).cycles;
        let t32 = plan(&sc, Backend::racod(32), &cost).cycles;
        assert!(t8 < t1);
        // Gains flatten at the tail (Fig 3's curve is concave); allow a
        // small regression from deeper-runahead issue overhead.
        assert!(t32 as f64 <= t8 as f64 * 1.10, "t32 {t32} vs t8 {t8}");
    }

    #[test]
    fn no_runahead_single_unit_still_helps() {
        let grid = city_map(CityName::Paris, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let base = plan(&sc, BM4, &CostModel::i3_software());
        let one = plan(&sc, one_codacc(), &CostModel::racod());
        assert!(one.result.found());
        assert!(
            one.cycles < base.cycles,
            "1 CODAcc (no RASExp) {} vs baseline {}",
            one.cycles,
            base.cycles
        );
        assert_eq!(one.stats.spec_issued, 0, "runahead disabled");
    }

    #[test]
    fn l0_filters_between_check_overlap() {
        let grid = city_map(CityName::Boston, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let racod = plan(&sc, Backend::racod(2), &CostModel::racod());
        let l0 = racod.l0_stats.unwrap();
        assert!(l0.accesses() > 0);
        // Within a check the reduction unit already dedups blocks, so L0
        // hits come only from between-check footprint overlap.
        assert!(l0.hit_ratio() > 0.05, "L0 should filter some share: {}", l0.hit_ratio());
    }

    #[test]
    fn communication_latency_hurts_more_with_one_unit() {
        let grid = city_map(CityName::Shanghai, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let speedup = |units: usize, comm: u64| {
            let base = plan(&sc, BM4, &CostModel::i3_software()).cycles as f64;
            let cost = CostModel::racod().with_comm_latency(comm);
            base / plan(&sc, Backend::racod(units), &cost).cycles as f64
        };
        let one_tight = speedup(1, 1);
        let one_far = speedup(1, 100);
        let many_tight = speedup(32, 1);
        let many_far = speedup(32, 100);
        assert!(one_far < one_tight);
        assert!(
            many_far / many_tight > one_far / one_tight,
            "many units amortize communication better"
        );
    }

    #[test]
    fn racod_3d_works_and_wins() {
        let grid = campus_3d(3, 48, 48, 24);
        let sc = Scenario3::new(&grid).with_free_endpoints((3, 3, 6), (44, 44, 10));
        let base = plan(&sc, BM4, &CostModel::i3_software());
        let racod = plan(&sc, Backend::racod(8), &CostModel::racod());
        assert!(base.result.found(), "baseline plan failed");
        assert_eq!(base.result.path, racod.result.path);
        assert!(racod.cycles < base.cycles);
    }

    #[test]
    fn free_near_snaps_to_free() {
        let mut grid = BitGrid2::new(16, 16);
        grid.fill_rect(0, 0, 15, 15, true);
        grid.set(Cell2::new(9, 9), false);
        assert_eq!(free_near::<D2>(&grid, Cell2::new(0, 0)), Cell2::new(9, 9));
    }

    #[test]
    fn software_runahead_helps_on_threads() {
        let grid = city_map(CityName::Boston, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let cost = CostModel::xeon_software();
        let bm = plan(&sc, Backend::software(32, None), &cost);
        let ras = plan(&sc, Backend::software(32, Some(32)), &cost);
        assert_eq!(bm.result.path, ras.result.path);
        assert!(ras.cycles < bm.cycles, "software RASExp {} vs BM {}", ras.cycles, bm.cycles);
    }
}
