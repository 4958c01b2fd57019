//! The traced run's per-layer numbers.
//!
//! The served pass gives the outer spans (`net.plan`, `server.plan`,
//! `server.delta`). The *ladder pass* then takes the first
//! [`LADDER_CHUNKS`] chunks of tasks and runs the inner legs a served plan is made of
//! — each through the same public function the worker calls, with the warm
//! state the worker keeps: first the planner leg of every task, back to
//! back as a worker runs plans; then, task by task and interleaved so host
//! state is shared, the legs below the planner. A layer's self time is its
//! span minus the spans it contains, and every task's self times add up to
//! its outermost span.

use crate::calib::Phase;
use crate::child::calibrated_ms;
use crate::metrics::Values;
use crate::reference::Memo;
use crate::serve::{set_up, Measured, Verdict};
use crate::stats::percentile;
use crate::tasks::{Shape, Task, TaskList, Workload, CHURN_EVERY, CHURN_MAP, MAP_SIZE, WORLD_SEED};
use crate::trace::{out_dir, Trace};
use racod_codacc::{template_check_2d, template_check_3d, CodaccPool};
use racod_geom::{Cell2, Cell3, FootprintTemplate2, FootprintTemplate3};
use racod_grid::{BitGrid2, BitGrid3, GridDelta2, Occupancy2, Occupancy3};
use racod_net::proto::{decode_frame, encode_frame, Message, WireResult, DEFAULT_MAX_FRAME};
use racod_net::standard_world;
use racod_parallel::{ParallelConfig, ParallelPlanner, WorkerPool};
use racod_rasexp::speculation_targets;
use racod_search::{
    astar_in, AltSpace2, AstarConfig, FnOracle, GridSpace2, GridSpace3, SearchResult,
    SearchScratch, SearchSpace,
};
use racod_server::{
    MapId, MapRegistry, Outcome, PlanResponse, Planned, PlannedPath, Platform, Priority,
    ServerMetrics, SpeculationConfig,
};
use racod_sim::planner::{
    plan_racod_2d_pooled_in, plan_racod_3d_pooled_in, plan_software_2d_in, Scenario2, Scenario3,
};
use racod_sim::{
    CostModel, Footprint2, Footprint3, PlanOutcome, RotKey, TemplateCache2, TemplateCache3,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ladder pass replays this many chunks' worth of tasks (200 of
/// `car_local`, 5 000 of `point_wire`): about two seconds of planning on
/// every workload, where a fixed 200 would be a tenth of a second of point
/// plans — less than one of the host's moods.
const LADDER_CHUNKS: usize = 10;

/// The server's own counters at the end of the served pass.
pub struct ServerCounters {
    completed: f64,
    batch_mean: f64,
    affinity_hit_rate: f64,
    template_hit_rate: f64,
    spec_prechecks: f64,
    spec_hit_rate: f64,
    spec_wasted: f64,
    replans: f64,
    incremental_repairs: f64,
}

impl ServerCounters {
    pub fn read(m: &ServerMetrics, registry: &MapRegistry) -> Self {
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
        // Wasted prechecks are counted per map memo, not in `ServerMetrics`.
        let memo_wasted: u64 = registry
            .ids()
            .iter()
            .filter_map(|id| registry.get(id))
            .filter(|e| e.is_2d())
            .map(|e| e.spec_memo2().wasted())
            .sum();
        ServerCounters {
            completed: load(&m.completed),
            batch_mean: load(&m.completed) / load(&m.dispatch_batches).max(1.0),
            affinity_hit_rate: m.affinity_hit_rate(),
            template_hit_rate: m.template_hit_rate(),
            spec_prechecks: load(&m.speculation_prechecks),
            spec_hit_rate: m.speculation_hit_rate(),
            spec_wasted: load(&m.speculation_wasted) + memo_wasted as f64,
            replans: load(&m.replans_from_scratch),
            incremental_repairs: load(&m.incremental_repairs),
        }
    }
}

fn untraced_path(list: &TaskList) -> Result<std::path::PathBuf, String> {
    Ok(out_dir()?.join(format!("untraced-{}-{:016x}.txt", list.workload.name(), list.digest())))
}

/// Leaves the untraced run's throughput where the traced run of the same
/// inputs finds it: tracing overhead is the difference between the two.
pub fn remember_untraced(list: &TaskList, plans_per_core_s: f64) {
    let line = format!("{plans_per_core_s}\n");
    if let Err(e) =
        untraced_path(list).and_then(|p| std::fs::write(p, line).map_err(|e| e.to_string()))
    {
        eprintln!(
            "benchmark: untraced result not kept ({e}); a traced run will not report overhead"
        );
    }
}

fn recall_untraced(list: &TaskList) -> Option<f64> {
    std::fs::read_to_string(untraced_path(list).ok()?).ok()?.trim().parse().ok()
}

/// What differs between planning in the plane and in space, so that every
/// leg is written once.
trait Dim {
    type Cell: Copy;
    type Grid;
    type Footprint: Copy;
    type Template;
    type Cache: Default;
    type Space: SearchSpace<State = Self::Cell>;

    fn space(grid: &Self::Grid) -> Self::Space;
    fn rot_key(fp: &Self::Footprint, s: Self::Cell, goal: Self::Cell) -> RotKey;
    fn cached(
        cache: &Self::Cache,
        fp: &Self::Footprint,
        key: RotKey,
    ) -> (Arc<Self::Template>, bool);
    fn build(fp: &Self::Footprint, key: RotKey) -> Self::Template;
    /// The SIMD kernel's verdict.
    fn kernel(grid: &Self::Grid, s: Self::Cell, tpl: &Self::Template) -> bool;
    /// One check through the CODAcc timing model; returns its cycles.
    fn model(
        pool: &mut CodaccPool,
        unit: usize,
        grid: &Self::Grid,
        s: Self::Cell,
        tpl: &Self::Template,
        cells: &mut Vec<Self::Cell>,
    ) -> u64;
}

struct D2;
struct D3;

impl Dim for D2 {
    type Cell = Cell2;
    type Grid = BitGrid2;
    type Footprint = Footprint2;
    type Template = FootprintTemplate2;
    type Cache = TemplateCache2;
    type Space = GridSpace2;

    fn space(grid: &BitGrid2) -> GridSpace2 {
        GridSpace2::eight_connected(grid.width(), grid.height())
    }
    fn rot_key(fp: &Footprint2, s: Cell2, goal: Cell2) -> RotKey {
        fp.rot_key(s, goal)
    }
    fn cached(
        cache: &TemplateCache2,
        fp: &Footprint2,
        key: RotKey,
    ) -> (Arc<FootprintTemplate2>, bool) {
        cache.get(fp, key)
    }
    fn build(fp: &Footprint2, key: RotKey) -> FootprintTemplate2 {
        fp.template(key)
    }
    fn kernel(grid: &BitGrid2, s: Cell2, tpl: &FootprintTemplate2) -> bool {
        template_check_2d(grid, s, tpl).verdict.is_free()
    }
    fn model(
        pool: &mut CodaccPool,
        unit: usize,
        grid: &BitGrid2,
        s: Cell2,
        tpl: &FootprintTemplate2,
        cells: &mut Vec<Cell2>,
    ) -> u64 {
        tpl.expand_into(s, cells);
        pool.check_cells_2d(unit, grid, cells).cycles
    }
}

impl Dim for D3 {
    type Cell = Cell3;
    type Grid = BitGrid3;
    type Footprint = Footprint3;
    type Template = FootprintTemplate3;
    type Cache = TemplateCache3;
    type Space = GridSpace3;

    fn space(grid: &BitGrid3) -> GridSpace3 {
        GridSpace3::twenty_six_connected(grid.size_x(), grid.size_y(), grid.size_z())
    }
    fn rot_key(fp: &Footprint3, s: Cell3, goal: Cell3) -> RotKey {
        fp.rot_key(s, goal)
    }
    fn cached(
        cache: &TemplateCache3,
        fp: &Footprint3,
        key: RotKey,
    ) -> (Arc<FootprintTemplate3>, bool) {
        cache.get(fp, key)
    }
    fn build(fp: &Footprint3, key: RotKey) -> FootprintTemplate3 {
        fp.template(key)
    }
    fn kernel(grid: &BitGrid3, s: Cell3, tpl: &FootprintTemplate3) -> bool {
        template_check_3d(grid, s, tpl).verdict.is_free()
    }
    fn model(
        pool: &mut CodaccPool,
        unit: usize,
        grid: &BitGrid3,
        s: Cell3,
        tpl: &FootprintTemplate3,
        cells: &mut Vec<Cell3>,
    ) -> u64 {
        tpl.expand_into(s, cells);
        pool.check_cells_3d(unit, grid, cells).cycles
    }
}

/// Which inner leg a served plan of this platform is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inner {
    /// `racod-sim` over the CODAcc model (`Platform::Racod`).
    SimModel,
    /// `racod-sim` over the kernel (`Platform::SimSoftware`).
    SimKernel,
    /// `racod-parallel` over the kernel (`Platform::Threads`).
    Parallel,
}

impl Inner {
    fn of(platform: Platform) -> Inner {
        match platform {
            Platform::Racod { .. } => Inner::SimModel,
            Platform::SimSoftware { .. } => Inner::SimKernel,
            Platform::Threads { .. } => Inner::Parallel,
        }
    }
}

/// Leg durations of one task in reference ns (0 where a leg does not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct Legs {
    /// The outermost served span: `net.plan` over the wire, else
    /// `server.plan`.
    pub outer: f64,
    /// `server.plan`: equal to `outer` in process; over the wire, the same
    /// task served by an in-process server of the same configuration.
    pub server_plan: f64,
    /// `sim.plan` or `parallel.plan`.
    pub inner: f64,
    pub search_plan: f64,
    pub kernel: f64,
    pub model: f64,
    pub build: f64,
}

/// Self time of every layer for one task; the fields sum to `Legs::outer`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Selfs {
    pub net: f64,
    pub server: f64,
    pub sim: f64,
    pub parallel: f64,
    pub search: f64,
    /// Collision checks on the served path: the model on `Racod`, the
    /// kernel elsewhere.
    pub checks: f64,
    pub build: f64,
}

impl Selfs {
    pub fn total(&self) -> f64 {
        self.net + self.server + self.sim + self.parallel + self.search + self.checks + self.build
    }
}

/// A layer's self time is its span minus the spans it contains. Each child
/// is subtracted from exactly one parent, so nothing is counted twice.
pub fn self_times(l: &Legs, inner: Inner) -> Selfs {
    let search = l.search_plan - l.kernel;
    let checks = if inner == Inner::SimModel { l.model } else { l.kernel };
    let planner = l.inner - search - checks - l.build;
    Selfs {
        net: l.outer - l.server_plan,
        server: l.server_plan - l.inner,
        sim: if inner == Inner::Parallel { 0.0 } else { planner },
        parallel: if inner == Inner::Parallel { planner } else { 0.0 },
        search,
        checks,
        build: l.build,
    }
}

/// Counts of one task's legs (all exact: they do not depend on the host).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    expansions: u64,
    checks: u64,
    lookups: u64,
    builds: u64,
    model_checks: u64,
    model_cycles: u64,
    sim_cycles: u64,
    spec_issued: u64,
    spec_used: u64,
    spec_hits: u64,
    demand_computed: u64,
}

/// Raw durations of one task's legs below the planner, before calibration.
#[derive(Default)]
struct Raw {
    search_plan: Duration,
    kernel: Duration,
    model: Duration,
    build: Duration,
    targets: Duration,
    codec: Duration,
    apply_delta: Option<Duration>,
}

/// Where one task's checks happen.
struct Site<'a, D: Dim> {
    map: &'static str,
    grid: &'a D::Grid,
    fp: D::Footprint,
}

/// The demand-check list of one bare search, as its oracle saw it.
struct Demand<D: Dim> {
    states: Vec<(D::Cell, u32)>,
    templates: Vec<Arc<D::Template>>,
    missed: Vec<RotKey>,
    lookups: u64,
}

/// Warm state of one dimension, as a worker and the registry keep it: one
/// template cache per map and per leg, CODAcc pools per `(map, units)`,
/// one search arena.
struct Warm<D: Dim> {
    sim_caches: HashMap<&'static str, Arc<D::Cache>>,
    search_caches: HashMap<&'static str, Arc<D::Cache>>,
    sim_pools: HashMap<(&'static str, usize), CodaccPool>,
    model_pools: HashMap<(&'static str, usize), CodaccPool>,
    scratch: SearchScratch<D::Cell>,
    memo: Memo,
    cells: Vec<D::Cell>,
}

impl<D: Dim> Warm<D> {
    fn new() -> Self {
        Warm {
            sim_caches: HashMap::new(),
            search_caches: HashMap::new(),
            sim_pools: HashMap::new(),
            model_pools: HashMap::new(),
            scratch: SearchScratch::new(),
            memo: Memo::default(),
            cells: Vec::new(),
        }
    }

    /// `search.plan`: bare `astar_in` over the kernel, each distinct state
    /// checked once. A first, untimed pass fetches templates through a cache
    /// like the program's and records the demand-check list and the
    /// templates the plan had to build; the timed pass walks that list, so
    /// that it holds nothing but `racod-search` and the kernel — orientation
    /// keys, cache look-ups and evictions are `racod-sim`'s and stay in
    /// `sim.self`.
    fn search(
        &mut self,
        site: &Site<'_, D>,
        start: D::Cell,
        goal: D::Cell,
    ) -> (Duration, SearchResult<D::Cell>, Demand<D>) {
        let (grid, fp) = (site.grid, site.fp);
        let cache = self.search_caches.entry(site.map).or_default().clone();
        let mut demand = Demand::<D> {
            states: Vec::new(),
            templates: Vec::new(),
            missed: Vec::new(),
            lookups: 0,
        };
        let mut last: Option<RotKey> = None;
        let space = D::space(grid);
        let config = AstarConfig::default();
        let memo = &mut self.memo;
        memo.begin(space.state_count());
        let mut recording = FnOracle::new(|s: D::Cell| {
            memo.free(space.index(s), || {
                let key = D::rot_key(&fp, s, goal);
                demand.lookups += 1;
                if last != Some(key) {
                    let (tpl, hit) = D::cached(&cache, &fp, key);
                    if !hit {
                        demand.missed.push(key);
                    }
                    demand.templates.push(tpl);
                    last = Some(key);
                }
                let which = demand.templates.len() - 1;
                demand.states.push((s, which as u32));
                D::kernel(grid, s, &demand.templates[which])
            })
        });
        astar_in(&space, start, goal, &config, &mut recording, &mut self.scratch);

        let mut next = demand.states.iter();
        let begin = Instant::now();
        memo.begin(space.state_count());
        let mut replaying = FnOracle::new(|s: D::Cell| {
            memo.free(space.index(s), || {
                // The search is deterministic: it asks in the recorded order.
                let &(_, which) = next.next().expect("second pass demands what the first did");
                D::kernel(grid, s, &demand.templates[which as usize])
            })
        });
        let result = astar_in(&space, start, goal, &config, &mut replaying, &mut self.scratch);
        (begin.elapsed(), result, demand)
    }

    /// `codacc.kernel`, `codacc.model` and `geom.template_build`: the work
    /// the search's checks stand for, replayed leg by leg.
    fn replay(
        &mut self,
        site: &Site<'_, D>,
        demand: &Demand<D>,
        model_units: Option<usize>,
        raw: &mut Raw,
        counts: &mut Counts,
    ) {
        let (map, grid, fp) = (site.map, site.grid, site.fp);
        let begin = Instant::now();
        for &(s, which) in &demand.states {
            black_box(D::kernel(grid, s, &demand.templates[which as usize]));
        }
        raw.kernel = begin.elapsed();

        if let Some(units) = model_units {
            let pool =
                self.model_pools.entry((map, units)).or_insert_with(|| CodaccPool::new(units));
            let begin = Instant::now();
            for (i, &(s, which)) in demand.states.iter().enumerate() {
                let tpl = &demand.templates[which as usize];
                counts.model_cycles += D::model(pool, i % units, grid, s, tpl, &mut self.cells);
            }
            raw.model = begin.elapsed();
            counts.model_checks += demand.states.len() as u64;
        }

        let begin = Instant::now();
        for &key in &demand.missed {
            black_box(D::build(&fp, key));
        }
        raw.build = begin.elapsed();
        counts.checks += demand.states.len() as u64;
        counts.lookups += demand.lookups;
        counts.builds += demand.missed.len() as u64;
    }
}

fn footprint2(task: &Task) -> Footprint2 {
    match task.shape {
        Shape::Point { .. } => Footprint2::point(),
        _ => Footprint2::car(),
    }
}

/// The pass's whole state: the world, both dimensions' warm state and the
/// check pools of the `Threads` arm.
struct Ladder {
    /// The 2D maps as the planner legs see them and as the legs below see
    /// them: two copies, because each pass advances the churn map itself.
    inner_grids2: HashMap<&'static str, Arc<BitGrid2>>,
    grids2: HashMap<&'static str, Arc<BitGrid2>>,
    campus: Arc<BitGrid3>,
    warm2: Warm<D2>,
    warm3: Warm<D3>,
    parallel_caches: HashMap<&'static str, Arc<TemplateCache2>>,
    check_pools: HashMap<usize, Arc<WorkerPool<Cell2>>>,
    /// L0 statistics are cumulative per pool; the last reading of each.
    l0: HashMap<(&'static str, usize), (u64, u64)>,
}

impl Ladder {
    fn new(list: &TaskList) -> Ladder {
        let (registry, _) = standard_world(WORLD_SEED, MAP_SIZE);
        let mut grids2: HashMap<&'static str, Arc<BitGrid2>> = HashMap::new();
        for name in crate::tasks::MAPS_2D {
            grids2.insert(
                name,
                registry.get(&MapId::new(name)).and_then(|e| e.grid2()).expect("2D map"),
            );
        }
        let campus = registry
            .get(&MapId::new(crate::tasks::CAMPUS))
            .and_then(|e| e.grid3())
            .expect("3D map");
        // The churn map as the first measured task sees it: the initial
        // obstacles and every warm-up batch applied.
        if list.workload == Workload::ChurnThreads {
            let grid = Arc::make_mut(grids2.get_mut(CHURN_MAP).expect("churn map"));
            let warm_batches = list.warm.len() / CHURN_EVERY;
            for d in list.initial.iter().chain(list.batches[..warm_batches].iter().flatten()) {
                grid.apply_delta(*d);
            }
        }
        Ladder {
            inner_grids2: grids2.clone(),
            grids2,
            campus,
            warm2: Warm::new(),
            warm3: Warm::new(),
            parallel_caches: HashMap::new(),
            check_pools: HashMap::new(),
            l0: HashMap::new(),
        }
    }

    /// `parallel.plan`: the `Threads` arm exactly as the worker builds it —
    /// persistent check pool, batched closure over the map's template
    /// cache — minus the speculation memo, which only a server has.
    fn parallel_plan(
        &mut self,
        map: &'static str,
        start: Cell2,
        goal: Cell2,
        threads: usize,
        runahead: usize,
    ) -> (Duration, SearchResult<Cell2>) {
        let grid = self.inner_grids2[map].clone();
        let cache = self.parallel_caches.entry(map).or_default().clone();
        let pool = self
            .check_pools
            .entry(threads)
            .or_insert_with(|| Arc::new(WorkerPool::new(threads)))
            .clone();
        let fp = Footprint2::car();
        let begin = Instant::now();
        let space = AltSpace2::new(GridSpace2::eight_connected(grid.width(), grid.height()), None);
        let planner = ParallelPlanner::with_pool_batched(
            ParallelConfig { threads, runahead },
            move |states: &[Cell2], out: &mut Vec<bool>| {
                let mut last: Option<(RotKey, Arc<FootprintTemplate2>)> = None;
                for &s in states {
                    let key = fp.rot_key(s, goal);
                    let tpl = match &last {
                        Some((k, t)) if *k == key => t.clone(),
                        _ => {
                            let (t, _) = cache.get(&fp, key);
                            last = Some((key, t.clone()));
                            t
                        }
                    };
                    out.push(template_check_2d(grid.as_ref(), s, &tpl).verdict.is_free());
                }
            },
            pool,
        );
        let run = planner.plan_config_in(
            &space,
            start,
            goal,
            &AstarConfig::default(),
            &mut self.warm2.scratch,
        );
        (begin.elapsed(), run.result)
    }

    /// `sim.plan` or `parallel.plan` of one task, through the function the
    /// worker calls for its platform. Returns the duration, the counts the
    /// plan reports and the plan (for the codec leg).
    fn inner(&mut self, task: &Task) -> (Duration, Counts, Planned) {
        let mut counts = Counts::default();
        let map = task.map;
        let (took, path, cost, expansions) = match (task.shape, task.platform) {
            (Shape::Car { start, goal }, Platform::Threads { threads, runahead }) => {
                let (took, r) = self.parallel_plan(map, start, goal, threads, runahead);
                (took, PlannedPath::P2(r.path), r.cost, r.stats.expansions)
            }
            (Shape::Car { start, goal } | Shape::Point { start, goal }, platform) => {
                let grid = self.inner_grids2[map].clone();
                let cache = self.warm2.sim_caches.entry(map).or_default().clone();
                let begin = Instant::now();
                let mut sc = Scenario2::new(&grid).with_template_cache(cache);
                (sc.footprint, sc.start, sc.goal) = (footprint2(task), start, goal);
                let out = match platform {
                    Platform::Racod { units } => {
                        let pool = self
                            .warm2
                            .sim_pools
                            .entry((map, units))
                            .or_insert_with(|| CodaccPool::new(units));
                        plan_racod_2d_pooled_in(
                            &sc,
                            pool,
                            &CostModel::racod(),
                            &mut self.warm2.scratch,
                        )
                    }
                    Platform::SimSoftware { threads, runahead } => plan_software_2d_in(
                        &sc,
                        threads,
                        runahead,
                        &CostModel::i3_software(),
                        &mut self.warm2.scratch,
                    ),
                    Platform::Threads { .. } => unreachable!("point tasks never run on Threads"),
                };
                let took = begin.elapsed();
                self.note_sim(task, &out, &mut counts);
                (
                    took,
                    PlannedPath::P2(out.result.path),
                    out.result.cost,
                    out.result.stats.expansions,
                )
            }
            (Shape::Drone { start, goal }, Platform::Racod { units }) => {
                let grid = self.campus.clone();
                let cache = self.warm3.sim_caches.entry(map).or_default().clone();
                let begin = Instant::now();
                let mut sc = Scenario3::new(&grid).with_template_cache(cache);
                (sc.footprint, sc.start, sc.goal) = (Footprint3::drone(), start, goal);
                let pool = self
                    .warm3
                    .sim_pools
                    .entry((map, units))
                    .or_insert_with(|| CodaccPool::new(units));
                let out = plan_racod_3d_pooled_in(
                    &sc,
                    pool,
                    &CostModel::racod(),
                    &mut self.warm3.scratch,
                );
                let took = begin.elapsed();
                self.note_sim(task, &out, &mut counts);
                (
                    took,
                    PlannedPath::P3(out.result.path),
                    out.result.cost,
                    out.result.stats.expansions,
                )
            }
            (Shape::Drone { .. }, _) => unreachable!("drone tasks run on Racod"),
        };
        let planned = Planned {
            path,
            cost,
            expansions,
            sim_cycles: counts.sim_cycles,
            queue_wait: Duration::ZERO,
            service_time: Duration::ZERO,
            warm_start: true,
        };
        (took, counts, planned)
    }

    fn note_sim<S>(&mut self, task: &Task, out: &PlanOutcome<S>, counts: &mut Counts) {
        counts.sim_cycles += out.cycles;
        counts.spec_issued += out.stats.spec_issued;
        counts.spec_used += out.stats.spec_used;
        counts.spec_hits += out.stats.spec_hits;
        counts.demand_computed += out.stats.demand_computed;
        if let (Some(l0), Platform::Racod { units }) = (out.l0_stats, task.platform) {
            self.l0.insert((task.map, units), (l0.hits, l0.misses));
        }
    }

    /// The legs below the planner for one task: the bare search, the
    /// replays of its checks and template builds, and the small fixed
    /// costs (`rasexp.targets`, `net.codec`).
    fn below(&mut self, task: &Task, planned: &Planned, raw: &mut Raw, counts: &mut Counts) {
        let model_units = match task.platform {
            Platform::Racod { units } => Some(units),
            _ => None,
        };
        let map = task.map;
        match task.shape {
            Shape::Car { start, goal } | Shape::Point { start, goal } => {
                let grid = self.grids2[map].clone();
                let site = Site::<D2> { map, grid: &grid, fp: footprint2(task) };
                let (took, result, demand) = self.warm2.search(&site, start, goal);
                raw.search_plan = took;
                counts.expansions = result.stats.expansions;
                self.warm2.replay(&site, &demand, model_units, raw, counts);

                let spec = SpeculationConfig::default();
                let begin = Instant::now();
                black_box(speculation_targets(start, goal, spec.radius, spec.chain_depth));
                raw.targets = begin.elapsed();
            }
            Shape::Drone { start, goal } => {
                let grid = self.campus.clone();
                let site = Site::<D3> { map, grid: &grid, fp: Footprint3::drone() };
                let (took, result, demand) = self.warm3.search(&site, start, goal);
                raw.search_plan = took;
                counts.expansions = result.stats.expansions;
                self.warm3.replay(&site, &demand, model_units, raw, counts);
            }
        }

        // `net.codec`: one request and one response through the frame codec.
        let request = Message::PlanReq { corr: 1, req: task.request() };
        let response = Message::PlanResp {
            corr: 1,
            result: WireResult::Done(PlanResponse {
                id: 1,
                outcome: Outcome::Planned(planned.clone()),
                worker: 0,
            }),
        };
        let begin = Instant::now();
        for message in [&request, &response] {
            let bytes = encode_frame(message);
            black_box(decode_frame(&bytes, DEFAULT_MAX_FRAME).expect("own frame decodes"));
        }
        raw.codec = begin.elapsed();
    }

    /// L0 hit rate over every CODAcc pool the `sim.plan` legs used.
    fn l0_hit_rate(&self) -> f64 {
        let (hits, misses) =
            self.l0.values().fold((0, 0), |(h, m), &(hits, misses)| (h + hits, m + misses));
        per(hits as f64, (hits + misses) as f64)
    }

    /// `grid.apply_delta`: a batch applied to one of the ladder's private
    /// copies of the churn map (`inner`: the planner legs' copy).
    fn apply_delta(&mut self, batch: &[GridDelta2], inner: bool) -> Duration {
        let grids = if inner { &mut self.inner_grids2 } else { &mut self.grids2 };
        let grid = Arc::make_mut(grids.get_mut(CHURN_MAP).expect("churn map"));
        let begin = Instant::now();
        for d in batch {
            black_box(grid.apply_delta(*d));
        }
        begin.elapsed()
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Mean of `total` over `n`, 0 when the leg never ran.
fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// Runs the ladder pass, writes the trace and returns the per-layer
/// metrics of the program's layers in table order.
pub fn run(
    list: &TaskList,
    measured: &Measured,
    counters: &ServerCounters,
    epoch: Instant,
) -> Result<Values, String> {
    let wire = list.workload.over_wire();
    let served_ms = calibrated_ms(measured);
    let mut trace = Trace::default();

    // Served pass: the outer span of every request, with the queue and
    // service intervals the response reported rebuilt inside it.
    for s in &measured.samples {
        let root = trace.add(
            None,
            if wire { "net.plan" } else { "server.plan" },
            s.task,
            s.start,
            s.latency,
        );
        if s.verdict == Verdict::Failed {
            continue;
        }
        // In process the queue starts at submit; over the wire the server's
        // interval is centred in the round trip, its true offset unknown.
        let inside = s.queue_wait + s.service_time;
        let lead = if wire { s.latency.saturating_sub(inside) / 2 } else { Duration::ZERO };
        trace.add(Some(root), "server.queue", s.task, s.start + lead, s.queue_wait);
        trace.add(
            Some(root),
            "server.service",
            s.task,
            s.start + lead + s.queue_wait,
            s.service_time,
        );
    }
    for d in &measured.deltas {
        trace.add(None, "server.delta", d.after_task, d.start, d.took);
    }

    // Ladder pass.
    let n = (LADDER_CHUNKS * list.workload.chunk()).min(list.tasks.len());
    let mut ladder = Ladder::new(list);
    // Pieces as long as the served pass's chunks: a burst after every few
    // short plans would leave each of them to start on cold caches.
    let block = list.workload.chunk();
    let batch_after = |i: usize| list.batch_after(list.warm.len() + i + 1);

    // First, chunk by chunk and each leg back to back as a worker runs
    // plans (a 0.4 ms point plan started cold between other legs reads a
    // third slower than inside a busy server): the chunk through a private
    // wire stack (`net.plan`, over the wire only), through a private
    // in-process server (`server.plan`) and through the planner leg — the
    // three within a second of each other, where the served pass is a
    // quarter of a minute and one of the host's moods away. With several
    // clients the queue is part of the span, and only the served pass has it.
    let mut first = Phase::begin(list.workload.deep_weight());
    let single = list.workload.clients() == 1;
    let mut wire_env = wire.then(|| set_up(list, true, &mut first)).transpose()?;
    let mut local_env = single.then(|| set_up(list, false, &mut first)).transpose()?;
    // Per task: (start, raw duration, piece) of a leg.
    type Leg = (Duration, Duration, usize);
    let (mut net_legs, mut server_legs) = (Vec::<Option<Leg>>::new(), Vec::<Option<Leg>>::new());
    let mut inner_legs: Vec<(Leg, Counts, Planned)> = Vec::with_capacity(n);
    for (b, tasks) in list.tasks[..n].chunks(block).enumerate() {
        for (env, legs, churn) in
            [(&mut wire_env, &mut net_legs, false), (&mut local_env, &mut server_legs, true)]
        {
            let Some(env) = env else { continue };
            let piece = first.walls.len();
            let mut client = env.client();
            first.time(|| {
                for (k, task) in tasks.iter().enumerate() {
                    let i = b * block + k;
                    let s = client.serve(task, i, 0, epoch);
                    legs.push((s.verdict == Verdict::Ok).then_some((s.start, s.latency, piece)));
                    if let Some(batch) = batch_after(i).filter(|_| churn) {
                        client.apply(batch);
                    }
                }
            });
        }
        let piece = first.walls.len();
        first.time(|| {
            for (k, task) in tasks.iter().enumerate() {
                let at = epoch.elapsed();
                let (took, counts, planned) = ladder.inner(task);
                inner_legs.push(((at, took, piece), counts, planned));
                if let Some(batch) = batch_after(b * block + k) {
                    ladder.apply_delta(batch, true);
                }
            }
        });
    }
    drop((wire_env, local_env));
    let reference_ns = |leg: &Leg| ns(leg.1) * first.factor(leg.2, None);

    // Then, task by task and interleaved so host state is shared, the legs
    // below the planner.
    let mut per_task: Vec<(Legs, Inner, Counts)> = Vec::with_capacity(n);
    let (mut targets, mut codec, mut delta_ns, mut delta_batches) = (0.0, 0.0, 0.0, 0.0);
    let mut phase = Phase::begin(list.workload.deep_weight());
    let mut blocks = Vec::new();
    for (b, tasks) in list.tasks[..n].chunks(block).enumerate() {
        blocks.push(phase.time(|| {
            tasks
                .iter()
                .enumerate()
                .map(|(k, task)| {
                    let i = b * block + k;
                    let at = epoch.elapsed();
                    let (mut raw, mut counts) = (Raw::default(), inner_legs[i].1);
                    ladder.below(task, &inner_legs[i].2, &mut raw, &mut counts);
                    raw.apply_delta = batch_after(i).map(|batch| ladder.apply_delta(batch, false));
                    (i, at, raw, counts)
                })
                .collect::<Vec<_>>()
        }));
    }
    for (b, raws) in blocks.into_iter().enumerate() {
        let f = phase.factor(b, None);
        for (i, at, raw, counts) in raws {
            let task = &list.tasks[i];
            let inner = Inner::of(task.platform);
            // Spans of the ladder are laid end to end from the task's start;
            // a replay leg names the span whose work it stands for.
            let mut cursor = at;
            let mut add = |trace: &mut Trace, parent, name, took: Duration| {
                let id = trace.add(parent, name, i, cursor, took);
                cursor += took;
                id
            };
            // The first pass's legs of this task, outermost first; each
            // names the one around it.
            let ladder_legs = [
                ("net.plan", net_legs.get(i).copied().flatten()),
                ("server.plan", server_legs.get(i).copied().flatten()),
                (
                    if inner == Inner::Parallel { "parallel.plan" } else { "sim.plan" },
                    Some(inner_legs[i].0),
                ),
            ];
            let mut inner_id = None;
            for (name, leg) in ladder_legs {
                if let Some((at, took, _)) = leg {
                    inner_id = Some(trace.add(inner_id, name, i, at, took));
                }
            }
            let search_id = add(&mut trace, inner_id, "search.plan", raw.search_plan);
            add(&mut trace, Some(search_id), "codacc.kernel", raw.kernel);
            if inner == Inner::SimModel {
                add(&mut trace, inner_id, "codacc.model", raw.model);
            }
            add(&mut trace, Some(search_id), "geom.template_build", raw.build);
            add(&mut trace, None, "rasexp.targets", raw.targets);
            add(&mut trace, None, "net.codec", raw.codec);
            if let Some(took) = raw.apply_delta {
                add(&mut trace, None, "grid.apply_delta", took);
                delta_ns += ns(took) * f;
                delta_batches += 1.0;
            }
            // With one client every span comes from the first pass; with
            // several the outermost one is the served pass's, queue and
            // all, scaled like the legs it is compared with: as work that
            // adds up. A request that was not served has no span.
            let unserved = f64::INFINITY;
            let server_plan = if single {
                server_legs[i].as_ref().map_or(unserved, reference_ns)
            } else {
                let served = &measured.samples[i];
                match served.verdict {
                    Verdict::Ok => ns(served.latency) * measured.phase.factor(served.chunk, None),
                    _ => unserved,
                }
            };
            let legs = Legs {
                outer: if wire {
                    net_legs[i].as_ref().map_or(unserved, reference_ns)
                } else {
                    server_plan
                },
                server_plan,
                inner: reference_ns(&inner_legs[i].0),
                search_plan: ns(raw.search_plan) * f,
                kernel: ns(raw.kernel) * f,
                model: ns(raw.model) * f,
                build: ns(raw.build) * f,
            };
            targets += ns(raw.targets) * f;
            codec += ns(raw.codec) * f;
            per_task.push((legs, inner, counts));
        }
    }
    let l0_hit_rate = ladder.l0_hit_rate();
    drop(ladder);
    let path = trace.write(list.workload.name(), list.seed)?;
    println!("trace {} spans -> {}", trace.spans.len(), path.display());

    // Totals over the ladder's tasks. A failed served request has no
    // finite outer span; it is left out of the time totals.
    let mut total = Selfs::default();
    let (mut outer, mut timed, mut kernel_all, mut model_all) = (0.0, 0.0, 0.0, 0.0);
    let (mut sim_plan, mut sim_tasks, mut sim_expansions) = (0.0, 0.0, 0.0);
    let (mut parallel_plan, mut parallel_tasks) = (0.0, 0.0);
    let mut c = Counts::default();
    for (legs, inner, counts) in &per_task {
        macro_rules! sum { ($($f:ident),*) => { $(c.$f += counts.$f;)* } }
        sum!(expansions, checks, lookups, builds, model_checks, model_cycles, sim_cycles);
        sum!(spec_issued, spec_used, spec_hits, demand_computed);
        if !legs.outer.is_finite() {
            continue;
        }
        let s = self_times(legs, *inner);
        total.net += s.net;
        total.server += s.server;
        total.sim += s.sim;
        total.parallel += s.parallel;
        total.search += s.search;
        total.checks += s.checks;
        total.build += s.build;
        outer += legs.outer;
        timed += 1.0;
        kernel_all += legs.kernel;
        model_all += legs.model;
        if *inner == Inner::Parallel {
            parallel_plan += legs.inner;
            parallel_tasks += 1.0;
        } else {
            sim_plan += legs.inner;
            sim_tasks += 1.0;
            sim_expansions += counts.expansions as f64;
        }
    }
    let tasks = per_task.len() as f64;
    println!(
        "ladder {} tasks, self µs/plan: net {:.1} server {:.1} sim {:.1} parallel {:.1} search {:.1} \
         checks {:.1} build {:.1} = {:.1} (outermost span {:.1})",
        per_task.len(),
        total.net / timed / 1e3,
        total.server / timed / 1e3,
        total.sim / timed / 1e3,
        total.parallel / timed / 1e3,
        total.search / timed / 1e3,
        total.checks / timed / 1e3,
        total.build / timed / 1e3,
        total.total() / timed / 1e3,
        outer / timed / 1e3
    );

    // Served-pass statistics.
    let factors: Vec<f64> =
        (0..measured.phase.walls.len()).map(|k| measured.phase.factor(k, None)).collect();
    let factor = |chunk: usize| factors[chunk];
    let ok = || measured.samples.iter().filter(|s| s.verdict == Verdict::Ok);
    let p50_us = |pick: fn(&crate::serve::Sample) -> Duration| {
        let v: Vec<f64> = ok().map(|s| pick(s).as_secs_f64() * 1e6 * factor(s.chunk)).collect();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5)
        }
    };
    let p50_of = |priority: Priority| {
        let v: Vec<f64> = measured
            .samples
            .iter()
            .filter(|s| {
                list.tasks[s.task].priority == priority && list.workload == Workload::MixFleet
            })
            .map(|s| served_ms[s.task])
            .collect();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5)
        }
    };
    let delta_ms = per(
        measured.deltas.iter().map(|d| d.took.as_secs_f64() * 1e3 * factor(d.chunk)).sum(),
        measured.deltas.len() as f64,
    );
    let completed = counters.completed.max(1.0);
    Ok(vec![
        ("net.self_us", per(total.net, timed) / 1e3),
        ("net.share", total.net / outer),
        ("net.codec_us", codec / tasks / 1e3),
        ("server.self_us", per(total.server, timed) / 1e3),
        ("server.share", total.server / outer),
        ("server.queue_us_p50", p50_us(|s| s.queue_wait)),
        ("server.service_us_p50", p50_us(|s| s.service_time)),
        ("server.delta_ms", delta_ms),
        ("server.p50_high_ms", p50_of(Priority::High)),
        ("server.p50_low_ms", p50_of(Priority::Low)),
        ("server.batch_mean", counters.batch_mean),
        ("server.affinity_hit_rate", counters.affinity_hit_rate),
        ("server.template_hit_rate", counters.template_hit_rate),
        ("server.spec_prechecks_per_plan", counters.spec_prechecks / completed),
        ("server.spec_hit_rate", counters.spec_hit_rate),
        ("server.spec_wasted_per_plan", counters.spec_wasted / completed),
        ("server.replans_per_plan", counters.replans / completed),
        ("server.incremental_repairs_per_plan", counters.incremental_repairs / completed),
        ("sim.plan_us", per(sim_plan, sim_tasks) / 1e3),
        ("sim.self_us", per(total.sim, sim_tasks) / 1e3),
        ("sim.share", total.sim / outer),
        ("sim.self_us_per_expansion", per(total.sim, sim_expansions) / 1e3),
        ("sim.cycles_per_plan", per(c.sim_cycles as f64, sim_tasks)),
        ("sim.host_ns_per_cycle", per(sim_plan, c.sim_cycles as f64)),
        ("parallel.plan_us", per(parallel_plan, parallel_tasks) / 1e3),
        ("parallel.self_us", per(total.parallel, parallel_tasks) / 1e3),
        ("parallel.share", total.parallel / outer),
        ("search.self_us", per(total.search, timed) / 1e3),
        ("search.share", total.search / outer),
        ("search.ns_per_expansion", per(total.search, c.expansions as f64)),
        ("search.expansions_per_plan", c.expansions as f64 / tasks),
        ("search.checks_per_plan", c.checks as f64 / tasks),
        ("codacc.model_ns_per_check", per(model_all, c.model_checks as f64)),
        ("codacc.model_share", model_all / outer),
        ("codacc.model_cycles_per_check", per(c.model_cycles as f64, c.model_checks as f64)),
        ("codacc.kernel_ns_per_check", per(kernel_all, c.checks as f64)),
        ("codacc.kernel_share", kernel_all / outer),
        ("geom.template_build_us", per(total.build, timed) / 1e3),
        ("geom.builds_per_plan", c.builds as f64 / tasks),
        ("geom.template_hit_rate", 1.0 - per(c.builds as f64, c.lookups as f64)),
        ("geom.share", total.build / outer),
        ("grid.apply_delta_us", per(delta_ns, delta_batches) / 1e3),
        ("grid.share", delta_ns / outer),
        ("rasexp.accuracy", per(c.spec_used as f64, c.spec_issued as f64)),
        ("rasexp.coverage", per(c.spec_hits as f64, (c.spec_hits + c.demand_computed) as f64)),
        ("rasexp.targets_us", targets / tasks / 1e3),
        ("mem.l0_hit_rate", l0_hit_rate),
    ])
}

/// `1 − traced ÷ untraced plans_per_core_s`, against the last untraced run
/// of exactly these inputs — its file is named by their digest — (0 and a
/// note when there is none).
pub fn trace_overhead(list: &TaskList, traced_plans_per_core_s: f64) -> f64 {
    match recall_untraced(list) {
        Some(untraced) => 1.0 - traced_plans_per_core_s / untraced,
        None => {
            println!(
                "harness.trace_overhead_share not measured: run untraced with these inputs first"
            );
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire task on `Racod`: 100 µs round trip around a 60 µs server
    /// span around a 40 µs simulated plan; the bare search takes 12 µs of
    /// which the kernel is 2; template builds take 1, the model replay 15.
    const LEGS: Legs = Legs {
        outer: 100.0,
        server_plan: 60.0,
        inner: 40.0,
        search_plan: 12.0,
        kernel: 2.0,
        model: 15.0,
        build: 1.0,
    };

    #[test]
    fn self_times_add_up_to_the_outermost_span_on_every_platform() {
        // Subtracting a child from two parents, or never subtracting it,
        // would break this sum.
        for inner in [Inner::SimModel, Inner::SimKernel, Inner::Parallel] {
            let s = self_times(&LEGS, inner);
            assert!((s.total() - LEGS.outer).abs() < 1e-9, "{inner:?}: {s:?}");
        }
    }

    #[test]
    fn each_layer_keeps_only_what_its_children_do_not_cover() {
        let s = self_times(&LEGS, Inner::SimModel);
        assert_eq!(s.net, 40.0);
        assert_eq!(s.server, 20.0);
        assert_eq!(s.search, 10.0); // 12 − kernel 2
        assert_eq!(s.checks, 15.0); // the model, not the kernel, is on the Racod path
        assert_eq!(s.sim, 40.0 - 10.0 - 15.0 - 1.0);
        assert_eq!(s.parallel, 0.0);

        let p = self_times(&LEGS, Inner::Parallel);
        assert_eq!(p.checks, 2.0);
        assert_eq!(p.parallel, 40.0 - 10.0 - 2.0 - 1.0); // what the threads add to a bare search
        assert_eq!(p.sim, 0.0);

        // Threads that save more than they cost read as negative self time.
        let slow = Legs { inner: 10.0, ..LEGS };
        assert!(self_times(&slow, Inner::Parallel).parallel < 0.0);
    }

    #[test]
    fn in_process_workloads_have_no_net_layer() {
        let local = Legs { server_plan: LEGS.outer, ..LEGS };
        assert_eq!(self_times(&local, Inner::SimModel).net, 0.0);
    }
}
