//! The four workloads and their task lists.
//!
//! A task list is a pure function of `(workload, seed, request count)`. It
//! is generated — and every task planned once by [`Reference`] — in the
//! supervising process, then handed to the measured process as text, so
//! the program under test sees only requests.

use crate::reference::{Answer, Reference, PATHLESS};
use racod_geom::{Cell2, Cell3};
use racod_grid::{BitGrid2, BitGrid3, GridDelta2, Occupancy2, Occupancy3};
use racod_net::standard_world;
use racod_search::AstarConfig;
use racod_server::{MapId, PlanRequest, Platform, Priority};
use racod_sim::{Footprint2, Footprint3};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed and edge length of `racod_net::standard_world`. The maps and the
/// warm-up tasks are part of set-up and the same for every `--seed`, so
/// `setup_s` times the same work in every run; only the measured tasks vary.
pub const WORLD_SEED: u64 = 7;
pub const MAP_SIZE: u32 = 128;

pub const CITIES: [&str; 4] = ["boston", "berlin", "paris", "shanghai"];
pub const MAPS_2D: [&str; 6] = ["boston", "berlin", "paris", "shanghai", "random", "rooms"];
pub const CAMPUS: &str = "campus";
/// The one map `churn_threads` plans and writes on.
pub const CHURN_MAP: &str = "boston";

/// p99 needs ten samples beyond it, so no workload runs fewer requests.
pub const MIN_REQUESTS: usize = 1_100;
/// Untimed warm-up tasks served first, as a share of the measured count.
pub const WARMUP_SHARE: f64 = 0.05;
/// `churn_threads`: a delta batch after every this many plans …
pub const CHURN_EVERY: usize = 4;
/// … moving each of this many one-cell obstacles.
pub const CHURN_OBSTACLES: usize = 12;

/// Car endpoints lie this far apart (Euclidean cells): far enough that the
/// search does real work, near enough that 1 100 plans fit the run.
const CAR_DISTANCE: std::ops::RangeInclusive<f64> = 32.0..=64.0;
/// Point endpoints: short plans, so that fixed per-request costs dominate.
const POINT_DISTANCE: std::ops::RangeInclusive<f64> = 16.0..=48.0;
/// Drone endpoints lie at least this far apart.
const MIN_DISTANCE: f64 = 16.0;

/// Search effort (expansions of the reference search) a task must take to
/// be kept. Uniform endpoints give a heavy-tailed effort, so the total work
/// of 1 100 tasks would move by several percent between seeds and p99
/// would be set by a handful of monsters; inside a band both repeat.
const CAR_EFFORT: std::ops::RangeInclusive<u64> = 150..=700;
const POINT_EFFORT: std::ops::RangeInclusive<u64> = 80..=400;
const DRONE_EFFORT: std::ops::RangeInclusive<u64> = 400..=2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CarLocal,
    ChurnThreads,
    MixFleet,
    PointWire,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CarLocal, Workload::ChurnThreads, Workload::MixFleet, Workload::PointWire];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CarLocal => "car_local",
            Workload::ChurnThreads => "churn_threads",
            Workload::MixFleet => "mix_fleet",
            Workload::PointWire => "point_wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CarLocal => {
                "car footprint, Racod platform, in-process, fresh goals: CODAcc model, sim event \
                 loop and template builds do the work; net none, server little"
            }
            Workload::ChurnThreads => {
                "car on real threads with a map delta every 4 plans: delta application and \
                 racod-parallel do the work, the CODAcc model none; only arm consulting SpecMemo2"
            }
            Workload::MixFleet => {
                "4 clients on 1 worker, all maps and platforms, priorities: the only standing \
                 queue, so scheduling and batching work here; 3D requests own the tail"
            }
            Workload::PointWire => {
                "short point-robot plans over loopback TCP: per-request fixed costs (socket, \
                 codec, thread hand-offs) and bare search dominate; zero template builds"
            }
        }
    }

    /// Request count that takes ≈30 s to serve on the reference box.
    fn base_requests(self) -> usize {
        match self {
            Workload::CarLocal => 2_700,
            Workload::ChurnThreads | Workload::MixFleet => 3_600,
            Workload::PointWire => 48_000,
        }
    }

    /// Measured requests for a run budget of `seconds`: all four counts
    /// scale by one factor and none drops below [`MIN_REQUESTS`]. Counts,
    /// not durations, are fixed, so they repeat exactly.
    pub fn requests(self, seconds: u32) -> usize {
        (self.base_requests() * seconds as usize / 30).max(MIN_REQUESTS)
    }

    /// Requests per calibration chunk (≈200 ms of work on the reference
    /// box), so a burst brackets every fifth of a second.
    pub fn chunk(self) -> usize {
        match self {
            Workload::CarLocal => 20,
            Workload::ChurnThreads => 24,
            Workload::MixFleet => 40,
            Workload::PointWire => 500,
        }
    }

    /// Weight of the calibration burst's deep (latency-bound) part in this
    /// workload's yardstick, the rest being on the wide (throughput-bound)
    /// part. A planner computing alone follows the wide part; workloads
    /// whose plans wait on other threads' hand-offs follow both. Fitted
    /// once on the reference box, on runs of one seed across host states.
    pub fn deep_weight(self) -> f64 {
        match self {
            Workload::CarLocal | Workload::PointWire => 0.0,
            Workload::ChurnThreads | Workload::MixFleet => 0.5,
        }
    }

    /// Whether requests travel through a `Netd` and a `NetClient`.
    pub fn over_wire(self) -> bool {
        self == Workload::PointWire
    }

    /// Closed-loop clients: each waits for its plan before asking again.
    pub fn clients(self) -> usize {
        match self {
            Workload::MixFleet => 4,
            _ => 1,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so no repository change can
/// alter a task list.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` items cycling through freshly shuffled copies of `pattern`: the
    /// mix is exact in every block, so it does not drift between seeds.
    fn stratified<T: Copy>(&mut self, pattern: &[T], n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n + pattern.len());
        while out.len() < n {
            let mut block = pattern.to_vec();
            self.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(n);
        out
    }
}

/// Who plans from where to where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Car { start: Cell2, goal: Cell2 },
    Point { start: Cell2, goal: Cell2 },
    Drone { start: Cell3, goal: Cell3 },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    pub map: &'static str,
    pub shape: Shape,
    pub platform: Platform,
    pub priority: Priority,
    pub deadline: Option<Duration>,
    /// Canonical cost bits the reference planner found.
    pub reference: u64,
}

impl Task {
    /// The request the program sees.
    pub fn request(&self) -> PlanRequest {
        let workload = match self.shape {
            Shape::Car { start, goal } => {
                racod_server::Workload::Plan2 { start, goal, footprint: Footprint2::car() }
            }
            Shape::Point { start, goal } => {
                racod_server::Workload::Plan2 { start, goal, footprint: Footprint2::point() }
            }
            Shape::Drone { start, goal } => {
                racod_server::Workload::Plan3 { start, goal, footprint: Footprint3::drone() }
            }
        };
        PlanRequest {
            map: MapId::new(self.map),
            workload,
            astar: AstarConfig::default(),
            platform: self.platform,
            priority: self.priority,
            deadline: self.deadline,
        }
    }
}

/// Everything the measured process needs: tasks, deltas and their digests.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskList {
    pub workload: Workload,
    pub seed: u64,
    /// Served untimed during set-up.
    pub warm: Vec<Task>,
    /// Served and measured.
    pub tasks: Vec<Task>,
    /// `churn_threads`: obstacles placed at set-up, before warm-up.
    pub initial: Vec<GridDelta2>,
    /// `churn_threads`: batch `k` is applied after plan `CHURN_EVERY·(k+1)`
    /// of the warm-up-then-measured sequence.
    pub batches: Vec<Vec<GridDelta2>>,
    /// Seconds the supervisor spent generating and reference-planning.
    pub reference_s: f64,
}

const RACOD: Platform = Platform::Racod { units: 8 };
const SIM_SOFTWARE: Platform = Platform::SimSoftware { threads: 4, runahead: Some(2) };
const THREADS: Platform = Platform::Threads { threads: 2, runahead: 2 };
/// Never expected to expire; an expiry is a failure.
const FLEET_DEADLINE: Duration = Duration::from_secs(5);

/// The maps the tasks are drawn on (the same world set-up builds).
struct Maps {
    grids2: BTreeMap<&'static str, Arc<BitGrid2>>,
    campus: Arc<BitGrid3>,
}

impl Maps {
    fn build() -> Maps {
        let (registry, _) = standard_world(WORLD_SEED, MAP_SIZE);
        let entry = |name: &str| registry.get(&MapId::new(name)).expect("standard world map");
        Maps {
            grids2: MAPS_2D
                .iter()
                .map(|&name| (name, entry(name).grid2().expect("2D map")))
                .collect(),
            campus: entry(CAMPUS).grid3().expect("3D map"),
        }
    }
}

fn cell2(rng: &mut Rng, grid: &BitGrid2) -> Cell2 {
    Cell2::new(rng.below(grid.width() as u64) as i64, rng.below(grid.height() as u64) as i64)
}

/// A task is kept when it has a path and its search effort lies in `band`.
fn kept(answer: &Answer, band: &std::ops::RangeInclusive<u64>) -> bool {
    answer.cost != PATHLESS && band.contains(&answer.expansions)
}

/// A car task on `grid`: endpoints drawn uniformly, kept when the footprint
/// is free at both (the goal at rest, as the search checks it) and the
/// reference planner finds a path. Every task is a fresh goal.
fn car(rng: &mut Rng, reference: &mut Reference, grid: &BitGrid2) -> (Shape, u64) {
    let fp = Footprint2::car();
    loop {
        let (start, goal) = (cell2(rng, grid), cell2(rng, grid));
        if !CAR_DISTANCE.contains(&start.euclidean(goal))
            || !reference.free2(grid, fp, goal, goal)
            || !reference.free2(grid, fp, start, goal)
        {
            continue;
        }
        let answer = reference.plan2(grid, fp, start, goal);
        if kept(&answer, &CAR_EFFORT) {
            return (Shape::Car { start, goal }, answer.cost);
        }
    }
}

fn point(rng: &mut Rng, reference: &mut Reference, grid: &BitGrid2) -> (Shape, u64) {
    let fp = Footprint2::point();
    loop {
        let (start, goal) = (cell2(rng, grid), cell2(rng, grid));
        if !POINT_DISTANCE.contains(&start.euclidean(goal))
            || grid.get(start) != Some(false)
            || grid.get(goal) != Some(false)
        {
            continue;
        }
        let answer = reference.plan2(grid, fp, start, goal);
        if kept(&answer, &POINT_EFFORT) {
            return (Shape::Point { start, goal }, answer.cost);
        }
    }
}

fn drone(rng: &mut Rng, reference: &mut Reference, grid: &BitGrid3) -> (Shape, u64) {
    let cell = |rng: &mut Rng| {
        Cell3::new(
            rng.below(grid.size_x() as u64) as i64,
            rng.below(grid.size_y() as u64) as i64,
            rng.below(grid.size_z() as u64) as i64,
        )
    };
    loop {
        let (start, goal) = (cell(rng), cell(rng));
        if start.euclidean(goal) < MIN_DISTANCE
            || !reference.free3(grid, goal, goal)
            || !reference.free3(grid, start, goal)
        {
            continue;
        }
        let answer = reference.plan3(grid, start, goal);
        if kept(&answer, &DRONE_EFFORT) {
            return (Shape::Drone { start, goal }, answer.cost);
        }
    }
}

fn plain(map: &'static str, (shape, reference): (Shape, u64), platform: Platform) -> Task {
    Task { map, shape, platform, priority: Priority::Normal, deadline: None, reference }
}

/// What one `mix_fleet` request is.
#[derive(Clone, Copy)]
enum FleetKind {
    CarRacod,
    Point,
    CarSimSoftware,
    CarThreads,
    Drone,
}

/// 40 % city/car/Racod, 25 % random+rooms/point/Racod, 15 %
/// city/car/SimSoftware, 10 % city/car/Threads, 10 % campus/drone/Racod.
const FLEET_MIX: [FleetKind; 20] = {
    use FleetKind::*;
    [
        CarRacod,
        CarRacod,
        CarRacod,
        CarRacod,
        CarRacod,
        CarRacod,
        CarRacod,
        CarRacod,
        Point,
        Point,
        Point,
        Point,
        Point,
        CarSimSoftware,
        CarSimSoftware,
        CarSimSoftware,
        CarThreads,
        CarThreads,
        Drone,
        Drone,
    ]
};

/// 10 % High, 70 % Normal, 20 % Low.
const FLEET_PRIORITIES: [Priority; 10] = {
    use Priority::*;
    [High, Normal, Normal, Normal, Normal, Normal, Normal, Normal, Low, Low]
};

/// Generates `n` tasks of `workload` from one stream of `seed`.
fn draw(
    workload: Workload,
    rng: &mut Rng,
    reference: &mut Reference,
    maps: &Maps,
    n: usize,
) -> Vec<Task> {
    let grid = |name: &str| maps.grids2[name].as_ref();
    match workload {
        Workload::CarLocal => rng
            .stratified(&CITIES, n)
            .into_iter()
            .map(|map| plain(map, car(rng, reference, grid(map)), RACOD))
            .collect(),
        Workload::PointWire => rng
            .stratified(&MAPS_2D, n)
            .into_iter()
            .map(|map| plain(map, point(rng, reference, grid(map)), RACOD))
            .collect(),
        Workload::MixFleet => {
            let kinds = rng.stratified(&FLEET_MIX, n);
            let priorities = rng.stratified(&FLEET_PRIORITIES, n);
            kinds
                .into_iter()
                .zip(priorities)
                .map(|(kind, priority)| {
                    let city = CITIES[rng.below(4) as usize];
                    let open = ["random", "rooms"][rng.below(2) as usize];
                    let task = match kind {
                        FleetKind::CarRacod => plain(city, car(rng, reference, grid(city)), RACOD),
                        FleetKind::Point => plain(open, point(rng, reference, grid(open)), RACOD),
                        FleetKind::CarSimSoftware => {
                            plain(city, car(rng, reference, grid(city)), SIM_SOFTWARE)
                        }
                        FleetKind::CarThreads => {
                            plain(city, car(rng, reference, grid(city)), THREADS)
                        }
                        FleetKind::Drone => {
                            plain(CAMPUS, drone(rng, reference, &maps.campus), RACOD)
                        }
                    };
                    Task { priority, deadline: Some(FLEET_DEADLINE), ..task }
                })
                .collect()
        }
        Workload::ChurnThreads => unreachable!("churn tasks are drawn in lock-step with deltas"),
    }
}

/// `churn_threads`: tasks and delta batches drawn together on a private
/// grid advanced in lock-step, so every task is planned on exactly the
/// snapshot its request will see.
fn draw_churn(list: &mut TaskList, reference: &mut Reference, maps: &Maps, warm: usize, n: usize) {
    let mut grid = BitGrid2::clone(&maps.grids2[CHURN_MAP]);
    // (task stream, delta stream) of the set-up phase, then of the measured one.
    let mut streams = [
        (Rng::new(WORLD_SEED, 1), Rng::new(WORLD_SEED, 3)),
        (Rng::new(list.seed, 2), Rng::new(list.seed, 3)),
    ];
    let free_cell = |rng: &mut Rng, grid: &BitGrid2| loop {
        let c = cell2(rng, grid);
        if grid.get(c) == Some(false) {
            return c;
        }
    };
    let mut obstacles = Vec::with_capacity(CHURN_OBSTACLES);
    for _ in 0..CHURN_OBSTACLES {
        let cell = free_cell(&mut streams[0].1, &grid);
        grid.apply_delta(GridDelta2::Appear { cell });
        list.initial.push(GridDelta2::Appear { cell });
        obstacles.push(cell);
    }
    for i in 0..warm + n {
        let (task_rng, delta_rng) = &mut streams[(i >= warm) as usize];
        let into = if i < warm { &mut list.warm } else { &mut list.tasks };
        into.push(plain(CHURN_MAP, car(task_rng, reference, &grid), THREADS));
        if (i + 1) % CHURN_EVERY == 0 {
            let batch = obstacles
                .iter_mut()
                .map(|from| {
                    let to = free_cell(delta_rng, &grid);
                    let delta = GridDelta2::Move { from: *from, to };
                    grid.apply_delta(delta);
                    *from = to;
                    delta
                })
                .collect();
            list.batches.push(batch);
        }
    }
}

/// The task list of `workload` for `seed` with `n` measured requests.
pub fn generate(workload: Workload, seed: u64, n: usize) -> TaskList {
    let begin = Instant::now();
    let maps = Maps::build();
    let mut reference = Reference::new();
    let warm = (n as f64 * WARMUP_SHARE).ceil() as usize;
    let mut list = TaskList {
        workload,
        seed,
        warm: Vec::new(),
        tasks: Vec::new(),
        initial: Vec::new(),
        batches: Vec::new(),
        reference_s: 0.0,
    };
    if workload == Workload::ChurnThreads {
        draw_churn(&mut list, &mut reference, &maps, warm, n);
    } else {
        list.warm = draw(workload, &mut Rng::new(WORLD_SEED, 1), &mut reference, &maps, warm);
        list.tasks = draw(workload, &mut Rng::new(seed, 2), &mut reference, &maps, n);
    }
    list.reference_s = begin.elapsed().as_secs_f64();
    list
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl TaskList {
    /// The delta batch to apply once `served` plans of the warm-up-then-
    /// measured sequence are done, if one is due (`churn_threads` only).
    pub fn batch_after(&self, served: usize) -> Option<&[GridDelta2]> {
        (served > 0 && served.is_multiple_of(CHURN_EVERY))
            .then(|| self.batches.get(served / CHURN_EVERY - 1))
            .flatten()
            .map(Vec::as_slice)
    }

    /// Digest of the inputs (requests and deltas, not the reference
    /// costs): equal digests mean the program saw the same requests.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for t in self.warm.iter().chain(&self.tasks) {
            write_task(&mut text, t, false);
        }
        for d in self.initial.iter().chain(self.batches.iter().flatten()) {
            write_delta(&mut text, "delta", *d);
        }
        fnv1a(FNV_OFFSET, text.as_bytes())
    }

    /// Digest of the reference costs of the measured tasks.
    pub fn reference_digest(&self) -> u64 {
        self.tasks.iter().fold(FNV_OFFSET, |h, t| fnv1a(h, &t.reference.to_le_bytes()))
    }

    /// The text the supervisor pipes to the measured process.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "list {} {} {}",
            self.workload.name(),
            self.seed,
            self.reference_s.to_bits()
        );
        for (tag, tasks) in [("warm", &self.warm), ("task", &self.tasks)] {
            for t in tasks {
                out.push_str(tag);
                out.push(' ');
                write_task(&mut out, t, true);
            }
        }
        for d in &self.initial {
            write_delta(&mut out, "initial", *d);
        }
        for batch in &self.batches {
            out.push_str("batch\n");
            for d in batch {
                write_delta(&mut out, "move", *d);
            }
        }
        out
    }

    pub fn decode(text: &str) -> Result<TaskList, String> {
        let mut lines = text.lines();
        let head: Vec<&str> = lines.next().ok_or("empty task list")?.split(' ').collect();
        let [_, workload, seed, reference_s] = head[..] else {
            return Err("bad task list header".to_string());
        };
        let mut list = TaskList {
            workload: Workload::parse(workload).ok_or("unknown workload in task list")?,
            seed: num(seed)?,
            warm: Vec::new(),
            tasks: Vec::new(),
            initial: Vec::new(),
            batches: Vec::new(),
            reference_s: f64::from_bits(num(reference_s)?),
        };
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "warm" => list.warm.push(read_task(rest)?),
                "task" => list.tasks.push(read_task(rest)?),
                "initial" => list.initial.push(read_delta(rest)?),
                "batch" => list.batches.push(Vec::new()),
                "move" => {
                    list.batches.last_mut().ok_or("move before batch")?.push(read_delta(rest)?)
                }
                other => return Err(format!("unknown task list line `{other}`")),
            }
        }
        Ok(list)
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}` in task list"))
}

fn write_task(out: &mut String, t: &Task, with_reference: bool) {
    let (shape, s, g) = match t.shape {
        Shape::Car { start, goal } => ("car", (start.x, start.y, 0), (goal.x, goal.y, 0)),
        Shape::Point { start, goal } => ("point", (start.x, start.y, 0), (goal.x, goal.y, 0)),
        Shape::Drone { start, goal } => {
            ("drone", (start.x, start.y, start.z), (goal.x, goal.y, goal.z))
        }
    };
    let platform = match t.platform {
        Platform::Racod { units } => format!("racod:{units}"),
        Platform::SimSoftware { threads, runahead } => {
            format!("sim:{threads}:{}", runahead.map_or(-1, |r| r as i64))
        }
        Platform::Threads { threads, runahead } => format!("threads:{threads}:{runahead}"),
    };
    let priority = match t.priority {
        Priority::High => "high",
        Priority::Normal => "normal",
        Priority::Low => "low",
    };
    let deadline_ms = t.deadline.map_or(-1, |d| d.as_millis() as i64);
    let _ = write!(
        out,
        "{} {shape} {} {} {} {} {} {} {platform} {priority} {deadline_ms}",
        t.map, s.0, s.1, s.2, g.0, g.1, g.2
    );
    if with_reference {
        let _ = write!(out, " {}", t.reference);
    }
    out.push('\n');
}

fn read_task(line: &str) -> Result<Task, String> {
    let f: Vec<&str> = line.split(' ').collect();
    let [map, shape, sx, sy, sz, gx, gy, gz, platform, priority, deadline_ms, reference] = f[..]
    else {
        return Err(format!("bad task line `{line}`"));
    };
    let map = MAPS_2D
        .iter()
        .chain([&CAMPUS])
        .find(|&&m| m == map)
        .copied()
        .ok_or_else(|| format!("unknown map `{map}`"))?;
    let (s, g) = ((num(sx)?, num(sy)?, num(sz)?), (num(gx)?, num(gy)?, num(gz)?));
    let shape = match shape {
        "car" => Shape::Car { start: Cell2::new(s.0, s.1), goal: Cell2::new(g.0, g.1) },
        "point" => Shape::Point { start: Cell2::new(s.0, s.1), goal: Cell2::new(g.0, g.1) },
        "drone" => {
            Shape::Drone { start: Cell3::new(s.0, s.1, s.2), goal: Cell3::new(g.0, g.1, g.2) }
        }
        other => return Err(format!("unknown shape `{other}`")),
    };
    let p: Vec<&str> = platform.split(':').collect();
    let platform = match p[..] {
        ["racod", units] => Platform::Racod { units: num(units)? },
        ["sim", threads, runahead] => Platform::SimSoftware {
            threads: num(threads)?,
            runahead: usize::try_from(num::<i64>(runahead)?).ok(),
        },
        ["threads", threads, runahead] => {
            Platform::Threads { threads: num(threads)?, runahead: num(runahead)? }
        }
        _ => return Err(format!("unknown platform `{platform}`")),
    };
    let priority = match priority {
        "high" => Priority::High,
        "normal" => Priority::Normal,
        "low" => Priority::Low,
        other => return Err(format!("unknown priority `{other}`")),
    };
    let deadline = u64::try_from(num::<i64>(deadline_ms)?).ok().map(Duration::from_millis);
    Ok(Task { map, shape, platform, priority, deadline, reference: num(reference)? })
}

fn write_delta(out: &mut String, tag: &str, d: GridDelta2) {
    let _ = match d {
        GridDelta2::Appear { cell } => writeln!(out, "{tag} appear {} {}", cell.x, cell.y),
        GridDelta2::Disappear { cell } => writeln!(out, "{tag} disappear {} {}", cell.x, cell.y),
        GridDelta2::Move { from, to } => {
            writeln!(out, "{tag} move {} {} {} {}", from.x, from.y, to.x, to.y)
        }
    };
}

fn read_delta(line: &str) -> Result<GridDelta2, String> {
    let f: Vec<&str> = line.split(' ').collect();
    Ok(match f[..] {
        ["appear", x, y] => GridDelta2::Appear { cell: Cell2::new(num(x)?, num(y)?) },
        ["disappear", x, y] => GridDelta2::Disappear { cell: Cell2::new(num(x)?, num(y)?) },
        ["move", fx, fy, tx, ty] => GridDelta2::Move {
            from: Cell2::new(num(fx)?, num(fy)?),
            to: Cell2::new(num(tx)?, num(ty)?),
        },
        _ => return Err(format!("bad delta line `{line}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_by_one_factor_and_never_drop_below_the_p99_floor() {
        assert_eq!(Workload::CarLocal.requests(30), 2_700);
        assert_eq!(Workload::PointWire.requests(30), 48_000);
        assert_eq!(Workload::PointWire.requests(15), 24_000);
        for w in Workload::ALL {
            assert!(w.requests(1) >= MIN_REQUESTS);
            assert!(crate::stats::samples_beyond(w.requests(1), 0.99) >= 10);
        }
    }

    #[test]
    fn task_lists_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let (a, b, other) = (generate(w, 19, 60), generate(w, 19, 60), generate(w, 23, 60));
            assert_eq!(a.digest(), b.digest(), "{}: same seed, same tasks", w.name());
            assert_eq!(a.reference_digest(), b.reference_digest());
            assert_ne!(a.digest(), other.digest(), "{}: seeds 19 and 23 differ", w.name());
            assert_eq!(a.tasks.len(), 60);
            assert_eq!(a.warm.len(), 3);
            assert!(a.tasks.iter().all(|t| t.reference != PATHLESS), "every task has a path");
        }
    }

    #[test]
    fn text_form_round_trips() {
        for w in [Workload::ChurnThreads, Workload::MixFleet] {
            let list = generate(w, 19, 40);
            assert_eq!(TaskList::decode(&list.encode()).unwrap(), list);
        }
        assert!(TaskList::decode("list nope 1 0\n").is_err());
        assert!(TaskList::decode("list car_local 1 0\ntask boston car 1 2\n").is_err());
    }

    #[test]
    fn every_churn_batch_keeps_the_obstacle_count_constant() {
        let list = generate(Workload::ChurnThreads, 19, 80);
        assert_eq!(list.initial.len(), CHURN_OBSTACLES);
        assert_eq!(list.batches.len(), (list.warm.len() + list.tasks.len()) / CHURN_EVERY);
        let (registry, _) = standard_world(WORLD_SEED, MAP_SIZE);
        let mut grid =
            BitGrid2::clone(&registry.get(&MapId::new(CHURN_MAP)).unwrap().grid2().unwrap());
        let before = grid.count_occupied();
        for d in &list.initial {
            assert!(grid.apply_delta(*d), "initial obstacles land on free cells");
        }
        let occupied = grid.count_occupied();
        assert_eq!(occupied, before + CHURN_OBSTACLES as u64);
        for batch in &list.batches {
            assert_eq!(batch.len(), CHURN_OBSTACLES);
            for d in batch {
                assert!(matches!(d, GridDelta2::Move { .. }));
                assert!(grid.apply_delta(*d));
            }
            assert_eq!(grid.count_occupied(), occupied, "a Move frees one cell and fills one");
        }
    }

    #[test]
    fn fleet_mix_is_exact_in_every_block() {
        let list = generate(Workload::MixFleet, 23, 40);
        let share = |pred: &dyn Fn(&Task) -> bool| list.tasks.iter().filter(|t| pred(t)).count();
        assert_eq!(share(&|t| matches!(t.shape, Shape::Drone { .. })), 4);
        assert_eq!(share(&|t| matches!(t.shape, Shape::Point { .. })), 10);
        assert_eq!(share(&|t| t.platform == THREADS), 4);
        assert_eq!(share(&|t| t.platform == SIM_SOFTWARE), 6);
        assert_eq!(share(&|t| t.priority == Priority::High), 4);
        assert_eq!(share(&|t| t.priority == Priority::Low), 8);
        assert!(list.tasks.iter().all(|t| t.deadline == Some(FLEET_DEADLINE)));
    }
}
