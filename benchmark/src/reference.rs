//! The benchmark's own answer to every task: bare A* over the collision
//! kernel, with nothing of the serving stack in between.
//!
//! A served plan is correct only if its canonical cost bit-equals the cost
//! computed here. The reference runs in the supervising process, never in
//! the measured one, so its large template cache shows in no metric.

use racod_geom::{Cell2, Cell3};
use racod_grid::{BitGrid2, BitGrid3, Occupancy2, Occupancy3};
use racod_search::{
    astar_in, canonical_cost_2d, canonical_cost_3d, AstarConfig, FnOracle, GridSpace2, GridSpace3,
    SearchScratch, SearchSpace,
};
use racod_server::{Planned, PlannedPath};
use racod_sim::{
    Footprint2, Footprint3, TemplateCache2, TemplateCache3, TemplateChecker2, TemplateChecker3,
};
use std::sync::Arc;

/// Cost key of a task with no path: a served path-less answer equals it.
pub const PATHLESS: u64 = u64::MAX;
/// Cost key of a served path that is not a chain of unit grid moves; equal
/// to no reference.
pub const MALFORMED: u64 = u64::MAX - 1;

/// Every heading a 128² map can produce fits, so each template is built
/// once per run instead of once per task (the program's own 1 024-entry
/// caches churn on fresh goals; the reference must not pay that per task).
const TEMPLATE_CAPACITY: usize = 1 << 20;

/// Collision status per state of one search, so that each distinct state is
/// checked once — as every served path does (`TimedOracle`'s table,
/// `racod-parallel`'s `StatusTable`). The engine re-demands a state from
/// every expansion that neighbours it; without this a bare search runs the
/// kernel 2.5× as often as any served plan.
#[derive(Default)]
pub struct Memo(Vec<Option<bool>>);

impl Memo {
    /// Forgets everything, for a space of `states` states.
    pub fn begin(&mut self, states: usize) {
        self.0.clear();
        self.0.resize(states, None);
    }

    /// The verdict for the state at `index` (`None`: outside the space,
    /// never remembered), computing it with `check` the first time.
    pub fn free(&mut self, index: Option<usize>, check: impl FnOnce() -> bool) -> bool {
        match index {
            Some(i) => *self.0[i].get_or_insert_with(check),
            None => check(),
        }
    }
}

/// What the reference planner found for one task.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Canonical optimal cost bits, [`PATHLESS`] if there is no path.
    pub cost: u64,
    /// A* expansions the bare search took: the task's search effort.
    pub expansions: u64,
}

/// Reference planner with warm arenas and one template cache per dimension.
pub struct Reference {
    cache2: Arc<TemplateCache2>,
    cache3: Arc<TemplateCache3>,
    scratch2: SearchScratch<Cell2>,
    scratch3: SearchScratch<Cell3>,
    memo: Memo,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            cache2: Arc::new(TemplateCache2::new(TEMPLATE_CAPACITY)),
            cache3: Arc::new(TemplateCache3::new(TEMPLATE_CAPACITY)),
            scratch2: SearchScratch::new(),
            scratch3: SearchScratch::new(),
            memo: Memo::default(),
        }
    }

    /// Whether `footprint` is collision-free at `at` when heading for `toward`.
    pub fn free2(&self, grid: &BitGrid2, footprint: Footprint2, at: Cell2, toward: Cell2) -> bool {
        TemplateChecker2::with_cache(grid, footprint, toward, self.cache2.clone()).is_free(at)
    }

    /// 3D twin of [`Reference::free2`] for the drone footprint.
    pub fn free3(&self, grid: &BitGrid3, at: Cell3, toward: Cell3) -> bool {
        TemplateChecker3::with_cache(grid, Footprint3::drone(), toward, self.cache3.clone())
            .is_free(at)
    }

    /// Plans a 2D task.
    pub fn plan2(
        &mut self,
        grid: &BitGrid2,
        footprint: Footprint2,
        start: Cell2,
        goal: Cell2,
    ) -> Answer {
        let checker = TemplateChecker2::with_cache(grid, footprint, goal, self.cache2.clone());
        let space = GridSpace2::eight_connected(grid.width(), grid.height());
        let memo = &mut self.memo;
        memo.begin(space.state_count());
        let mut oracle = FnOracle::new(|c: Cell2| memo.free(space.index(c), || checker.is_free(c)));
        let result =
            astar_in(&space, start, goal, &AstarConfig::default(), &mut oracle, &mut self.scratch2);
        let cost = result.path.map_or(PATHLESS, |p| cost_key(canonical_cost_2d(&p)));
        Answer { cost, expansions: result.stats.expansions }
    }

    /// Plans a 3D drone task.
    pub fn plan3(&mut self, grid: &BitGrid3, start: Cell3, goal: Cell3) -> Answer {
        let checker =
            TemplateChecker3::with_cache(grid, Footprint3::drone(), goal, self.cache3.clone());
        let space = GridSpace3::twenty_six_connected(grid.size_x(), grid.size_y(), grid.size_z());
        let memo = &mut self.memo;
        memo.begin(space.state_count());
        let mut oracle = FnOracle::new(|c: Cell3| memo.free(space.index(c), || checker.is_free(c)));
        let result =
            astar_in(&space, start, goal, &AstarConfig::default(), &mut oracle, &mut self.scratch3);
        let cost = result.path.map_or(PATHLESS, |p| cost_key(canonical_cost_3d(&p)));
        Answer { cost, expansions: result.stats.expansions }
    }
}

fn cost_key(canonical: Option<f64>) -> u64 {
    canonical.map_or(MALFORMED, f64::to_bits)
}

/// The cost key of a served plan, comparable with a task's reference.
pub fn served_cost(planned: &Planned) -> u64 {
    match &planned.path {
        PlannedPath::P2(Some(p)) => cost_key(canonical_cost_2d(p)),
        PlannedPath::P3(Some(p)) => cost_key(canonical_cost_3d(p)),
        PlannedPath::P2(None) | PlannedPath::P3(None) => PATHLESS,
    }
}
