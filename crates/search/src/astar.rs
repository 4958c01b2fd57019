//! The A* / Weighted A* / Dijkstra engine (Algorithm 1 of the paper,
//! baseline part).
//!
//! The engine is deliberately structured like the paper's pseudo-code: pop
//! the minimum-f node, gather its unvisited neighbors whose collision
//! status is unknown (the demand set), hand them to the [`CollisionOracle`]
//! (the issue/overlap/join region), then evaluate the free neighbors and
//! push them to OPEN. RASExp plugs in purely through the oracle and never
//! alters the expansion order.

use crate::interrupt::{Interrupt, InterruptReason};
use crate::oracle::{CollisionOracle, ExpansionContext};
use crate::scratch::{SearchScratch, NO_PARENT};
use crate::space::SearchSpace;
use crate::stats::SearchStats;

/// Configuration of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct AstarConfig {
    /// Heuristic inflation ε ≥ 1 (Weighted A*, §5.9). `1.0` is plain A*.
    pub weight: f64,
    /// Record the expansion sequence (for equivalence tests and the Fig 4
    /// footprint visualization).
    pub record_expansions: bool,
    /// Record per-expansion demand check counts (Fig 9).
    pub record_demand_profile: bool,
    /// Abort after this many expansions (guards pathological searches in
    /// tests); `u64::MAX` means unbounded.
    pub max_expansions: u64,
    /// Cooperative interruption handle (deadline + cancel flag). `None`
    /// means the search runs to completion.
    pub interrupt: Option<Interrupt>,
    /// Poll the interrupt once every this many expansions. Polling costs a
    /// clock read, so it is batched off the per-expansion hot path; the
    /// worst-case overshoot past a deadline is one batch of expansions.
    /// `0` is treated as `1` (poll every expansion).
    pub poll_interval: u64,
}

impl Default for AstarConfig {
    fn default() -> Self {
        AstarConfig {
            weight: 1.0,
            record_expansions: false,
            record_demand_profile: false,
            max_expansions: u64::MAX,
            interrupt: None,
            poll_interval: 256,
        }
    }
}

impl AstarConfig {
    /// Weighted A* with inflation `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps < 1`.
    pub fn weighted(eps: f64) -> Self {
        assert!(eps >= 1.0, "heuristic weight must be >= 1");
        AstarConfig { weight: eps, ..Default::default() }
    }

    /// Attaches a cooperative interruption handle.
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Sets the interrupt poll interval (in expansions).
    pub fn with_poll_interval(mut self, every: u64) -> Self {
        self.poll_interval = every;
        self
    }
}

/// How a search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The goal was reached; `path` is `Some`.
    Found,
    /// OPEN ran dry (or the start was invalid): the goal is provably
    /// unreachable.
    Exhausted,
    /// The `max_expansions` budget was hit before a verdict.
    ExpansionBudget,
    /// The search was stopped cooperatively mid-flight; no verdict about
    /// reachability is implied.
    Interrupted(InterruptReason),
}

impl Termination {
    /// Whether the search was stopped before reaching a verdict.
    pub fn interrupted(&self) -> bool {
        matches!(self, Termination::Interrupted(_))
    }
}

/// The outcome of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult<S> {
    /// The path from start to goal inclusive, or `None` if unreachable.
    pub path: Option<Vec<S>>,
    /// Cost of the returned path (`f64::INFINITY` if unreachable).
    pub cost: f64,
    /// Search statistics.
    pub stats: SearchStats,
    /// The expansion sequence, if recording was enabled.
    pub expansion_order: Vec<S>,
    /// How the search ended — in particular, whether `path: None` means
    /// "provably unreachable" or "stopped before an answer".
    pub termination: Termination,
}

impl<S> SearchResult<S> {
    /// Whether a path was found.
    pub fn found(&self) -> bool {
        self.path.is_some()
    }

    /// Whether the search was stopped cooperatively before a verdict.
    pub fn interrupted(&self) -> bool {
        self.termination.interrupted()
    }
}

/// Runs A* (or WA*/Dijkstra depending on `config` and the space's
/// heuristic) from `start` to `goal`.
///
/// The collision status of `start` is checked first; an occupied or
/// out-of-space start yields an unreachable result immediately. The goal's
/// collision status is checked when it is generated like any other node.
///
/// # Example
///
/// ```
/// use racod_search::{astar, AstarConfig, FnOracle, GridSpace2};
/// use racod_geom::Cell2;
///
/// let space = GridSpace2::eight_connected(16, 16);
/// let mut oracle = FnOracle::new(|c: Cell2| {
///     c.x >= 0 && c.y >= 0 && c.x < 16 && c.y < 16
/// });
/// let r = astar(&space, Cell2::new(0, 0), Cell2::new(5, 5),
///               &AstarConfig::default(), &mut oracle);
/// assert!(r.found());
/// assert!((r.cost - 5.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
/// ```
pub fn astar<Sp, O>(
    space: &Sp,
    start: Sp::State,
    goal: Sp::State,
    config: &AstarConfig,
    oracle: &mut O,
) -> SearchResult<Sp::State>
where
    Sp: SearchSpace,
    O: CollisionOracle<Sp>,
{
    let mut scratch = SearchScratch::new();
    astar_in(space, start, goal, config, oracle, &mut scratch)
}

/// [`astar`] running inside a caller-owned [`SearchScratch`].
///
/// This is the allocation-free entry point: a warm scratch makes per-plan
/// setup O(1) (an epoch bump instead of zeroing four O(|state-space|)
/// arrays), and the steady state issues no heap allocations beyond the
/// returned path. Results are bit-identical to a fresh scratch — reuse is
/// purely a performance property (asserted by the equivalence suite).
pub fn astar_in<Sp, O>(
    space: &Sp,
    start: Sp::State,
    goal: Sp::State,
    config: &AstarConfig,
    oracle: &mut O,
    scratch: &mut SearchScratch<Sp::State>,
) -> SearchResult<Sp::State>
where
    Sp: SearchSpace,
    O: CollisionOracle<Sp>,
{
    let n = space.state_count();
    let mut stats = SearchStats { scratch_reused: scratch.begin(n), ..Default::default() };
    let epoch = scratch.epoch();
    // Disjoint field borrows so the oracle/space calls can run while slot
    // arrays are live.
    let SearchScratch {
        g,
        g_stamp,
        parent,
        state_of,
        closed_stamp,
        open,
        neigh,
        demand,
        demand_edges,
        free,
        ..
    } = scratch;
    let mut expansion_order = Vec::new();

    let done = |stats: SearchStats, order: Vec<Sp::State>, termination: Termination| SearchResult {
        path: None,
        cost: f64::INFINITY,
        stats,
        expansion_order: order,
        termination,
    };
    let poll_every = config.poll_interval.max(1);

    let (Some(start_idx), Some(goal_idx)) = (space.index(start), space.index(goal)) else {
        return done(stats, expansion_order, Termination::Exhausted);
    };
    // Check the start state itself.
    let start_ctx = ExpansionContext { expanded: start, parent: None, expansion: 0 };
    stats.demand_checks += 1;
    free.clear();
    demand.clear();
    demand.push(start);
    oracle.resolve_into(&start_ctx, demand, free);
    if !free[0] {
        return done(stats, expansion_order, Termination::Exhausted);
    }
    let _ = goal_idx;

    g_stamp[start_idx] = epoch;
    g[start_idx] = 0.0;
    parent[start_idx] = NO_PARENT;
    state_of[start_idx] = Some(start);
    open.push(start_idx as u32, config.weight * space.heuristic(start, goal), 0.0);
    stats.open_pushes += 1;
    stats.peak_open = 1;

    while let Some((slot, _f, gv)) = open.pop() {
        let idx = slot as usize;
        // Lazy deletion: an entry is stale once its slot is closed or its g
        // was improved after the push (same freshness rule as the scalar
        // open list, so the surviving pop sequence is identical).
        let cur_g = if g_stamp[idx] == epoch { g[idx] } else { f64::INFINITY };
        if closed_stamp[idx] == epoch || (gv - cur_g).abs() >= 1e-9 {
            stats.stale_pops += 1;
            continue;
        }
        let s = state_of[idx].expect("pushed states are recorded");
        closed_stamp[idx] = epoch;
        stats.expansions += 1;
        if config.record_expansions {
            expansion_order.push(s);
        }
        if idx == goal_idx {
            // Reconstruct path by walking parent slots.
            let mut path = vec![s];
            let mut cur = idx;
            while parent[cur] != NO_PARENT {
                cur = parent[cur] as usize;
                path.push(state_of[cur].expect("parents were expanded"));
            }
            path.reverse();
            return SearchResult {
                path: Some(path),
                cost: gv,
                stats,
                expansion_order,
                termination: Termination::Found,
            };
        }
        if stats.expansions >= config.max_expansions {
            return done(stats, expansion_order, Termination::ExpansionBudget);
        }
        // Poll the interrupt once per batch of expansions; uninterrupted
        // runs pay one predictable branch here and nothing else changes,
        // so expansion order stays bit-identical to the baseline.
        if let Some(interrupt) = &config.interrupt {
            if stats.expansions.is_multiple_of(poll_every) {
                if let Some(reason) = interrupt.check() {
                    return done(stats, expansion_order, Termination::Interrupted(reason));
                }
            }
        }

        // Gather eligible-neighbor candidates: unvisited and in-space.
        neigh.clear();
        space.neighbors(s, neigh);
        demand.clear();
        demand_edges.clear();
        for &(ns, cost) in neigh.iter() {
            match space.index(ns) {
                Some(ni) if closed_stamp[ni] != epoch => {
                    demand.push(ns);
                    demand_edges.push(cost);
                }
                _ => {}
            }
        }

        // Issue demand collision checks (the oracle may overlap speculative
        // work here — Algorithm 1 lines 03–18).
        let parent_state =
            if parent[idx] == NO_PARENT { None } else { state_of[parent[idx] as usize] };
        let ctx =
            ExpansionContext { expanded: s, parent: parent_state, expansion: stats.expansions - 1 };
        free.clear();
        if !demand.is_empty() {
            oracle.resolve_into(&ctx, demand, free);
        }
        debug_assert_eq!(free.len(), demand.len(), "oracle must answer every demand state");
        stats.demand_checks += demand.len() as u64;
        if config.record_demand_profile {
            stats.demand_checks_per_expansion.push(demand.len() as u32);
        }

        // Evaluate free neighbors (lines 19–21).
        for ((ns, edge), ok) in demand.iter().zip(demand_edges.iter()).zip(free.iter()) {
            if !ok {
                continue;
            }
            let ni = space.index(*ns).expect("demand states are in-space");
            let ng = gv + edge;
            let cur = if g_stamp[ni] == epoch { g[ni] } else { f64::INFINITY };
            if ng + 1e-12 < cur {
                g_stamp[ni] = epoch;
                g[ni] = ng;
                parent[ni] = slot;
                state_of[ni] = Some(*ns);
                open.push(ni as u32, ng + config.weight * space.heuristic(*ns, goal), ng);
                stats.open_pushes += 1;
                stats.peak_open = stats.peak_open.max(open.len() as u64);
            }
        }
    }
    done(stats, expansion_order, Termination::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Heuristic2;
    use crate::oracle::FnOracle;
    use crate::space::{Connectivity2, GridSpace2, GridSpace3};
    use racod_geom::{Cell2, Cell3};
    use racod_grid::gen::random_map;
    use racod_grid::{BitGrid2, Occupancy2};

    fn grid_oracle(grid: &BitGrid2) -> FnOracle<impl FnMut(Cell2) -> bool + '_> {
        FnOracle::new(move |c: Cell2| grid.occupied(c) == Some(false))
    }

    #[test]
    fn straight_line_in_free_space() {
        let grid = BitGrid2::new(20, 20);
        let space = GridSpace2::eight_connected(20, 20);
        let mut oracle = grid_oracle(&grid);
        let r = astar(
            &space,
            Cell2::new(2, 2),
            Cell2::new(12, 2),
            &AstarConfig::default(),
            &mut oracle,
        );
        assert!(r.found());
        assert!((r.cost - 10.0).abs() < 1e-9);
        assert_eq!(r.path.as_ref().unwrap().len(), 11);
    }

    #[test]
    fn diagonal_costs_sqrt2() {
        let grid = BitGrid2::new(20, 20);
        let space = GridSpace2::eight_connected(20, 20);
        let mut oracle = grid_oracle(&grid);
        let r =
            astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &AstarConfig::default(), &mut oracle);
        assert!((r.cost - 7.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn walls_force_detours() {
        let mut grid = BitGrid2::new(20, 20);
        grid.fill_rect(10, 0, 10, 18, true); // wall with a gap at the top
        let space = GridSpace2::eight_connected(20, 20);
        let mut oracle = grid_oracle(&grid);
        let r = astar(
            &space,
            Cell2::new(2, 2),
            Cell2::new(18, 2),
            &AstarConfig::default(),
            &mut oracle,
        );
        assert!(r.found());
        assert!(r.cost > 16.0 + 1.0, "must detour around the wall");
        // Path never touches an occupied cell.
        for c in r.path.unwrap() {
            assert_eq!(grid.occupied(c), Some(false));
        }
    }

    #[test]
    fn unreachable_goal() {
        let mut grid = BitGrid2::new(10, 10);
        grid.fill_rect(5, 0, 5, 9, true); // full wall
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        let r =
            astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &AstarConfig::default(), &mut oracle);
        assert!(!r.found());
        assert_eq!(r.cost, f64::INFINITY);
    }

    #[test]
    fn occupied_start_or_goal() {
        let mut grid = BitGrid2::new(10, 10);
        grid.set(Cell2::new(1, 1), true);
        grid.set(Cell2::new(8, 8), true);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        assert!(!astar(
            &space,
            Cell2::new(1, 1),
            Cell2::new(5, 5),
            &AstarConfig::default(),
            &mut oracle
        )
        .found());
        let mut oracle = grid_oracle(&grid);
        assert!(!astar(
            &space,
            Cell2::new(2, 2),
            Cell2::new(8, 8),
            &AstarConfig::default(),
            &mut oracle
        )
        .found());
    }

    #[test]
    fn start_equals_goal() {
        let grid = BitGrid2::new(10, 10);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        let r =
            astar(&space, Cell2::new(3, 3), Cell2::new(3, 3), &AstarConfig::default(), &mut oracle);
        assert!(r.found());
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.path.unwrap(), vec![Cell2::new(3, 3)]);
    }

    #[test]
    fn astar_matches_dijkstra_cost_on_random_maps() {
        // A* with an admissible heuristic must return optimal costs.
        for seed in 0..5u64 {
            let grid = random_map(seed, 40, 40, 0.25);
            let space = GridSpace2::eight_connected(40, 40);
            let dspace = space.with_heuristic(Heuristic2::Zero);
            let (s, t) = (Cell2::new(1, 1), Cell2::new(38, 38));
            let mut o1 = grid_oracle(&grid);
            let mut o2 = grid_oracle(&grid);
            let a = astar(&space, s, t, &AstarConfig::default(), &mut o1);
            let d = astar(&dspace, s, t, &AstarConfig::default(), &mut o2);
            assert_eq!(a.found(), d.found(), "seed {seed}");
            if a.found() {
                assert!((a.cost - d.cost).abs() < 1e-6, "seed {seed}: {} vs {}", a.cost, d.cost);
                assert!(a.stats.expansions <= d.stats.expansions, "heuristic must not hurt");
            }
        }
    }

    #[test]
    fn weighted_astar_bounded_suboptimality() {
        for seed in 0..5u64 {
            let grid = random_map(seed + 100, 40, 40, 0.2);
            let space = GridSpace2::eight_connected(40, 40);
            let (s, t) = (Cell2::new(1, 1), Cell2::new(38, 38));
            let mut o1 = grid_oracle(&grid);
            let opt = astar(&space, s, t, &AstarConfig::default(), &mut o1);
            if !opt.found() {
                continue;
            }
            for eps in [1.5, 2.0, 4.0] {
                let mut o = grid_oracle(&grid);
                let w = astar(&space, s, t, &AstarConfig::weighted(eps), &mut o);
                assert!(w.found());
                assert!(
                    w.cost <= eps * opt.cost + 1e-6,
                    "seed {seed} eps {eps}: {} > {} * {}",
                    w.cost,
                    eps,
                    opt.cost
                );
                assert!(w.stats.expansions <= opt.stats.expansions * 2, "WA* should not blow up");
            }
        }
    }

    #[test]
    fn weighted_astar_expands_fewer_on_average() {
        // Inflating the heuristic biases the search toward the goal; it is
        // not a per-instance guarantee, so assert the aggregate behaviour
        // across seeds (this is the §5.9 "fewer nodes are expanded with
        // larger ε" observation).
        let (mut plain, mut weighted) = (0u64, 0u64);
        for seed in 0..8u64 {
            let grid = random_map(seed * 3 + 7, 60, 60, 0.15);
            let space = GridSpace2::eight_connected(60, 60);
            let (s, t) = (Cell2::new(1, 1), Cell2::new(58, 58));
            let mut o1 = grid_oracle(&grid);
            let mut o2 = grid_oracle(&grid);
            let a = astar(&space, s, t, &AstarConfig::default(), &mut o1);
            let w = astar(&space, s, t, &AstarConfig::weighted(2.0), &mut o2);
            if a.found() && w.found() {
                plain += a.stats.expansions;
                weighted += w.stats.expansions;
            }
        }
        assert!(plain > 0);
        assert!(weighted < plain, "WA*(2) expanded {weighted} vs A* {plain}");
    }

    #[test]
    fn four_connected_uses_manhattan_paths() {
        let grid = BitGrid2::new(12, 12);
        let space = GridSpace2::four_connected(12, 12);
        let mut oracle = grid_oracle(&grid);
        let r =
            astar(&space, Cell2::new(0, 0), Cell2::new(5, 5), &AstarConfig::default(), &mut oracle);
        assert!((r.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn expansion_order_recording() {
        let grid = BitGrid2::new(10, 10);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        let cfg = AstarConfig { record_expansions: true, ..Default::default() };
        let r = astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &cfg, &mut oracle);
        assert_eq!(r.expansion_order.len() as u64, r.stats.expansions);
        assert_eq!(r.expansion_order[0], Cell2::new(1, 1));
        assert_eq!(*r.expansion_order.last().unwrap(), Cell2::new(8, 8));
    }

    #[test]
    fn demand_profile_recording() {
        let grid = BitGrid2::new(10, 10);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        let cfg = AstarConfig { record_demand_profile: true, ..Default::default() };
        let r = astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &cfg, &mut oracle);
        // The +1 is the start-state check, which has no profile entry.
        let sum: u64 = r.stats.demand_checks_per_expansion.iter().map(|&n| n as u64).sum();
        assert_eq!(sum + 1, r.stats.demand_checks);
    }

    #[test]
    fn max_expansions_bounds_work() {
        let grid = BitGrid2::new(50, 50);
        let space = GridSpace2::eight_connected(50, 50);
        let mut oracle = grid_oracle(&grid);
        let cfg = AstarConfig { max_expansions: 5, ..Default::default() };
        let r = astar(&space, Cell2::new(0, 0), Cell2::new(49, 49), &cfg, &mut oracle);
        assert!(!r.found());
        assert!(r.stats.expansions <= 5);
        assert_eq!(r.termination, Termination::ExpansionBudget);
    }

    #[test]
    fn termination_reports_found_and_exhausted() {
        let grid = BitGrid2::new(10, 10);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&grid);
        let r =
            astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &AstarConfig::default(), &mut oracle);
        assert_eq!(r.termination, Termination::Found);

        let mut walled = BitGrid2::new(10, 10);
        walled.fill_rect(5, 0, 5, 9, true);
        let space = GridSpace2::eight_connected(10, 10);
        let mut oracle = grid_oracle(&walled);
        let r =
            astar(&space, Cell2::new(1, 1), Cell2::new(8, 8), &AstarConfig::default(), &mut oracle);
        assert_eq!(r.termination, Termination::Exhausted);
        assert!(!r.interrupted());
    }

    #[test]
    fn expired_deadline_stops_within_one_poll_batch() {
        use crate::interrupt::{Interrupt, InterruptReason};
        let grid = BitGrid2::new(200, 200);
        let space = GridSpace2::eight_connected(200, 200);
        let mut oracle = grid_oracle(&grid);
        let cfg = AstarConfig::default()
            .with_interrupt(Interrupt::new().with_deadline(std::time::Instant::now()))
            .with_poll_interval(64);
        let r = astar(&space, Cell2::new(0, 0), Cell2::new(199, 199), &cfg, &mut oracle);
        assert!(!r.found());
        assert_eq!(r.termination, Termination::Interrupted(InterruptReason::Deadline));
        assert!(r.stats.expansions <= 64, "stopped after {} expansions", r.stats.expansions);
    }

    #[test]
    fn raised_cancel_flag_stops_search() {
        use crate::interrupt::{Interrupt, InterruptReason};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let grid = BitGrid2::new(100, 100);
        let space = GridSpace2::eight_connected(100, 100);
        let mut oracle = grid_oracle(&grid);
        let flag = Arc::new(AtomicBool::new(true));
        let cfg = AstarConfig::default()
            .with_interrupt(Interrupt::new().with_cancel_flag(flag))
            .with_poll_interval(16);
        let r = astar(&space, Cell2::new(0, 0), Cell2::new(99, 99), &cfg, &mut oracle);
        assert_eq!(r.termination, Termination::Interrupted(InterruptReason::Cancelled));
        assert!(r.stats.expansions <= 16);
    }

    #[test]
    fn unfired_interrupt_leaves_search_bit_identical() {
        use crate::interrupt::Interrupt;
        let grid = random_map(17, 40, 40, 0.25);
        let space = GridSpace2::eight_connected(40, 40);
        let base_cfg = AstarConfig { record_expansions: true, ..Default::default() };
        let int_cfg =
            base_cfg
                .clone()
                .with_interrupt(Interrupt::new().with_deadline(
                    std::time::Instant::now() + std::time::Duration::from_secs(3600),
                ))
                .with_poll_interval(1);
        let mut o1 = grid_oracle(&grid);
        let mut o2 = grid_oracle(&grid);
        let a = astar(&space, Cell2::new(1, 1), Cell2::new(38, 38), &base_cfg, &mut o1);
        let b = astar(&space, Cell2::new(1, 1), Cell2::new(38, 38), &int_cfg, &mut o2);
        assert_eq!(a.path, b.path);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.expansion_order, b.expansion_order);
        assert_eq!(a.termination, b.termination);
    }

    #[test]
    fn three_d_straight_line() {
        let space = GridSpace3::twenty_six_connected(10, 10, 10);
        let mut oracle = FnOracle::new(|c: Cell3| {
            (0..10).contains(&c.x) && (0..10).contains(&c.y) && (0..10).contains(&c.z)
        });
        let r = astar(
            &space,
            Cell3::new(1, 1, 1),
            Cell3::new(1, 1, 8),
            &AstarConfig::default(),
            &mut oracle,
        );
        assert!((r.cost - 7.0).abs() < 1e-9);
    }

    #[test]
    fn three_d_full_diagonal() {
        let space = GridSpace3::twenty_six_connected(10, 10, 10);
        let mut oracle = FnOracle::new(|c: Cell3| {
            (0..10).contains(&c.x) && (0..10).contains(&c.y) && (0..10).contains(&c.z)
        });
        let r = astar(
            &space,
            Cell3::new(0, 0, 0),
            Cell3::new(5, 5, 5),
            &AstarConfig::default(),
            &mut oracle,
        );
        assert!((r.cost - 5.0 * crate::heuristics::SQRT3).abs() < 1e-6);
    }

    #[test]
    fn deterministic_expansion_order() {
        let grid = random_map(3, 30, 30, 0.3);
        let space = GridSpace2::eight_connected(30, 30);
        let cfg = AstarConfig { record_expansions: true, ..Default::default() };
        let run = || {
            let mut oracle = grid_oracle(&grid);
            astar(&space, Cell2::new(1, 1), Cell2::new(28, 28), &cfg, &mut oracle).expansion_order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn path_endpoints_and_continuity() {
        let grid = random_map(11, 30, 30, 0.2);
        let space = GridSpace2::new(30, 30, Connectivity2::Eight, Heuristic2::Euclidean);
        let mut oracle = grid_oracle(&grid);
        let r = astar(
            &space,
            Cell2::new(1, 1),
            Cell2::new(27, 25),
            &AstarConfig::default(),
            &mut oracle,
        );
        if let Some(path) = r.path {
            assert_eq!(path[0], Cell2::new(1, 1));
            assert_eq!(*path.last().unwrap(), Cell2::new(27, 25));
            for w in path.windows(2) {
                assert!(w[0].chebyshev(w[1]) == 1, "non-adjacent step {:?}", w);
            }
        }
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn weight_below_one_panics() {
        let _ = AstarConfig::weighted(0.5);
    }
}
