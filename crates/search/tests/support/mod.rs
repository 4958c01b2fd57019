//! The test oracle for the arena engine: the pre-arena A* engine
//! ([`astar_reference`]) and the scalar `f64`-keyed [`OpenList`] it runs
//! on, kept verbatim from the library code they were lifted out of.
//! `racod_search::astar_in` must reproduce this engine's expansion order,
//! path and cost bits exactly; `scratch_equivalence` and `alt_equivalence`
//! assert it.
//!
//! Each test binary that declares `mod support;` uses a different subset
//! of these items.
#![allow(dead_code)]

use racod_search::{
    AstarConfig, CollisionOracle, ExpansionContext, SearchResult, SearchSpace, SearchStats,
    Termination,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    f: f64,
    g: f64,
    seq: u64,
    index: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse f so the smallest f pops first.
        // Tie-break: larger g first, then smaller sequence number.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.g.partial_cmp(&other.g).unwrap_or(Ordering::Equal))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A lazy-deletion open list keyed by dense state indices: a binary
/// min-heap over `f`. Ties are broken by *higher* `g` (deeper nodes
/// first), then by insertion sequence, so the pop order is fully
/// deterministic.
///
/// Decrease-key is implemented by pushing a fresh entry; stale entries are
/// discarded on pop by comparing against the caller-maintained best-`g`
/// array.
#[derive(Debug, Clone, Default)]
pub struct OpenList {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl OpenList {
    /// Creates an empty open list.
    pub fn new() -> Self {
        OpenList::default()
    }

    /// Pushes (or re-pushes with a better key) a state.
    ///
    /// `Entry::cmp` maps incomparable (NaN) keys to `Ordering::Equal`,
    /// which would silently scramble the heap order; a NaN heuristic must
    /// fail loudly here instead (debug builds assert).
    pub fn push(&mut self, index: usize, f: f64, g: f64) {
        debug_assert!(
            f.is_finite() && g.is_finite(),
            "open-list keys must be finite: f={f}, g={g}"
        );
        self.seq += 1;
        self.heap.push(Entry { f, g, seq: self.seq, index });
    }

    /// Pops the best non-stale entry. `fresh(index)` must return whether the
    /// caller still considers an entry for `index` with the popped `g`
    /// current; the caller typically compares against its best-known `g`.
    ///
    /// Returns `(index, f, g)` or `None` when the list is exhausted.
    pub fn pop<F: FnMut(&(usize, f64, f64)) -> bool>(
        &mut self,
        mut fresh: F,
    ) -> Option<(usize, f64, f64)> {
        while let Some(e) = self.heap.pop() {
            let item = (e.index, e.f, e.g);
            if fresh(&item) {
                return Some(item);
            }
        }
        None
    }

    /// Peeks at the best entry's `f` value without validating freshness.
    pub fn peek_f(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.f)
    }

    /// Whether no entries remain (including stale ones).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of entries (including stale ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The pre-arena engine, kept verbatim as the equivalence oracle: per-plan
/// `Vec` allocation, the scalar f64-keyed [`OpenList`], per-expansion
/// demand `Vec`s. The property suite asserts `astar_in` reproduces its
/// expansion order, path, and cost bit-for-bit.
pub fn astar_reference<Sp, O>(
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
    let n = space.state_count();
    let mut g = vec![f64::INFINITY; n];
    let mut visited = vec![false; n];
    let mut parent: Vec<Option<Sp::State>> = vec![None; n];
    let mut stats = SearchStats::default();
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
    if !oracle.resolve(&start_ctx, &[start])[0] {
        return done(stats, expansion_order, Termination::Exhausted);
    }
    let _ = goal_idx;

    let mut open = OpenList::new();
    g[start_idx] = 0.0;
    open.push(start_idx, config.weight * space.heuristic(start, goal), 0.0);
    stats.open_pushes += 1;
    stats.peak_open = 1;
    // Reverse map: dense index → state, filled as states are touched.
    let mut state_of: Vec<Option<Sp::State>> = vec![None; n];
    state_of[start_idx] = Some(start);

    let mut neigh: Vec<(Sp::State, f64)> = Vec::with_capacity(32);
    while let Some((idx, _f, gv)) = open.pop(|&(i, _, pg)| {
        let fresh = !visited[i] && (pg - g[i]).abs() < 1e-9;
        if !fresh {
            stats.stale_pops += 1;
        }
        fresh
    }) {
        let s = state_of[idx].expect("pushed states are recorded");
        visited[idx] = true;
        stats.expansions += 1;
        if config.record_expansions {
            expansion_order.push(s);
        }
        if idx == goal_idx {
            // Reconstruct path.
            let mut path = vec![s];
            let mut cur = idx;
            while let Some(p) = parent[cur] {
                path.push(p);
                cur = space.index(p).expect("parents are in-space");
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
        if let Some(interrupt) = &config.interrupt {
            if stats.expansions % poll_every == 0 {
                if let Some(reason) = interrupt.check() {
                    return done(stats, expansion_order, Termination::Interrupted(reason));
                }
            }
        }

        // Gather eligible-neighbor candidates: unvisited and in-space.
        neigh.clear();
        space.neighbors(s, &mut neigh);
        let mut demand: Vec<Sp::State> = Vec::with_capacity(neigh.len());
        let mut demand_edges: Vec<f64> = Vec::with_capacity(neigh.len());
        for &(ns, cost) in &neigh {
            match space.index(ns) {
                Some(ni) if !visited[ni] => {
                    demand.push(ns);
                    demand_edges.push(cost);
                }
                _ => {}
            }
        }

        // Issue demand collision checks (the oracle may overlap speculative
        // work here — Algorithm 1 lines 03–18).
        let ctx =
            ExpansionContext { expanded: s, parent: parent[idx], expansion: stats.expansions - 1 };
        let free = if demand.is_empty() { Vec::new() } else { oracle.resolve(&ctx, &demand) };
        debug_assert_eq!(free.len(), demand.len(), "oracle must answer every demand state");
        stats.demand_checks += demand.len() as u64;
        if config.record_demand_profile {
            stats.demand_checks_per_expansion.push(demand.len() as u32);
        }

        // Evaluate free neighbors (lines 19–21).
        for ((ns, edge), ok) in demand.iter().zip(&demand_edges).zip(&free) {
            if !ok {
                continue;
            }
            let ni = space.index(*ns).expect("demand states are in-space");
            let ng = gv + edge;
            if ng + 1e-12 < g[ni] {
                g[ni] = ng;
                parent[ni] = Some(s);
                state_of[ni] = Some(*ns);
                open.push(ni, ng + config.weight * space.heuristic(*ns, goal), ng);
                stats.open_pushes += 1;
                stats.peak_open = stats.peak_open.max(open.len() as u64);
            }
        }
    }
    done(stats, expansion_order, Termination::Exhausted)
}
