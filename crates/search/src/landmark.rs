//! ALT (A*, Landmarks, Triangle inequality) differential heuristics.
//!
//! A landmark `l` with precomputed true distances `d(l, ·)` yields the
//! admissible, consistent lower bound `|d(l, s) − d(l, goal)|` on the
//! distance from `s` to `goal` (triangle inequality, both directions —
//! the graph is undirected). Maxing the bound over K landmarks and with
//! the space's configured heuristic keeps admissibility while tightening
//! the estimate far beyond any closed-form metric: the closer the search
//! corridor runs past a landmark, the closer the bound gets to the exact
//! [`DistanceField`] — the §5.9 "perfect heuristic" limit — without
//! storing a field per goal.
//!
//! [`LandmarkPack2`] holds the K distance fields in one dense cell-major
//! array (`dists[cell * k + l]`, so one cell's K entries share a cache
//! line — for the default K = 8 exactly one 64-byte line per lookup pair),
//! and [`AltSpace2`] threads the bound through the existing
//! [`SearchSpace`] plumbing, so `astar_in`/`pase_in` pick it
//! up with zero per-expansion allocation and no engine changes.
//!
//! Packs are built on the *raw* grid with point-robot 8-connectivity
//! regardless of what the search itself uses: any footprint check or
//! 4-connected restriction only removes states and edges, so true
//! distances in the searched graph are ≥ the pack's — the bound stays
//! admissible universally. Distances are stored as `f64`: the minimum gap
//! between distinct `a + b·√2` grid costs at map-scale magnitudes (~1e-7)
//! dwarfs f64 rounding (~1e-12 relative), while f32 storage error would
//! land exactly at the gap scale and break admissibility.

use crate::distance_field::DistanceField;
use crate::heuristics::SQRT2;
use crate::space::{GridSpace2, SearchSpace};
use racod_geom::Cell2;
use std::sync::atomic::{AtomicU64, Ordering};

/// K precomputed landmark distance fields over a 2D grid's free space.
///
/// # Example
///
/// ```
/// use racod_search::LandmarkPack2;
/// use racod_geom::Cell2;
///
/// let pack = LandmarkPack2::build(16, 16, 4, |_| true).unwrap();
/// let bound = pack.bound_cells(Cell2::new(1, 1), Cell2::new(12, 1));
/// assert!(bound >= 11.0 - 1e-9, "straight-line distance is reachable");
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkPack2 {
    width: u32,
    height: u32,
    k: usize,
    landmarks: Vec<Cell2>,
    /// Cell-major interleave: `dists[cell * k + l]` is `d(landmark_l,
    /// cell)`, `f64::INFINITY` when unreachable.
    dists: Vec<f64>,
}

impl LandmarkPack2 {
    /// Builds a pack with up to `k` landmarks chosen by deterministic
    /// farthest-point selection over the free space: the seed is the first
    /// free cell in row-major order, the first landmark is the free cell
    /// farthest from the seed, and each further landmark maximizes the
    /// minimum distance to those already chosen (ties break toward the
    /// smaller cell index). Returns `None` when `k == 0` or the grid has
    /// no free cell; tiny maps may yield fewer than `k` landmarks.
    pub fn build<F>(width: u32, height: u32, k: usize, mut is_free: F) -> Option<LandmarkPack2>
    where
        F: FnMut(Cell2) -> bool,
    {
        if k == 0 {
            return None;
        }
        let space = GridSpace2::eight_connected(width, height);
        let n = space.state_count();
        let cell_of =
            |i: usize| Cell2::new((i % width as usize) as i64, (i / width as usize) as i64);
        let seed = (0..n).map(cell_of).find(|&c| is_free(c))?;

        // Farthest-point selection. `min_dist[i]` tracks the distance from
        // cell i to its nearest chosen landmark; the next landmark is its
        // finite argmax (0 once every reachable cell is a landmark).
        let seed_field = DistanceField::compute(&space, seed, &mut is_free);
        let mut landmarks: Vec<Cell2> = Vec::with_capacity(k);
        let mut fields: Vec<DistanceField<Cell2>> = Vec::with_capacity(k);
        let mut min_dist = vec![f64::INFINITY; n];
        let first = argmax_finite(n, |i| seed_field.distance_by_index(i))?;
        let mut next = cell_of(first);
        loop {
            let field = DistanceField::compute(&space, next, &mut is_free);
            for (i, slot) in min_dist.iter_mut().enumerate() {
                if let Some(d) = field.distance_by_index(i) {
                    if d < *slot {
                        *slot = d;
                    }
                }
            }
            landmarks.push(next);
            fields.push(field);
            if landmarks.len() == k {
                break;
            }
            match argmax_finite(n, |i| {
                let d = min_dist[i];
                (d.is_finite() && d > 0.0).then_some(d)
            }) {
                Some(i) => next = cell_of(i),
                None => break, // every reachable cell is already a landmark
            }
        }

        // Interleave cell-major so one cell's K distances are contiguous.
        let k = landmarks.len();
        let mut dists = vec![f64::INFINITY; n * k];
        for (l, field) in fields.iter().enumerate() {
            for (i, chunk) in dists.chunks_exact_mut(k).enumerate() {
                if let Some(d) = field.distance_by_index(i) {
                    chunk[l] = d;
                }
            }
        }
        Some(LandmarkPack2 { width, height, k, landmarks, dists })
    }

    /// Grid width the pack was built for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height the pack was built for.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of landmarks actually selected (≤ the requested K).
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the pack holds no landmarks (never true for a built pack).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The selected landmark cells, in selection order.
    pub fn landmarks(&self) -> &[Cell2] {
        &self.landmarks
    }

    /// The stored distance from landmark `l` to the cell at dense index
    /// `i`, or `None` when unreachable.
    pub fn landmark_distance(&self, l: usize, i: usize) -> Option<f64> {
        let d = *self.dists.get(i * self.k + l)?;
        d.is_finite().then_some(d)
    }

    /// The ALT bound `max_l |d(l, a) − d(l, b)|` between two dense cell
    /// indices. Landmarks that cannot reach either endpoint contribute 0
    /// (their triangle inequality says nothing), so the bound is always
    /// finite and non-negative.
    #[inline]
    pub fn bound(&self, a: usize, b: usize) -> f64 {
        let k = self.k;
        let da = &self.dists[a * k..a * k + k];
        let db = &self.dists[b * k..b * k + k];
        let mut best = 0.0f64;
        for (&x, &y) in da.iter().zip(db.iter()) {
            let diff = (x - y).abs();
            // `inf - inf` is NaN and `inf - finite` is inf; both compare
            // false against `best`, so non-finite entries self-exclude.
            if diff > best && diff.is_finite() {
                best = diff;
            }
        }
        best
    }

    /// [`bound`](Self::bound) by cell; 0 for out-of-grid cells.
    #[inline]
    pub fn bound_cells(&self, a: Cell2, b: Cell2) -> f64 {
        match (self.index(a), self.index(b)) {
            (Some(ai), Some(bi)) => self.bound(ai, bi),
            _ => 0.0,
        }
    }

    /// Approximate resident size in bytes (the dense distance array).
    pub fn bytes(&self) -> usize {
        self.dists.len() * std::mem::size_of::<f64>()
    }

    #[inline]
    fn index(&self, c: Cell2) -> Option<usize> {
        if c.x < 0 || c.y < 0 || c.x >= self.width as i64 || c.y >= self.height as i64 {
            None
        } else {
            Some(c.y as usize * self.width as usize + c.x as usize)
        }
    }
}

/// Index of the largest finite value of `f` over `0..n`, ties toward the
/// smaller index; `None` when every value is absent.
fn argmax_finite<F: Fn(usize) -> Option<f64>>(n: usize, f: F) -> Option<usize> {
    let mut best_i = None;
    let mut best_d = f64::NEG_INFINITY;
    for i in 0..n {
        if let Some(d) = f(i) {
            if d > best_d {
                best_d = d;
                best_i = Some(i);
            }
        }
    }
    best_i
}

/// A [`SearchSpace`] wrapper that maxes the inner space's heuristic with a
/// landmark pack's ALT bound.
///
/// The wrapper is always safe to construct with `pack: None` (it then
/// forwards the inner heuristic untouched), so call sites can thread one
/// type through both the landmark-guided and the fallback path. The
/// `tightened` counter tallies heuristic evaluations where the ALT bound
/// strictly exceeded the base estimate — a cheap proxy for the pruning the
/// pack delivered, surfaced as the `alt_expansions_saved` service counter.
///
/// # Example
///
/// ```
/// use racod_search::{AltSpace2, GridSpace2, LandmarkPack2, SearchSpace};
/// use racod_geom::Cell2;
///
/// let pack = LandmarkPack2::build(16, 16, 4, |_| true).unwrap();
/// let space = AltSpace2::new(GridSpace2::eight_connected(16, 16), Some(&pack));
/// let h = space.heuristic(Cell2::new(0, 0), Cell2::new(9, 0));
/// assert!(h >= 9.0 - 1e-9);
/// ```
#[derive(Debug)]
pub struct AltSpace2<'a> {
    inner: GridSpace2,
    pack: Option<&'a LandmarkPack2>,
    tightened: AtomicU64,
}

impl<'a> AltSpace2<'a> {
    /// Wraps `inner`, guiding with `pack` when present.
    ///
    /// # Panics
    ///
    /// Panics if the pack's dimensions do not match the space's — a pack
    /// built for a different map would produce garbage (possibly
    /// inadmissible) bounds.
    pub fn new(inner: GridSpace2, pack: Option<&'a LandmarkPack2>) -> Self {
        if let Some(p) = pack {
            assert_eq!(
                (p.width(), p.height()),
                (inner.width(), inner.height()),
                "landmark pack dimensions must match the search space"
            );
        }
        AltSpace2 { inner, pack, tightened: AtomicU64::new(0) }
    }

    /// Whether a pack is attached (false means pure passthrough).
    pub fn guided(&self) -> bool {
        self.pack.is_some()
    }

    /// Heuristic evaluations so far where the ALT bound strictly beat the
    /// base heuristic.
    pub fn tightened(&self) -> u64 {
        self.tightened.load(Ordering::Relaxed)
    }

    #[inline]
    fn maxed(&self, a: Cell2, b: Cell2, base: f64) -> f64 {
        let Some(pack) = self.pack else { return base };
        let (Some(ai), Some(bi)) = (self.inner.index(a), self.inner.index(b)) else {
            return base;
        };
        let alt = pack.bound(ai, bi);
        if alt > base {
            // Relaxed: PA*SE shares the space across threads, and an
            // approximate tally is all the counter promises.
            self.tightened.fetch_add(1, Ordering::Relaxed);
            alt
        } else {
            base
        }
    }
}

impl SearchSpace for AltSpace2<'_> {
    type State = Cell2;

    fn neighbors(&self, s: Cell2, out: &mut Vec<(Cell2, f64)>) {
        self.inner.neighbors(s, out);
    }

    fn heuristic(&self, s: Cell2, goal: Cell2) -> f64 {
        let base = self.inner.heuristic(s, goal);
        self.maxed(s, goal, base)
    }

    fn pair_heuristic(&self, a: Cell2, b: Cell2) -> f64 {
        // The ALT bound is valid between *arbitrary* pairs, exactly what
        // PA*SE's independence test needs.
        let base = self.inner.pair_heuristic(a, b);
        self.maxed(a, b, base)
    }

    fn index(&self, s: Cell2) -> Option<usize> {
        self.inner.index(s)
    }

    fn state_count(&self) -> usize {
        self.inner.state_count()
    }
}

/// The octile lower bound used by admissibility tests: on an 8-connected
/// unit grid no heuristic below `max + (√2−1)·min` of the axis deltas can
/// be beaten, so the ALT bound must land between it and the exact field.
#[allow(dead_code)]
fn octile(a: Cell2, b: Cell2) -> f64 {
    let dx = (a.x - b.x).abs() as f64;
    let dy = (a.y - b.y).abs() as f64;
    dx.max(dy) + (SQRT2 - 1.0) * dx.min(dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_grid::gen::{city_map, random_map, CityName};
    use racod_grid::Occupancy2;

    fn free_fn(grid: &racod_grid::BitGrid2) -> impl FnMut(Cell2) -> bool + '_ {
        move |c| grid.occupied(c) == Some(false)
    }

    #[test]
    fn selection_is_deterministic_and_spread() {
        let grid = city_map(CityName::Boston, 64, 64);
        let a = LandmarkPack2::build(64, 64, 8, free_fn(&grid)).unwrap();
        let b = LandmarkPack2::build(64, 64, 8, free_fn(&grid)).unwrap();
        assert_eq!(a.landmarks(), b.landmarks(), "selection must be deterministic");
        assert_eq!(a.len(), 8);
        // Farthest-point landmarks are pairwise distinct.
        let mut cells = a.landmarks().to_vec();
        cells.sort_unstable_by_key(|c| (c.y, c.x));
        cells.dedup();
        assert_eq!(cells.len(), 8);
    }

    #[test]
    fn zero_k_and_full_grid_yield_none() {
        let grid = city_map(CityName::Paris, 32, 32);
        assert!(LandmarkPack2::build(32, 32, 0, free_fn(&grid)).is_none());
        assert!(LandmarkPack2::build(16, 16, 4, |_| false).is_none(), "no free cell");
    }

    #[test]
    fn tiny_free_space_caps_landmark_count() {
        // Exactly two free cells: selection must stop at 2 landmarks even
        // when 8 are requested.
        let free = [Cell2::new(0, 0), Cell2::new(1, 0)];
        let pack = LandmarkPack2::build(8, 8, 8, |c| free.contains(&c)).unwrap();
        assert_eq!(pack.len(), 2);
        assert!((pack.bound_cells(free[0], free[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_admissible_consistent_and_sandwiched() {
        // Property test over random maps: for sampled pairs the ALT bound
        // is ≥ 0, ≤ the exact distance-field value (admissible), at least
        // as strong as nothing, and 1-Lipschitz along edges (consistent).
        for seed in 0..6u64 {
            let grid = random_map(seed + 900, 48, 48, 0.25);
            let space = GridSpace2::eight_connected(48, 48);
            let pack = LandmarkPack2::build(48, 48, 6, free_fn(&grid)).unwrap();
            let goal = (0..48 * 48)
                .map(|i| Cell2::new(i % 48, i / 48))
                .find(|&c| grid.occupied(c) == Some(false))
                .unwrap();
            let exact = DistanceField::compute(&space, goal, free_fn(&grid));
            let mut neigh = Vec::new();
            for y in 0..48 {
                for x in 0..48 {
                    let s = Cell2::new(x, y);
                    if grid.occupied(s) != Some(false) {
                        continue;
                    }
                    let b = pack.bound_cells(s, goal);
                    assert!(b >= 0.0 && b.is_finite());
                    if let Some(d) = exact.distance(s) {
                        assert!(
                            b <= d + 1e-9,
                            "seed {seed}: inadmissible bound {b} > exact {d} at {s}"
                        );
                    }
                    // Consistency: |h(s) − h(n)| ≤ cost(s, n) for every
                    // free neighbor (each |d(l,s)−d(l,goal)| is, and max
                    // preserves it).
                    neigh.clear();
                    space.neighbors(s, &mut neigh);
                    for &(ns, cost) in &neigh {
                        if space.index(ns).is_none() || grid.occupied(ns) != Some(false) {
                            continue;
                        }
                        let bn = pack.bound_cells(ns, goal);
                        assert!(
                            (b - bn).abs() <= cost + 1e-9,
                            "seed {seed}: inconsistent at {s}->{ns}: {b} vs {bn} (edge {cost})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_dominates_octile_near_obstacles() {
        // A wall forces a detour the octile metric cannot see; a landmark
        // behind the wall must.
        let mut grid = racod_grid::BitGrid2::new(32, 32);
        for y in 0..31 {
            grid.set(Cell2::new(16, y), true);
        }
        let pack = LandmarkPack2::build(32, 32, 8, free_fn(&grid)).unwrap();
        let a = Cell2::new(14, 0);
        let b = Cell2::new(18, 0);
        let bound = pack.bound_cells(a, b);
        assert!(
            bound > octile(a, b) + 10.0,
            "the detour over the wall must show: bound {bound} vs octile {}",
            octile(a, b)
        );
    }

    #[test]
    fn alt_space_maxes_and_counts_tightenings() {
        let mut grid = racod_grid::BitGrid2::new(32, 32);
        for y in 0..31 {
            grid.set(Cell2::new(16, y), true);
        }
        let pack = LandmarkPack2::build(32, 32, 8, free_fn(&grid)).unwrap();
        let inner = GridSpace2::eight_connected(32, 32);
        let space = AltSpace2::new(inner, Some(&pack));
        let (a, b) = (Cell2::new(14, 0), Cell2::new(18, 0));
        let h = space.heuristic(a, b);
        assert!(h >= inner.heuristic(a, b), "never below the base heuristic");
        assert!(h > inner.heuristic(a, b) + 10.0, "wall detour tightens");
        assert_eq!(space.tightened(), 1);
        // Passthrough wrapper: identical to the inner space, no counting.
        let plain = AltSpace2::new(inner, None);
        assert!(!plain.guided());
        assert_eq!(plain.heuristic(a, b).to_bits(), inner.heuristic(a, b).to_bits());
        assert_eq!(plain.tightened(), 0);
        // Out-of-grid states fall back to the base heuristic.
        let h = space.heuristic(Cell2::new(-3, 0), b);
        assert_eq!(h.to_bits(), inner.heuristic(Cell2::new(-3, 0), b).to_bits());
    }

    #[test]
    fn pack_layout_is_cell_major() {
        let pack = LandmarkPack2::build(8, 8, 3, |_| true).unwrap();
        assert_eq!(pack.len(), 3);
        assert_eq!(pack.bytes(), 8 * 8 * 3 * 8);
        for (l, lm) in pack.landmarks().iter().enumerate() {
            let li = (lm.y * 8 + lm.x) as usize;
            assert_eq!(pack.landmark_distance(l, li), Some(0.0), "landmark is at distance 0");
        }
    }

    #[test]
    fn disconnected_components_contribute_zero() {
        // Landmarks all land in the seed's component; cross-component
        // bounds must be 0 (no information), never infinite or NaN.
        let mut grid = racod_grid::BitGrid2::new(9, 3);
        for y in 0..3 {
            grid.set(Cell2::new(4, y), true);
        }
        let pack = LandmarkPack2::build(9, 3, 4, free_fn(&grid)).unwrap();
        let left = Cell2::new(1, 1);
        let right = Cell2::new(7, 1);
        assert_eq!(pack.bound_cells(left, right), 0.0);
        assert_eq!(pack.bound_cells(right, right), 0.0);
    }
}
