//! The bounded per-rotation footprint template cache and the checker that
//! consumes it, written once over [`Dim`].
//!
//! A planning run re-checks the same footprint under a small set of
//! orientations — for `TowardGoal` footprints one per gcd-reduced heading
//! direction ([`RotKey`]), for `AxisAligned` exactly one. Compiling each
//! orientation's template once and caching it makes the steady-state
//! collision check trig-free and allocation-free: expansion is
//! `state + offsets`, evaluation is the word-parallel kernel
//! ([`racod_codacc::template_check`]).
//!
//! The cache is shared (`Arc`-friendly, interior mutability) so a serving
//! layer can keep one instance warm for every map, and real thread-pool
//! planners can check through it concurrently. A template depends on the
//! footprint and the orientation only, never on the grid.
//!
//! Many keys rasterize to the same cells (the 39 665 car headings of a 128²
//! map give 804 distinct templates), so the cache interns templates by
//! content: keys with equal templates share one `Arc`. It is bounded twice,
//! by key count and by resident bytes.

use crate::dim::{Dim, D2, D3};
use crate::footprint::RotKey;
use racod_codacc::{template_check, SoftwareCheck};
use racod_geom::{FootprintTemplate, GridCell};
use racod_grid::BitGrid;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::{Arc, Mutex, PoisonError};

/// Default bound on the `(footprint, orientation)` keys of a private cache:
/// one plan's, or one checker's.
///
/// A `TowardGoal` key is the gcd-reduced direction to the goal, so one car
/// plan across a 128² map meets about 1 600 keys and a cache this size
/// evicts within the plan (`tests/golden_plans.rs` pins the hit and miss
/// counts at this bound). A cache shared by many plans is sized to the
/// headings of its maps instead: a map of side N produces about 2.4·N² keys.
/// Keys are cheap (the templates behind them are interned); memory is
/// bounded by [`TEMPLATE_BYTES_BUDGET`].
pub const DEFAULT_TEMPLATE_CAPACITY: usize = 1024;

/// Bound on the bytes a [`TemplateCache`] keeps resident: every key's slot
/// plus every distinct template's heap. A key costs 80 bytes and a car
/// template about 3.4 KB, so every heading of a 128² map fits in 6 MB, while
/// a client asking for large bodies at fresh headings (a 64³ drone's
/// template is 6 MB) cannot grow the cache without limit.
pub const TEMPLATE_BYTES_BUDGET: usize = 16 << 20;

/// End of a recency list.
const NIL: usize = usize::MAX;

/// A least-recently-used map from `(footprint, orientation)` to an interned
/// template, in O(1) per lookup: entries live in slots threaded on a doubly
/// linked recency list, most recent at `head`. A miss evicts from the
/// `tail` while the keys exceed `capacity` or the bytes exceed `budget`, so
/// the victims are always the entries used longest ago and a lookup never
/// scans.
///
/// `interned` holds every resident template once, keyed by footprint and
/// content, with the number of keys that point at it; a template leaves
/// with the last such key.
struct Lru<F, C> {
    index: HashMap<(F, RotKey), usize>,
    slots: Vec<Slot<F, C>>,
    head: usize,
    tail: usize,
    capacity: usize,
    interned: HashMap<(F, Arc<FootprintTemplate<C>>), usize>,
    bytes: usize,
    budget: usize,
}

struct Slot<F, C> {
    key: (F, RotKey),
    value: Arc<FootprintTemplate<C>>,
    prev: usize,
    next: usize,
}

impl<F: Hash + Eq + Copy, C: GridCell> Lru<F, C> {
    /// What one key holds: its slot and its index entry.
    const KEY_BYTES: usize = size_of::<Slot<F, C>>() + size_of::<((F, RotKey), usize)>();

    fn new(capacity: usize, budget: usize) -> Self {
        Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
            interned: HashMap::new(),
            bytes: 0,
            budget,
        }
    }

    /// What one distinct template holds: its heap, its `Arc` allocation
    /// (two counts and the struct) and its intern entry.
    fn template_bytes(tpl: &FootprintTemplate<C>) -> usize {
        tpl.heap_bytes()
            + 2 * size_of::<usize>()
            + size_of::<FootprintTemplate<C>>()
            + size_of::<((F, Arc<FootprintTemplate<C>>), usize)>()
    }

    fn get_or_insert_with(
        &mut self,
        key: (F, RotKey),
        build: impl FnOnce() -> FootprintTemplate<C>,
    ) -> (Arc<FootprintTemplate<C>>, bool) {
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            self.push_front(i);
            return (self.slots[i].value.clone(), true);
        }
        // Build before touching the list: a panicking build leaves it whole
        // for the next holder of the (poison-recovered) lock.
        let value = self.intern(key.0, Arc::new(build()));
        self.slots.push(Slot { key, value: value.clone(), prev: NIL, next: NIL });
        let i = self.slots.len() - 1;
        self.push_front(i);
        self.index.insert(key, i);
        self.bytes += Self::KEY_BYTES;
        // The entry just inserted is the head: it is never evicted, so a
        // single template over the budget is still served.
        while (self.index.len() > self.capacity || self.bytes > self.budget)
            && self.tail != self.head
        {
            self.evict(self.tail);
        }
        (value, false)
    }

    /// The resident copy of `built`'s content, or `built` itself if it is
    /// new; either way one more key now points at it.
    fn intern(
        &mut self,
        footprint: F,
        built: Arc<FootprintTemplate<C>>,
    ) -> Arc<FootprintTemplate<C>> {
        match self.interned.entry((footprint, built)) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += 1;
                e.key().1.clone()
            }
            Entry::Vacant(e) => {
                self.bytes += Self::template_bytes(&e.key().1);
                let value = e.key().1.clone();
                e.insert(1);
                value
            }
        }
    }

    /// Drops the entry in slot `i`; the last slot moves into its place.
    fn evict(&mut self, i: usize) {
        self.unlink(i);
        let Slot { key, value, .. } = self.slots.swap_remove(i);
        self.index.remove(&key);
        self.bytes -= Self::KEY_BYTES;
        if i < self.slots.len() {
            let Slot { key: moved, prev, next, .. } = self.slots[i];
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
            *self.index.get_mut(&moved).expect("moved slot is indexed") = i;
        }
        let class = (key.0, value);
        let users = self.interned.get_mut(&class).expect("resident template is interned");
        *users -= 1;
        if *users == 0 {
            self.interned.remove(&class);
            self.bytes -= Self::template_bytes(&class.1);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }
}

/// A bounded LRU of compiled footprint templates, keyed by footprint
/// dimensions (bit-exact) and [`RotKey`], with templates interned by
/// content: keys whose templates are equal share one `Arc`. It keeps at
/// most `capacity` keys and, beyond the most recent entry, at most
/// [`TEMPLATE_BYTES_BUDGET`] bytes.
///
/// Thread-safe via interior mutability: `get` takes `&self`, so the cache
/// can sit behind an `Arc` shared by real planner threads.
///
/// # Example
///
/// ```
/// use racod_sim::{Footprint2, RotKey, TemplateCache2};
/// use racod_geom::Cell2;
///
/// let cache = TemplateCache2::default();
/// let fp = Footprint2::car();
/// let key = fp.rot_key(Cell2::new(0, 0), Cell2::new(30, 40));
/// let (tpl, hit) = cache.get(&fp, key);
/// assert!(!hit, "first lookup compiles");
/// let (again, hit) = cache.get(&fp, key);
/// assert!(hit);
/// assert_eq!(tpl.offsets(), again.offsets());
/// ```
pub struct TemplateCache<D: Dim> {
    inner: Mutex<Lru<D::FootprintKey, D::Cell>>,
}

/// What a [`TemplateCache`] holds at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateCensus {
    /// Resident `(footprint, orientation)` keys.
    pub keys: usize,
    /// Distinct templates behind them.
    pub distinct: usize,
    /// Bytes held by the keys and the templates, as budgeted against
    /// [`TEMPLATE_BYTES_BUDGET`].
    pub bytes: usize,
}

/// The 2D template cache.
pub type TemplateCache2 = TemplateCache<D2>;
/// The 3D template cache.
pub type TemplateCache3 = TemplateCache<D3>;

impl<D: Dim> TemplateCache<D> {
    /// Creates a cache bounded to `capacity` keys (min 1) and
    /// [`TEMPLATE_BYTES_BUDGET`] bytes. Allocates nothing until the first
    /// lookup.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, TEMPLATE_BYTES_BUDGET)
    }

    fn with_budget(capacity: usize, budget: usize) -> Self {
        TemplateCache { inner: Mutex::new(Lru::new(capacity, budget)) }
    }

    /// The template for `footprint` at orientation `key`, compiling it on
    /// first use. Returns `(template, was_cache_hit)`.
    pub fn get(
        &self,
        footprint: &D::Footprint,
        key: RotKey,
    ) -> (Arc<FootprintTemplate<D::Cell>>, bool) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert_with((D::footprint_key(footprint), key), || D::template(footprint, key))
    }

    /// Number of keys currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).index.len()
    }

    /// Keys, distinct templates and bytes currently held.
    pub fn census(&self) -> TemplateCensus {
        let lru = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TemplateCensus { keys: lru.index.len(), distinct: lru.interned.len(), bytes: lru.bytes }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<D: Dim> Default for TemplateCache<D> {
    fn default() -> Self {
        TemplateCache::new(DEFAULT_TEMPLATE_CAPACITY)
    }
}

impl<D: Dim> fmt::Debug for TemplateCache<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateCache").field("len", &self.len()).finish()
    }
}

/// Hit/miss counts of template-cache lookups during one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Lookups served from the cache (or the checker's last-key memo).
    pub hits: u64,
    /// Lookups that compiled a new template.
    pub misses: u64,
}

impl TemplateStats {
    /// Hit fraction in `[0, 1]`; 1.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Per-run template supplier: a shared cache behind a last-key memo, so
/// the common case (consecutive states on the same heading ray) never
/// touches the cache lock. Its [`TemplateStats`] count a memo hit as a hit.
pub struct TemplateSource<'c, D: Dim> {
    footprint: D::Footprint,
    goal: D::Cell,
    cache: &'c TemplateCache<D>,
    last: Option<(RotKey, Arc<FootprintTemplate<D::Cell>>)>,
    stats: TemplateStats,
}

impl<'c, D: Dim> TemplateSource<'c, D> {
    /// A supplier of `footprint`'s templates for states heading to `goal`.
    pub fn new(footprint: D::Footprint, goal: D::Cell, cache: &'c TemplateCache<D>) -> Self {
        TemplateSource { footprint, goal, cache, last: None, stats: TemplateStats::default() }
    }

    /// The template of the body at `state`.
    pub fn template_at(&mut self, state: D::Cell) -> &FootprintTemplate<D::Cell> {
        let key = D::rot_key(&self.footprint, state, self.goal);
        if matches!(&self.last, Some((k, _)) if *k == key) {
            self.stats.count(true);
        } else {
            let (tpl, hit) = self.cache.get(&self.footprint, key);
            self.stats.count(hit);
            self.last = Some((key, tpl));
        }
        &self.last.as_ref().expect("memo filled above").1
    }

    /// Every request so far: memo hits count as hits.
    pub fn stats(&self) -> TemplateStats {
        self.stats
    }
}

/// Reusable scratch buffers for batched checks, so steady-state batch
/// dispatch allocates nothing.
#[derive(Debug, Default)]
pub struct BatchScratch {
    keys: Vec<RotKey>,
    order: Vec<u32>,
}

/// A placeholder written into every output slot before the group walk
/// overwrites it; the permutation covers every index, so it never survives.
const BATCH_PLACEHOLDER: SoftwareCheck =
    SoftwareCheck { verdict: racod_codacc::Verdict::Invalid, cells_checked: 0, cells_total: 0 };

fn batch_groups(
    keys: &[RotKey],
    order: &mut Vec<u32>,
    mut check_group: impl FnMut(RotKey, &[u32]),
) {
    order.clear();
    order.extend(0..keys.len() as u32);
    order.sort_unstable_by_key(|&i| keys[i as usize]);
    let mut i = 0;
    while i < order.len() {
        let key = keys[order[i] as usize];
        let start = i;
        while i < order.len() && keys[order[i] as usize] == key {
            i += 1;
        }
        check_group(key, &order[start..i]);
    }
}

/// The canonical planning-path collision checker: template cache + word
/// kernel over a grid.
///
/// This *defines* the cell set a planner tests at a state: the footprint's
/// reference rasterization translated to the state (see
/// [`racod_geom::template`] for why that is the only translation-exact
/// definition under `f32`). All planning platforms — software, RACOD
/// model, real threads, and the serving layer — check through this, so
/// their paths agree bit-for-bit.
///
/// `check` takes `&self`; the checker is `Send + Sync` and can be shared
/// across threads (the per-thread fast path is the shared cache's lock,
/// held only for a `HashMap` probe).
///
/// # Example
///
/// ```
/// use racod_sim::{Footprint2, TemplateChecker2};
/// use racod_grid::BitGrid2;
/// use racod_geom::Cell2;
///
/// let grid = BitGrid2::new(64, 64);
/// let checker = TemplateChecker2::new(&grid, Footprint2::car(), Cell2::new(60, 60));
/// assert!(checker.is_free(Cell2::new(30, 30)));
/// ```
pub struct TemplateChecker<'g, D: Dim> {
    grid: &'g BitGrid<D::Cell>,
    footprint: D::Footprint,
    goal: D::Cell,
    cache: Arc<TemplateCache<D>>,
}

/// The 2D planning-path checker.
pub type TemplateChecker2<'g> = TemplateChecker<'g, D2>;
/// The 3D planning-path checker.
pub type TemplateChecker3<'g> = TemplateChecker<'g, D3>;

impl<'g, D: Dim> TemplateChecker<'g, D> {
    /// A checker with its own fresh cache.
    pub fn new(grid: &'g BitGrid<D::Cell>, footprint: D::Footprint, goal: D::Cell) -> Self {
        Self::with_cache(grid, footprint, goal, Arc::new(TemplateCache::default()))
    }

    /// A checker backed by a shared (e.g. per-map) cache.
    pub fn with_cache(
        grid: &'g BitGrid<D::Cell>,
        footprint: D::Footprint,
        goal: D::Cell,
        cache: Arc<TemplateCache<D>>,
    ) -> Self {
        TemplateChecker { grid, footprint, goal, cache }
    }

    /// The shared template cache.
    pub fn cache(&self) -> &Arc<TemplateCache<D>> {
        &self.cache
    }

    /// Full check of the footprint at `state`, with exact early-exit stats.
    pub fn check(&self, state: D::Cell) -> SoftwareCheck {
        self.check_counted(state).0
    }

    /// [`TemplateChecker::check`] plus whether the template lookup hit.
    pub fn check_counted(&self, state: D::Cell) -> (SoftwareCheck, bool) {
        let key = D::rot_key(&self.footprint, state, self.goal);
        let (tpl, hit) = self.cache.get(&self.footprint, key);
        (template_check(self.grid, state, &tpl), hit)
    }

    /// Whether the footprint is collision-free (and in bounds) at `state`.
    pub fn is_free(&self, state: D::Cell) -> bool {
        self.check(state).verdict.is_free()
    }

    /// Checks a whole batch of poses, amortizing template lookup across
    /// poses that share a [`RotKey`].
    ///
    /// Results land in `out` at the pose's original index and each is
    /// bit-identical to [`TemplateChecker::check`] on that pose alone —
    /// poses are grouped by orientation (one cache lock per group instead
    /// of per pose), but each pose is still evaluated independently against
    /// the grid, so batching can never change a verdict or a
    /// `cells_checked` count. Returns per-*group* template stats (the
    /// amortization is exactly that a group costs one lookup).
    pub fn check_batch_into(
        &self,
        states: &[D::Cell],
        scratch: &mut BatchScratch,
        out: &mut Vec<SoftwareCheck>,
    ) -> TemplateStats {
        let BatchScratch { keys, order } = scratch;
        keys.clear();
        keys.extend(states.iter().map(|&s| D::rot_key(&self.footprint, s, self.goal)));
        self.batch_keyed(states, keys, order, out)
    }

    /// [`TemplateChecker::check_batch_into`] with caller-supplied keys.
    ///
    /// Batch producers that sort probes by orientation (the server
    /// dispatcher, wave builders) have already computed every pose's
    /// [`RotKey`]; this entry point skips recomputing them. Each `keys[i]`
    /// MUST equal the footprint's `rot_key(states[i], goal)` — a wrong key
    /// checks the wrong template.
    pub fn check_batch_keyed_into(
        &self,
        states: &[D::Cell],
        keys: &[RotKey],
        order: &mut Vec<u32>,
        out: &mut Vec<SoftwareCheck>,
    ) -> TemplateStats {
        assert_eq!(keys.len(), states.len(), "one key per pose");
        debug_assert!(keys
            .iter()
            .zip(states)
            .all(|(&k, &s)| k == D::rot_key(&self.footprint, s, self.goal)));
        self.batch_keyed(states, keys, order, out)
    }

    fn batch_keyed(
        &self,
        states: &[D::Cell],
        keys: &[RotKey],
        order: &mut Vec<u32>,
        out: &mut Vec<SoftwareCheck>,
    ) -> TemplateStats {
        let mut stats = TemplateStats::default();
        out.clear();
        if states.is_empty() {
            return stats;
        }
        // Fast path: a wavefront near the goal (or an axis-aligned
        // footprint) often shares one orientation — skip the sort.
        let first = keys[0];
        if keys.iter().all(|&k| k == first) {
            let (tpl, hit) = self.cache.get(&self.footprint, first);
            stats.count(hit);
            out.extend(states.iter().map(|&s| template_check(self.grid, s, &tpl)));
            return stats;
        }
        out.resize(states.len(), BATCH_PLACEHOLDER);
        batch_groups(keys, order, |key, group| {
            let (tpl, hit) = self.cache.get(&self.footprint, key);
            stats.count(hit);
            for &i in group {
                out[i as usize] = template_check(self.grid, states[i as usize], &tpl);
            }
        });
        stats
    }

    /// Allocating convenience wrapper over
    /// [`TemplateChecker::check_batch_into`].
    pub fn check_batch(&self, states: &[D::Cell]) -> Vec<SoftwareCheck> {
        let mut out = Vec::with_capacity(states.len());
        self.check_batch_into(states, &mut BatchScratch::default(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{Footprint2, Footprint3, OrientationPolicy};
    use proptest::prelude::*;
    use racod_codacc::template_check_scalar;
    use racod_geom::Cell2;
    use racod_grid::gen::{city_map, CityName};
    use racod_grid::BitGrid2;
    use std::collections::HashSet;

    #[test]
    fn cache_hits_after_first_lookup() {
        let cache = TemplateCache2::default();
        let fp = Footprint2::car();
        let goal = Cell2::new(100, 100);
        let mut misses = 0;
        // States approaching the goal along its row and its diagonal: every
        // state shares one of two reduced directions.
        for i in 0..50 {
            for s in [Cell2::new(i, 100), Cell2::new(i, i)] {
                let (_, hit) = cache.get(&fp, fp.rot_key(s, goal));
                if !hit {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses as usize, cache.len());
        assert_eq!(misses, 2, "one template per heading ray");
    }

    #[test]
    fn gcd_reduction_shares_templates_along_rays() {
        let cache = TemplateCache2::default();
        let fp = Footprint2::car();
        let goal = Cell2::new(64, 64);
        // All states on the (1,1) diagonal toward the goal share a key.
        cache.get(&fp, fp.rot_key(Cell2::new(0, 0), goal));
        let (_, hit) = cache.get(&fp, fp.rot_key(Cell2::new(32, 32), goal));
        assert!(hit);
        let (_, hit) = cache.get(&fp, fp.rot_key(Cell2::new(63, 63), goal));
        assert!(hit);
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = TemplateCache2::new(4);
        let fp = Footprint2::car();
        for dy in 1..20i64 {
            cache.get(&fp, RotKey::from_direction(97, dy));
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn evicted_templates_recompile_identically() {
        let cache = TemplateCache2::new(1);
        let fp = Footprint2::car();
        let a = cache.get(&fp, RotKey::from_direction(3, 1)).0;
        cache.get(&fp, RotKey::from_direction(1, 3)); // evicts (3,1)
        let b = cache.get(&fp, RotKey::from_direction(3, 1)).0;
        assert_eq!(a.offsets(), b.offsets());
    }

    /// Every orientation a `side`² map can produce: the reduced direction
    /// from any cell to any other (with repeats), and `Axis` at the goal.
    fn headings(side: i64) -> impl Iterator<Item = RotKey> {
        (1 - side..side)
            .flat_map(move |dy| (1 - side..side).map(move |dx| RotKey::from_direction(dx, dy)))
    }

    /// The heading set is quantised by the grid itself: a pure function of
    /// the rasteriser, so a change in these counts flags a rasteriser change.
    #[test]
    fn map_headings_intern_to_few_templates() {
        let cars = TemplateCache2::new(1 << 16);
        let car = Footprint2::car();
        for key in headings(128) {
            let (tpl, _) = cars.get(&car, key);
            assert_eq!(*tpl, car.template(key), "{key:?}");
        }
        let c = cars.census();
        assert_eq!((c.keys, c.distinct), (39_665, 804));
        assert!(c.bytes <= TEMPLATE_BYTES_BUDGET);

        let drones = TemplateCache3::new(1 << 16);
        let drone = Footprint3::drone();
        for key in headings(48) {
            let (tpl, _) = drones.get(&drone, key);
            assert_eq!(*tpl, drone.template(key), "{key:?}");
        }
        let c = drones.census();
        assert_eq!((c.keys, c.distinct), (5_569, 10));
    }

    #[test]
    fn byte_budget_bounds_large_bodies_at_fresh_headings() {
        // 64 x 64 is the largest admissible 2D body (about 4 000 cells).
        let body = Footprint2 { length: 64.0, width: 64.0, policy: OrientationPolicy::TowardGoal };
        let keys: Vec<RotKey> = (0..600i64)
            .map(|i| {
                let a = i as f64 * std::f64::consts::FRAC_PI_2 / 600.0;
                RotKey::from_direction((4096.0 * a.cos()) as i64, (4096.0 * a.sin()) as i64 + 1)
            })
            .collect();
        let distinct: HashSet<_> = keys.iter().map(|&k| body.template(k)).collect();
        let fed: usize = distinct.iter().map(Lru::<(u32, u32), Cell2>::template_bytes).sum();
        assert!(fed > 2 * TEMPLATE_BYTES_BUDGET, "feeds {fed} bytes");

        let cache = TemplateCache2::new(keys.len());
        for &key in &keys {
            let (tpl, _) = cache.get(&body, key);
            assert_eq!(*tpl, body.template(key), "the newest template is served");
            assert!(cache.census().bytes <= TEMPLATE_BYTES_BUDGET, "{:?}", cache.census());
        }
        assert!(cache.census().keys < keys.len(), "the budget evicted");
    }

    #[test]
    fn a_template_over_the_budget_is_still_served() {
        let cache = TemplateCache2::with_budget(8, 1);
        let car = Footprint2::car();
        for dy in 1..6 {
            let key = RotKey::from_direction(9, dy);
            let (tpl, hit) = cache.get(&car, key);
            assert!(!hit);
            assert_eq!(*tpl, car.template(key));
            assert_eq!(cache.census().keys, 1, "only the newest entry stays");
        }
    }

    /// What interning promises of every resident entry: its template is the
    /// one interned copy of its `(footprint, content)`, counted once per key;
    /// entries of different footprints never share a template; the byte
    /// count is the sum of what is resident.
    fn assert_interned<D: Dim>(cache: &TemplateCache<D>) {
        let lru = cache.inner.lock().unwrap();
        let mut users: HashMap<*const FootprintTemplate<D::Cell>, usize> = HashMap::new();
        for s in &lru.slots {
            let (class, _) = lru.interned.get_key_value(&(s.key.0, s.value.clone())).unwrap();
            assert!(Arc::ptr_eq(&class.1, &s.value), "equal content, one Arc");
            *users.entry(Arc::as_ptr(&s.value)).or_default() += 1;
            for t in &lru.slots {
                assert!(t.key.0 == s.key.0 || !Arc::ptr_eq(&t.value, &s.value));
            }
        }
        assert_eq!(users.len(), lru.interned.len());
        for ((_, tpl), &n) in &lru.interned {
            assert_eq!(users[&Arc::as_ptr(tpl)], n);
        }
        let templates: usize = lru
            .interned
            .keys()
            .map(|(_, t)| Lru::<D::FootprintKey, D::Cell>::template_bytes(t))
            .sum();
        assert_eq!(
            lru.bytes,
            lru.slots.len() * Lru::<D::FootprintKey, D::Cell>::KEY_BYTES + templates
        );
        assert_eq!(lru.index.len(), lru.slots.len());
    }

    fn lookups_are_exact<D: Dim>(
        cache: &TemplateCache<D>,
        footprints: &[D::Footprint],
        lookups: &[(usize, RotKey)],
    ) {
        for &(f, key) in lookups {
            let fp = &footprints[f % footprints.len()];
            let (tpl, _) = cache.get(fp, key);
            let direct = D::template(fp, key);
            assert_eq!(tpl.offsets(), direct.offsets(), "{fp:?} {key:?}");
            assert_eq!(tpl.rows(), direct.rows(), "{fp:?} {key:?}");
            assert_interned(cache);
        }
    }

    /// The O(capacity) tick scan the cache once evicted with: the oracle.
    struct ScanLru {
        entries: Vec<(RotKey, u64)>,
        tick: u64,
        capacity: usize,
    }

    impl ScanLru {
        fn get(&mut self, key: RotKey) -> bool {
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                e.1 = self.tick;
                return true;
            }
            if self.entries.len() >= self.capacity {
                let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].1);
                self.entries.swap_remove(lru.expect("full"));
            }
            self.entries.push((key, self.tick));
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lru_evicts_exactly_what_the_scan_did(
            capacity in 1usize..=8,
            stream in prop::collection::vec(1i64..13, 0..80),
        ) {
            let cache = TemplateCache2::new(capacity);
            let mut oracle = ScanLru { entries: Vec::new(), tick: 0, capacity };
            let fp = Footprint2::point();
            for dy in stream {
                let key = RotKey::from_direction(97, dy);
                prop_assert_eq!(cache.get(&fp, key).1, oracle.get(key), "key {:?}", key);
                let mut resident: Vec<RotKey> =
                    cache.inner.lock().unwrap().index.keys().map(|k| k.1).collect();
                let mut expected: Vec<RotKey> = oracle.entries.iter().map(|e| e.0).collect();
                resident.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(resident, expected);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn interning_is_exact(
            sizes in prop::collection::vec((0.0f32..24.0, 0.0f32..24.0, 0.0f32..6.0), 1..3),
            lookups in prop::collection::vec((0usize..8, 0usize..3, -511i64..=511, -511i64..=511), 1..60),
            capacity in 1usize..=8,
            budget_kib in 4usize..64,
        ) {
            // Headings of a 512² map, of a 128² map, and a handful that repeat.
            let lookups: Vec<(usize, RotKey)> = lookups
                .iter()
                .map(|&(f, space, dx, dy)| {
                    let shrink = [1, 4, 64][space];
                    (f, RotKey::from_direction(dx / shrink, dy / shrink))
                })
                .collect();
            let toward = OrientationPolicy::TowardGoal;
            let mut fp2 = vec![Footprint2::car(), Footprint2::small_robot(), Footprint2::point()];
            fp2.extend(sizes.iter().map(|&(length, width, _)| Footprint2 { length, width, policy: toward }));
            let mut fp3 = vec![Footprint3::drone(), Footprint3::point()];
            fp3.extend(sizes.iter().map(|&(l, w, height)| Footprint3 {
                length: l / 4.0,
                width: w / 4.0,
                height,
                policy: toward,
            }));
            let budget = budget_kib << 10;
            lookups_are_exact(&TemplateCache2::new(lookups.len()), &fp2, &lookups);
            lookups_are_exact(&TemplateCache2::with_budget(capacity, budget), &fp2, &lookups);
            lookups_are_exact(&TemplateCache3::new(lookups.len()), &fp3, &lookups);
            lookups_are_exact(&TemplateCache3::with_budget(capacity, budget), &fp3, &lookups);
        }
    }

    #[test]
    fn checker_matches_scalar_walk_on_a_city() {
        let grid = city_map(CityName::Boston, 128, 128);
        let goal = Cell2::new(120, 120);
        let fp = Footprint2::car();
        let checker = TemplateChecker2::new(&grid, fp, goal);
        for y in (0..128).step_by(7) {
            for x in (0..128).step_by(7) {
                let s = Cell2::new(x, y);
                let key = fp.rot_key(s, goal);
                let (tpl, _) = checker.cache().get(&fp, key);
                let fast = checker.check(s);
                let slow = template_check_scalar(&grid, s, &tpl);
                assert_eq!(fast, slow, "state {s}");
            }
        }
    }

    #[test]
    fn checker_is_shareable_across_threads() {
        let grid = BitGrid2::new(64, 64);
        let checker =
            Arc::new(TemplateChecker2::new(&grid, Footprint2::small_robot(), Cell2::new(60, 60)));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let checker = Arc::clone(&checker);
                scope.spawn(move || {
                    for i in 0..100i64 {
                        assert!(checker.is_free(Cell2::new(10 + (i + t) % 40, 20)));
                    }
                });
            }
        });
    }
}
