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
//! layer can keep one instance warm per map beside its other artifacts, and
//! real thread-pool planners can check through it concurrently.

use crate::dim::{Dim, D2, D3};
use crate::footprint::RotKey;
use racod_codacc::{template_check, SoftwareCheck};
use racod_geom::FootprintTemplate;
use racod_grid::BitGrid;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Default bound on distinct (footprint, rotation) templates kept alive.
///
/// A car template is ~3 KB, so 1024 entries bound the cache at a few MB.
/// They do not cover every heading: a `TowardGoal` key is the gcd-reduced
/// direction to the goal, so fresh goals keep meeting keys the cache has
/// not seen (the served car workloads hit about half the time).
pub const DEFAULT_TEMPLATE_CAPACITY: usize = 1024;

/// End of a recency list.
const NIL: usize = usize::MAX;

/// A least-recently-used map in O(1) per lookup: entries live in slots
/// threaded on a doubly linked recency list, most recent at `head`. A miss
/// on a full cache evicts the `tail` and reuses its slot, so the victim is
/// always the entry used longest ago and a lookup never scans.
struct Lru<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

struct Slot<K, V> {
    key: K,
    value: Arc<V>,
    prev: usize,
    next: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru { index: HashMap::new(), slots: Vec::new(), head: NIL, tail: NIL, capacity }
    }

    fn get_or_insert_with(&mut self, key: K, build: impl FnOnce() -> V) -> (Arc<V>, bool) {
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            self.push_front(i);
            return (self.slots[i].value.clone(), true);
        }
        // Build before touching the list: a panicking build leaves it whole
        // for the next holder of the (poison-recovered) lock.
        let value = Arc::new(build());
        let slot = Slot { key, value: value.clone(), prev: NIL, next: NIL };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let lru = self.tail;
            self.unlink(lru);
            self.index.remove(&self.slots[lru].key);
            self.slots[lru] = slot;
            lru
        };
        self.push_front(i);
        self.index.insert(key, i);
        (value, false)
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
/// dimensions (bit-exact) and [`RotKey`].
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
    inner: Mutex<Lru<Key<D>, FootprintTemplate<D::Cell>>>,
}

type Key<D> = (<D as Dim>::FootprintKey, RotKey);

/// The 2D template cache.
pub type TemplateCache2 = TemplateCache<D2>;
/// The 3D template cache.
pub type TemplateCache3 = TemplateCache<D3>;

impl<D: Dim> TemplateCache<D> {
    /// Creates a cache bounded to `capacity` templates (min 1).
    pub fn new(capacity: usize) -> Self {
        TemplateCache { inner: Mutex::new(Lru::new(capacity)) }
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

    /// Number of templates currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).index.len()
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
/// touches the cache lock.
///
/// Memo hits and cache lookups are counted apart because callers report
/// them differently: a simulated plan's [`TemplateStats`] counts a memo hit
/// as a hit ([`TemplateSource::stats`]), the serving layer's real-threads
/// arm records cache traffic only ([`TemplateSource::lookups`]).
pub struct TemplateSource<'c, D: Dim> {
    footprint: D::Footprint,
    goal: D::Cell,
    cache: &'c TemplateCache<D>,
    last: Option<(RotKey, Arc<FootprintTemplate<D::Cell>>)>,
    memo_hits: u64,
    lookups: TemplateStats,
}

impl<'c, D: Dim> TemplateSource<'c, D> {
    /// A supplier of `footprint`'s templates for states heading to `goal`.
    pub fn new(footprint: D::Footprint, goal: D::Cell, cache: &'c TemplateCache<D>) -> Self {
        TemplateSource {
            footprint,
            goal,
            cache,
            last: None,
            memo_hits: 0,
            lookups: TemplateStats::default(),
        }
    }

    /// The template of the body at `state`.
    pub fn template_at(&mut self, state: D::Cell) -> &FootprintTemplate<D::Cell> {
        let key = D::rot_key(&self.footprint, state, self.goal);
        self.template_for(key)
    }

    /// The template for orientation `key`, which MUST be this footprint's
    /// key at the state being checked.
    pub fn template_for(&mut self, key: RotKey) -> &FootprintTemplate<D::Cell> {
        if matches!(&self.last, Some((k, _)) if *k == key) {
            self.memo_hits += 1;
        } else {
            let (tpl, hit) = self.cache.get(&self.footprint, key);
            self.lookups.count(hit);
            self.last = Some((key, tpl));
        }
        &self.last.as_ref().expect("memo filled above").1
    }

    /// Cache lookups only: what got past the memo.
    pub fn lookups(&self) -> TemplateStats {
        self.lookups
    }

    /// Every request: memo hits count as hits.
    pub fn stats(&self) -> TemplateStats {
        TemplateStats { hits: self.lookups.hits + self.memo_hits, misses: self.lookups.misses }
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
    use crate::footprint::Footprint2;
    use proptest::prelude::*;
    use racod_codacc::template_check_scalar;
    use racod_geom::Cell2;
    use racod_grid::gen::{city_map, CityName};
    use racod_grid::BitGrid2;

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
