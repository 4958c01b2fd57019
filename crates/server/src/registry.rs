//! Map registry: shared *versioned* maps plus lazily built per-map
//! artifacts.
//!
//! Maps are registered once and shared via `Arc` — workers never copy grid
//! data. The occupancy data itself is copy-on-write: a map starts at
//! version 0, and every [`MapEntry::apply_deltas2`] batch publishes a new
//! grid `Arc` under the next version. Readers take
//! [`MapEntry::snapshot2`] — a `(grid, version)` pair that stays internally
//! consistent no matter how many deltas land afterwards — so an in-flight
//! plan keeps planning against the exact world it was admitted under.
//! A bounded journal of recent delta batches lets such a plan decide,
//! after the fact, whether the world it planned against still proves its
//! answer ([`MapEntry::deltas_since`]).
//!
//! Invalidation on a delta is *targeted*: a built reachability bundle is
//! rebuilt from the new grid (connectivity is global — one closed door can
//! disconnect half the map), the speculation memo is swept only within
//! each entry's own footprint influence radius
//! ([`SpecMemo2::invalidate_cells`]), and the footprint-template cache is
//! not touched at all — templates are keyed by footprint dimensions and
//! orientation, never by grid content, so a map delta cannot stale them.
//! For the same reason there is one template cache per registry, not per
//! map: every entry hands out a clone of it, so a heading compiled for one
//! map is warm for all of them and survives a map's replacement.
//!
//! Cached artifacts carry an integrity checksum stamped at build time.
//! Readers that care ([`MapEntry::artifacts2_verified`]) re-verify before
//! trusting the bundle: a mismatch (bit rot, or an injected `MapLoad`
//! fault) discards the cached copy so the next reader rebuilds it, and the
//! affected request simply plans without the prefilter — correctness is
//! never derived from an unverified artifact.

use crate::request::MapId;
use crate::speculate::SpecMemo2;
use parking_lot::{Mutex, RwLock};
use racod_fault::{fnv1a, fnv1a_with, FaultPlan, FaultSite};
use racod_geom::Cell2;
use racod_grid::{BitGrid2, BitGrid3, GridDelta2, Occupancy2, Occupancy3};
use racod_search::{DistanceField, GridSpace2, LandmarkPack2};
use racod_sim::{TemplateCache2, TemplateCache3, TemplateCensus};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Journal depth: delta batches kept per map for in-flight replan
/// decisions. A plan that straddles more than this many batches simply
/// replans from scratch (`deltas_since` reports the gap).
const JOURNAL_DEPTH: usize = 64;

/// The raw occupancy data of a registered map.
#[derive(Debug, Clone)]
pub enum MapData {
    /// A 2D occupancy grid.
    Grid2(Arc<BitGrid2>),
    /// A 3D occupancy grid.
    Grid3(Arc<BitGrid3>),
}

impl MapData {
    /// Whether this is a 2D map.
    pub fn is_2d(&self) -> bool {
        matches!(self, MapData::Grid2(_))
    }

    /// Cell/voxel count.
    pub fn cells(&self) -> u64 {
        match self {
            MapData::Grid2(g) => g.width() as u64 * g.height() as u64,
            MapData::Grid3(g) => g.size_x() as u64 * g.size_y() as u64 * g.size_z() as u64,
        }
    }
}

/// Derived 2D artifacts, built lazily on first request against the map.
#[derive(Debug)]
pub struct Artifacts2 {
    /// The seed's free component: a cell's bit is set iff it is reachable
    /// from `reach_seed` through free cells (8-connected).
    pub reach: BitGrid2,
    /// The seed cell of the reachability mask.
    pub reach_seed: Cell2,
    /// FNV-1a over the mask's dimensions and words, stamped when the bundle
    /// was built. [`verify`](Self::verify) recomputes it.
    pub checksum: u64,
}

impl Artifacts2 {
    fn build(grid: &BitGrid2) -> Option<Artifacts2> {
        let seed = first_free_cell(grid)?;
        let (w, h) = (grid.width(), grid.height());
        let space = GridSpace2::eight_connected(w, h);
        let field = DistanceField::compute(&space, seed, |c| grid.get(c) == Some(false));
        let mut reach = BitGrid2::new(w, h);
        for y in 0..h as usize {
            for x in 0..w as usize {
                if field.distance_by_index(y * w as usize + x).is_some() {
                    reach.set(Cell2::new(x as i64, y as i64), true);
                }
            }
        }
        let checksum = Self::content_checksum(&reach);
        Some(Artifacts2 { reach, reach_seed: seed, checksum })
    }

    fn content_checksum(reach: &BitGrid2) -> u64 {
        let h = fnv1a_with(fnv1a(&reach.width().to_le_bytes()), &reach.height().to_le_bytes());
        reach.words().iter().fold(h, |h, w| fnv1a_with(h, &w.to_le_bytes()))
    }

    /// Whether the bundle's content still matches the checksum stamped at
    /// build time.
    pub fn verify(&self) -> bool {
        Self::content_checksum(&self.reach) == self.checksum
    }

    /// Whether `c` is in the seed's free component.
    pub fn reachable(&self, c: Cell2) -> bool {
        self.reach.get(c) == Some(true)
    }

    /// Whether both cells sit in the same free component as the seed — a
    /// cheap *definite-infeasibility* prefilter: if exactly one endpoint is
    /// reachable from the seed, no path can exist. (If neither is reachable
    /// the test is inconclusive and planning proceeds.)
    pub fn definitely_disconnected(&self, a: Cell2, b: Cell2) -> bool {
        self.reachable(a) != self.reachable(b)
    }
}

/// A landmark pack stamped with the map version it was derived from. The
/// stamp is the fence: a pack is only handed out to a plan whose snapshot
/// version matches, so stale distances can never un-admissify a search.
#[derive(Debug)]
struct AltPackSlot {
    /// Map version the pack's distance fields were computed against.
    version: u64,
    /// `None` when the map had no free cell at that version (landmark
    /// selection has nothing to seed from).
    pack: Option<Arc<LandmarkPack2>>,
}

/// Outcome of a version-fenced landmark-pack fetch
/// ([`MapEntry::landmark_pack2`]).
#[derive(Debug, Clone)]
pub enum AltFetch {
    /// A pack built against exactly the requested map version.
    Ready(Arc<LandmarkPack2>),
    /// A pack exists but was built for a different version: the caller
    /// must plan octile-only until the background rebuilder catches up.
    Stale,
    /// Landmarks don't apply (3D map, or no free cell at this version).
    Absent,
}

/// Stable per-map token for fault-injection decisions (FNV-1a of the id).
fn id_token(id: &MapId) -> u64 {
    fnv1a(id.as_str().as_bytes())
}

fn first_free_cell(grid: &BitGrid2) -> Option<Cell2> {
    for y in 0..Occupancy2::height(grid) as i64 {
        for x in 0..Occupancy2::width(grid) as i64 {
            let c = Cell2::new(x, y);
            if grid.occupied(c) == Some(false) {
                return Some(c);
            }
        }
    }
    None
}

/// One registered map with its lazily built artifact cache.
///
/// The occupancy data is versioned and copy-on-write: deltas publish a new
/// grid `Arc` under the next version, snapshots taken by in-flight plans
/// are never mutated, and a map's *dimensions* never change (a delta is an
/// occupancy event, not a re-survey).
#[derive(Debug)]
pub struct MapEntry {
    /// The map id.
    pub id: MapId,
    // Copy-on-write occupancy data, current version, and the bounded
    // journal of recent delta batches `(version_after, effective_deltas)`.
    // `version2` is only written under the `data` write lock, so a
    // `snapshot2` read lock always observes a consistent pair.
    data: RwLock<MapData>,
    version2: AtomicU64,
    journal: Mutex<VecDeque<(u64, Vec<GridDelta2>)>>,
    // `None` = not built yet; `Some(None)` = built and known absent (3D map
    // or no free cell); `Some(Some(_))` = cached bundle. An `RwLock` rather
    // than a `OnceLock` so that checksum verification can *invalidate* a
    // corrupted bundle and force a rebuild.
    artifacts2: RwLock<Option<Option<Arc<Artifacts2>>>>,
    // Version-stamped ALT landmark pack: `None` until a plan first asks for
    // landmarks on this map. Deltas never touch the slot — the version
    // stamp alone fences stale packs, and the background rebuilder
    // republishes a fresh one.
    alt2: RwLock<Option<AltPackSlot>>,
    alt_builds: AtomicU64,
    artifact_builds: AtomicU64,
    corruptions: AtomicU64,
    fault: RwLock<Option<Arc<FaultPlan>>>,
    tcache2: Arc<TemplateCache2>,
    tcache3: Arc<TemplateCache3>,
    spec2: Arc<SpecMemo2>,
}

impl MapEntry {
    fn new(
        id: MapId,
        data: MapData,
        fault: Option<Arc<FaultPlan>>,
        templates: &TemplateCaches,
    ) -> Self {
        MapEntry {
            id,
            data: RwLock::new(data),
            version2: AtomicU64::new(0),
            journal: Mutex::new(VecDeque::new()),
            artifacts2: RwLock::new(None),
            alt2: RwLock::new(None),
            alt_builds: AtomicU64::new(0),
            artifact_builds: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            fault: RwLock::new(fault),
            tcache2: templates.d2.clone(),
            tcache3: templates.d3.clone(),
            spec2: Arc::new(SpecMemo2::new()),
        }
    }

    /// Whether this is a 2D map (the dimension never changes after
    /// registration).
    pub fn is_2d(&self) -> bool {
        self.data.read().is_2d()
    }

    /// Cell/voxel count of the map.
    pub fn cells(&self) -> u64 {
        self.data.read().cells()
    }

    /// The registry's 2D footprint-template cache. Every request against
    /// every map of the registry plans through the same cache, so templates
    /// compiled for one request stay warm for the next, on any worker.
    pub fn template_cache2(&self) -> Arc<TemplateCache2> {
        self.tcache2.clone()
    }

    /// The registry's 3D footprint-template cache.
    pub fn template_cache3(&self) -> Arc<TemplateCache3> {
        self.tcache3.clone()
    }

    /// The entry's speculative-precheck memo (2D plans only). Speculators
    /// fill it while requests queue; planner threads consult it before
    /// dispatching native checks.
    pub fn spec_memo2(&self) -> Arc<SpecMemo2> {
        self.spec2.clone()
    }

    /// The 2D artifact bundle, built on first call and cached. Returns
    /// `None` for 3D maps or maps with no free cell. Does *not* verify the
    /// checksum — use [`artifacts2_verified`](Self::artifacts2_verified) on
    /// paths that must tolerate corruption.
    pub fn artifacts2(&self) -> Option<Arc<Artifacts2>> {
        if let Some(cached) = self.artifacts2.read().as_ref() {
            return cached.clone();
        }
        let mut slot = self.artifacts2.write();
        if let Some(cached) = slot.as_ref() {
            // Raced with another builder; use its result.
            return cached.clone();
        }
        let built = match &*self.data.read() {
            MapData::Grid2(grid) => {
                let builds = self.artifact_builds.fetch_add(1, Ordering::Relaxed);
                let mut art = Artifacts2::build(grid);
                if let (Some(a), Some(plan)) = (art.as_mut(), self.fault.read().as_ref()) {
                    // Injected corruption: flip the seed's reach bit *after*
                    // the checksum was stamped. Unverified, the bundle would
                    // now call the seed unreachable; verification catches it.
                    if plan.perturb(FaultSite::MapLoad, id_token(&self.id) ^ builds) {
                        let seed = a.reach_seed;
                        a.reach.set(seed, !a.reachable(seed));
                    }
                }
                art.map(Arc::new)
            }
            MapData::Grid3(_) => None,
        };
        *slot = Some(built.clone());
        built
    }

    /// Like [`artifacts2`](Self::artifacts2), but verifies the checksum
    /// before handing the bundle out. On a mismatch the cached copy is
    /// discarded (the next caller rebuilds) and `(None, true)` is returned:
    /// the caller should plan without the prefilter and count the event.
    pub fn artifacts2_verified(&self) -> (Option<Arc<Artifacts2>>, bool) {
        match self.artifacts2() {
            None => (None, false),
            Some(art) if art.verify() => (Some(art), false),
            Some(_) => {
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                *self.artifacts2.write() = None;
                // Composes with speculation: verdicts prechecked against a
                // map whose integrity is now suspect must not be served, so
                // the memo version bumps and every shard clears.
                self.spec2.invalidate();
                (None, true)
            }
        }
    }

    /// How many times the artifact bundle was (re)built — 0 or 1 in healthy
    /// operation; exposed so tests can prove laziness and single-build
    /// semantics (and corruption tests can prove rebuilds).
    pub fn artifact_builds(&self) -> u64 {
        self.artifact_builds.load(Ordering::Relaxed)
    }

    /// Checksum mismatches detected on this entry's cached artifacts.
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the fault plan consulted on artifact builds.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.write() = plan;
    }

    /// The current 2D grid, if this is a 2D map. The returned `Arc` is a
    /// point-in-time snapshot: later deltas publish a *new* grid and never
    /// mutate this one.
    pub fn grid2(&self) -> Option<Arc<BitGrid2>> {
        match &*self.data.read() {
            MapData::Grid2(g) => Some(g.clone()),
            MapData::Grid3(_) => None,
        }
    }

    /// The current 3D grid, if this is a 3D map.
    pub fn grid3(&self) -> Option<Arc<BitGrid3>> {
        match &*self.data.read() {
            MapData::Grid3(g) => Some(g.clone()),
            MapData::Grid2(_) => None,
        }
    }

    /// A consistent `(grid, version)` snapshot of a 2D map: the grid is
    /// exactly the content published under that version.
    pub fn snapshot2(&self) -> Option<(Arc<BitGrid2>, u64)> {
        let data = self.data.read();
        match &*data {
            MapData::Grid2(g) => Some((g.clone(), self.version2.load(Ordering::Relaxed))),
            MapData::Grid3(_) => None,
        }
    }

    /// The current map version. 0 is the registered map; each delta batch
    /// bumps it by one — even an all-no-op batch, so "version unchanged"
    /// always certifies "bit-identical world".
    pub fn version2(&self) -> u64 {
        self.version2.load(Ordering::Relaxed)
    }

    /// Effective grid-content deltas still in the journal.
    pub fn deltas_applied(&self) -> u64 {
        self.journal.lock().iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Applies a delta batch to a 2D map copy-on-write and returns
    /// `(new_version, changed_cells)`; `None` for 3D maps.
    ///
    /// Publication order is what makes in-flight semantics sound:
    ///
    /// 1. the new grid and version are published atomically (both under
    ///    the `data` write lock) and the batch is journaled, then
    /// 2. a built artifact bundle is rebuilt from the new grid, then
    /// 3. the speculation memo is version-bumped and swept in the changed
    ///    cells' footprint influence ([`SpecMemo2::invalidate_cells`]) —
    ///    so any precheck that read the *old* grid fails its publish-time
    ///    version test and drops instead of poisoning the fresh memo.
    ///
    /// Footprint-template caches are deliberately untouched: templates are
    /// a function of footprint dimensions and orientation only, so no grid
    /// delta can invalidate them.
    pub fn apply_deltas2(&self, deltas: &[GridDelta2]) -> Option<(u64, usize)> {
        let mut changed_cells: Vec<Cell2> = Vec::new();
        let mut effective: Vec<GridDelta2> = Vec::new();
        let version = {
            let mut data = self.data.write();
            let MapData::Grid2(grid) = &*data else {
                return None;
            };
            let mut next = BitGrid2::clone(grid);
            for &d in deltas {
                // Track per-cell flips, not just per-delta success: a Move
                // whose source was already free still occupies its target.
                let before: Vec<(Cell2, Option<bool>)> =
                    d.cells().map(|c| (c, next.get(c))).collect();
                if next.apply_delta(d) {
                    effective.push(d);
                    for (c, b) in before {
                        if next.get(c) != b {
                            changed_cells.push(c);
                        }
                    }
                }
            }
            changed_cells.sort_unstable_by_key(|c| (c.y, c.x));
            changed_cells.dedup();
            *data = MapData::Grid2(Arc::new(next));
            let version = self.version2.load(Ordering::Relaxed) + 1;
            self.version2.store(version, Ordering::Relaxed);
            version
        };
        {
            let mut journal = self.journal.lock();
            if journal.len() == JOURNAL_DEPTH {
                journal.pop_front();
            }
            journal.push_back((version, effective));
        }
        if !changed_cells.is_empty() {
            self.rebuild_artifacts2();
            self.spec2.invalidate_cells(&changed_cells);
        }
        Some((version, changed_cells.len()))
    }

    /// The deltas applied after `version`, oldest first, or `None` if the
    /// journal no longer reaches back that far (the caller should replan
    /// from scratch). An empty vector means every batch since `version`
    /// was a no-op: the world is bit-identical.
    pub fn deltas_since(&self, version: u64) -> Option<Vec<GridDelta2>> {
        let current = self.version2();
        if version > current {
            return None;
        }
        if version == current {
            return Some(Vec::new());
        }
        let journal = self.journal.lock();
        // Coverage check: every batch in (version, current] must still be
        // journaled. Batches are contiguous, so it suffices that the
        // oldest retained batch is at most version + 1.
        match journal.front() {
            Some(&(oldest, _)) if oldest <= version + 1 => Some(
                journal
                    .iter()
                    .filter(|(v, _)| *v > version)
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Rebuilds a built artifact bundle after a delta; an unbuilt (or
    /// known-absent) one is dropped so the next reader builds it from the
    /// current grid. Unlike a reader's build this neither consults the
    /// `MapLoad` fault site nor counts in
    /// [`artifact_builds`](Self::artifact_builds).
    fn rebuild_artifacts2(&self) {
        let mut slot = self.artifacts2.write();
        let grid = match (slot.as_ref(), &*self.data.read()) {
            (Some(Some(_)), MapData::Grid2(g)) => g.clone(),
            _ => {
                *slot = None;
                return;
            }
        };
        *slot = Some(Artifacts2::build(&grid).map(Arc::new));
    }

    fn build_landmark_pack(grid: &BitGrid2, k: usize) -> Option<Arc<LandmarkPack2>> {
        LandmarkPack2::build(grid.width(), grid.height(), k, |c| grid.occupied(c) == Some(false))
            .map(Arc::new)
    }

    /// The map's landmark pack, version-fenced: returns
    /// [`AltFetch::Ready`] only when the cached pack was derived from
    /// exactly the grid published under `want_version` (the caller's plan
    /// snapshot). The first call on a map builds synchronously under the
    /// slot's write lock — deterministic for callers, and concurrent
    /// requests against the same cold map coalesce into one build. After a
    /// delta the slot goes [`AltFetch::Stale`] by version mismatch alone
    /// (deltas never write the slot) until [`rebuild_landmarks2`]
    /// republishes.
    ///
    /// The second tuple element reports whether *this* call performed the
    /// cold build (for the `alt_packs_built` metric).
    ///
    /// [`rebuild_landmarks2`]: Self::rebuild_landmarks2
    pub fn landmark_pack2(&self, k: usize, want_version: u64) -> (AltFetch, bool) {
        let fetch = |slot: &AltPackSlot| {
            if slot.version != want_version {
                AltFetch::Stale
            } else {
                match &slot.pack {
                    Some(p) => AltFetch::Ready(p.clone()),
                    None => AltFetch::Absent,
                }
            }
        };
        if let Some(slot) = self.alt2.read().as_ref() {
            return (fetch(slot), false);
        }
        let mut guard = self.alt2.write();
        if let Some(slot) = guard.as_ref() {
            // Raced with another cold builder; use its result.
            return (fetch(slot), false);
        }
        // The snapshot is taken *inside* the write lock, so the stamped
        // version is exactly the grid the fields were computed from (a
        // delta landing mid-build blocks on `data` only after this read,
        // and publishes a higher version that fences this pack).
        let Some((grid, version)) = self.snapshot2() else {
            *guard = Some(AltPackSlot { version: 0, pack: None });
            return (AltFetch::Absent, false);
        };
        let pack = Self::build_landmark_pack(&grid, k);
        let built = pack.is_some();
        if built {
            self.alt_builds.fetch_add(1, Ordering::Relaxed);
        }
        let slot = AltPackSlot { version, pack };
        let result = fetch(&slot);
        *guard = Some(slot);
        (result, built)
    }

    /// Re-derives a stale landmark pack against the current grid; the
    /// background rebuilder calls this after a delta. Builds happen
    /// *outside* the slot lock (a Dijkstra per landmark is milliseconds on
    /// large maps; readers keep falling back to octile meanwhile) and the
    /// publish is version-checked, so a racing rebuild can never clobber a
    /// fresher pack with an older one. Loops until the pack is current —
    /// deltas landing mid-build are coalesced into one more rebuild.
    ///
    /// Returns `true` if at least one pack was published. Maps whose pack
    /// was never requested stay lazily unbuilt.
    pub fn rebuild_landmarks2(&self, k: usize) -> bool {
        let mut published = false;
        loop {
            let built_for = match self.alt2.read().as_ref() {
                None => return published,
                Some(slot) => slot.version,
            };
            let Some((grid, version)) = self.snapshot2() else {
                return published;
            };
            if built_for >= version {
                return published;
            }
            let pack = Self::build_landmark_pack(&grid, k);
            {
                let mut guard = self.alt2.write();
                let newer = matches!(guard.as_ref(), Some(slot) if slot.version >= version);
                if !newer {
                    if pack.is_some() {
                        self.alt_builds.fetch_add(1, Ordering::Relaxed);
                    }
                    *guard = Some(AltPackSlot { version, pack });
                    published = true;
                }
            }
        }
    }

    /// How many landmark packs were built for this entry (cold builds plus
    /// rebuilds) — proves laziness and coalescing in tests.
    pub fn alt_builds(&self) -> u64 {
        self.alt_builds.load(Ordering::Relaxed)
    }
}

/// Keys the registry's template cache keeps per dimension. A `TowardGoal`
/// key is the reduced direction between two cells, so a map of side N
/// produces about 2.4·N² of them: this covers every heading of a 128² map
/// (39 665), while a 512² map (636 769) cycles through the LRU. The cache's
/// byte budget bounds memory either way.
const TEMPLATE_CAPACITY: usize = 65_536;

/// The registry's footprint-template caches, one per dimension.
#[derive(Debug)]
struct TemplateCaches {
    d2: Arc<TemplateCache2>,
    d3: Arc<TemplateCache3>,
}

impl Default for TemplateCaches {
    fn default() -> Self {
        TemplateCaches {
            d2: Arc::new(TemplateCache2::new(TEMPLATE_CAPACITY)),
            d3: Arc::new(TemplateCache3::new(TEMPLATE_CAPACITY)),
        }
    }
}

/// A concurrent registry of immutable maps keyed by [`MapId`].
///
/// Registration replaces any previous map under the same id (in-flight
/// requests keep the `Arc` of the entry they resolved at admission, so a
/// replacement never mutates data under a running plan).
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: RwLock<HashMap<MapId, Arc<MapEntry>>>,
    fault: RwLock<Option<Arc<FaultPlan>>>,
    templates: TemplateCaches,
}

impl MapRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault plan on the registry: every current and future
    /// entry consults it when building artifacts (the `MapLoad` injection
    /// site). [`crate::PlanServer::start`] calls this automatically when
    /// its config carries a plan.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        for entry in self.maps.read().values() {
            entry.set_fault_plan(plan.clone());
        }
        *self.fault.write() = plan;
    }

    /// Registers a 2D map, replacing any previous map under the id.
    pub fn insert_grid2(&self, id: impl Into<MapId>, grid: BitGrid2) -> Arc<MapEntry> {
        let id = id.into();
        let entry = Arc::new(MapEntry::new(
            id.clone(),
            MapData::Grid2(Arc::new(grid)),
            self.fault.read().clone(),
            &self.templates,
        ));
        self.maps.write().insert(id, entry.clone());
        entry
    }

    /// Registers a 3D map, replacing any previous map under the id.
    pub fn insert_grid3(&self, id: impl Into<MapId>, grid: BitGrid3) -> Arc<MapEntry> {
        let id = id.into();
        let entry = Arc::new(MapEntry::new(
            id.clone(),
            MapData::Grid3(Arc::new(grid)),
            self.fault.read().clone(),
            &self.templates,
        ));
        self.maps.write().insert(id, entry.clone());
        entry
    }

    /// Looks up a map.
    pub fn get(&self, id: &MapId) -> Option<Arc<MapEntry>> {
        self.maps.read().get(id).cloned()
    }

    /// Applies a delta batch to the 2D map under `id`, returning
    /// `(new_version, changed_cells)`; `None` if the map is unknown or 3D.
    pub fn apply_deltas2(&self, id: &MapId, deltas: &[GridDelta2]) -> Option<(u64, usize)> {
        self.get(id)?.apply_deltas2(deltas)
    }

    /// Number of registered maps.
    pub fn len(&self) -> usize {
        self.maps.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.read().is_empty()
    }

    /// All registered ids (unordered).
    pub fn ids(&self) -> Vec<MapId> {
        self.maps.read().keys().cloned().collect()
    }

    /// What the template caches hold, both dimensions summed.
    pub fn template_census(&self) -> TemplateCensus {
        let (a, b) = (self.templates.d2.census(), self.templates.d3.census());
        TemplateCensus {
            keys: a.keys + b.keys,
            distinct: a.distinct + b.distinct,
            bytes: a.bytes + b.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_grid::gen::{campus_3d, city_map, CityName};

    #[test]
    fn registry_roundtrip_and_replace() {
        let reg = MapRegistry::new();
        assert!(reg.is_empty());
        reg.insert_grid2("boston", city_map(CityName::Boston, 64, 64));
        reg.insert_grid3("campus", campus_3d(1, 32, 32, 16));
        assert_eq!(reg.len(), 2);
        let boston = reg.get(&MapId::new("boston")).unwrap();
        assert!(boston.is_2d());
        assert!(reg.get(&MapId::new("campus")).unwrap().grid3().is_some());
        assert!(reg.get(&MapId::new("nowhere")).is_none());
        // Replacement swaps the entry without touching the old Arc.
        let old = reg.get(&MapId::new("boston")).unwrap();
        reg.insert_grid2("boston", city_map(CityName::Berlin, 64, 64));
        let new = reg.get(&MapId::new("boston")).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
    }

    #[test]
    fn artifacts_are_lazy_and_built_once() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        assert_eq!(entry.artifact_builds(), 0, "must be lazy");
        let a = entry.artifacts2().expect("2d map has artifacts");
        let b = entry.artifacts2().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cached, not rebuilt");
        assert_eq!(entry.artifact_builds(), 1);
        assert_eq!((Occupancy2::width(&a.reach), Occupancy2::height(&a.reach)), (64, 64));
        assert!(a.reachable(a.reach_seed));
    }

    #[test]
    fn template_cache_is_shared_per_entry() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        let a = entry.template_cache2();
        let b = entry.template_cache2();
        assert!(Arc::ptr_eq(&a, &b), "the same cache every time");
        assert!(a.is_empty(), "nothing compiled until a plan runs");

        // Every map of the registry shares it, and it outlives a map's
        // replacement: templates never depend on the grid.
        let other = reg.insert_grid2("n", city_map(CityName::Boston, 64, 64));
        assert!(Arc::ptr_eq(&a, &other.template_cache2()), "one cache per registry");
        let car = racod_sim::Footprint2::car();
        a.get(&car, racod_sim::RotKey::from_direction(3, 1));
        let replaced = reg.insert_grid2("m", city_map(CityName::Berlin, 64, 64));
        let (_, hit) =
            replaced.template_cache2().get(&car, racod_sim::RotKey::from_direction(3, 1));
        assert!(hit, "the template survives the map's replacement");
        let campus = reg.insert_grid3("c", campus_3d(1, 24, 24, 12));
        assert!(Arc::ptr_eq(&campus.template_cache3(), &entry.template_cache3()));
        let census = reg.template_census();
        assert_eq!((census.keys, census.distinct), (1, 1));
        assert_eq!(census, a.census(), "the 3D cache is still empty");

        // A second registry keeps its own.
        let fresh = MapRegistry::new().insert_grid2("m", city_map(CityName::Paris, 64, 64));
        assert!(!Arc::ptr_eq(&a, &fresh.template_cache2()));
    }

    #[test]
    fn artifacts_absent_for_3d() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid3("c", campus_3d(2, 24, 24, 12));
        assert!(entry.artifacts2().is_none());
    }

    #[test]
    fn checksum_verifies_on_healthy_artifacts() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        let (art, corrupted) = entry.artifacts2_verified();
        assert!(!corrupted);
        let art = art.expect("2d map has artifacts");
        assert!(art.verify());
        assert_eq!(entry.corruptions_detected(), 0);
        assert_eq!(entry.artifact_builds(), 1);
    }

    #[test]
    fn injected_corruption_is_detected_and_invalidated() {
        let plan = Arc::new(
            racod_fault::FaultPlan::builder(7)
                .always(FaultSite::MapLoad, racod_fault::FaultAction::Corrupt)
                .build(),
        );
        let reg = MapRegistry::new();
        reg.set_fault_plan(Some(plan.clone()));
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));

        // The verified reader refuses the corrupted bundle and invalidates.
        let (art, corrupted) = entry.artifacts2_verified();
        assert!(art.is_none(), "corrupted bundle must not be handed out");
        assert!(corrupted);
        assert_eq!(entry.corruptions_detected(), 1);
        assert_eq!(entry.artifact_builds(), 1);

        // Faults off: the next verified read rebuilds a clean bundle.
        plan.disarm();
        let (art, corrupted) = entry.artifacts2_verified();
        assert!(!corrupted);
        assert!(art.expect("rebuilt").verify());
        assert_eq!(entry.artifact_builds(), 2, "invalidation forced a rebuild");
    }

    #[test]
    fn fault_plan_reaches_entries_registered_before_installation() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        let plan = Arc::new(
            racod_fault::FaultPlan::builder(9)
                .always(FaultSite::MapLoad, racod_fault::FaultAction::Corrupt)
                .build(),
        );
        reg.set_fault_plan(Some(plan));
        let (_, corrupted) = entry.artifacts2_verified();
        assert!(corrupted, "plan installed after registration must still apply");
    }

    #[test]
    fn deltas_bump_version_and_journal_replays_them() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Boston, 64, 64));
        assert_eq!(entry.version2(), 0);
        let (g0, v0) = entry.snapshot2().unwrap();

        // Pick two free cells to toggle.
        let free = |g: &BitGrid2, from: i64| {
            (from..64 * 64)
                .map(|i| Cell2::new(i % 64, i / 64))
                .find(|&c| g.occupied(c) == Some(false))
                .unwrap()
        };
        let a = free(&g0, 0);
        let b = free(&g0, 64 * 32);
        let (v1, changed) = entry.apply_deltas2(&[GridDelta2::Appear { cell: a }]).unwrap();
        assert_eq!((v1, changed), (1, 1));
        let (v2, changed) = entry
            .apply_deltas2(&[GridDelta2::Appear { cell: a }, GridDelta2::Appear { cell: b }])
            .unwrap();
        assert_eq!(v2, 2);
        assert_eq!(changed, 1, "re-appearing an occupied cell is a no-op");

        // Snapshots are immutable point-in-time views.
        assert_eq!(g0.occupied(a), Some(false), "v0 snapshot untouched");
        let (g2, v) = entry.snapshot2().unwrap();
        assert_eq!(v, 2);
        assert_eq!(g2.occupied(a), Some(true));
        assert_eq!(g2.occupied(b), Some(true));
        assert_eq!(entry.deltas_applied(), 2, "only effective deltas journal");

        // Journal replay semantics.
        assert_eq!(entry.deltas_since(v0).unwrap().len(), 2);
        assert_eq!(entry.deltas_since(v1).unwrap(), vec![GridDelta2::Appear { cell: b }]);
        assert_eq!(entry.deltas_since(v2).unwrap(), vec![]);
        assert!(entry.deltas_since(99).is_none(), "future version is a gap");

        // An empty or all-no-op batch still bumps the version and reports
        // nothing changed: an unchanged version always certifies an
        // unchanged world, never the other way around.
        assert_eq!(entry.apply_deltas2(&[]), Some((3, 0)));
        assert_eq!(entry.apply_deltas2(&[GridDelta2::Appear { cell: a }]), Some((4, 0)));
        assert_eq!(entry.deltas_since(v2).unwrap(), vec![], "no-op batches journal nothing");
    }

    #[test]
    fn journal_depth_gap_forces_replan_signal() {
        let reg = MapRegistry::new();
        let mut g = BitGrid2::new(16, 16);
        g.set(Cell2::new(0, 0), true);
        let entry = reg.insert_grid2("m", g);
        for _ in 0..JOURNAL_DEPTH + 3 {
            // Toggle one cell back and forth; every batch is effective.
            let occ = entry.grid2().unwrap().occupied(Cell2::new(1, 1)) == Some(true);
            let d = if occ {
                GridDelta2::Disappear { cell: Cell2::new(1, 1) }
            } else {
                GridDelta2::Appear { cell: Cell2::new(1, 1) }
            };
            entry.apply_deltas2(&[d]).unwrap();
        }
        assert!(entry.deltas_since(0).is_none(), "evicted batches mean a gap");
        let current = entry.version2();
        assert!(entry.deltas_since(current - 1).is_some(), "recent suffix still covered");
    }

    #[test]
    fn delta_rebuilt_artifacts_match_fresh_build() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 96, 96));
        entry.artifacts2().expect("build the bundle before deltas land");

        // Deterministic churn: appear/disappear scattered cells.
        let mut seed = 0x9e37_79b9_97f4_a7c5u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let c = Cell2::new((rng() % 96) as i64, (rng() % 96) as i64);
            let d = if rng() % 2 == 0 {
                GridDelta2::Appear { cell: c }
            } else {
                GridDelta2::Disappear { cell: c }
            };
            entry.apply_deltas2(&[d]).unwrap();
        }
        assert_eq!(entry.artifact_builds(), 1, "delta rebuilds are not reader builds");

        let rebuilt = entry.artifacts2().expect("a built bundle stays built across deltas");
        assert!(rebuilt.verify(), "checksum stamped over the rebuilt mask");
        let fresh = Artifacts2::build(&entry.grid2().unwrap()).unwrap();
        assert_eq!(rebuilt.checksum, fresh.checksum);
        assert_eq!(rebuilt.reach.words(), fresh.reach.words());
        for y in 0..96 {
            for x in 0..96 {
                let c = Cell2::new(x, y);
                assert_eq!(rebuilt.reachable(c), fresh.reachable(c), "reachability at {c:?}");
            }
        }
    }

    #[test]
    fn map_load_fault_flips_a_reachability_answer() {
        let plan = Arc::new(
            racod_fault::FaultPlan::builder(7)
                .always(FaultSite::MapLoad, racod_fault::FaultAction::Corrupt)
                .build(),
        );
        let reg = MapRegistry::new();
        reg.set_fault_plan(Some(plan));
        let entry = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        let clean = Artifacts2::build(&entry.grid2().unwrap()).unwrap();

        // The unverified reader gets the corrupted bundle: the flipped bit
        // changes exactly one answer, the seed's own.
        let corrupt = entry.artifacts2().expect("unverified reads hand the bundle out");
        let flipped: Vec<Cell2> = (0..64 * 64)
            .map(|i| Cell2::new(i % 64, i / 64))
            .filter(|&c| corrupt.reachable(c) != clean.reachable(c))
            .collect();
        assert_eq!(flipped, vec![clean.reach_seed]);
        assert!(clean.reachable(clean.reach_seed) && !corrupt.reachable(clean.reach_seed));

        // The verified reader refuses it.
        assert!(!corrupt.verify());
        let (art, corrupted) = entry.artifacts2_verified();
        assert!(art.is_none() && corrupted);
    }

    #[test]
    fn delta_sweeps_memo_targetedly_and_bumps_its_version() {
        use racod_codacc::template_check;
        use racod_sim::Footprint2;

        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", BitGrid2::new(64, 64));
        let memo = entry.spec_memo2();
        let fp = Footprint2::small_robot();
        let goal = Cell2::new(60, 60);
        let near = Cell2::new(10, 10);
        let far = Cell2::new(50, 50);
        let grid = entry.grid2().unwrap();
        for &c in &[near, far] {
            let key = fp.rot_key(c, goal);
            memo.insert(&fp, key, c, template_check(grid.as_ref(), c, &fp.template(key)));
        }
        let v0 = memo.version();

        // A delta next to `near` (within its influence radius) but far from
        // `far` sweeps only the near verdict.
        entry.apply_deltas2(&[GridDelta2::Appear { cell: Cell2::new(11, 10) }]).unwrap();
        assert_eq!(memo.version(), v0 + 1, "delta bumps the memo version");
        assert!(memo.lookup(&fp, fp.rot_key(near, goal), near).is_none(), "near entry swept");
        assert!(memo.lookup(&fp, fp.rot_key(far, goal), far).is_some(), "far entry survives");
    }

    #[test]
    fn deltas_rejected_for_3d_maps() {
        let reg = MapRegistry::new();
        reg.insert_grid3("c", campus_3d(2, 24, 24, 12));
        assert!(reg
            .apply_deltas2(&MapId::new("c"), &[GridDelta2::Appear { cell: Cell2::new(1, 1) }])
            .is_none());
        assert!(reg.apply_deltas2(&MapId::new("nope"), &[]).is_none());
    }

    #[test]
    fn landmark_pack_is_lazy_fenced_and_rebuilt() {
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("m", city_map(CityName::Boston, 64, 64));
        assert_eq!(entry.alt_builds(), 0, "pack must be lazy");

        // Cold build at v0, then cached (same Arc, no second build).
        let (f, built) = entry.landmark_pack2(4, 0);
        assert!(built, "first fetch performs the cold build");
        let AltFetch::Ready(pack) = f else { panic!("cold fetch must be ready") };
        assert!(!pack.landmarks().is_empty());
        let (f2, built2) = entry.landmark_pack2(4, 0);
        assert!(!built2);
        let AltFetch::Ready(p2) = f2 else { panic!("cached fetch must be ready") };
        assert!(Arc::ptr_eq(&pack, &p2), "cached, not rebuilt");
        assert_eq!(entry.alt_builds(), 1);

        // A delta fences the pack by version mismatch alone: plans against
        // the new world fall back, plans still holding the old snapshot
        // keep their matching pack.
        let free = first_free_cell(&entry.grid2().unwrap()).unwrap();
        entry.apply_deltas2(&[GridDelta2::Appear { cell: free }]).unwrap();
        let v1 = entry.version2();
        assert!(matches!(entry.landmark_pack2(4, v1).0, AltFetch::Stale));
        assert!(matches!(entry.landmark_pack2(4, 0).0, AltFetch::Ready(_)));
        assert_eq!(entry.alt_builds(), 1, "fetch never rebuilds");

        // The rebuilder republishes at the current version; the old
        // version is now the fenced one.
        assert!(entry.rebuild_landmarks2(4));
        assert!(matches!(entry.landmark_pack2(4, v1).0, AltFetch::Ready(_)));
        assert!(matches!(entry.landmark_pack2(4, 0).0, AltFetch::Stale));
        assert_eq!(entry.alt_builds(), 2);
        assert!(!entry.rebuild_landmarks2(4), "fresh pack needs no rebuild");
        assert_eq!(entry.alt_builds(), 2);
    }

    #[test]
    fn landmark_pack_absent_for_3d_and_lazy_until_requested() {
        let reg = MapRegistry::new();
        let e3 = reg.insert_grid3("c", campus_3d(2, 24, 24, 12));
        let (f, built) = e3.landmark_pack2(4, 0);
        assert!(matches!(f, AltFetch::Absent));
        assert!(!built);
        let e2 = reg.insert_grid2("m", city_map(CityName::Paris, 64, 64));
        assert!(!e2.rebuild_landmarks2(4), "unrequested pack stays lazily unbuilt");
        assert_eq!(e2.alt_builds(), 0);
    }

    #[test]
    fn disconnected_prefilter() {
        // Two free pockets separated by a wall.
        let mut g = BitGrid2::new(9, 3);
        for y in 0..3 {
            g.set(Cell2::new(4, y), true);
        }
        let reg = MapRegistry::new();
        let entry = reg.insert_grid2("split", g);
        let art = entry.artifacts2().unwrap();
        // Seed is on the left; right pocket is unreachable.
        assert!(art.definitely_disconnected(Cell2::new(1, 1), Cell2::new(7, 1)));
        assert!(!art.definitely_disconnected(Cell2::new(1, 0), Cell2::new(3, 2)));
    }
}
