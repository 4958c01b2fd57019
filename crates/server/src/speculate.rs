//! Service-scope speculative prechecking.
//!
//! While a request waits in the ingress queue, its start, goal, and
//! footprint are already known — enough to precompute the collision
//! verdicts its search will ask for first. Dedicated speculator threads pop
//! admitted requests from a best-effort side channel, generate the likely
//! demand set ([`racod_rasexp::speculation_targets`]: start/goal
//! neighborhoods plus the predicted start→goal chain), run it through the
//! registry's warm [`racod_sim::TemplateCache2`] via the batched kernel, and
//! publish the results into a per-map [`SpecMemo2`]. The real search
//! consults the memo before dispatching a native check.
//!
//! Correctness contract: a memo entry is the *exact* [`SoftwareCheck`] the
//! worker's own kernel would compute — same grid words, same compiled
//! template, same early-exit walk — so consulting the memo can never change
//! a plan's cost bits, path, or expansion order (the workspace test
//! `speculation.rs` proves silent-plan equivalence). Speculation is purely
//! a latency optimization and ships with a kill switch
//! ([`SpeculationConfig::enabled`]).
//!
//! The memo is shard-locked (checks from many speculators and workers never
//! serialize on one lock) and versioned: detected map-artifact corruption
//! ([`crate::registry::MapEntry::artifacts2_verified`]) bumps the version
//! and clears every shard, so the PR 5 invalidation story composes —
//! verdicts never outlive the integrity of the map state they were computed
//! against. Only 2D plans are speculated; 3D traffic is rare enough that
//! the memo would mostly hold dead weight.

use crate::metrics::ServerMetrics;
use crate::registry::MapEntry;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use racod_codacc::SoftwareCheck;
use racod_geom::Cell2;
use racod_rasexp::speculation_targets;
use racod_sim::{Footprint2, RotKey, TemplateChecker2};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for service-scope speculation.
#[derive(Clone)]
pub struct SpeculationConfig {
    /// Kill switch. When `false`, no speculator threads start and workers
    /// never consult the memo — the service is bit-and-timing identical to
    /// a build without this module.
    pub enabled: bool,
    /// Speculator thread count (0 disables prechecking but leaves memo
    /// consultation on, which tests use to seed the memo deterministically).
    pub threads: usize,
    /// Chebyshev radius of the start/goal neighborhoods to precheck.
    pub radius: i64,
    /// Length of the predicted start→goal chain to precheck.
    pub chain_depth: usize,
    /// Test-only interleaving hook: called after a precheck batch is
    /// computed, before its verdicts are published. Race tests use it to
    /// force an invalidation into the compute→publish window
    /// deterministically; production configs leave it `None`.
    #[doc(hidden)]
    pub publish_gate: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: true,
            threads: 1,
            radius: 2,
            chain_depth: 8,
            publish_gate: None,
        }
    }
}

impl std::fmt::Debug for SpeculationConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculationConfig")
            .field("enabled", &self.enabled)
            .field("threads", &self.threads)
            .field("radius", &self.radius)
            .field("chain_depth", &self.chain_depth)
            .field("publish_gate", &self.publish_gate.as_ref().map(|_| ".."))
            .finish()
    }
}

/// Shards per memo. Power of two; bounds lock contention between
/// speculators filling the memo and planner threads consulting it.
const SHARDS: usize = 16;

/// Per-shard entry cap. 16 shards × 1024 entries × ~32 B ≈ 512 KB per map
/// at saturation — small next to the map itself. A full shard drops new
/// inserts (counted as wasted work) rather than evicting: precheck value
/// decays fast, so churn is not worth the locking.
const SHARD_CAPACITY: usize = 1024;

/// Memo key: footprint dimensions (bit-exact, matching the template-cache
/// key), orientation, and pose. Everything the pure check function depends
/// on besides the (immutable, per-entry) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpecKey {
    length: u32,
    width: u32,
    rot: RotKey,
    cell: Cell2,
}

impl SpecKey {
    fn new(footprint: &Footprint2, rot: RotKey, cell: Cell2) -> Self {
        SpecKey { length: footprint.length.to_bits(), width: footprint.width.to_bits(), rot, cell }
    }

    fn shard(&self) -> usize {
        // FNV-1a over the pose; poses dominate key entropy.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.cell.x.to_le_bytes().into_iter().chain(self.cell.y.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize) & (SHARDS - 1)
    }
}

/// A shard-locked, versioned memo of prechecked collision verdicts for one
/// map. `bool` marks consumption, so unconsumed entries can be counted as
/// wasted speculation when the memo is invalidated.
#[derive(Debug, Default)]
pub struct SpecMemo2 {
    shards: [Mutex<HashMap<SpecKey, (SoftwareCheck, bool)>>; SHARDS],
    version: AtomicU64,
    prechecks: AtomicU64,
    hits: AtomicU64,
    wasted: AtomicU64,
}

impl SpecMemo2 {
    /// An empty memo at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a prechecked verdict. Returns `false` (and counts the
    /// check as wasted) when the shard is full. First write wins; the value
    /// is a pure function of the key, so overwrites would be no-ops anyway.
    pub fn insert(
        &self,
        footprint: &Footprint2,
        rot: RotKey,
        cell: Cell2,
        check: SoftwareCheck,
    ) -> bool {
        let key = SpecKey::new(footprint, rot, cell);
        let mut shard = self.shards[key.shard()].lock();
        if shard.contains_key(&key) {
            return true;
        }
        if shard.len() >= SHARD_CAPACITY {
            self.wasted.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        shard.insert(key, (check, false));
        self.prechecks.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Publishes a verdict that was computed while the memo was at
    /// `version` (the caller snapshots [`SpecMemo2::version`] *before*
    /// reading the grid). If the memo has been invalidated since, the
    /// verdict may describe a world that no longer exists: it is dropped
    /// and counted as wasted speculation instead of poisoning the fresh
    /// memo.
    ///
    /// The version is re-read under the shard lock, and every invalidation
    /// bumps the version *before* sweeping any shard — so a verdict this
    /// method lets through is either current, or will be swept by the very
    /// invalidation that raced it. Stale verdicts can never survive.
    pub fn insert_at_version(
        &self,
        footprint: &Footprint2,
        rot: RotKey,
        cell: Cell2,
        check: SoftwareCheck,
        version: u64,
    ) -> bool {
        let key = SpecKey::new(footprint, rot, cell);
        let mut shard = self.shards[key.shard()].lock();
        if self.version.load(Ordering::Relaxed) != version {
            self.wasted.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if shard.contains_key(&key) {
            return true;
        }
        if shard.len() >= SHARD_CAPACITY {
            self.wasted.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        shard.insert(key, (check, false));
        self.prechecks.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Consults the memo on the real check path. A hit marks the entry
    /// consumed and returns the stored verdict — bit-identical to what the
    /// native kernel would compute.
    pub fn lookup(
        &self,
        footprint: &Footprint2,
        rot: RotKey,
        cell: Cell2,
    ) -> Option<SoftwareCheck> {
        let key = SpecKey::new(footprint, rot, cell);
        let mut shard = self.shards[key.shard()].lock();
        let (check, consumed) = shard.get_mut(&key)?;
        if !*consumed {
            *consumed = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(*check)
    }

    /// Whether a verdict is already memoized (without consuming it) — the
    /// speculator's dedup filter.
    pub fn contains(&self, footprint: &Footprint2, rot: RotKey, cell: Cell2) -> bool {
        let key = SpecKey::new(footprint, rot, cell);
        self.shards[key.shard()].lock().contains_key(&key)
    }

    /// Bumps the version and clears every shard, counting entries that were
    /// never consumed as wasted speculation. Called when the map's
    /// integrity state changes (artifact corruption detected).
    pub fn invalidate(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
        for shard in &self.shards {
            let mut shard = shard.lock();
            let unconsumed = shard.values().filter(|(_, consumed)| !consumed).count();
            if unconsumed > 0 {
                self.wasted.fetch_add(unconsumed as u64, Ordering::Relaxed);
            }
            shard.clear();
        }
    }

    /// Targeted invalidation after a map delta: bumps the version (so
    /// in-flight prechecks snapshotted against the old grid drop at
    /// publish) and sweeps only the entries whose pose lies within the
    /// entry's own footprint influence radius of a changed cell. Every
    /// surviving entry's swept region provably avoids all changed cells,
    /// so its verdict is bit-identical on the post-delta grid and stays
    /// servable.
    pub fn invalidate_cells(&self, changed: &[Cell2]) {
        if changed.is_empty() {
            return;
        }
        self.version.fetch_add(1, Ordering::Relaxed);
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut dropped_unconsumed = 0u64;
            shard.retain(|key, (_, consumed)| {
                let r = racod_sim::influence_radius_2d(
                    f32::from_bits(key.length),
                    f32::from_bits(key.width),
                );
                let hit = changed
                    .iter()
                    .any(|c| (c.x - key.cell.x).abs().max((c.y - key.cell.y).abs()) <= r);
                if hit && !*consumed {
                    dropped_unconsumed += 1;
                }
                !hit
            });
            if dropped_unconsumed > 0 {
                self.wasted.fetch_add(dropped_unconsumed, Ordering::Relaxed);
            }
        }
    }

    /// Memo version; bumped by each [`invalidate`](Self::invalidate).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Verdicts published into the memo.
    pub fn prechecks(&self) -> u64 {
        self.prechecks.load(Ordering::Relaxed)
    }

    /// Memo consultations that found a prechecked verdict.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Prechecks that never paid off: dropped on a full shard, or cleared
    /// unconsumed by an invalidation.
    pub fn wasted(&self) -> u64 {
        self.wasted.load(Ordering::Relaxed)
    }

    /// Resident entry count (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// One admitted 2D request's precheckable facts, pushed (best-effort) to
/// the speculators at admission.
pub(crate) struct SpecTask {
    pub entry: Arc<MapEntry>,
    pub start: Cell2,
    pub goal: Cell2,
    pub footprint: Footprint2,
}

/// Speculator thread body: drain queued tasks, precheck their target sets
/// through the registry's warm template cache, publish into the per-map memo.
pub(crate) fn speculator_loop(
    rx: Receiver<SpecTask>,
    shutdown: Arc<AtomicBool>,
    cfg: SpeculationConfig,
    metrics: Arc<ServerMetrics>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(task) => precheck_task(&task, &cfg, &metrics),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn precheck_task(task: &SpecTask, cfg: &SpeculationConfig, metrics: &ServerMetrics) {
    // Snapshot the memo version BEFORE reading the grid. Invalidations bump
    // the version before sweeping, so any delta that changes the grid after
    // this read also changes the version — and the version-checked publish
    // below then drops the whole batch instead of poisoning the fresh memo
    // with verdicts computed against a world that no longer exists.
    let memo = task.entry.spec_memo2();
    let version = memo.version();
    let Some(grid) = task.entry.grid2() else {
        return;
    };
    let fp = task.footprint;
    let targets: Vec<Cell2> =
        speculation_targets(task.start, task.goal, cfg.radius, cfg.chain_depth)
            .into_iter()
            .filter(|&c| !memo.contains(&fp, fp.rot_key(c, task.goal), c))
            .collect();
    if targets.is_empty() {
        return;
    }
    // The checker shares the registry's template cache, so templates compiled
    // here are warm for the real search (and vice versa) — prechecked
    // verdicts come from the identical compiled template the worker uses.
    let checker = TemplateChecker2::with_cache(&grid, fp, task.goal, task.entry.template_cache2());
    let checks = checker.check_batch(&targets);
    if let Some(gate) = &cfg.publish_gate {
        gate();
    }
    for (&cell, &check) in targets.iter().zip(checks.iter()) {
        memo.insert_at_version(&fp, fp.rot_key(cell, task.goal), cell, check, version);
    }
    metrics.speculation_prechecks.fetch_add(targets.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_codacc::template_check;
    use racod_grid::gen::{city_map, CityName};

    fn check_for(
        grid: &racod_grid::BitGrid2,
        fp: Footprint2,
        c: Cell2,
        goal: Cell2,
    ) -> SoftwareCheck {
        let tpl = fp.template(fp.rot_key(c, goal));
        template_check(grid, c, &tpl)
    }

    #[test]
    fn memo_roundtrip_is_bit_exact() {
        let grid = city_map(CityName::Boston, 64, 64);
        let (fp, goal) = (Footprint2::car(), Cell2::new(60, 60));
        let memo = SpecMemo2::new();
        let c = Cell2::new(10, 12);
        let rot = fp.rot_key(c, goal);
        let check = check_for(&grid, fp, c, goal);
        assert!(memo.insert(&fp, rot, c, check));
        assert_eq!(memo.lookup(&fp, rot, c), Some(check));
        assert_eq!(memo.prechecks(), 1);
        assert_eq!(memo.hits(), 1);
        // Re-lookup serves the same verdict without recounting the hit.
        assert_eq!(memo.lookup(&fp, rot, c), Some(check));
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn lookup_misses_on_different_key_components() {
        let (fp, goal) = (Footprint2::car(), Cell2::new(60, 60));
        let memo = SpecMemo2::new();
        let c = Cell2::new(10, 12);
        let rot = fp.rot_key(c, goal);
        let check = check_for(&city_map(CityName::Boston, 64, 64), fp, c, goal);
        memo.insert(&fp, rot, c, check);
        assert!(memo.lookup(&fp, rot, Cell2::new(11, 12)).is_none(), "different pose");
        assert!(memo.lookup(&fp, RotKey::Axis, c).is_none(), "different orientation");
        assert!(
            memo.lookup(&Footprint2::small_robot(), rot, c).is_none(),
            "different footprint dims"
        );
    }

    #[test]
    fn invalidate_bumps_version_and_counts_unconsumed_as_wasted() {
        let grid = city_map(CityName::Boston, 64, 64);
        let (fp, goal) = (Footprint2::car(), Cell2::new(60, 60));
        let memo = SpecMemo2::new();
        for i in 0..10 {
            let c = Cell2::new(i, i + 1);
            memo.insert(&fp, fp.rot_key(c, goal), c, check_for(&grid, fp, c, goal));
        }
        // Consume three.
        for i in 0..3 {
            let c = Cell2::new(i, i + 1);
            assert!(memo.lookup(&fp, fp.rot_key(c, goal), c).is_some());
        }
        assert_eq!(memo.version(), 0);
        memo.invalidate();
        assert_eq!(memo.version(), 1);
        assert!(memo.is_empty());
        assert_eq!(memo.wasted(), 7, "unconsumed entries are wasted speculation");
        assert_eq!(memo.hits(), 3);
    }

    #[test]
    fn insert_at_version_drops_stale_verdicts() {
        let grid = city_map(CityName::Boston, 64, 64);
        let (fp, goal) = (Footprint2::car(), Cell2::new(60, 60));
        let memo = SpecMemo2::new();
        let c = Cell2::new(10, 12);
        let rot = fp.rot_key(c, goal);
        let check = check_for(&grid, fp, c, goal);

        // Current-version publish lands.
        let v = memo.version();
        assert!(memo.insert_at_version(&fp, rot, c, check, v));
        assert_eq!(memo.lookup(&fp, rot, c), Some(check));

        // A verdict computed before an invalidation must not repopulate
        // the fresh memo.
        let v = memo.version();
        memo.invalidate();
        let wasted_before = memo.wasted();
        assert!(!memo.insert_at_version(&fp, rot, c, check, v));
        assert!(memo.lookup(&fp, rot, c).is_none(), "stale verdict must not land");
        assert_eq!(memo.wasted(), wasted_before + 1, "dropped publish counts as waste");

        // Re-publishing under the new version works again.
        assert!(memo.insert_at_version(&fp, rot, c, check, memo.version()));
        assert_eq!(memo.lookup(&fp, rot, c), Some(check));
    }

    #[test]
    fn invalidate_cells_sweeps_only_influenced_poses() {
        let grid = racod_grid::BitGrid2::new(64, 64);
        let (fp, goal) = (Footprint2::small_robot(), Cell2::new(60, 60));
        let memo = SpecMemo2::new();
        let near = Cell2::new(10, 10);
        let far = Cell2::new(40, 40);
        for &c in &[near, far] {
            memo.insert(&fp, fp.rot_key(c, goal), c, check_for(&grid, fp, c, goal));
        }
        // Consume nothing; sweep around `near` only.
        memo.invalidate_cells(&[Cell2::new(12, 11)]);
        assert_eq!(memo.version(), 1, "targeted sweep still bumps the version");
        assert!(memo.lookup(&fp, fp.rot_key(near, goal), near).is_none());
        assert!(memo.lookup(&fp, fp.rot_key(far, goal), far).is_some());
        assert_eq!(memo.wasted(), 1, "swept-unconsumed entry is wasted speculation");

        // Empty change sets are free: no bump, no sweep.
        memo.invalidate_cells(&[]);
        assert_eq!(memo.version(), 1);
    }

    #[test]
    fn full_shard_drops_and_counts_wasted() {
        let memo = SpecMemo2::new();
        let fp = Footprint2::point();
        let check = SoftwareCheck {
            verdict: racod_codacc::Verdict::Free,
            cells_checked: 1,
            cells_total: 1,
        };
        // Same shard requires same pose hash; saturate by distinct rots on
        // one pose (plenty of distinct gcd-reduced directions).
        let cell = Cell2::new(5, 5);
        let mut dropped = false;
        for dx in 1..=60i64 {
            for dy in 1..=60i64 {
                let rot = RotKey::from_direction(dx, dy);
                if !memo.insert(&fp, rot, cell, check) {
                    dropped = true;
                }
            }
        }
        assert!(dropped, "shard cap must engage");
        assert!(memo.wasted() > 0);
        assert!(memo.len() <= SHARDS * SHARD_CAPACITY);
    }

    #[test]
    fn speculated_verdicts_match_native_kernel_everywhere() {
        // The end-to-end contract behind silent-plan equivalence: for every
        // target the speculator would precheck, the memoized verdict equals
        // a fresh native check bit-for-bit.
        let grid = city_map(CityName::Paris, 96, 96);
        let (fp, start, goal) = (Footprint2::car(), Cell2::new(8, 8), Cell2::new(88, 80));
        let memo = SpecMemo2::new();
        let checker = TemplateChecker2::new(&grid, fp, goal);
        let targets = speculation_targets(start, goal, 2, 8);
        let checks = checker.check_batch(&targets);
        for (&c, &chk) in targets.iter().zip(checks.iter()) {
            memo.insert(&fp, fp.rot_key(c, goal), c, chk);
        }
        for &c in &targets {
            let got = memo.lookup(&fp, fp.rot_key(c, goal), c).expect("memoized");
            assert_eq!(got, checker.check(c), "memo diverged from native check at {c}");
        }
    }
}
