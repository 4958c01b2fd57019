//! The CODAcc unit datapath and multi-unit pool.
//!
//! A [`CodaccPool`] models a processor integrated with multiple CODAcc
//! instances (paper §3.1.4): each unit has its own L0 cache; all L0s are
//! backed by the core's L1. A check walks the greedy scheduler's partition
//! tiles; per tile the AGU generates cell addresses into the HOBB, the
//! reduction unit coalesces them into unique cache blocks, blocks issue one
//! per cycle to the memory hierarchy, and returning bits are OR-ed with
//! early exit.
//!
//! Verdicts are computed functionally from the real grid and always match
//! [`crate::software_check_2d`] / [`crate::software_check_3d`] (and, for
//! template cell lists, [`crate::template_check`]); cycles are
//! accumulated from Table 2 latencies plus simulated cache behaviour.

use crate::hobb::HOBB_REGISTERS;
use crate::reduce::ReductionUnit;
use crate::sched::partition_tiles;
use racod_geom::raster::axis_samples;
use racod_geom::{Cell2, Cell3, GridCell, Obb2, Obb3};
use racod_grid::{BitGrid, BitGrid2, BitGrid3};
use racod_mem::{CacheConfig, LatencyModel, MemSystem};
use std::fmt;

/// Outcome of one HOBB tile's trip through the datapath.
enum TileResult {
    /// An out-of-range address short-circuited the step.
    Invalid,
    /// The OR output rose at the given pipeline finish cycle.
    Collision(u64),
    /// All blocks returned free; the step finished at the given cycle.
    Free(u64),
}

struct TileOutcome {
    result: TileResult,
    blocks: usize,
}

/// The collision verdict of a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every footprint cell is free.
    Free,
    /// At least one footprint cell is occupied.
    Collision,
    /// The OBB extends outside the environment boundaries — an invalid
    /// configuration, short-circuited by the hardware (§3.1.2 step 8).
    Invalid,
}

impl Verdict {
    /// Whether the state may be used by the planner (only `Free` is).
    pub fn is_free(self) -> bool {
        matches!(self, Verdict::Free)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Free => "free",
            Verdict::Collision => "collision",
            Verdict::Invalid => "invalid",
        };
        f.write_str(s)
    }
}

/// Per-component cycle costs (Table 2: logic+registers 5 cycles, L0 1
/// cycle at 3 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodaccTiming {
    /// Cycles for the AGU + datapath logic of one partition step.
    pub agu_cycles: u64,
    /// Core→accelerator communication latency per check (1 when tightly
    /// integrated; 10 for an SoC co-processor; 100 off-chip — the §5.6
    /// sweep).
    pub dispatch_cycles: u64,
    /// Cycles to issue one cache-block request to the L0.
    pub issue_per_block: u64,
}

impl Default for CodaccTiming {
    fn default() -> Self {
        CodaccTiming { agu_cycles: 5, dispatch_cycles: 1, issue_per_block: 1 }
    }
}

/// The result of one accelerator check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The collision verdict.
    pub verdict: Verdict,
    /// Total accelerator-occupied cycles for this check.
    pub cycles: u64,
    /// Partition steps executed (≥ 1 unless short-circuited before step 1).
    pub steps: usize,
    /// Unique cache blocks fetched from the hierarchy.
    pub blocks_fetched: usize,
    /// Whether the OR output rose (or a short-circuit fired) before the
    /// whole footprint was examined.
    pub early_exit: bool,
}

/// A pool of CODAcc units sharing one L1 behind per-unit L0s.
///
/// # Example
///
/// ```
/// use racod_codacc::{CodaccPool, Verdict};
/// use racod_grid::BitGrid2;
/// use racod_geom::{Obb2, Vec2, Rotation2};
///
/// let grid = BitGrid2::new(64, 64);
/// let mut pool = CodaccPool::new(1);
/// let obb = Obb2::new(Vec2::new(10.0, 10.0), 4.0, 2.0, Rotation2::IDENTITY);
/// let out = pool.check_2d(0, &grid, &obb);
/// assert_eq!(out.verdict, Verdict::Free);
/// assert!(out.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CodaccPool {
    mem: MemSystem,
    timing: CodaccTiming,
    ru: ReductionUnit,
    /// The AGU's output for the tile in flight, `(word address, occupied)`
    /// per register; kept across checks so a check allocates nothing here.
    items: Vec<(Option<u64>, bool)>,
    checks: u64,
}

impl CodaccPool {
    /// Creates a pool of `units` accelerators with default cache geometry
    /// and timing.
    pub fn new(units: usize) -> Self {
        CodaccPool::with_config(
            units,
            CodaccTiming::default(),
            CacheConfig::l0_default(),
            CacheConfig::l1_default(),
            LatencyModel::default(),
        )
    }

    /// Creates a pool with explicit timing and cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or a cache geometry is invalid.
    pub fn with_config(
        units: usize,
        timing: CodaccTiming,
        l0: CacheConfig,
        l1: CacheConfig,
        latency: LatencyModel,
    ) -> Self {
        CodaccPool {
            mem: MemSystem::new(units, l0, l1, latency),
            timing,
            ru: ReductionUnit::new(),
            items: Vec::with_capacity(HOBB_REGISTERS),
            checks: 0,
        }
    }

    /// Number of accelerator units.
    pub fn units(&self) -> usize {
        self.mem.units()
    }

    /// The timing parameters in use.
    pub fn timing(&self) -> CodaccTiming {
        self.timing
    }

    /// The shared memory hierarchy (for statistics).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable access to the memory hierarchy (e.g. to flush between
    /// planning episodes).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Notifies the pool that the perception unit wrote `cell`: the
    /// containing block is invalidated in every L0 (the §3.1.4 marked-block
    /// coherence path), so later checks observe the update.
    pub fn notify_grid_write<C: GridCell>(&mut self, grid: &BitGrid<C>, cell: C) {
        if let Some(addr) = grid.cell_addr(cell) {
            self.mem.write_invalidate(addr);
        }
    }

    /// Runs one HOBB tile through the datapath in one pass: validate and
    /// coalesce the registers into blocks, then issue the blocks and OR the
    /// returning bits with early exit.
    ///
    /// `items` is one `(word address, occupied)` pair per HOBB register of
    /// the tile; `None` addresses are out of range.
    fn exec_tile(&mut self, unit: usize, items: &[(Option<u64>, bool)]) -> TileOutcome {
        let Some(blocks) = self.ru.reduce_tile(items) else {
            // Short-circuit: invalid configuration, no memory traffic.
            return TileOutcome { result: TileResult::Invalid, blocks: 0 };
        };
        // Pipelined load-to-OR: requests issue one per cycle; the step
        // completes at the latest load's return unless the OR rises.
        let mut finish_all = 0u64;
        for (i, &(block, occupied)) in blocks.iter().enumerate() {
            let latency = self.mem.access(unit, block.base());
            let finish = (i as u64 + 1) * self.timing.issue_per_block + latency;
            if occupied {
                return TileOutcome { result: TileResult::Collision(finish), blocks: i + 1 };
            }
            finish_all = finish_all.max(finish);
        }
        TileOutcome { result: TileResult::Free(finish_all), blocks: blocks.len() }
    }

    /// The one timing loop every check runs: per tile, one AGU step, the
    /// tile's trip through [`Self::exec_tile`], and the cycle / step /
    /// block accounting, stopping at the first tile that short-circuits.
    /// `fill` is the AGU: it writes one tile's `(word address, occupied)`
    /// items into the (reused) buffer it is handed.
    fn check_tiles<T>(
        &mut self,
        unit: usize,
        tiles: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(T, &mut Vec<(Option<u64>, bool)>),
    ) -> CheckOutcome {
        assert!(unit < self.units(), "unit {unit} out of range");
        self.checks += 1;
        let mut out = CheckOutcome {
            verdict: Verdict::Free,
            cycles: self.timing.dispatch_cycles,
            steps: 0,
            blocks_fetched: 0,
            early_exit: false,
        };
        let mut items = std::mem::take(&mut self.items);
        for tile in tiles {
            out.steps += 1;
            out.cycles += self.timing.agu_cycles;
            items.clear();
            fill(tile, &mut items);
            let tile_out = self.exec_tile(unit, &items);
            out.blocks_fetched += tile_out.blocks;
            let (verdict, cycles) = match tile_out.result {
                TileResult::Free(f) => {
                    out.cycles += f;
                    continue;
                }
                TileResult::Invalid => (Verdict::Invalid, out.cycles + 1),
                TileResult::Collision(f) => (Verdict::Collision, out.cycles + f),
            };
            out = CheckOutcome { verdict, cycles, early_exit: true, ..out };
            break;
        }
        self.items = items;
        out
    }

    /// Checks a 2D OBB on the given unit.
    ///
    /// # Panics
    ///
    /// Panics if `unit >= self.units()`.
    pub fn check_2d(&mut self, unit: usize, grid: &BitGrid2, obb: &Obb2) -> CheckOutcome {
        let xs = axis_samples(obb.length());
        let ys = axis_samples(obb.width());
        let ax = obb.rotation().axis_x();
        let ay = obb.rotation().axis_y();
        // In 2D mode the idle z registers extend y capacity, so a tile's y
        // range may exceed ys.len()/HOBB_W chunking; tiles are index ranges
        // into the ys lattice directly.
        let tiles = partition_tiles(xs.len(), ys.len(), 1, true);
        self.check_tiles(unit, tiles, |tile, items| {
            for &sy in &ys[tile.y.0..tile.y.1] {
                for &sx in &xs[tile.x.0..tile.x.1] {
                    let c = Cell2::from_point(obb.origin() + ax * sx + ay * sy);
                    items.push((grid.cell_addr(c), grid.get(c) == Some(true)));
                }
            }
        })
    }

    /// Checks a 3D OBB on the given unit.
    ///
    /// # Panics
    ///
    /// Panics if `unit >= self.units()`.
    pub fn check_3d(&mut self, unit: usize, grid: &BitGrid3, obb: &Obb3) -> CheckOutcome {
        let xs = axis_samples(obb.length());
        let ys = axis_samples(obb.width());
        let zs = axis_samples(obb.height());
        let ax = obb.rotation().axis_x();
        let ay = obb.rotation().axis_y();
        let az = obb.rotation().axis_z();
        let tiles = partition_tiles(xs.len(), ys.len(), zs.len(), false);
        self.check_tiles(unit, tiles, |tile, items| {
            for &sz in &zs[tile.z.0..tile.z.1] {
                for &sy in &ys[tile.y.0..tile.y.1] {
                    for &sx in &xs[tile.x.0..tile.x.1] {
                        let c = Cell3::from_point(obb.origin() + ax * sx + ay * sy + az * sz);
                        items.push((grid.cell_addr(c), grid.get(c) == Some(true)));
                    }
                }
            }
        })
    }

    /// Checks an explicit cell list (e.g. a template expansion) on the given
    /// unit, tiling it over the HOBB register file.
    ///
    /// The cells are treated exactly like AGU output: each occupies one HOBB
    /// register, [`HOBB_REGISTERS`] per partition step, and out-of-range
    /// cells short-circuit the check as `Invalid`. Because a template has
    /// already deduplicated its cells, the register pressure (and hence the
    /// step count) can be lower than the OBB path's sample lattice.
    ///
    /// # Panics
    ///
    /// Panics if `unit >= self.units()`.
    pub fn check_cells<C: GridCell>(
        &mut self,
        unit: usize,
        grid: &BitGrid<C>,
        cells: &[C],
    ) -> CheckOutcome {
        self.check_tiles(unit, cells.chunks(HOBB_REGISTERS), |chunk, items| {
            items.extend(chunk.iter().map(|&c| (grid.cell_addr(c), grid.get(c) == Some(true))))
        })
    }

    // Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
    // caller.
    #[doc(hidden)]
    pub fn check_cells_2d(
        &mut self,
        unit: usize,
        grid: &BitGrid2,
        cells: &[Cell2],
    ) -> CheckOutcome {
        self.check_cells(unit, grid, cells)
    }

    // Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
    // caller.
    #[doc(hidden)]
    pub fn check_cells_3d(
        &mut self,
        unit: usize,
        grid: &BitGrid3,
        cells: &[Cell3],
    ) -> CheckOutcome {
        self.check_cells(unit, grid, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{software_check_2d, software_check_3d};
    use racod_geom::{Rotation2, Rotation3, Vec2, Vec3};

    #[test]
    fn free_check_matches_software() {
        let grid = BitGrid2::new(64, 64);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::new(Vec2::new(20.0, 20.0), 8.0, 3.0, Rotation2::from_angle(0.5));
        let hw = pool.check_2d(0, &grid, &obb);
        let sw = software_check_2d(&grid, &obb);
        assert_eq!(hw.verdict, sw.verdict);
        assert_eq!(hw.verdict, Verdict::Free);
        assert!(!hw.early_exit);
    }

    #[test]
    fn collision_check_matches_software() {
        let mut grid = BitGrid2::new(64, 64);
        grid.fill_rect(24, 20, 26, 25, true);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(20.2, 20.2), 8.0, 3.0);
        let hw = pool.check_2d(0, &grid, &obb);
        assert_eq!(hw.verdict, Verdict::Collision);
        assert!(hw.early_exit);
        assert_eq!(hw.verdict, software_check_2d(&grid, &obb).verdict);
    }

    #[test]
    fn invalid_short_circuits_without_memory_traffic() {
        let grid = BitGrid2::new(16, 16);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(14.0, 2.0), 6.0, 2.0);
        let hw = pool.check_2d(0, &grid, &obb);
        assert_eq!(hw.verdict, Verdict::Invalid);
        assert!(hw.early_exit);
        assert_eq!(pool.mem().l0_stats(0).accesses(), 0, "no memory traffic");
    }

    #[test]
    fn partition_steps_match_scheduler() {
        let grid = BitGrid2::new(256, 256);
        let mut pool = CodaccPool::new(1);
        // 45x18 samples (44.5 x 17.2 box) → ceil(46/10) x ceil(19/9)... use
        // exact: axis_samples(44.0) = 45, axis_samples(17.0) = 18 → 5 x 2.
        let obb = Obb2::axis_aligned(Vec2::new(100.0, 100.0), 44.0, 17.0);
        let hw = pool.check_2d(0, &grid, &obb);
        assert_eq!(hw.steps, 10);
    }

    #[test]
    fn warm_cache_is_faster() {
        let grid = BitGrid2::new(128, 128);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(50.0, 50.0), 9.0, 4.0);
        let cold = pool.check_2d(0, &grid, &obb);
        let warm = pool.check_2d(0, &grid, &obb);
        assert!(warm.cycles < cold.cycles, "L0 should filter the second check");
    }

    #[test]
    fn communication_latency_adds_up() {
        let grid = BitGrid2::new(64, 64);
        let obb = Obb2::axis_aligned(Vec2::new(30.0, 30.0), 4.0, 2.0);
        let mut tight = CodaccPool::new(1);
        let mut far = CodaccPool::with_config(
            1,
            CodaccTiming { dispatch_cycles: 100, ..Default::default() },
            racod_mem::CacheConfig::l0_default(),
            racod_mem::CacheConfig::l1_default(),
            racod_mem::LatencyModel::default(),
        );
        let a = tight.check_2d(0, &grid, &obb);
        let b = far.check_2d(0, &grid, &obb);
        assert_eq!(b.cycles - a.cycles, 99);
    }

    #[test]
    fn check_3d_matches_software_on_random_boxes() {
        let mut grid = BitGrid3::new(48, 48, 24);
        grid.fill_box(10, 10, 0, 20, 20, 10, true);
        let mut pool = CodaccPool::new(2);
        for (i, &(x, y, z, yaw)) in [
            (2.0f32, 2.0f32, 2.0f32, 0.0f32),
            (8.0, 8.0, 2.0, 0.7),
            (30.0, 30.0, 12.0, 1.2),
            (15.0, 15.0, 5.0, 0.3),
        ]
        .iter()
        .enumerate()
        {
            let obb =
                Obb3::new(Vec3::new(x, y, z), 6.0, 3.0, 2.0, Rotation3::from_rpy(0.0, 0.0, yaw));
            let hw = pool.check_3d(i % 2, &grid, &obb);
            let sw = software_check_3d(&grid, &obb);
            assert_eq!(hw.verdict, sw.verdict, "box {i}");
        }
    }

    #[test]
    fn blocks_fetched_reflects_coalescing() {
        let grid = BitGrid2::new(512, 512);
        let mut pool = CodaccPool::new(1);
        // 90 samples but high spatial locality → far fewer blocks.
        let obb = Obb2::axis_aligned(Vec2::new(100.0, 100.0), 9.0, 8.0);
        let hw = pool.check_2d(0, &grid, &obb);
        assert!(hw.blocks_fetched < 90, "coalescing failed: {}", hw.blocks_fetched);
        assert!(hw.blocks_fetched >= 1);
    }

    #[test]
    fn checks_counter_increments() {
        let grid = BitGrid2::new(32, 32);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(5.0, 5.0), 2.0, 2.0);
        pool.check_2d(0, &grid, &obb);
        pool.check_2d(0, &grid, &obb);
        assert_eq!(pool.checks(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_unit_panics() {
        let grid = BitGrid2::new(32, 32);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(5.0, 5.0), 2.0, 2.0);
        pool.check_2d(1, &grid, &obb);
    }
}

#[cfg(test)]
mod coherence_tests {
    use super::*;
    use racod_geom::{Cell2, Vec2};

    #[test]
    fn grid_update_with_notification_changes_verdict() {
        // Warm the L0 with a free check, then occupy a footprint cell and
        // notify: the next check must see the obstacle.
        let mut grid = BitGrid2::new(64, 64);
        let mut pool = CodaccPool::new(1);
        let obb = Obb2::axis_aligned(Vec2::new(10.2, 10.2), 4.0, 2.0);
        assert_eq!(pool.check_2d(0, &grid, &obb).verdict, Verdict::Free);

        let blocked_cell = Cell2::new(12, 11);
        grid.set(blocked_cell, true);
        pool.notify_grid_write(&grid, blocked_cell);
        assert_eq!(pool.check_2d(0, &grid, &obb).verdict, Verdict::Collision);

        // And clearing it again (with notification) restores Free.
        grid.set(blocked_cell, false);
        pool.notify_grid_write(&grid, blocked_cell);
        assert_eq!(pool.check_2d(0, &grid, &obb).verdict, Verdict::Free);
    }

    #[test]
    fn notification_invalidates_only_the_touched_block() {
        let grid = BitGrid2::new(512, 512);
        let mut pool = CodaccPool::new(1);
        let near = Obb2::axis_aligned(Vec2::new(10.0, 10.0), 4.0, 2.0);
        let far = Obb2::axis_aligned(Vec2::new(10.0, 400.0), 4.0, 2.0);
        pool.check_2d(0, &grid, &near);
        pool.check_2d(0, &grid, &far);
        let before = pool.mem().l0_stats(0);
        pool.notify_grid_write(&grid, Cell2::new(11, 11));
        let after = pool.mem().l0_stats(0);
        // Exactly the near block dropped; nothing more.
        assert!(after.invalidations >= before.invalidations);
        assert!(after.invalidations - before.invalidations <= 1);
    }
}
