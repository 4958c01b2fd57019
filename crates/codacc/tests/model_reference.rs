//! The one-pass HOBB tile model against the datapath it replaced.
//!
//! `reference` below is the per-tile datapath `CodaccPool` ran before the
//! tile became one allocation-free pass: a 90-register HOBB load with
//! unused-register aliasing, an out-of-range scan, a `HashSet` coalesce,
//! an 8-entry load queue, and a per-block access followed by an OR scan of
//! every register. Only state nothing read (register values and load-queue
//! depth counters) is left out. The properties drive it and
//! `CodaccPool::check_cells` through the same check sequences over
//! identically configured memory systems and require every `CheckOutcome`
//! and every L0/L1 `CacheStats` to agree after every check.

use proptest::prelude::*;
use racod_codacc::{CheckOutcome, CodaccPool, CodaccTiming};
use racod_geom::{
    Cell2, Cell3, FootprintTemplate2, FootprintTemplate3, GridCell, Rotation2, Rotation3,
};
use racod_grid::{BitGrid, BitGrid2, BitGrid3};
use racod_mem::{CacheConfig, LatencyModel, MemSystem};

mod reference {
    use racod_codacc::{CheckOutcome, CodaccTiming, Verdict, HOBB_REGISTERS};
    use racod_geom::GridCell;
    use racod_grid::BitGrid;
    use racod_mem::{BlockAddr, MemSystem};
    use std::collections::{HashSet, VecDeque};

    const LOAD_QUEUE_ENTRIES: usize = 8;

    /// The register file, reduced to the addresses this path reads.
    struct Hobb {
        regs: Vec<Option<u64>>,
    }

    impl Hobb {
        fn new() -> Self {
            Hobb { regs: vec![None; HOBB_REGISTERS] }
        }

        fn load(&mut self, addrs: &[Option<u64>]) {
            assert!(!addrs.is_empty(), "HOBB load needs at least one address");
            assert!(addrs.len() <= HOBB_REGISTERS, "HOBB overflow");
            let last = *addrs.last().expect("non-empty");
            for (i, reg) in self.regs.iter_mut().enumerate() {
                let addr = if i < addrs.len() { addrs[i] } else { last };
                *reg = addr;
            }
        }

        fn has_out_of_range(&self) -> bool {
            self.regs.iter().any(|r| r.is_none())
        }

        fn clear(&mut self) {
            self.regs.fill(None);
        }
    }

    fn coalesce(addrs: &[u64]) -> Vec<BlockAddr> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &a in addrs {
            let b = BlockAddr::containing(a);
            if seen.insert(b) {
                out.push(b);
            }
        }
        out
    }

    #[derive(Default)]
    struct LoadQueue {
        entries: VecDeque<BlockAddr>,
    }

    impl LoadQueue {
        fn enqueue(&mut self, block: BlockAddr) -> bool {
            if self.entries.len() >= LOAD_QUEUE_ENTRIES {
                return false;
            }
            self.entries.push_back(block);
            true
        }

        fn dequeue(&mut self) -> Option<BlockAddr> {
            self.entries.pop_front()
        }
    }

    enum TileResult {
        Invalid,
        Collision(u64),
        Free(u64),
    }

    /// The pre-rewrite `CodaccPool`, reduced to `check_cells`.
    pub struct Pool {
        pub mem: MemSystem,
        timing: CodaccTiming,
        hobb: Hobb,
    }

    impl Pool {
        pub fn new(mem: MemSystem, timing: CodaccTiming) -> Self {
            Pool { mem, timing, hobb: Hobb::new() }
        }

        fn exec_tile(&mut self, unit: usize, items: &[(Option<u64>, bool)]) -> (TileResult, usize) {
            let addrs: Vec<Option<u64>> = items.iter().map(|&(a, _)| a).collect();
            self.hobb.load(&addrs);
            if self.hobb.has_out_of_range() {
                self.hobb.clear();
                return (TileResult::Invalid, 0);
            }
            let valid_addrs: Vec<u64> = addrs.iter().map(|a| a.expect("validated")).collect();
            let blocks = coalesce(&valid_addrs);
            let mut lq = LoadQueue::default();
            for &b in &blocks {
                if !lq.enqueue(b) {
                    lq.dequeue();
                    lq.enqueue(b);
                }
            }

            let mut finish_all = 0u64;
            let mut blocks_done = 0;
            for (i, &b) in blocks.iter().enumerate() {
                blocks_done += 1;
                let latency = self.mem.access(unit, b.base());
                let finish = (i as u64 + 1) * self.timing.issue_per_block + latency;
                finish_all = finish_all.max(finish);
                let hit = items.iter().any(|&(a, occupied)| {
                    a.map(|a| a / 64 == b.base() / 64).unwrap_or(false) && occupied
                });
                if hit {
                    self.hobb.clear();
                    return (TileResult::Collision(finish), blocks_done);
                }
            }
            self.hobb.clear();
            (TileResult::Free(finish_all), blocks_done)
        }

        pub fn check_cells<C: GridCell>(
            &mut self,
            unit: usize,
            grid: &BitGrid<C>,
            cells: &[C],
        ) -> CheckOutcome {
            let mut out = CheckOutcome {
                verdict: Verdict::Free,
                cycles: self.timing.dispatch_cycles,
                steps: 0,
                blocks_fetched: 0,
                early_exit: false,
            };
            for chunk in cells.chunks(HOBB_REGISTERS) {
                out.steps += 1;
                out.cycles += self.timing.agu_cycles;
                let items: Vec<(Option<u64>, bool)> =
                    chunk.iter().map(|&c| (grid.cell_addr(c), grid.get(c) == Some(true))).collect();
                let (result, blocks) = self.exec_tile(unit, &items);
                out.blocks_fetched += blocks;
                let (verdict, cycles) = match result {
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
            out
        }
    }
}

/// One modelled check: the unit it runs on and its cell list.
type Check<C> = (usize, Vec<C>);

/// Runs `checks` through the model and the reference, each with `units`
/// units over a two-way L1 of `2 << l1_log2_sets` blocks, comparing
/// outcomes and cache stats after every check.
fn agree<C: GridCell>(
    units: usize,
    l1_log2_sets: u32,
    grid: &BitGrid<C>,
    checks: &[Check<C>],
) -> Result<(), TestCaseError> {
    let l0 = CacheConfig::l0_default();
    let l1 = CacheConfig { size_bytes: 128 << l1_log2_sets, associativity: 2 };
    let (timing, latency) = (CodaccTiming::default(), LatencyModel::default());
    let mut pool = CodaccPool::with_config(units, timing, l0, l1, latency);
    let mut reference = reference::Pool::new(MemSystem::new(units, l0, l1, latency), timing);
    for (n, (unit, cells)) in checks.iter().enumerate() {
        let got: CheckOutcome = pool.check_cells(unit % units, grid, cells);
        let want = reference.check_cells(unit % units, grid, cells);
        prop_assert_eq!(got, want, "check {} of {} cells", n, cells.len());
        for u in 0..units {
            prop_assert_eq!(pool.mem().l0_stats(u), reference.mem.l0_stats(u), "L0 {}", u);
        }
        prop_assert_eq!(pool.mem().l1_stats(), reference.mem.l1_stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2D templates up to 40 × 14 cells (several tiles) and raw clustered
    /// cell lists with duplicates, anchored anywhere on the grid and a
    /// little past its edges; a raw list may have one register forced out
    /// of range in any tile. 1–8 units, an L1 of 2 to 32 blocks.
    #[test]
    fn one_pass_tile_matches_reference_2d(
        (gw, gh) in (24u32..160, 16u32..96),
        units in 1usize..=8,
        l1_log2_sets in 0u32..5,
        obstacles in prop::collection::vec((0i64..160, 0i64..96), 0..80),
        shapes in prop::collection::vec((0.0f32..40.0, 0.0f32..14.0, -3.2f32..3.2), 1..4),
        states in prop::collection::vec(
            (0usize..8, -0.1f32..1.1, -0.1f32..1.1, 0usize..4, 0usize..600), 1..40),
        raw in prop::collection::vec((0i64..24, 0i64..12), 1..300),
    ) {
        let (w, h) = (gw as i64, gh as i64);
        let mut grid = BitGrid2::new(gw, gh);
        for (x, y) in obstacles {
            grid.set(Cell2::new(x % w, y % h), true);
        }
        let templates: Vec<_> = shapes
            .iter()
            .map(|&(l, w, theta)| FootprintTemplate2::for_box(l, w, Rotation2::from_angle(theta)))
            .collect();
        let checks: Vec<Check<Cell2>> = states
            .iter()
            .map(|&(unit, fx, fy, t, bad)| {
                let at = Cell2::new((fx * gw as f32) as i64, (fy * gh as f32) as i64);
                let cells = match templates.get(t) {
                    Some(tpl) => tpl.expand(at),
                    None => {
                        let wrap = |(dx, dy): (i64, i64)| {
                            Cell2::new((at.x + dx).rem_euclid(w), (at.y + dy).rem_euclid(h))
                        };
                        let mut cells: Vec<Cell2> = raw.iter().copied().map(wrap).collect();
                        if let Some(c) = cells.get_mut(bad) {
                            c.x = -1;
                        }
                        cells
                    }
                };
                (unit, cells)
            })
            .filter(|(_, cells)| !cells.is_empty())
            .collect();
        agree(units, l1_log2_sets, &grid, &checks)?;
    }

    /// The same over 3D grids and drone-like to long 3D templates.
    #[test]
    fn one_pass_tile_matches_reference_3d(
        (gx, gy, gz) in (16u32..80, 8u32..40, 4u32..16),
        units in 1usize..=8,
        l1_log2_sets in 0u32..5,
        boxes in prop::collection::vec((0i64..80, 0i64..40, 0i64..16), 0..16),
        shapes in prop::collection::vec(
            (0.0f32..30.0, 0.0f32..6.0, 0.0f32..4.0, -3.2f32..3.2, -0.5f32..0.5), 1..4),
        states in prop::collection::vec(
            (0usize..8, -0.1f32..1.1, -0.1f32..1.1, -0.1f32..1.1, 0usize..4, 0usize..500), 1..30),
        raw in prop::collection::vec((0i64..12, 0i64..6, 0i64..3), 1..250),
    ) {
        let (x_len, y_len, z_len) = (gx as i64, gy as i64, gz as i64);
        let mut grid = BitGrid3::new(gx, gy, gz);
        for (x, y, z) in boxes {
            let (x, y, z) = (x % x_len, y % y_len, z % z_len);
            grid.fill_box(x, y, z, x + 2, y + 2, z + 1, true);
        }
        let templates: Vec<_> = shapes
            .iter()
            .map(|&(l, w, h, yaw, pitch)| {
                FootprintTemplate3::for_box(l, w, h, Rotation3::from_rpy(0.0, pitch, yaw))
            })
            .collect();
        let checks: Vec<Check<Cell3>> = states
            .iter()
            .map(|&(unit, fx, fy, fz, t, bad)| {
                let at = Cell3::new(
                    (fx * gx as f32) as i64,
                    (fy * gy as f32) as i64,
                    (fz * gz as f32) as i64,
                );
                let cells = match templates.get(t) {
                    Some(tpl) => tpl.expand(at),
                    None => {
                        let wrap = |(dx, dy, dz): (i64, i64, i64)| {
                            Cell3::new(
                                (at.x + dx).rem_euclid(x_len),
                                (at.y + dy).rem_euclid(y_len),
                                (at.z + dz).rem_euclid(z_len),
                            )
                        };
                        let mut cells: Vec<Cell3> = raw.iter().copied().map(wrap).collect();
                        if let Some(c) = cells.get_mut(bad) {
                            c.z = z_len;
                        }
                        cells
                    }
                };
                (unit, cells)
            })
            .filter(|(_, cells)| !cells.is_empty())
            .collect();
        agree(units, l1_log2_sets, &grid, &checks)?;
    }
}

/// The cases the random sequences only reach by chance, built on purpose:
/// a free first tile followed by an out-of-range register in the third
/// tile, and a collision that only the second tile sees, repeated so the
/// warm L0 and a two-block L1 both act.
#[test]
fn later_tile_short_circuits_match_reference() {
    let run = |y0: i64, n: i64| -> Vec<Cell2> {
        (0..n).map(|i| Cell2::new(i % 60, y0 + i / 60)).collect()
    };
    let mut grid = BitGrid2::new(64, 64);
    grid.set(Cell2::new(40, 11), true); // cell 100 of the colliding run: tile 2
    let mut out_of_range = run(0, 200);
    out_of_range.push(Cell2::new(64, 3)); // register 21 of tile 3
    let checks: Vec<Check<Cell2>> = [run(0, 200), out_of_range, run(10, 150)]
        .into_iter()
        .cycle()
        .take(12)
        .enumerate()
        .collect();
    for units in [1, 3, 8] {
        for l1_log2_sets in [0, 2, 7] {
            agree(units, l1_log2_sets, &grid, &checks).unwrap();
        }
    }
}
