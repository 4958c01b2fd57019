//! Property-based tests of the accelerator-model invariants: the CODAcc
//! datapath's verdicts always equal the software reference checker's, and
//! the reduction unit's coalescing is exact.

use proptest::prelude::*;
use racod_codacc::{
    partition_tiles, software_check_2d, software_check_3d, template_check, template_check_scalar,
    CodaccPool, ReductionUnit,
};
use racod_geom::{
    Cell2, Cell3, FootprintTemplate, FootprintTemplate2, FootprintTemplate3, GridCell, Obb2, Obb3,
    Rotation2, Rotation3, Vec2, Vec3,
};
use racod_grid::{BitGrid, BitGrid2, BitGrid3};
use racod_mem::BlockAddr;

/// The word-parallel kernel is bit-identical — verdict AND `cells_checked`
/// — to the scalar walk over the same template.
fn kernel_matches_scalar<C: GridCell>(
    grid: &BitGrid<C>,
    s: C,
    tpl: &FootprintTemplate<C>,
) -> Result<(), TestCaseError> {
    let fast = template_check(grid, s, tpl);
    let slow = template_check_scalar(grid, s, tpl);
    prop_assert_eq!(fast, slow, "state {:?} on a {:?} grid", s, grid.extent());
    Ok(())
}

/// On a grid with every cell occupied no footprint is free, and the kernel
/// still agrees with the scalar walk.
fn kernel_matches_scalar_when_full<C: GridCell>(
    grid: &BitGrid<C>,
    s: C,
    tpl: &FootprintTemplate<C>,
) -> Result<(), TestCaseError> {
    kernel_matches_scalar(grid, s, tpl)?;
    prop_assert!(!template_check(grid, s, tpl).verdict.is_free() || tpl.cell_count() == 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hardware vs software verdict equivalence over arbitrary boxes and
    /// obstacle layouts, including out-of-bounds configurations.
    #[test]
    fn codacc_matches_software_2d(
        ox in -10.0f32..70.0, oy in -10.0f32..70.0,
        l in 0.0f32..30.0, w in 0.0f32..15.0,
        theta in -3.2f32..3.2,
        obstacles in prop::collection::vec((0i64..64, 0i64..64), 0..30),
    ) {
        let mut grid = BitGrid2::new(64, 64);
        for (x, y) in obstacles {
            grid.set(racod_geom::Cell2::new(x, y), true);
        }
        let obb = Obb2::new(Vec2::new(ox, oy), l, w, Rotation2::from_angle(theta));
        let mut pool = CodaccPool::new(1);
        let hw = pool.check_2d(0, &grid, &obb);
        let sw = software_check_2d(&grid, &obb);
        // The planner-meaningful verdict (free vs not-free) must agree
        // exactly. When a footprint is simultaneously out-of-bounds and
        // colliding, the hardware short-circuit may label it Invalid while
        // the software scan hits the obstacle first — both are "not free".
        prop_assert_eq!(hw.verdict.is_free(), sw.verdict.is_free(), "obb {:?}", obb);
        if hw.verdict.is_free() {
            prop_assert_eq!(hw.verdict, sw.verdict);
        }
    }

    /// Same equivalence in 3D.
    #[test]
    fn codacc_matches_software_3d(
        ox in -4.0f32..36.0, oy in -4.0f32..36.0, oz in -4.0f32..20.0,
        l in 0.0f32..12.0, w in 0.0f32..8.0, h in 0.0f32..6.0,
        yaw in -3.2f32..3.2, pitch in -1.0f32..1.0,
        boxes in prop::collection::vec((0i64..32, 0i64..32, 0i64..16), 0..10),
    ) {
        let mut grid = BitGrid3::new(32, 32, 16);
        for (x, y, z) in boxes {
            grid.fill_box(x, y, z, x + 2, y + 2, z + 2, true);
        }
        let obb = Obb3::new(
            Vec3::new(ox, oy, oz), l, w, h,
            Rotation3::from_rpy(0.0, pitch, yaw),
        );
        let mut pool = CodaccPool::new(1);
        let hw = pool.check_3d(0, &grid, &obb);
        let sw = software_check_3d(&grid, &obb);
        prop_assert_eq!(hw.verdict.is_free(), sw.verdict.is_free());
        if hw.verdict.is_free() {
            prop_assert_eq!(hw.verdict, sw.verdict);
        }
    }

    /// The reduction unit serves every address's block exactly once, in
    /// first-appearance order, and never outputs more blocks than inputs.
    #[test]
    fn reduction_unit_is_exact(addrs in prop::collection::vec(0u64..100_000, 0..200)) {
        let blocks = ReductionUnit::new().coalesce(&addrs);
        prop_assert!(blocks.len() <= addrs.len());
        // Exactly the set of blocks, each once.
        let expected: std::collections::HashSet<BlockAddr> =
            addrs.iter().map(|&a| BlockAddr::containing(a)).collect();
        let got: std::collections::HashSet<BlockAddr> = blocks.iter().copied().collect();
        prop_assert_eq!(&expected, &got);
        prop_assert_eq!(blocks.len(), got.len(), "duplicate block emitted");
    }

    /// The greedy scheduler's tiles partition the sample lattice exactly.
    #[test]
    fn scheduler_tiles_partition(nx in 1usize..60, ny in 1usize..40, nz in 1usize..12) {
        let tiles = partition_tiles(nx, ny, nz, false);
        let covered: usize = tiles.iter().map(|t| t.samples()).sum();
        prop_assert_eq!(covered, nx * ny * nz, "tile coverage mismatch");
        for t in &tiles {
            prop_assert!(t.samples() <= racod_codacc::HOBB_REGISTERS);
        }
    }

    /// 2D mode tiles partition exactly too, using the widened y capacity.
    #[test]
    fn scheduler_tiles_partition_2d(nx in 1usize..80, ny in 1usize..40) {
        let tiles = partition_tiles(nx, ny, 1, true);
        let covered: usize = tiles.iter().map(|t| t.samples()).sum();
        prop_assert_eq!(covered, nx * ny);
    }

    /// Kernel vs scalar walk across random rotations, grid shapes,
    /// obstacle densities, and states including far out-of-bounds
    /// placements.
    #[test]
    fn word_kernel_matches_scalar_walk_2d(
        gw in 1u32..80, gh in 1u32..40,
        l in 0.0f32..30.0, w in 0.0f32..15.0, theta in -3.2f32..3.2,
        sx in -40i64..120, sy in -40i64..80,
        obstacles in prop::collection::vec((0i64..80, 0i64..40), 0..60),
    ) {
        let mut grid = BitGrid2::new(gw, gh);
        for (x, y) in obstacles {
            grid.set(Cell2::new(x % gw as i64, y % gh as i64), true);
        }
        let tpl = FootprintTemplate2::for_box(l, w, Rotation2::from_angle(theta));
        kernel_matches_scalar(&grid, Cell2::new(sx, sy), &tpl)?;
    }

    /// Same bit-identity when every cell is occupied — the case that
    /// exercises mask trimming at the right edge. A filled 2D grid also
    /// sets the storage bits past the row width; a 3D grid filled box by
    /// box leaves them clear, across row widths of one to three words.
    #[test]
    fn word_kernel_matches_scalar_on_filled_grid(
        (gw, gh, gd) in (1u32..150, 1u32..20, 1u32..4),
        (l, w, h) in (0.0f32..140.0, 0.0f32..15.0, 0.0f32..3.0),
        theta in -3.2f32..3.2,
        (sx, sy, sz) in (-8i64..158, -8i64..28, -2i64..6),
    ) {
        let tpl2 = FootprintTemplate2::for_box(l, w, Rotation2::from_angle(theta));
        kernel_matches_scalar_when_full(&BitGrid2::filled(gw, gh), Cell2::new(sx, sy), &tpl2)?;
        let mut full3 = BitGrid3::new(gw, gh, gd);
        full3.fill_box(0, 0, 0, gw as i64, gh as i64, gd as i64, true);
        let tpl3 = FootprintTemplate3::for_box(l, w.min(3.0), h, Rotation3::from_rpy(0.0, 0.0, theta));
        kernel_matches_scalar_when_full(&full3, Cell3::new(sx, sy, sz), &tpl3)?;
    }

    /// 3D kernel vs scalar walk, same exactness contract; x-rows up to
    /// three grid words wide and templates long enough to reach the SIMD
    /// lane groups.
    #[test]
    fn word_kernel_matches_scalar_walk_3d(
        gx in 1u32..200, gy in 1u32..24, gz in 1u32..12,
        l in 0.0f32..150.0, w in 0.0f32..6.0, h in 0.0f32..4.0,
        yaw in -3.2f32..3.2, pitch in -0.5f32..0.5,
        sx in -12i64..212, sy in -12i64..36, sz in -6i64..18,
        boxes in prop::collection::vec((0i64..200, 0i64..24, 0i64..12), 0..12),
    ) {
        let mut grid = BitGrid3::new(gx, gy, gz);
        for (x, y, z) in boxes {
            let (x, y, z) = (x % gx as i64, y % gy as i64, z % gz as i64);
            grid.fill_box(x, y, z, x + 1, y + 1, z + 1, true);
        }
        let tpl = FootprintTemplate3::for_box(l, w, h, Rotation3::from_rpy(0.0, pitch, yaw));
        kernel_matches_scalar(&grid, Cell3::new(sx, sy, sz), &tpl)?;
    }

    /// At the reference placement (state (0, 0), body centered (0.5, 0.5))
    /// the template cells ARE `sample_obb2`'s cells in the same order, so
    /// the kernel's full `SoftwareCheck` — verdict and exact early-exit
    /// count — equals the general-OBB software reference checker's.
    #[test]
    fn word_kernel_matches_obb_reference_at_reference_placement(
        gw in 1u32..64, gh in 1u32..64,
        l in 0.0f32..30.0, w in 0.0f32..15.0, theta in -3.2f32..3.2,
        obstacles in prop::collection::vec((-20i64..44, -20i64..44), 0..40),
    ) {
        let mut grid = BitGrid2::new(gw, gh);
        for (x, y) in obstacles {
            grid.set(Cell2::new(x, y), true); // OOB sets are ignored by set()
        }
        let rot = Rotation2::from_angle(theta);
        let tpl = FootprintTemplate2::for_box(l, w, rot);
        let obb = Obb2::centered(Vec2::new(0.5, 0.5), l, w, rot);
        let kernel = template_check(&grid, Cell2::new(0, 0), &tpl);
        let reference = software_check_2d(&grid, &obb);
        prop_assert_eq!(kernel, reference);
    }
}
