//! Full-pipeline integration: the CODAcc model, memory hierarchy, RASExp,
//! and timing simulation working together, with cross-checks on the
//! statistics each layer reports.

use racod::prelude::*;
use racod::sim::planner::{plan, Backend};

#[test]
fn racod_pipeline_statistics_are_coherent() {
    let grid = city_map(CityName::Boston, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let out = plan(&sc, Backend::racod(8), &CostModel::racod());
    assert!(out.result.found());

    // Checks reported by RASExp must equal the work performed: every
    // demand-computed or speculative check is one CODAcc check.
    let stats = &out.stats;
    assert!(stats.spec_used <= stats.spec_issued);
    assert!(stats.spec_hits >= stats.spec_used);
    assert!(stats.coverage() > 0.0 && stats.coverage() < 1.0);
    assert!(stats.accuracy() > 0.0 && stats.accuracy() <= 1.0);

    // Timing invariants.
    assert!(out.timing.cycles > 0);
    assert!(out.timing.busy_cycles > 0);
    assert!(out.timing.unit_utilization > 0.0 && out.timing.unit_utilization <= 1.0);
    assert!(out.timing.stall_cycles < out.timing.cycles);

    // Cache statistics exist and are sane.
    let l0 = out.l0_stats.expect("RACOD runs report L0 stats");
    assert_eq!(l0.accesses(), l0.hits + l0.misses);
    assert!(l0.hit_ratio() >= 0.0 && l0.hit_ratio() <= 1.0);
}

#[test]
fn runahead_reduces_stalls_monotonically_in_spirit() {
    let grid = city_map(CityName::Paris, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let cost = CostModel::racod();
    let one = plan(&sc, Backend::racod(1), &cost);
    let many = plan(&sc, Backend::racod(16), &cost);
    assert!(one.result.found());
    assert!(
        many.timing.stall_cycles < one.timing.stall_cycles,
        "stalls: {} -> {}",
        one.timing.stall_cycles,
        many.timing.stall_cycles
    );
    assert!(many.cycles < one.cycles);
}

#[test]
fn l0_size_affects_planning_time() {
    use racod::mem::CacheConfig;
    let grid = city_map(CityName::Berlin, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let cost = CostModel::racod();
    let tiny = plan(
        &sc,
        Backend::Racod {
            units: 8,
            runahead: true,
            latency: Default::default(),
            l0: CacheConfig::l0_sized(64),
        },
        &cost,
    );
    let large = plan(
        &sc,
        Backend::Racod {
            units: 8,
            runahead: true,
            latency: Default::default(),
            l0: CacheConfig::l0_sized(1024),
        },
        &cost,
    );
    assert!(tiny.result.found());
    assert_eq!(tiny.result.path, large.result.path, "cache size is invisible functionally");
    let (t_hr, l_hr) = (tiny.l0_stats.unwrap().hit_ratio(), large.l0_stats.unwrap().hit_ratio());
    assert!(l_hr >= t_hr, "hit ratio should grow with size: {t_hr:.2} -> {l_hr:.2}");
    assert!(large.cycles <= tiny.cycles, "better caching must not slow planning");
}

#[test]
fn area_power_budget_holds_for_every_swept_configuration() {
    let model = AreaPowerModel::default();
    for units in [1usize, 2, 4, 8, 16, 32] {
        // The paper's headline constraint: even the largest configuration
        // stays under 0.3% die area and 0.5% chip power.
        assert!(model.die_area_overhead(units) < 0.003, "units {units}");
        assert!(model.chip_power_overhead(units) < 0.005, "units {units}");
    }
}

#[test]
fn invalid_configurations_never_enter_paths() {
    // Goal near the map edge: the planner will probe states whose footprint
    // leaves the grid; those must be rejected (Invalid), never panicking
    // and never appearing on the final path.
    let grid = BitGrid2::new(64, 64);
    let sc = Scenario2::new(&grid).with_free_endpoints((8, 8), (60, 60));
    let out = plan(&sc, Backend::racod(4), &CostModel::racod());
    let path = out.result.path.expect("open map is reachable");
    let checker = TemplateChecker2::new(&grid, sc.footprint, sc.goal);
    for &state in &path {
        assert_eq!(checker.check(state).verdict, Verdict::Free);
    }
}

#[test]
fn perception_updates_are_coherent_end_to_end() {
    // The perception unit updates the grid between planning episodes
    // (paper §2.1); the §3.1.4 coherence path must make the accelerators
    // observe the change even with warm L0s.
    let mut grid = BitGrid2::new(96, 96);
    let mut pool = CodaccPool::new(4);
    let fp = Footprint2::small_robot();
    let goal = Cell2::new(90, 48);

    // Warm every unit along a corridor.
    for unit in 0..4 {
        for x in 10..80i64 {
            let obb = fp.obb_at(Cell2::new(x, 48), goal);
            assert_eq!(pool.check_2d(unit, &grid, &obb).verdict, Verdict::Free);
        }
    }

    // A new obstacle appears mid-corridor.
    let dropped = Cell2::new(40, 48);
    grid.set(dropped, true);
    pool.notify_grid_write(&grid, dropped);

    // All units must now see it.
    for unit in 0..4 {
        let obb = fp.obb_at(Cell2::new(40, 48), goal);
        assert_eq!(
            pool.check_2d(unit, &grid, &obb).verdict,
            Verdict::Collision,
            "unit {unit} served a stale verdict"
        );
    }
}

#[test]
fn replanning_after_world_change_finds_detour() {
    // Plan, block the found path, replan: the new plan must detour and
    // both plans must be valid for their own world.
    let mut grid = BitGrid2::new(128, 128);
    let sc = Scenario2::new(&grid)
        .with_footprint(Footprint2::small_robot())
        .with_free_endpoints((8, 64), (120, 64));
    let first = plan(&sc, Backend::racod(8), &CostModel::racod());
    let path1 = first.result.path.clone().expect("open field");

    // Wall off the midpoint of the first path (leave a detour open).
    let mid = path1[path1.len() / 2];
    grid.fill_rect(mid.x - 1, 0, mid.x + 1, 100, true);

    let sc2 = Scenario2::new(&grid)
        .with_footprint(Footprint2::small_robot())
        .with_free_endpoints((8, 64), (120, 64));
    let second = plan(&sc2, Backend::racod(8), &CostModel::racod());
    let path2 = second.result.path.clone().expect("detour exists above the wall");
    assert!(second.result.cost > first.result.cost, "detour must be longer");
    for &state in &path2 {
        let obb = sc2.footprint.obb_at(state, sc2.goal);
        assert_eq!(software_check_2d(&grid, &obb).verdict, Verdict::Free);
    }
}
