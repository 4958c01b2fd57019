//! Timing model for the PA*SE baseline (Fig 13).
//!
//! The functional PA*SE implementation in `racod-search` profiles the
//! realized parallelism (wave sizes) and the independence-check overhead;
//! this module prices that profile with a [`CostModel`]. Per wave:
//!
//! * the coordinating core pays bookkeeping plus one pairwise heuristic
//!   test per independence check performed (serial — this is the overhead
//!   acknowledged by the original authors and called out in §6);
//! * the wave's expansions (and their collision checks) execute in parallel
//!   across the wave, so compute time is the per-expansion work divided by
//!   the wave size — an optimistic model that still loses, which
//!   strengthens the paper's conclusion.

use crate::cost::CostModel;
use crate::footprint::Footprint2;
use crate::planner::Scenario2;
use racod_codacc::software_check_2d;
use racod_geom::Cell2;
use racod_search::{pase, FnOracle, PaseConfig, PaseResult};

/// Cycles charged per pairwise independence test (a Euclidean heuristic
/// evaluation plus comparison).
pub const INDEPENDENCE_TEST_CYCLES: u64 = 12;

/// Timed PA*SE outcome.
#[derive(Debug, Clone)]
pub struct PaseOutcome {
    /// The functional result.
    pub result: PaseResult<Cell2>,
    /// Modeled wall-clock cycles.
    pub cycles: u64,
}

/// Runs PA*SE on a 2D scenario and prices it.
pub fn plan_pase_2d(sc: &Scenario2<'_>, threads: usize, cost: &CostModel) -> PaseOutcome {
    let grid = sc.grid;
    let footprint: Footprint2 = sc.footprint;
    let goal = sc.goal;
    // Average software check cost, sampled from the scenario's own
    // footprint on free space (checks dominate, so a mean is adequate for a
    // baseline model that we deliberately treat optimistically).
    let sample_obb = footprint.obb_at(sc.start, goal);
    let sample = software_check_2d(grid, &sample_obb);
    let check_cycles = cost.sw_check_cycles(sample.cells_total.max(1));

    let mut oracle = FnOracle::new(|c: Cell2| {
        let obb = footprint.obb_at(c, goal);
        software_check_2d(grid, &obb).verdict.is_free()
    });
    let config = PaseConfig { threads, ..Default::default() };
    let result = pase(&sc.space, sc.start, sc.goal, &config, &mut oracle);

    // Price the profile.
    let mut cycles = 0u64;
    let waves = result.wave_sizes.len().max(1) as u64;
    let checks_per_expansion = if result.stats.expansions == 0 {
        0.0
    } else {
        result.stats.demand_checks as f64 / result.stats.expansions as f64
    };
    // Independence testing is serial on the coordinator.
    cycles += result.independence_tests * INDEPENDENCE_TEST_CYCLES;
    for &w in &result.wave_sizes {
        let w = w.max(1) as u64;
        // Serial coordination per wave.
        cycles += cost.bookkeeping + w * cost.dispatch_serial;
        // Parallel expansion compute: each expanded state performs its
        // checks; states run in parallel but each state's checks share a
        // thread (the PA*SE work unit is an expansion).
        let checks = checks_per_expansion.ceil() as u64;
        cycles += checks * check_cycles; // one expansion's critical path
        let _ = waves;
    }
    PaseOutcome { result, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, Backend};
    use racod_grid::gen::{city_map, CityName};

    #[test]
    fn pase_is_priced_and_finds_paths() {
        let grid = city_map(CityName::Boston, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let out = plan_pase_2d(&sc, 8, &CostModel::xeon_software());
        assert!(out.result.found());
        assert!(out.cycles > 0);
    }

    #[test]
    fn pase_loses_to_software_rasexp() {
        // The §6 headline: RASExp decisively outperforms PA*SE at equal
        // thread counts.
        let grid = city_map(CityName::Berlin, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let cost = CostModel::xeon_software();
        let pase_out = plan_pase_2d(&sc, 32, &cost);
        let ras = plan(&sc, Backend::software(32, Some(32)), &cost);
        assert!(pase_out.result.found() && ras.result.found());
        assert!(ras.cycles < pase_out.cycles, "RASExp {} vs PA*SE {}", ras.cycles, pase_out.cycles);
    }

    #[test]
    fn more_threads_reduce_pase_time_slightly() {
        let grid = city_map(CityName::Paris, 256, 256);
        let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let cost = CostModel::xeon_software();
        let t1 = plan_pase_2d(&sc, 1, &cost).cycles;
        let t8 = plan_pase_2d(&sc, 8, &cost).cycles;
        // PA*SE gains something from threads, but not linearly.
        assert!(t8 <= t1);
    }
}
