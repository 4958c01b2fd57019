//! Software-only RASExp on real threads (paper §6): run the crossbeam
//! worker-pool planner with and without runahead and report measured wall
//! times — no simulation, actual threads on this machine.
//!
//! ```text
//! cargo run --release --example software_rasexp
//! ```

use racod::parallel::{ParallelConfig, ParallelPlanner};
use racod::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// An artificially expensive collision checker, standing in for a large
/// footprint: real planners burn most of their time here (67–99 % per the
/// paper), which is what makes threading the checks worthwhile.
fn expensive_check(grid: &BitGrid2, c: Cell2) -> bool {
    match grid.get(c) {
        Some(false) => {
            // Simulate footprint work: ~150 cell probes around c.
            let mut acc = false;
            for dy in -6i64..=6 {
                for dx in -6i64..=6 {
                    acc |= grid.get(c.offset(dx, dy)) == Some(true);
                }
            }
            std::hint::black_box(acc); // probes are busywork, not the verdict
            true // c itself is free, per the outer match
        }
        _ => false,
    }
}

fn main() {
    let grid = Arc::new(city_map(CityName::Boston, 256, 256));
    let start = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(10, 10));
    let goal = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(245, 245));
    println!("planning {start} -> {goal} with real threads\n");

    let mut baseline_time = Duration::ZERO;
    println!(
        "{:<28} {:>10} {:>10} {:>8} {:>9}",
        "configuration", "wall time", "spec", "memo", "speedup"
    );
    for (label, cfg) in [
        ("single thread", ParallelConfig::baseline(1)),
        ("baseline multithreading x8", ParallelConfig::baseline(8)),
        ("RASExp x8, runahead 8", ParallelConfig::rasexp(8, 8)),
        ("RASExp x8, runahead 32", ParallelConfig::rasexp(8, 32)),
    ] {
        let shared = grid.clone();
        let planner = ParallelPlanner::new(cfg, move |c: Cell2| expensive_check(&shared, c));
        let space = GridSpace2::eight_connected(256, 256);
        // Take the best of three runs (thread start-up noise).
        let mut best: Option<racod::parallel::ParallelRun<Cell2>> = None;
        for _ in 0..3 {
            let run = planner.plan(&space, start, goal);
            assert!(run.result.found(), "city must be navigable");
            if best.as_ref().map(|b| run.elapsed < b.elapsed).unwrap_or(true) {
                best = Some(run);
            }
        }
        let run = best.expect("three runs happened");
        if label == "single thread" {
            baseline_time = run.elapsed;
        }
        println!(
            "{:<28} {:>8.2?} {:>10} {:>8} {:>8.2}x",
            label,
            run.elapsed,
            run.speculative_checks,
            run.memo_hits,
            baseline_time.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9),
        );
    }
    println!("\nAll configurations return the identical path (asserted internally).");
}
