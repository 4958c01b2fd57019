//! Quickstart: plan a path with the software baseline and with RACOD, and
//! compare simulated planning time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use racod::prelude::*;

fn main() {
    // 1. An environment: a synthetic city snapshot (Moving AI `.map` files
    //    load through `racod::grid::io::parse_map` when you have real ones).
    let grid = city_map(CityName::Boston, 256, 256);
    println!(
        "map: {}x{} cells, {:.1}% occupied",
        Occupancy2::width(&grid),
        Occupancy2::height(&grid),
        grid.occupancy_ratio() * 100.0
    );

    // 2. A planning scenario: car footprint, endpoints snapped to cells
    //    where the whole robot body fits.
    let scenario = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    println!("start {}, goal {}", scenario.start, scenario.goal);

    // 3. The software baseline: multithreaded A* on a low-end robotic
    //    processor model (Intel Core i3-8109U).
    let base = plan(&scenario, Backend::software(4, None), &CostModel::i3_software());
    let path = base.result.path.as_ref().expect("city streets are connected");
    println!(
        "baseline: path of {} states, cost {:.1}, {} expansions, {} simulated cycles",
        path.len(),
        base.result.cost,
        base.result.stats.expansions,
        base.cycles
    );

    // 4. RACOD: the same search with 32 CODAcc accelerators and RASExp
    //    runahead. The path is identical; only time changes.
    let racod = plan(&scenario, Backend::racod(32), &CostModel::racod());
    assert_eq!(racod.result.path, base.result.path);
    println!(
        "racod:    same path, {} simulated cycles -> {:.1}x speedup",
        racod.cycles,
        base.cycles as f64 / racod.cycles as f64
    );
    println!(
        "rasexp:   {:.1}% prediction accuracy, {:.1}% coverage",
        racod.stats.accuracy() * 100.0,
        racod.stats.coverage() * 100.0
    );
}
