//! City navigation: sweep the accelerator count across all four synthetic
//! city benchmarks and print the Fig 3-style speedup series, plus the
//! effect of Weighted A*.
//!
//! ```text
//! cargo run --release --example city_navigation
//! ```

use racod::prelude::*;
use racod::sim::planner::free_near_footprint;
use racod::sim::D2;

fn main() {
    let base_cost = CostModel::i3_software();
    let racod_cost = CostModel::racod();

    println!("city navigation: speedup over the 4-thread software baseline\n");
    println!("{:<10} {:>8} {:>8} {:>8} {:>8}", "city", "1u", "4u", "16u", "32u");

    for city in CityName::ALL {
        let grid = city_map(city, 256, 256);
        let scenario = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
        let base = plan(&scenario, Backend::software(4, None), &base_cost);
        if !base.result.found() {
            println!("{:<10} (no path between the chosen endpoints)", city.as_str());
            continue;
        }
        print!("{:<10}", city.as_str());
        for units in [1usize, 4, 16, 32] {
            let racod = plan(&scenario, Backend::racod(units), &racod_cost);
            print!(" {:>7.2}x", base.cycles as f64 / racod.cycles as f64);
        }
        println!();
    }

    // Weighted A*: trade path optimality for planning speed (paper §5.9).
    println!("\nweighted A* on boston (software baseline cycles):");
    let grid = city_map(CityName::Boston, 256, 256);
    let fp = Footprint2::car();
    let s = free_near_footprint::<D2>(&grid, &fp, Cell2::new(10, 10), Cell2::new(245, 245));
    let g = free_near_footprint::<D2>(&grid, &fp, Cell2::new(245, 245), s);
    for eps in [1.0f64, 2.0, 4.0] {
        let scenario =
            Scenario2::new(&grid).with_astar(AstarConfig { weight: eps, ..Default::default() });
        let mut scenario = scenario;
        scenario.start = s;
        scenario.goal = g;
        let out = plan(&scenario, Backend::software(4, None), &base_cost);
        match out.result.path {
            Some(ref p) => println!(
                "  eps={eps}: {} states, cost {:.1}, {} expansions, {} cycles",
                p.len(),
                out.result.cost,
                out.result.stats.expansions,
                out.cycles
            ),
            None => println!("  eps={eps}: no path"),
        }
    }
}
