//! 3D drone navigation: plan a UAV flight through the synthetic campus and
//! compare the software baseline with RACOD (paper §5.4).
//!
//! ```text
//! cargo run --release --example drone_3d
//! ```

use racod::prelude::*;

fn main() {
    // A 3D campus: ground plane, buildings of varying heights, trees.
    let grid = campus_3d(42, 96, 96, 32);
    println!(
        "campus: {}x{}x{} voxels, {:.1}% occupied",
        Occupancy3::size_x(&grid),
        Occupancy3::size_y(&grid),
        Occupancy3::size_z(&grid),
        grid.occupancy_ratio() * 100.0
    );

    // Fly from one corner to the other at mid altitude.
    let scenario = Scenario3::new(&grid).with_free_endpoints((4, 4, 16), (91, 91, 16));
    println!("start {}, goal {}", scenario.start, scenario.goal);

    let base = plan(&scenario, Backend::software(4, None), &CostModel::i3_software());
    let Some(path) = base.result.path.as_ref() else {
        println!("no route through the campus — try another seed");
        return;
    };
    println!(
        "baseline: {} waypoints, cost {:.1}, {} expansions, {} cycles",
        path.len(),
        base.result.cost,
        base.result.stats.expansions,
        base.cycles
    );

    for units in [1usize, 8, 32] {
        let racod = plan(&scenario, Backend::racod(units), &CostModel::racod());
        assert_eq!(racod.result.path, base.result.path);
        println!(
            "racod {units:>2} units: {:>12} cycles -> {:>5.1}x  (coverage {:.1}%)",
            racod.cycles,
            base.cycles as f64 / racod.cycles as f64,
            racod.stats.coverage() * 100.0
        );
    }

    // Altitude profile of the flight.
    let min_z = path.iter().map(|c| c.z).min().unwrap();
    let max_z = path.iter().map(|c| c.z).max().unwrap();
    println!("flight altitude ranged from z={min_z} to z={max_z}");
}
