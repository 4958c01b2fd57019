//! Figure 12: prediction throttling under random-obstacle stress (§5.11).
//!
//! Synthetic city-scale maps are injected with i.i.d. random obstacles at
//! 10–70% density. The predictor's trigger threshold `s` (path must have
//! kept its direction for ≥ s steps) trades coverage for accuracy: the
//! paper reports that s=4 keeps accuracy above 50% even at 70% density,
//! and that the synthetic environments are far harsher than real maps.

use super::Scale;
use racod_geom::Cell2;
use racod_grid::gen::random_map;
use racod_grid::Occupancy2;
use racod_rasexp::{RunaheadConfig, RunaheadOracle};
use racod_search::{astar, AstarConfig, GridSpace2};
use racod_sim::planner::free_near;
use racod_sim::D2;
use std::fmt;

/// The obstacle densities swept.
pub const DENSITIES: [f64; 4] = [0.10, 0.30, 0.50, 0.70];
/// The trigger thresholds swept.
pub const THRESHOLDS: [u32; 4] = [1, 2, 3, 4];

/// One (density, threshold) cell of the figure.
#[derive(Debug, Clone, Copy)]
pub struct ThrottleCell {
    /// Obstacle density.
    pub density: f64,
    /// Trigger threshold `s`.
    pub threshold: u32,
    /// Prediction accuracy.
    pub accuracy: f64,
    /// Prediction coverage.
    pub coverage: f64,
}

/// Figure 12 data.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// All (density, threshold) cells.
    pub cells: Vec<ThrottleCell>,
}

impl Fig12 {
    /// The cell for a given density/threshold.
    pub fn cell(&self, density: f64, threshold: u32) -> Option<&ThrottleCell> {
        self.cells.iter().find(|c| (c.density - density).abs() < 1e-9 && c.threshold == threshold)
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 12: throttling under random obstacles (runahead 32)")?;
        writeln!(f, "{:>9} {:>4} {:>10} {:>10}", "density", "s", "accuracy", "coverage")?;
        for c in &self.cells {
            writeln!(
                f,
                "{:>8.0}% {:>4} {:>9.1}% {:>9.1}%",
                c.density * 100.0,
                c.threshold,
                c.accuracy * 100.0,
                c.coverage * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the Figure 12 experiment.
pub fn fig12(scale: Scale) -> Fig12 {
    let size = match scale {
        Scale::Quick => 128,
        Scale::Full => 256,
    };
    let mut cells = Vec::new();
    for &density in &DENSITIES {
        let grid = random_map(0xF1612 ^ (density * 100.0) as u64, size, size, density);
        let space = GridSpace2::eight_connected(size, size);
        let start = free_near::<D2>(&grid, Cell2::new(2, 2));
        let goal = free_near::<D2>(&grid, Cell2::new(size as i64 - 3, size as i64 - 3));
        for &threshold in &THRESHOLDS {
            let cfg =
                RunaheadConfig { max_depth: 32, contexts: 32, stability_threshold: threshold };
            let mut oracle =
                RunaheadOracle::new(&space, cfg, |c: Cell2| grid.occupied(c) == Some(false));
            let _ = astar(&space, start, goal, &AstarConfig::default(), &mut oracle);
            cells.push(ThrottleCell {
                density,
                threshold,
                accuracy: oracle.stats().accuracy(),
                coverage: oracle.stats().coverage(),
            });
        }
    }
    Fig12 { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_quick_shape() {
        let data = fig12(Scale::Quick);
        assert_eq!(data.cells.len(), DENSITIES.len() * THRESHOLDS.len());
        // Throttling (higher s) lowers coverage at every density where
        // speculation happens at all.
        for &d in &DENSITIES {
            let c1 = data.cell(d, 1).unwrap();
            let c4 = data.cell(d, 4).unwrap();
            assert!(
                c4.coverage <= c1.coverage + 1e-9,
                "density {d}: coverage must drop with s: {:.2} -> {:.2}",
                c1.coverage,
                c4.coverage
            );
        }
        // Denser random environments hurt accuracy at s=1.
        let sparse = data.cell(0.10, 1).unwrap().accuracy;
        let dense = data.cell(0.70, 1).unwrap().accuracy;
        assert!(dense < sparse, "accuracy must degrade with density: {sparse:.2} -> {dense:.2}");
        assert!(format!("{data}").contains("Figure 12"));
    }
}
