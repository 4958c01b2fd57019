//! Figure 4: the exploration footprint of one planning scenario —
//! cone-like patterns, accurate speculation (green/`+`) and misspeculation
//! (red/`x`) on a Boston-like snapshot with a runahead of 32.

use super::Scale;
use racod_geom::Cell2;
use racod_grid::gen::{city_map, CityName};
use racod_grid::BitGrid2;
use racod_rasexp::{Provenance, RunaheadConfig, RunaheadOracle};
use racod_search::{astar, AstarConfig, GridSpace2, SearchSpace};
use racod_sim::planner::free_near;
use racod_sim::D2;
use racod_viz::{class_histogram, render_ascii, render_ppm, CellClass};
use std::collections::HashSet;
use std::fmt;

/// Figure 4 data: the environment plus a per-cell classification.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The map.
    pub grid: BitGrid2,
    /// Classification of every free cell.
    classes: Vec<CellClass>,
    /// Count of cells per class.
    pub histogram: [(CellClass, u64); 5],
    /// Prediction accuracy of the run.
    pub accuracy: f64,
    /// Prediction coverage of the run.
    pub coverage: f64,
}

impl Fig4 {
    /// The class of one cell.
    pub fn class_at(&self, c: Cell2) -> CellClass {
        let w = u64::from(racod_grid::Occupancy2::width(&self.grid));
        if c.x < 0 || c.y < 0 {
            return CellClass::Unexplored;
        }
        self.classes
            .get((c.y as u64 * w + c.x as u64) as usize)
            .copied()
            .unwrap_or(CellClass::Unexplored)
    }

    /// ASCII rendering (top row first).
    pub fn ascii(&self) -> String {
        render_ascii(&self.grid, |c| self.class_at(c))
    }

    /// PPM (P6) rendering.
    pub fn ppm(&self) -> Vec<u8> {
        render_ppm(&self.grid, |c| self.class_at(c))
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4: exploration footprint (runahead 32), Boston-like map")?;
        for &(class, n) in &self.histogram {
            writeln!(f, "  {:<18} {n}", format!("{class:?}"))?;
        }
        writeln!(
            f,
            "  accuracy {:.1}%, coverage {:.1}% — misspeculations sit on cone fringes",
            self.accuracy * 100.0,
            self.coverage * 100.0
        )
    }
}

/// Runs the Figure 4 experiment: one Boston-like scenario, runahead 32.
pub fn fig4(scale: Scale) -> Fig4 {
    let size = scale.map_size().min(256); // a rendering stays viewable
    let grid = city_map(CityName::Boston, size, size);
    let space = GridSpace2::eight_connected(size, size);
    let start = free_near::<D2>(&grid, Cell2::new(8, 8));
    let goal = free_near::<D2>(&grid, Cell2::new(size as i64 - 8, size as i64 - 8));

    let mut oracle = RunaheadOracle::new(&space, RunaheadConfig::with_runahead(32), |c: Cell2| {
        racod_grid::Occupancy2::occupied(&grid, c) == Some(false)
    });
    let cfg = AstarConfig { record_expansions: true, ..Default::default() };
    let result = astar(&space, start, goal, &cfg, &mut oracle);

    let path: HashSet<Cell2> = result.path.clone().unwrap_or_default().into_iter().collect();
    let mut classes = vec![CellClass::Unexplored; space.state_count()];
    for (i, class) in classes.iter_mut().enumerate() {
        let c = Cell2::new((i as u32 % size) as i64, (i as u32 / size) as i64);
        *class = if path.contains(&c) {
            CellClass::Path
        } else {
            match oracle.table().classify(i) {
                Some((Provenance::Demand, _)) => CellClass::Demand,
                Some((Provenance::Speculative, true)) => CellClass::SpeculatedUsed,
                Some((Provenance::Speculative, false)) => CellClass::SpeculatedWasted,
                None => CellClass::Unexplored,
            }
        };
    }
    let accuracy = oracle.stats().accuracy();
    let coverage = oracle.stats().coverage();
    let histogram = {
        let cls = classes.clone();
        let w = size as usize;
        class_histogram(&grid, move |c| cls[c.y as usize * w + c.x as usize])
    };
    Fig4 { grid, classes, histogram, accuracy, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_shape() {
        let data = fig4(Scale::Quick);
        // Speculation happened, most of it accurate.
        let used = data.histogram[2].1;
        let wasted = data.histogram[3].1;
        assert!(used > 0, "no accurate speculation rendered");
        assert!(used > wasted, "most speculation should be accurate: {used} vs {wasted}");
        // There is a path and it is rendered.
        assert!(data.histogram[4].1 > 0, "no path cells");
        // Renders are well-formed.
        let ascii = data.ascii();
        assert!(ascii.contains('+'));
        assert!(ascii.contains('*'));
        let ppm = data.ppm();
        assert!(ppm.starts_with(b"P6"));
    }
}
