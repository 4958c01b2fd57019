//! Figure 5: pilotless drone navigating a 3D campus — RACOD speedup vs the
//! number of CODAcc accelerators.
//!
//! The paper uses the OctoMap Freiburg-campus scan; we substitute the
//! synthetic 3D campus generator (see DESIGN.md). The paper reports 1.24x
//! with one CODAcc, 34.3x with 32, and a baseline collision share of 54%.

use super::{Scale, UnitSweep};
use racod_grid::gen::campus_3d;
use racod_sim::Scenario3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// `(units, geomean speedup)` series.
    pub speedups: Vec<(usize, f64)>,
    /// Speedup of one CODAcc without RASExp.
    pub one_unit_no_rasexp: f64,
    /// Baseline collision-stall share.
    pub baseline_collision_share: f64,
    /// Pairs that produced valid plans.
    pub pairs: usize,
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: 3D drone navigation speedup vs #CODAccs")?;
        for &(u, s) in &self.speedups {
            writeln!(f, "  {u:>3} CODAccs: {s:>7.2}x")?;
        }
        writeln!(f, "  1 CODAcc (no RASExp): {:.2}x  (paper: 1.24x)", self.one_unit_no_rasexp)?;
        writeln!(
            f,
            "  baseline collision share: {:.1}%  (paper: 54%)",
            self.baseline_collision_share * 100.0
        )
    }
}

/// Runs the Figure 5 experiment.
pub fn fig5(scale: Scale) -> Fig5 {
    let (sx, sy, sz) = scale.map_size_3d();
    let grid = campus_3d(0xD205, sx, sy, sz);
    let mut rng = SmallRng::seed_from_u64(0xF165);
    let mut sweep = UnitSweep::new(scale);
    let mut attempts = 0;

    while sweep.solved() < scale.pairs_3d() && attempts < scale.pairs_3d() * 6 {
        attempts += 1;
        // Endpoints at flight altitude, far apart in the horizontal plane.
        let s = (
            rng.gen_range(2..sx as i64 / 3),
            rng.gen_range(2..sy as i64 - 2),
            rng.gen_range(sz as i64 / 3..sz as i64 - 3),
        );
        let g = (
            rng.gen_range(2 * sx as i64 / 3..sx as i64 - 2),
            rng.gen_range(2..sy as i64 - 2),
            rng.gen_range(sz as i64 / 3..sz as i64 - 3),
        );
        sweep.add(&Scenario3::new(&grid).with_free_endpoints(s, g));
    }

    assert!(sweep.solved() > 0, "no 3D scenario was solvable — campus generator broken?");
    Fig5 {
        speedups: sweep.speedups(),
        one_unit_no_rasexp: sweep.one_unit_no_rasexp(),
        baseline_collision_share: sweep.shares.iter().sum::<f64>() / sweep.shares.len() as f64,
        pairs: sweep.solved(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_quick_shape() {
        let data = fig5(Scale::Quick);
        assert!(data.pairs >= 1);
        let first = data.speedups.first().unwrap().1;
        let last = data.speedups.last().unwrap().1;
        assert!(last > first, "scaling: {first:.2} -> {last:.2}");
        assert!(last > 3.0, "32-unit speedup too small: {last:.2}");
        assert!(data.one_unit_no_rasexp > 1.0);
        assert!(format!("{data}").contains("Figure 5"));
    }
}
