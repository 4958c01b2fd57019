//! Figure 8: prediction accuracy and coverage vs runahead depth — the
//! semantic predictor (top) against a repurposed VLDP hardware predictor
//! (bottom).
//!
//! The paper reports 95.1% accuracy / 43.4% coverage at a runahead of 2,
//! rising to 90.9% coverage at 85.1%+ accuracy at 32, and the hardware
//! predictor reaching only about half the semantic numbers — the 3D drone
//! bewilders it entirely.

use super::Scale;
use racod_geom::{Cell2, Cell3};
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_grid::BitGrid;
use racod_rasexp::{RunaheadConfig, RunaheadOracle, VldpPredictor};
use racod_search::{astar, AstarConfig, FnOracle, SearchSpace};
use racod_sim::planner::free_near;
use racod_sim::{Dim, Scenario, D2, D3};
use std::fmt;

/// The runahead depths swept (the paper's x-axis).
pub const RUNAHEADS: [usize; 5] = [2, 4, 8, 16, 32];

/// One workload's accuracy/coverage rows.
#[derive(Debug, Clone)]
pub struct PredictionSeries {
    /// Workload label.
    pub label: &'static str,
    /// `(runahead, accuracy, coverage)` for the semantic predictor.
    pub semantic: Vec<(usize, f64, f64)>,
    /// `(accuracy, coverage)` of the VLDP-style hardware predictor on the
    /// same workload's collision-address stream.
    pub hardware: (f64, f64),
}

/// Figure 8 data.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Per-workload series.
    pub series: Vec<PredictionSeries>,
}

impl Fig8 {
    /// Average semantic-vs-hardware advantage `(coverage_ratio,
    /// accuracy_ratio)` at runahead 32 (the paper quotes 2.1x / 2x).
    pub fn semantic_advantage(&self) -> (f64, f64) {
        let mut cov = Vec::new();
        let mut acc = Vec::new();
        for s in &self.series {
            if let Some(&(_, sa, sc)) = s.semantic.last() {
                let (ha, hc) = s.hardware;
                if hc > 0.0 {
                    cov.push(sc / hc);
                }
                if ha > 0.0 {
                    acc.push(sa / ha);
                }
            }
        }
        (
            if cov.is_empty() { f64::INFINITY } else { super::geomean(&cov) },
            if acc.is_empty() { f64::INFINITY } else { super::geomean(&acc) },
        )
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: prediction accuracy/coverage vs runahead")?;
        for s in &self.series {
            writeln!(f, "  [{}] semantic:", s.label)?;
            for &(r, a, c) in &s.semantic {
                writeln!(
                    f,
                    "    R={r:<3} accuracy {:>5.1}%  coverage {:>5.1}%",
                    a * 100.0,
                    c * 100.0
                )?;
            }
            writeln!(
                f,
                "    VLDP hardware: accuracy {:>5.1}%  coverage {:>5.1}%",
                s.hardware.0 * 100.0,
                s.hardware.1 * 100.0
            )?;
        }
        let (cov, acc) = self.semantic_advantage();
        writeln!(f, "  semantic advantage at R=32: {cov:.1}x coverage, {acc:.1}x accuracy (paper: 2.1x / 2x)")
    }
}

/// Runs the Figure 8 experiment on a 2D city and the 3D campus.
pub fn fig8(scale: Scale) -> Fig8 {
    let size = scale.map_size();
    let city = city_map(CityName::Boston, size, size);
    let far = size as i64 - 8;
    let (sx, sy, sz) = scale.map_size_3d();
    let campus = campus_3d(0xD205, sx, sy, sz);
    let (far_x, far_y, mid) = (sx as i64 - 4, sy as i64 - 4, sz as i64 / 2);
    Fig8 {
        series: vec![
            series::<D2>("city-2d", &city, Cell2::new(8, 8), Cell2::new(far, far)),
            series::<D3>("drone-3d", &campus, Cell3::new(3, 3, mid), Cell3::new(far_x, far_y, mid)),
        ],
    }
}

/// One workload's rows: a point robot from the free cell nearest `start`
/// to the one nearest `goal`, over the dimension's default search space.
fn series<D: Dim>(
    label: &'static str,
    grid: &BitGrid<D::Cell>,
    start: D::Cell,
    goal: D::Cell,
) -> PredictionSeries {
    let space = Scenario::<D>::new(grid).space;
    let (start, goal) = (free_near::<D>(grid, start), free_near::<D>(grid, goal));
    let is_free = |c| grid.get(c) == Some(false);

    let mut semantic = Vec::new();
    for &r in &RUNAHEADS {
        let mut oracle = RunaheadOracle::new(&space, RunaheadConfig::with_runahead(r), is_free);
        let _ = astar(&space, start, goal, &AstarConfig::default(), &mut oracle);
        semantic.push((r, oracle.stats().accuracy(), oracle.stats().coverage()));
    }

    // Hardware predictor: replay the demand stream of a baseline run
    // through VLDP. Each *state* maps to a distinct virtual address
    // (dense index x 64) — VLDP must predict exact future states, as in
    // the paper's repurposing, not merely nearby words.
    let mut vldp = VldpPredictor::new(8);
    let mut oracle = FnOracle::new(|c| {
        if let Some(i) = space.index(c) {
            vldp.access(i as u64 * 64);
        }
        is_free(c)
    });
    let _ = astar(&space, start, goal, &AstarConfig::default(), &mut oracle);
    PredictionSeries {
        label,
        semantic,
        hardware: (vldp.stats().accuracy(), vldp.stats().coverage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_quick_shape() {
        let data = fig8(Scale::Quick);
        assert_eq!(data.series.len(), 2);
        for s in &data.series {
            // Coverage grows monotonically (within noise) with runahead.
            let c2 = s.semantic.first().unwrap().2;
            let c32 = s.semantic.last().unwrap().2;
            assert!(c32 > c2, "{}: coverage {c2:.2} -> {c32:.2}", s.label);
            // Accuracy stays high for the semantic predictor on these
            // structured environments.
            let a2 = s.semantic.first().unwrap().1;
            assert!(a2 > 0.6, "{}: R=2 accuracy {a2:.2}", s.label);
        }
        // The semantic predictor dominates VLDP in coverage.
        let (cov_adv, _) = data.semantic_advantage();
        assert!(cov_adv > 1.2, "semantic coverage advantage {cov_adv:.2}");
        // And the 3D workload hurts the hardware predictor more than 2D.
        let hw2d = data.series[0].hardware.1;
        let hw3d = data.series[1].hardware.1;
        assert!(hw3d <= hw2d + 0.05, "3D should bewilder VLDP: {hw2d:.2} vs {hw3d:.2}");
        assert!(format!("{data}").contains("Figure 8"));
    }
}
