//! Figure 9: division of labor and accelerator utilization, varying the
//! number of accelerators.
//!
//! Bars: average useful collision checks per expansion, split into demand
//! (baseline-issued) and speculative (RASExp-issued, later used). Dots:
//! utilization of the accelerators in non-idle expansions — near 100% with
//! 2–8 units, declining at 16–32 because the livelock counter bounds how
//! far ahead RASExp may run.

use super::{random_pairs, Scale};
use racod_grid::gen::{city_map, CityName};
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::fmt;

/// One unit-count row.
#[derive(Debug, Clone, Copy)]
pub struct LaborRow {
    /// Number of accelerators (= runahead).
    pub units: usize,
    /// Average demand checks per expansion.
    pub demand_per_expansion: f64,
    /// Average speculative (used) checks per expansion.
    pub speculative_per_expansion: f64,
    /// Utilization of the accelerators in non-idle expansions.
    pub utilization: f64,
}

/// Figure 9 data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Rows per swept unit count.
    pub rows: Vec<LaborRow>,
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: division of labor and utilization vs #accelerators")?;
        writeln!(
            f,
            "{:>6} {:>14} {:>14} {:>12}",
            "units", "demand/exp", "spec/exp", "utilization"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>14.2} {:>14.2} {:>11.1}%",
                r.units,
                r.demand_per_expansion,
                r.speculative_per_expansion,
                r.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the Figure 9 experiment.
pub fn fig9(scale: Scale) -> Fig9 {
    let size = scale.map_size();
    let grid = city_map(CityName::Berlin, size, size);
    let pairs = random_pairs(&grid, scale.pairs_2d(), 0xF169);
    let cost = CostModel::racod();
    let sweep: &[usize] = match scale {
        Scale::Quick => &[2, 8, 32],
        Scale::Full => &[2, 4, 8, 16, 32],
    };

    let mut rows = Vec::new();
    for &units in sweep {
        let mut demand = Vec::new();
        let mut spec = Vec::new();
        let mut util = Vec::new();
        for &(s, g) in &pairs {
            let sc = Scenario2::new(&grid).with_free_endpoints(s, g);
            let out = plan(&sc, Backend::racod(units), &cost);
            if !out.result.found() {
                continue;
            }
            let (d, sp) = out.stats.avg_division_of_labor();
            demand.push(d);
            spec.push(sp);
            util.push(out.stats.utilization(units));
        }
        if demand.is_empty() {
            continue;
        }
        let n = demand.len() as f64;
        rows.push(LaborRow {
            units,
            demand_per_expansion: demand.iter().sum::<f64>() / n,
            speculative_per_expansion: spec.iter().sum::<f64>() / n,
            utilization: util.iter().sum::<f64>() / n,
        });
    }
    Fig9 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_quick_shape() {
        let data = fig9(Scale::Quick);
        assert!(data.rows.len() >= 2);
        let first = data.rows.first().unwrap();
        let last = data.rows.last().unwrap();
        // Speculative contribution grows with units; demand work shrinks.
        assert!(
            last.speculative_per_expansion > first.speculative_per_expansion,
            "spec/exp: {:.2} -> {:.2}",
            first.speculative_per_expansion,
            last.speculative_per_expansion
        );
        assert!(
            last.demand_per_expansion < first.demand_per_expansion,
            "demand/exp: {:.2} -> {:.2}",
            first.demand_per_expansion,
            last.demand_per_expansion
        );
        // Utilization is high at few units and declines with many.
        assert!(first.utilization > 0.5, "few-unit utilization {:.2}", first.utilization);
        assert!(last.utilization < first.utilization);
        assert!(format!("{data}").contains("Figure 9"));
    }
}
