//! Figure 10: RACOD's effectiveness under Weighted A* and different
//! heuristics (§5.9).
//!
//! For every (heuristic, weight) combination — plus Dijkstra — the speedup
//! is RACOD (32 units) normalized to the software baseline running *the
//! same* algorithm, with RASExp prediction coverage as the dots. Footer
//! facts from the paper's text are also reproduced: WA*(2)/WA*(4) speed
//! over A*, Dijkstra's slowdown vs A*, and the spread across heuristics.

use super::{geomean, random_pairs, Scale};
use racod_grid::gen::{city_map, CityName};
use racod_search::{AstarConfig, Heuristic2};
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::fmt;

/// One (algorithm, heuristic, weight) row.
#[derive(Debug, Clone)]
pub struct HeuristicRow {
    /// Display label (e.g. `euclidean eps=2`).
    pub label: String,
    /// RACOD speedup over the software baseline on the same algorithm.
    pub speedup: f64,
    /// RASExp prediction coverage in the RACOD run.
    pub coverage: f64,
    /// Baseline software cycles (for the footer ratios).
    pub baseline_cycles: f64,
}

/// Figure 10 data.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Rows per configuration.
    pub rows: Vec<HeuristicRow>,
}

impl Fig10 {
    fn baseline_of(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.label == label).map(|r| r.baseline_cycles)
    }

    /// Software speedup of WA*(ε) over plain A* (paper: 1.6–2.2x at ε=2,
    /// 2–3.8x at ε=4).
    pub fn weighting_gain(&self, eps: u32) -> Option<f64> {
        let a = self.baseline_of("euclidean eps=1")?;
        let w = self.baseline_of(&format!("euclidean eps={eps}"))?;
        Some(a / w)
    }

    /// How much slower Dijkstra is than A* in software (paper: ~25x).
    pub fn dijkstra_slowdown(&self) -> Option<f64> {
        let a = self.baseline_of("euclidean eps=1")?;
        let d = self.baseline_of("dijkstra")?;
        Some(d / a)
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 10: RACOD with WA* and different heuristics (32 units)")?;
        writeln!(f, "{:<26} {:>9} {:>10}", "configuration", "speedup", "coverage")?;
        for r in &self.rows {
            writeln!(f, "{:<26} {:>8.2}x {:>9.1}%", r.label, r.speedup, r.coverage * 100.0)?;
        }
        if let Some(g2) = self.weighting_gain(2) {
            writeln!(f, "WA*(2) over A* in software: {g2:.2}x (paper: 1.6-2.2x)")?;
        }
        if let Some(g4) = self.weighting_gain(4) {
            writeln!(f, "WA*(4) over A* in software: {g4:.2}x (paper: 2-3.8x)")?;
        }
        if let Some(d) = self.dijkstra_slowdown() {
            writeln!(f, "Dijkstra vs A* slowdown: {d:.1}x (paper: ~25x)")?;
        }
        Ok(())
    }
}

/// Runs the Figure 10 experiment.
pub fn fig10(scale: Scale) -> Fig10 {
    let size = scale.map_size();
    let grid = city_map(CityName::Paris, size, size);
    let pairs = random_pairs(&grid, scale.pairs_2d(), 0xF1610);
    let base_cost = CostModel::i3_software();
    let racod_cost = CostModel::racod();

    let heuristics = [
        (Heuristic2::Euclidean, "euclidean"),
        (Heuristic2::Manhattan, "manhattan"),
        (Heuristic2::NonUniformDiagonal, "nonuniform-diag"),
    ];
    let weights = [1.0f64, 2.0, 4.0];

    let mut configs: Vec<(String, Heuristic2, f64)> = Vec::new();
    for (h, name) in heuristics {
        for &w in &weights {
            configs.push((format!("{name} eps={w:.0}"), h, w));
        }
    }
    configs.push(("dijkstra".into(), Heuristic2::Zero, 1.0));

    let mut rows = Vec::new();
    for (label, heuristic, weight) in configs {
        let mut speedups = Vec::new();
        let mut coverages = Vec::new();
        let mut baselines = Vec::new();
        for &(s, g) in &pairs {
            let sc = Scenario2::new(&grid)
                .with_free_endpoints(s, g)
                .with_space(
                    racod_search::GridSpace2::eight_connected(size, size).with_heuristic(heuristic),
                )
                .with_astar(AstarConfig { weight, ..Default::default() });
            let base = plan(&sc, Backend::software(4, None), &base_cost);
            if !base.result.found() {
                continue;
            }
            let racod = plan(&sc, Backend::racod(32), &racod_cost);
            speedups.push(base.cycles as f64 / racod.cycles.max(1) as f64);
            coverages.push(racod.stats.coverage());
            baselines.push(base.cycles as f64);
        }
        if speedups.is_empty() {
            continue;
        }
        rows.push(HeuristicRow {
            label,
            speedup: geomean(&speedups),
            coverage: coverages.iter().sum::<f64>() / coverages.len() as f64,
            baseline_cycles: geomean(&baselines),
        });
    }
    Fig10 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_quick_shape() {
        let data = fig10(Scale::Quick);
        assert!(data.rows.len() >= 6, "most configurations must solve");
        // RACOD wins everywhere.
        for r in &data.rows {
            assert!(r.speedup > 1.5, "{}: speedup {:.2}", r.label, r.speedup);
            assert!(r.coverage > 0.1, "{}: coverage {:.2}", r.label, r.coverage);
        }
        // Weighting speeds up the software baseline.
        if let Some(g2) = data.weighting_gain(2) {
            assert!(g2 > 1.0, "WA*(2) gain {g2:.2}");
        }
        // Dijkstra is much slower than A*.
        if let Some(d) = data.dijkstra_slowdown() {
            assert!(d > 3.0, "Dijkstra slowdown {d:.1}");
        }
        // Coverage declines as weight grows (fewer expansions → fewer
        // prediction opportunities), per the paper.
        let cov = |label: &str| data.rows.iter().find(|r| r.label == label).map(|r| r.coverage);
        if let (Some(c1), Some(c4)) = (cov("euclidean eps=1"), cov("euclidean eps=4")) {
            assert!(c4 <= c1 + 0.1, "coverage should not rise with eps: {c1:.2} -> {c4:.2}");
        }
        assert!(format!("{data}").contains("Figure 10"));
    }
}
