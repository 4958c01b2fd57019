//! Figure 7: speedup sensitivity to CPU–accelerator communication latency.
//!
//! Three integration points — 1 cycle (tightly integrated), 10 cycles (SoC
//! co-processor), 100 cycles (off-chip) — for both the minimum and maximum
//! accelerator configurations of every robot: mobile 2D (1 / 32 CODAccs),
//! mobile 3D (1 / 32), and the arm (1 / 4). The paper finds single-unit
//! systems very latency-sensitive while many units amortize it.

use super::{geomean, random_pairs, Scale};
use racod_arm::{arm_environment, time_rrt_run, ArmModel, ArmPlatform, RrtConfig};
use racod_grid::gen::{campus_3d, city_map, CityName};
use racod_sim::planner::{plan, Backend, Scenario2, Scenario3};
use racod_sim::CostModel;
use std::fmt;

/// The latencies swept (cycles, one-way).
pub const LATENCIES: [u64; 3] = [1, 10, 100];

/// One robot's sensitivity rows.
#[derive(Debug, Clone)]
pub struct CommSeries {
    /// Robot / workload label.
    pub label: &'static str,
    /// `(units, [speedup at each latency in LATENCIES order])`.
    pub rows: Vec<(usize, [f64; 3])>,
}

/// Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-robot series.
    pub series: Vec<CommSeries>,
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7: speedup vs CPU-accelerator communication latency")?;
        writeln!(f, "{:<14} {:>6} {:>9} {:>9} {:>9}", "robot", "units", "1cyc", "10cyc", "100cyc")?;
        for s in &self.series {
            for &(units, lat) in &s.rows {
                writeln!(
                    f,
                    "{:<14} {:>6} {:>8.2}x {:>8.2}x {:>8.2}x",
                    s.label, units, lat[0], lat[1], lat[2]
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the Figure 7 experiment.
pub fn fig7(scale: Scale) -> Fig7 {
    let mut series = Vec::new();

    // Mobile 2D (one representative city).
    {
        let size = scale.map_size();
        let grid = city_map(CityName::Boston, size, size);
        let pairs = random_pairs(&grid, scale.pairs_2d(), 0xF167);
        let base_cost = CostModel::i3_software();
        let mut rows = Vec::new();
        for &units in &[1usize, 32] {
            let mut per_lat = [Vec::new(), Vec::new(), Vec::new()];
            for &(s, g) in &pairs {
                let sc = Scenario2::new(&grid).with_free_endpoints(s, g);
                let base = plan(&sc, Backend::software(4, None), &base_cost);
                if !base.result.found() {
                    continue;
                }
                for (i, &lat) in LATENCIES.iter().enumerate() {
                    let cost = CostModel::racod().with_comm_latency(lat);
                    let r = plan(&sc, Backend::racod(units), &cost);
                    per_lat[i].push(base.cycles as f64 / r.cycles.max(1) as f64);
                }
            }
            if per_lat[0].is_empty() {
                continue;
            }
            rows.push((units, [geomean(&per_lat[0]), geomean(&per_lat[1]), geomean(&per_lat[2])]));
        }
        series.push(CommSeries { label: "mobile-2d", rows });
    }

    // Mobile 3D.
    {
        let (sx, sy, sz) = scale.map_size_3d();
        let grid = campus_3d(0xD205, sx, sy, sz);
        let sc = Scenario3::new(&grid).with_free_endpoints(
            (3, 3, sz as i64 / 2),
            (sx as i64 - 4, sy as i64 - 4, sz as i64 / 2),
        );
        let base = plan(&sc, Backend::software(4, None), &CostModel::i3_software());
        if base.result.found() {
            let mut rows = Vec::new();
            for &units in &[1usize, 32] {
                let mut lat_speedups = [0.0f64; 3];
                for (i, &lat) in LATENCIES.iter().enumerate() {
                    let cost = CostModel::racod().with_comm_latency(lat);
                    let r = plan(&sc, Backend::racod(units), &cost);
                    lat_speedups[i] = base.cycles as f64 / r.cycles.max(1) as f64;
                }
                rows.push((units, lat_speedups));
            }
            series.push(CommSeries { label: "mobile-3d", rows });
        }
    }

    // Arm.
    {
        let arm = ArmModel::locobot();
        let grid = arm_environment(0);
        let rrt = RrtConfig { seed: 5, ..Default::default() };
        let sw = time_rrt_run(&arm, &grid, &rrt, ArmPlatform::Software);
        let mut rows = Vec::new();
        for &units in &[1usize, 4] {
            let mut lat_speedups = [0.0f64; 3];
            for (i, &lat) in LATENCIES.iter().enumerate() {
                let hw = time_rrt_run(
                    &arm,
                    &grid,
                    &rrt,
                    ArmPlatform::Codacc { units, comm_latency: lat },
                );
                lat_speedups[i] = sw.cycles as f64 / hw.cycles.max(1) as f64;
            }
            rows.push((units, lat_speedups));
        }
        series.push(CommSeries { label: "arm", rows });
    }

    Fig7 { series }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_quick_shape() {
        let data = fig7(Scale::Quick);
        assert!(data.series.len() >= 2);
        for s in &data.series {
            for &(units, lat) in &s.rows {
                assert!(
                    lat[2] <= lat[0] + 1e-9,
                    "{} {units}u: off-chip must not beat tight ({lat:?})",
                    s.label
                );
            }
            // Single-unit systems are the most latency sensitive: relative
            // degradation 1→100 cycles is worse at min units than max.
            if s.rows.len() == 2 {
                let (u_min, lat_min) = s.rows[0];
                let (_u_max, lat_max) = s.rows[1];
                assert!(u_min == 1);
                let deg_min = lat_min[2] / lat_min[0];
                let deg_max = lat_max[2] / lat_max[0];
                assert!(
                    deg_max >= deg_min * 0.9,
                    "{}: many units should amortize latency (min {deg_min:.2}, max {deg_max:.2})",
                    s.label
                );
            }
        }
        assert!(format!("{data}").contains("Figure 7"));
    }
}
