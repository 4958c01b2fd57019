//! Figure 13: performance comparison across platforms (§6).
//!
//! (a) Xeon CPU: baseline multithreading (BM), PA*SE, and RASExp over the
//! single-threaded baseline, sweeping thread counts. (b) GeForce GPU model:
//! the same algorithms under GPU cost constants with deep runahead.
//! (c) Cross-platform: everything normalized to the multithreaded software
//! baseline on the low-end Core i3-8109U — the paper reports 13.2x for the
//! 32-thread Xeon with RASExp and 39.9x for RACOD.

use super::{geomean, random_pairs, Scale};
use racod_grid::gen::{city_map, CityName};
use racod_sim::pase_model::plan_pase_2d;
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::fmt;

/// One platform sweep: speedups over that platform's single-threaded run.
#[derive(Debug, Clone)]
pub struct PlatformSweep {
    /// Platform label.
    pub label: &'static str,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// BM speedup per thread count.
    pub bm: Vec<f64>,
    /// PA*SE speedup per thread count.
    pub pase: Vec<f64>,
    /// RASExp speedup per thread count.
    pub rasexp: Vec<f64>,
}

/// Figure 13 data.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// (a) The Xeon CPU sweep.
    pub cpu: PlatformSweep,
    /// (b) The GPU-model sweep.
    pub gpu: PlatformSweep,
    /// (c) Final cross-platform comparison, normalized to the i3 software
    /// baseline: `(label, speedup)`.
    pub cross: Vec<(&'static str, f64)>,
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 13: platform comparison")?;
        for sweep in [&self.cpu, &self.gpu] {
            writeln!(f, "  ({})  speedup over single-threaded:", sweep.label)?;
            writeln!(f, "  {:>8} {:>8} {:>8} {:>8}", "threads", "BM", "PA*SE", "RASExp")?;
            for (i, &t) in sweep.threads.iter().enumerate() {
                writeln!(
                    f,
                    "  {:>8} {:>7.2}x {:>7.2}x {:>7.2}x",
                    t, sweep.bm[i], sweep.pase[i], sweep.rasexp[i]
                )?;
            }
        }
        writeln!(f, "  (c) normalized to the i3 software baseline:")?;
        for &(label, s) in &self.cross {
            writeln!(f, "  {label:<24} {s:>7.2}x")?;
        }
        Ok(())
    }
}

/// Runs the Figure 13 experiment, averaging the mobile workloads.
pub fn fig13(scale: Scale) -> Fig13 {
    let size = scale.map_size();
    let cities = match scale {
        Scale::Quick => &[CityName::Boston][..],
        Scale::Full => &CityName::ALL[..],
    };
    let mut scenarios = Vec::new();
    for &city in cities {
        let grid = city_map(city, size, size);
        let pairs = random_pairs(&grid, scale.pairs_2d(), 0xF1613);
        scenarios.push((grid, pairs));
    }

    // Helper: geomean of `f(scenario)` over all solvable pairs.
    let sweep_platform = |label: &'static str,
                          cost: &CostModel,
                          threads: &[usize],
                          rasexp_depth: fn(usize) -> usize|
     -> PlatformSweep {
        let mut bm = vec![Vec::new(); threads.len()];
        let mut pase = vec![Vec::new(); threads.len()];
        let mut ras = vec![Vec::new(); threads.len()];
        for (grid, pairs) in &scenarios {
            for &(s, g) in pairs {
                let sc = Scenario2::new(grid).with_free_endpoints(s, g);
                let software =
                    |threads, runahead| plan(&sc, Backend::software(threads, runahead), cost);
                let single = software(1, None);
                if !single.result.found() {
                    continue;
                }
                let base = single.cycles as f64;
                for (i, &t) in threads.iter().enumerate() {
                    bm[i].push(base / software(t, None).cycles.max(1) as f64);
                    pase[i].push(base / plan_pase_2d(&sc, t, cost).cycles.max(1) as f64);
                    let ras_t = software(t, Some(rasexp_depth(t)));
                    ras[i].push(base / ras_t.cycles.max(1) as f64);
                }
            }
        }
        PlatformSweep {
            label,
            threads: threads.to_vec(),
            bm: bm.iter().map(|v| geomean(v)).collect(),
            pase: pase.iter().map(|v| geomean(v)).collect(),
            rasexp: ras.iter().map(|v| geomean(v)).collect(),
        }
    };

    let cpu_threads: &[usize] = if scale == Scale::Quick { &[4, 32] } else { &[2, 4, 8, 16, 32] };
    let cpu = sweep_platform("xeon-cpu", &CostModel::xeon_software(), cpu_threads, |t| t);

    let gpu_threads: &[usize] =
        if scale == Scale::Quick { &[32, 128] } else { &[32, 64, 128, 256] };
    // GPUs relax the livelock bound to MAX_DEPTH = 64 (paper §6).
    let gpu = sweep_platform("gpu-model", &CostModel::gpu(), gpu_threads, |_t| 64);

    // (c) Cross-platform, normalized to the i3 multithreaded baseline.
    let mut i3_base = Vec::new();
    let mut xeon_ras = Vec::new();
    let mut gpu_ras = Vec::new();
    let mut racod = Vec::new();
    for (grid, pairs) in &scenarios {
        for &(s, g) in pairs {
            let sc = Scenario2::new(grid).with_free_endpoints(s, g);
            let software = |threads, runahead, cost: &CostModel| {
                plan(&sc, Backend::software(threads, runahead), cost)
            };
            let base = software(4, None, &CostModel::i3_software());
            if !base.result.found() {
                continue;
            }
            let b = base.cycles as f64;
            i3_base.push(1.0);
            let xeon = software(32, Some(32), &CostModel::xeon_software());
            xeon_ras.push(b / xeon.cycles.max(1) as f64);
            let gpu = software(128, Some(64), &CostModel::gpu());
            gpu_ras.push(b / gpu.cycles.max(1) as f64);
            racod.push(b / plan(&sc, Backend::racod(32), &CostModel::racod()).cycles.max(1) as f64);
        }
    }
    let cross = vec![
        ("i3 software baseline", 1.0),
        ("xeon 32t + RASExp", geomean(&xeon_ras)),
        ("gpu 128t + RASExp", geomean(&gpu_ras)),
        ("RACOD (32 CODAccs)", geomean(&racod)),
    ];

    Fig13 { cpu, gpu, cross }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_quick_shape() {
        let data = fig13(Scale::Quick);

        // (a) On the CPU at 32 threads: RASExp > PA*SE > BM ordering, BM
        // limited (paper: 9% at 32 threads).
        let last = data.cpu.threads.len() - 1;
        assert!(data.cpu.rasexp[last] > data.cpu.pase[last], "RASExp must beat PA*SE");
        assert!(data.cpu.rasexp[last] > data.cpu.bm[last] * 2.0, "RASExp must crush BM");
        assert!(data.cpu.bm[last] < 2.0, "BM speedup is limited: {:.2}", data.cpu.bm[last]);
        assert!(data.cpu.rasexp[last] > 3.0, "RASExp CPU speedup {:.2}", data.cpu.rasexp[last]);

        // (b) The GPU's serial-averse profile keeps RASExp gains below the
        // CPU's.
        let glast = data.gpu.threads.len() - 1;
        assert!(
            data.gpu.rasexp[glast] < data.cpu.rasexp[last],
            "GPU should trail CPU: {:.2} vs {:.2}",
            data.gpu.rasexp[glast],
            data.cpu.rasexp[last]
        );

        // (c) RACOD wins the cross-platform comparison.
        let get = |l: &str| data.cross.iter().find(|&&(x, _)| x == l).map(|&(_, v)| v);
        let racod = get("RACOD (32 CODAccs)").unwrap();
        let xeon = get("xeon 32t + RASExp").unwrap();
        let gpu = get("gpu 128t + RASExp").unwrap();
        assert!(racod > xeon, "RACOD {racod:.1} must beat Xeon {xeon:.1}");
        assert!(xeon > gpu, "Xeon {xeon:.1} must beat the GPU {gpu:.1}");
        assert!(racod > 4.0, "RACOD end-to-end {racod:.1}");
        assert!(format!("{data}").contains("Figure 13"));
    }
}
