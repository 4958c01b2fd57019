//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§5–§6).
//!
//! Each submodule corresponds to one table/figure, returns a plain data
//! struct, and can render itself as an aligned text table — the same rows
//! and series the paper plots. The `figures` binary in `racod-bench` calls
//! these; the integration tests assert their qualitative shapes.
//!
//! All experiments accept a [`Scale`]: `Quick` shrinks maps and pair counts
//! for CI, `Full` approaches the paper's workload sizes.

pub mod ablations;
pub mod fig10_heuristics;
pub mod fig11_l0;
pub mod fig12_throttle;
pub mod fig13_platforms;
pub mod fig3_city;
pub mod fig4_footprint;
pub mod fig5_drone;
pub mod fig6_arm;
pub mod fig7_comm;
pub mod fig8_prediction;
pub mod fig9_labor;
pub mod table2_codacc;

pub use ablations::{ablations, Ablations};
pub use fig10_heuristics::{fig10, Fig10};
pub use fig11_l0::{fig11, Fig11};
pub use fig12_throttle::{fig12, Fig12};
pub use fig13_platforms::{fig13, Fig13};
pub use fig3_city::{fig3, Fig3};
pub use fig4_footprint::{fig4, Fig4};
pub use fig5_drone::{fig5, Fig5};
pub use fig6_arm::{fig6, Fig6};
pub use fig7_comm::{fig7, Fig7};
pub use fig8_prediction::{fig8, Fig8};
pub use fig9_labor::{fig9, Fig9};
pub use table2_codacc::table2;

use racod_geom::Cell2;
use racod_grid::gen::random_free_cell;
use racod_grid::{BitGrid2, Occupancy2};
use racod_mem::CacheConfig;
use racod_sim::{plan, Backend, CostModel, Dim, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small maps and few endpoint pairs — seconds per figure, used by the
    /// integration tests.
    Quick,
    /// Paper-approaching workloads — used by the `figures` binary and the
    /// Criterion benches.
    Full,
}

impl Scale {
    /// 2D map edge length in cells.
    pub fn map_size(self) -> u32 {
        match self {
            Scale::Quick => 256,
            Scale::Full => 512,
        }
    }

    /// Number of random start/goal pairs per 2D map (the paper uses 100).
    pub fn pairs_2d(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 10,
        }
    }

    /// Number of random pairs in 3D (the paper uses 10).
    pub fn pairs_3d(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 5,
        }
    }

    /// 3D map dimensions.
    pub fn map_size_3d(self) -> (u32, u32, u32) {
        match self {
            Scale::Quick => (64, 64, 24),
            Scale::Full => (128, 128, 32),
        }
    }

    /// Accelerator counts swept in the unit-scaling figures.
    pub fn unit_sweep(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[1, 4, 32],
            Scale::Full => &[1, 2, 4, 8, 16, 32],
        }
    }
}

/// Geometric mean of a non-empty slice (speedups are always aggregated
/// geometrically).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Figures 3 and 5's measurement of one scenario after another, once for
/// both robots: RACOD at every swept unit count, and one CODAcc without
/// RASExp (the §5.2 "pure hardware acceleration" point), each as a speedup
/// over the 4-thread software baseline on the Core i3 model.
#[derive(Debug)]
pub(crate) struct UnitSweep {
    units: &'static [usize],
    per_unit: Vec<Vec<f64>>,
    no_ras: Vec<f64>,
    /// Each solved scenario's baseline collision-stall share.
    pub shares: Vec<f64>,
}

impl UnitSweep {
    /// An empty sweep over `scale`'s unit counts.
    pub fn new(scale: Scale) -> Self {
        let units = scale.unit_sweep();
        UnitSweep { units, per_unit: vec![Vec::new(); units.len()], no_ras: vec![], shares: vec![] }
    }

    /// Measures `sc`, unless the baseline finds no path.
    pub fn add<D: Dim>(&mut self, sc: &Scenario<'_, D>) {
        let racod_cost = CostModel::racod();
        let software = Backend::software(4, None);
        let base = plan(sc, software, &CostModel::i3_software());
        if !base.result.found() {
            return;
        }
        let speedup = |backend| {
            let racod = plan(sc, backend, &racod_cost);
            debug_assert_eq!(racod.result.path, base.result.path);
            base.cycles as f64 / racod.cycles.max(1) as f64
        };
        for (series, &units) in self.per_unit.iter_mut().zip(self.units) {
            series.push(speedup(Backend::racod(units)));
        }
        self.no_ras.push(speedup(Backend::Racod {
            units: 1,
            runahead: false,
            latency: Default::default(),
            l0: CacheConfig::l0_default(),
        }));
        self.shares.push(base.timing.stall_cycles as f64 / base.timing.cycles.max(1) as f64);
    }

    /// Scenarios measured so far.
    pub fn solved(&self) -> usize {
        self.no_ras.len()
    }

    /// `(units, geomean speedup)` per swept unit count.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        self.units.iter().zip(&self.per_unit).map(|(&u, v)| (u, geomean(v))).collect()
    }

    /// Geomean speedup of one CODAcc without RASExp.
    pub fn one_unit_no_rasexp(&self) -> f64 {
        geomean(&self.no_ras)
    }
}

/// Draws `n` random start/goal pairs of free cells at least a quarter of
/// the map apart, deterministically per seed.
///
/// Pairs are restricted to the same 8-connected free component, so a
/// generated map with isolated free pockets (e.g. a plaza fully enclosed by
/// a building block) never yields a trivially unsolvable episode.
pub fn random_pairs(grid: &BitGrid2, n: usize, seed: u64) -> Vec<(Cell2, Cell2)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let min_dist = (Occupancy2::width(grid).min(Occupancy2::height(grid)) / 4) as f64;
    let labels = free_component_labels(grid);
    let label = |c: Cell2| labels[c.y as usize * Occupancy2::width(grid) as usize + c.x as usize];
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < 10_000 {
        guard += 1;
        let (Some(a), Some(b)) =
            (random_free_cell(grid, &mut rng), random_free_cell(grid, &mut rng))
        else {
            break;
        };
        if a.euclidean(b) >= min_dist && label(a) == label(b) {
            out.push((a, b));
        }
    }
    out
}

/// Labels each free cell with its 8-connected component id (occupied cells
/// get `u32::MAX`).
fn free_component_labels(grid: &BitGrid2) -> Vec<u32> {
    let (w, h) = (Occupancy2::width(grid) as i64, Occupancy2::height(grid) as i64);
    let mut labels = vec![u32::MAX; (w * h) as usize];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let idx = (y * w + x) as usize;
            if labels[idx] != u32::MAX || grid.get(Cell2::new(x, y)) != Some(false) {
                continue;
            }
            labels[idx] = next;
            stack.push((x, y));
            while let Some((cx, cy)) = stack.pop() {
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        let (nx, ny) = (cx + dx, cy + dy);
                        if nx < 0 || ny < 0 || nx >= w || ny >= h {
                            continue;
                        }
                        let nidx = (ny * w + nx) as usize;
                        if labels[nidx] == u32::MAX && grid.get(Cell2::new(nx, ny)) == Some(false) {
                            labels[nidx] = next;
                            stack.push((nx, ny));
                        }
                    }
                }
            }
            next += 1;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_grid::gen::{city_map, CityName};

    #[test]
    fn geomean_of_uniform_is_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixes_multiplicatively() {
        assert!((geomean(&[1.0, 16.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn random_pairs_are_free_and_far() {
        let grid = city_map(CityName::Boston, 256, 256);
        let pairs = random_pairs(&grid, 5, 3);
        assert_eq!(pairs.len(), 5);
        for (a, b) in pairs {
            assert!(a.euclidean(b) >= 64.0);
        }
    }

    #[test]
    fn random_pairs_deterministic() {
        let grid = city_map(CityName::Paris, 256, 256);
        assert_eq!(random_pairs(&grid, 3, 9), random_pairs(&grid, 3, 9));
    }

    #[test]
    fn scale_parameters() {
        assert!(Scale::Full.map_size() > Scale::Quick.map_size());
        assert!(Scale::Full.pairs_2d() > Scale::Quick.pairs_2d());
        assert!(Scale::Quick.unit_sweep().contains(&32));
    }
}
