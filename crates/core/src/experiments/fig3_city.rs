//! Figure 3: mobile robot navigating 2D city maps — RACOD speedup vs the
//! number of CODAcc accelerators, per city.
//!
//! Baseline: multithreaded software A* on the Core i3-8109U model (4
//! threads). For every map, random start/goal pairs are planned on the
//! baseline and on RACOD with each unit count; per-map speedups are
//! geometric means across pairs. The paper reports ≈1.5x with one CODAcc
//! and up to 41.4x with 32, similar normalized speedups across maps, and a
//! baseline collision-detection share of 67.3%.

use super::{geomean, random_pairs, Scale, UnitSweep};
use racod_grid::gen::{city_map, CityName};
use racod_sim::Scenario2;
use std::fmt;

/// One city's speedup series.
#[derive(Debug, Clone)]
pub struct CitySeries {
    /// The city.
    pub city: CityName,
    /// `(units, speedup over software baseline)` per swept unit count.
    pub speedups: Vec<(usize, f64)>,
    /// Speedup of a single CODAcc *without* RASExp (the §5.2 "pure
    /// hardware acceleration" point).
    pub one_unit_no_rasexp: f64,
    /// Number of start/goal pairs that produced valid plans.
    pub pairs: usize,
}

/// Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Per-city series.
    pub cities: Vec<CitySeries>,
    /// Share of baseline planning work spent in collision detection
    /// (stall + check compute on the critical path).
    pub baseline_collision_share: f64,
}

impl Fig3 {
    /// Geometric-mean speedup across cities at the largest unit count.
    pub fn headline_speedup(&self) -> f64 {
        let v: Vec<f64> =
            self.cities.iter().filter_map(|c| c.speedups.last().map(|&(_, s)| s)).collect();
        geomean(&v)
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: 2D city navigation speedup vs #CODAccs")?;
        write!(f, "{:<10}", "city")?;
        if let Some(first) = self.cities.first() {
            for &(u, _) in &first.speedups {
                write!(f, " {u:>7}u")?;
            }
        }
        writeln!(f, " {:>10}", "1u-noRAS")?;
        for c in &self.cities {
            write!(f, "{:<10}", c.city.as_str())?;
            for &(_, s) in &c.speedups {
                write!(f, " {s:>7.2}x")?;
            }
            writeln!(f, " {:>9.2}x", c.one_unit_no_rasexp)?;
        }
        writeln!(
            f,
            "baseline collision share: {:.1}%  (paper: 67.3%)",
            self.baseline_collision_share * 100.0
        )?;
        writeln!(
            f,
            "headline (32 units, geomean): {:.1}x  (paper: up to 41.4x)",
            self.headline_speedup()
        )
    }
}

/// Runs the Figure 3 experiment.
pub fn fig3(scale: Scale) -> Fig3 {
    let size = scale.map_size();
    let mut cities = Vec::new();
    let mut collision_shares = Vec::new();

    for city in CityName::ALL {
        let grid = city_map(city, size, size);
        let mut sweep = UnitSweep::new(scale);
        for (s, g) in random_pairs(&grid, scale.pairs_2d(), 0xF163 ^ pair_seed(city)) {
            sweep.add(&Scenario2::new(&grid).with_free_endpoints(s, g));
        }
        if sweep.solved() == 0 {
            continue;
        }
        cities.push(CitySeries {
            city,
            speedups: sweep.speedups(),
            one_unit_no_rasexp: sweep.one_unit_no_rasexp(),
            pairs: sweep.solved(),
        });
        collision_shares.extend(sweep.shares);
    }

    Fig3 {
        cities,
        baseline_collision_share: if collision_shares.is_empty() {
            0.0
        } else {
            collision_shares.iter().sum::<f64>() / collision_shares.len() as f64
        },
    }
}

/// A per-city offset mixed into the endpoint-pair seed.
fn pair_seed(city: CityName) -> u64 {
    match city {
        CityName::Boston => 11,
        CityName::Berlin => 22,
        CityName::Paris => 33,
        CityName::Shanghai => 44,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_shape() {
        let data = fig3(Scale::Quick);
        assert!(!data.cities.is_empty(), "at least one city must solve");
        for c in &data.cities {
            // Speedup grows from 1 unit to 32 units.
            let first = c.speedups.first().unwrap().1;
            let last = c.speedups.last().unwrap().1;
            assert!(last > first, "{}: {first:.2} -> {last:.2}", c.city);
            assert!(last > 4.0, "{}: 32-unit speedup too small: {last:.2}", c.city);
            // RASExp beats pure hardware acceleration.
            assert!(last > c.one_unit_no_rasexp);
        }
        assert!(data.baseline_collision_share > 0.5, "collision must dominate the baseline");
        let txt = format!("{data}");
        assert!(txt.contains("Figure 3"));
    }
}
