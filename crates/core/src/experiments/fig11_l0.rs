//! Figure 11: L0 cache hit ratio at different L0 sizes (§5.10).
//!
//! The L0's role is lifting bandwidth pressure from the core's L1; the
//! paper shows 256 B suffices to filter the majority of requests. We replay
//! real planning runs with the full RACOD pipeline and report the measured
//! aggregate L0 hit ratio per size.

use super::{random_pairs, Scale};
use racod_grid::gen::{city_map, CityName};
use racod_mem::CacheConfig;
use racod_sim::planner::{plan, Backend, Scenario2};
use racod_sim::CostModel;
use std::fmt;

/// The L0 sizes swept, in bytes.
pub const L0_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Figure 11 data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// `(size_bytes, aggregate hit ratio)` rows.
    pub rows: Vec<(usize, f64)>,
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 11: L0 hit ratio vs L0 size")?;
        for &(size, hr) in &self.rows {
            writeln!(f, "  {size:>5} B: {:>5.1}%", hr * 100.0)?;
        }
        Ok(())
    }
}

/// Runs the Figure 11 experiment.
pub fn fig11(scale: Scale) -> Fig11 {
    let size = scale.map_size();
    let grid = city_map(CityName::Shanghai, size, size);
    let pairs = random_pairs(&grid, scale.pairs_2d(), 0xF1611);
    let cost = CostModel::racod();

    let mut rows = Vec::new();
    for &bytes in &L0_SIZES {
        let mut hits = 0u64;
        let mut accesses = 0u64;
        for &(s, g) in &pairs {
            let sc = Scenario2::new(&grid).with_free_endpoints(s, g);
            let out = plan(
                &sc,
                Backend::Racod {
                    units: 8,
                    runahead: true,
                    latency: Default::default(),
                    l0: CacheConfig::l0_sized(bytes),
                },
                &cost,
            );
            if let Some(l0) = out.l0_stats {
                hits += l0.hits;
                accesses += l0.accesses();
            }
        }
        let ratio = if accesses == 0 { 0.0 } else { hits as f64 / accesses as f64 };
        rows.push((bytes, ratio));
    }
    Fig11 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_quick_shape() {
        let data = fig11(Scale::Quick);
        assert_eq!(data.rows.len(), L0_SIZES.len());
        // Hit ratio is monotonically non-decreasing in L0 size.
        for w in data.rows.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.02,
                "hit ratio regressed with size: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // A large L0 captures most of the footprint reuse.
        let last = data.rows.last().unwrap().1;
        let first = data.rows.first().unwrap().1;
        assert!(last > first, "size must matter: {first:.2} vs {last:.2}");
        assert!(format!("{data}").contains("Figure 11"));
    }
}
