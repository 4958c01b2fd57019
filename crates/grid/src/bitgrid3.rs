//! The 3D instantiation of the word-row grid (voxel map).

use crate::bitgrid::BitGrid;
use crate::Occupancy3;
use racod_geom::Cell3;
use std::fmt;

/// A 3D occupancy grid packed one bit per voxel into `u64` words.
///
/// Layout is row-major with x fastest, then y, then z — the natural layout
/// the paper's greedy scheduler exploits when prioritizing the x dimension
/// (§3.1.2). Rows (x extents) are word-aligned.
///
/// # Example
///
/// ```
/// use racod_grid::{BitGrid3, Occupancy3};
/// use racod_geom::Cell3;
///
/// let mut g = BitGrid3::new(32, 32, 16);
/// g.set(Cell3::new(1, 2, 3), true);
/// assert_eq!(g.occupied(Cell3::new(1, 2, 3)), Some(true));
/// ```
pub type BitGrid3 = BitGrid<Cell3>;

impl BitGrid3 {
    /// Creates an all-free voxel grid.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(size_x: u32, size_y: u32, size_z: u32) -> Self {
        assert!(size_x > 0 && size_y > 0 && size_z > 0, "grid dimensions must be positive");
        let extent = Cell3::new(size_x as i64, size_y as i64, size_z as i64);
        BitGrid::blank(extent, size_y as usize * size_z as usize)
    }

    /// Fills an axis-aligned box (inclusive corners, clamped to the grid).
    #[allow(clippy::too_many_arguments)]
    pub fn fill_box(
        &mut self,
        x0: i64,
        y0: i64,
        z0: i64,
        x1: i64,
        y1: i64,
        z1: i64,
        occupied: bool,
    ) {
        let x0 = x0.max(0);
        let y0 = y0.max(0);
        let z0 = z0.max(0);
        let x1 = x1.min(self.size_x() as i64 - 1);
        let y1 = y1.min(self.size_y() as i64 - 1);
        let z1 = z1.min(self.size_z() as i64 - 1);
        for z in z0..=z1 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    self.set(Cell3::new(x, y, z), occupied);
                }
            }
        }
    }
}

impl Occupancy3 for BitGrid3 {
    fn size_x(&self) -> u32 {
        self.extent().x as u32
    }

    fn size_y(&self) -> u32 {
        self.extent().y as u32
    }

    fn size_z(&self) -> u32 {
        self.extent().z as u32
    }

    fn occupied(&self, cell: Cell3) -> Option<bool> {
        self.get(cell)
    }
}

impl fmt::Display for BitGrid3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitGrid3({} x {} x {}, {:.1}% occupied)",
            self.size_x(),
            self.size_y(),
            self.size_z(),
            self.occupancy_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_free() {
        let g = BitGrid3::new(10, 11, 12);
        assert_eq!(g.count_occupied(), 0);
        assert_eq!(g.get(Cell3::new(9, 10, 11)), Some(false));
    }

    #[test]
    fn out_of_bounds_is_none() {
        let g = BitGrid3::new(4, 4, 4);
        assert_eq!(g.get(Cell3::new(4, 0, 0)), None);
        assert_eq!(g.get(Cell3::new(0, 4, 0)), None);
        assert_eq!(g.get(Cell3::new(0, 0, 4)), None);
        assert_eq!(g.get(Cell3::new(-1, 0, 0)), None);
    }

    #[test]
    fn set_roundtrip_across_words() {
        let mut g = BitGrid3::new(130, 3, 3);
        for c in [Cell3::new(0, 0, 0), Cell3::new(65, 1, 1), Cell3::new(129, 2, 2)] {
            assert!(g.set(c, true));
            assert_eq!(g.get(c), Some(true));
        }
        assert_eq!(g.count_occupied(), 3);
    }

    #[test]
    fn fill_box_counts() {
        let mut g = BitGrid3::new(8, 8, 8);
        g.fill_box(1, 1, 1, 3, 3, 3, true);
        assert_eq!(g.count_occupied(), 27);
        g.fill_box(2, 2, 2, 2, 2, 2, false);
        assert_eq!(g.count_occupied(), 26);
    }

    #[test]
    fn fill_box_clamps() {
        let mut g = BitGrid3::new(4, 4, 4);
        g.fill_box(-10, -10, -10, 100, 100, 0, true);
        assert_eq!(g.count_occupied(), 16); // one full z layer
    }

    #[test]
    fn addresses_increase_with_z_then_y() {
        let g = BitGrid3::new(64, 4, 4);
        let a = g.cell_addr(Cell3::new(0, 0, 0)).unwrap();
        let ay = g.cell_addr(Cell3::new(0, 1, 0)).unwrap();
        let az = g.cell_addr(Cell3::new(0, 0, 1)).unwrap();
        assert_eq!(ay - a, 8); // one row = one word for x=64
        assert_eq!(az - a, 32); // one layer = 4 rows
    }

    #[test]
    fn x_neighbors_share_word_address() {
        let g = BitGrid3::new(128, 2, 2);
        let a = g.cell_addr(Cell3::new(3, 1, 1)).unwrap();
        let b = g.cell_addr(Cell3::new(4, 1, 1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_ratio_works() {
        let mut g = BitGrid3::new(4, 4, 4);
        g.fill_box(0, 0, 0, 3, 3, 1, true);
        assert!((g.occupancy_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = BitGrid3::new(3, 0, 3);
    }
}
