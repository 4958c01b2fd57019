//! The 2D instantiation of the word-row grid.

use crate::bitgrid::BitGrid;
use crate::Occupancy2;
use racod_geom::Cell2;
use std::fmt;

/// A 2D occupancy grid: one bit per cell, row-major `u64` words.
///
/// # Example
///
/// ```
/// use racod_grid::{BitGrid2, Occupancy2};
/// use racod_geom::Cell2;
///
/// let mut g = BitGrid2::new(100, 50);
/// assert_eq!(g.occupied(Cell2::new(10, 10)), Some(false));
/// g.set(Cell2::new(10, 10), true);
/// assert_eq!(g.occupied(Cell2::new(10, 10)), Some(true));
/// ```
pub type BitGrid2 = BitGrid<Cell2>;

impl BitGrid2 {
    /// Creates an all-free grid of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        BitGrid::blank(Cell2::new(width as i64, height as i64), height as usize)
    }

    /// Creates an all-occupied grid (padding bits included).
    pub fn filled(width: u32, height: u32) -> Self {
        let mut g = BitGrid2::new(width, height);
        g.words.fill(u64::MAX);
        g
    }

    /// Fills the axis-aligned rectangle `[x0, x1] x [y0, y1]` (inclusive,
    /// clamped to the grid) with the given occupancy.
    pub fn fill_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, occupied: bool) {
        let x0 = x0.max(0);
        let y0 = y0.max(0);
        let x1 = x1.min(self.width() as i64 - 1);
        let y1 = y1.min(self.height() as i64 - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                self.set(Cell2::new(x, y), occupied);
            }
        }
    }

    /// Iterates over all cells, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (Cell2, bool)> + '_ {
        (0..self.height() as i64).flat_map(move |y| {
            (0..self.width() as i64).map(move |x| {
                let c = Cell2::new(x, y);
                (c, self.get(c).expect("in bounds by construction"))
            })
        })
    }
}

impl Occupancy2 for BitGrid2 {
    fn width(&self) -> u32 {
        self.extent().x as u32
    }

    fn height(&self) -> u32 {
        self.extent().y as u32
    }

    fn occupied(&self, cell: Cell2) -> Option<bool> {
        self.get(cell)
    }
}

impl fmt::Display for BitGrid2 {
    /// Renders the grid as `.` (free) / `#` (occupied) rows, top row first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in (0..self.height() as i64).rev() {
            for x in 0..self.width() as i64 {
                let ch = if self.get(Cell2::new(x, y)).unwrap_or(true) { '#' } else { '.' };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_free() {
        let g = BitGrid2::new(40, 30);
        assert_eq!(g.count_occupied(), 0);
        assert_eq!(g.get(Cell2::new(0, 0)), Some(false));
        assert_eq!(g.get(Cell2::new(39, 29)), Some(false));
    }

    #[test]
    fn filled_grid_is_occupied() {
        let g = BitGrid2::filled(65, 3);
        assert_eq!(g.get(Cell2::new(64, 2)), Some(true));
        assert!(g.iter().all(|(_, o)| o));
        // `filled` sets padding bits too; the masked count must not see them.
        assert_eq!(g.count_occupied(), 65 * 3);
    }

    #[test]
    fn out_of_bounds_is_none() {
        let g = BitGrid2::new(10, 10);
        assert_eq!(g.get(Cell2::new(-1, 0)), None);
        assert_eq!(g.get(Cell2::new(0, -1)), None);
        assert_eq!(g.get(Cell2::new(10, 0)), None);
        assert_eq!(g.get(Cell2::new(0, 10)), None);
    }

    #[test]
    fn set_and_clear_roundtrip() {
        let mut g = BitGrid2::new(130, 5);
        let c = Cell2::new(65, 4); // crosses a word boundary within the row
        assert!(g.set(c, true));
        assert_eq!(g.get(c), Some(true));
        assert!(g.set(c, false));
        assert_eq!(g.get(c), Some(false));
    }

    #[test]
    fn set_out_of_bounds_returns_false() {
        let mut g = BitGrid2::new(4, 4);
        assert!(!g.set(Cell2::new(4, 0), true));
        assert_eq!(g.count_occupied(), 0);
    }

    #[test]
    fn neighbors_do_not_interfere() {
        let mut g = BitGrid2::new(128, 2);
        g.set(Cell2::new(63, 0), true);
        assert_eq!(g.get(Cell2::new(62, 0)), Some(false));
        assert_eq!(g.get(Cell2::new(64, 0)), Some(false));
        assert_eq!(g.get(Cell2::new(63, 1)), Some(false));
    }

    #[test]
    fn fill_rect_clamps() {
        let mut g = BitGrid2::new(10, 10);
        g.fill_rect(-5, -5, 2, 2, true);
        assert_eq!(g.count_occupied(), 9);
        g.fill_rect(8, 8, 20, 20, true);
        assert_eq!(g.count_occupied(), 9 + 4);
    }

    #[test]
    fn addresses_are_word_granular() {
        let g = BitGrid2::new(128, 4);
        let a0 = g.cell_addr(Cell2::new(0, 0)).unwrap();
        let a63 = g.cell_addr(Cell2::new(63, 0)).unwrap();
        let a64 = g.cell_addr(Cell2::new(64, 0)).unwrap();
        assert_eq!(a0, a63, "cells in the same word share an address");
        assert_eq!(a64, a0 + 8, "next word is 8 bytes on");
        assert_eq!(g.cell_addr(Cell2::new(128, 0)), None);
    }

    #[test]
    fn row_addressing_is_word_aligned() {
        // width 72 → 2 words per row.
        let g = BitGrid2::new(72, 3);
        let row0 = g.cell_addr(Cell2::new(0, 0)).unwrap();
        let row1 = g.cell_addr(Cell2::new(0, 1)).unwrap();
        assert_eq!(row1 - row0, 16);
        assert_eq!(g.storage_bytes(), 2 * 8 * 3);
    }

    #[test]
    fn base_addr_is_settable() {
        let mut g = BitGrid2::new(8, 8);
        g.set_base_addr(0x4000);
        assert_eq!(g.base_addr(), 0x4000);
        assert_eq!(g.cell_addr(Cell2::new(0, 0)), Some(0x4000));
    }

    #[test]
    fn occupancy_ratio() {
        let mut g = BitGrid2::new(10, 10);
        g.fill_rect(0, 0, 4, 9, true); // 50 cells
        assert!((g.occupancy_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_all_cells() {
        let g = BitGrid2::new(7, 3);
        assert_eq!(g.iter().count(), 21);
    }

    #[test]
    fn display_dimensions() {
        let g = BitGrid2::new(5, 2);
        let s = format!("{g}");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.len() == 5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = BitGrid2::new(0, 5);
    }
}
