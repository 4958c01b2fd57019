//! Integer grid cells.
//!
//! A *cell* is an integer lattice coordinate of the occupancy grid. Cells use
//! `i64` so footprint enumeration can temporarily step outside the grid (the
//! accelerator short-circuits out-of-bounds configurations; see paper §3.1.2,
//! step 8) without wrap-around.

use crate::vec::{Vec2, Vec3};
use std::fmt;

/// A 2D grid cell coordinate.
///
/// # Example
///
/// ```
/// use racod_geom::{Cell2, Vec2};
/// let c = Cell2::from_point(Vec2::new(3.7, -0.2));
/// assert_eq!(c, Cell2::new(3, -1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cell2 {
    /// Column index.
    pub x: i64,
    /// Row index.
    pub y: i64,
}

impl Cell2 {
    /// Creates a cell from coordinates.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Cell2 { x, y }
    }

    /// The cell containing a continuous point (floor semantics).
    #[inline]
    pub fn from_point(p: Vec2) -> Self {
        Cell2 { x: p.x.floor() as i64, y: p.y.floor() as i64 }
    }

    /// The center of the cell in continuous coordinates.
    #[inline]
    pub fn center(self) -> Vec2 {
        Vec2::new(self.x as f32 + 0.5, self.y as f32 + 0.5)
    }

    /// Component-wise offset.
    #[inline]
    pub fn offset(self, dx: i64, dy: i64) -> Self {
        Cell2 { x: self.x + dx, y: self.y + dy }
    }

    /// Chebyshev (L∞) distance to another cell.
    #[inline]
    pub fn chebyshev(self, other: Cell2) -> i64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Manhattan (L1) distance to another cell.
    #[inline]
    pub fn manhattan(self, other: Cell2) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean distance to another cell.
    #[inline]
    pub fn euclidean(self, other: Cell2) -> f64 {
        let dx = (self.x - other.x) as f64;
        let dy = (self.y - other.y) as f64;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for Cell2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Cell2 {
    fn from((x, y): (i64, i64)) -> Self {
        Cell2::new(x, y)
    }
}

/// A 3D grid cell coordinate.
///
/// # Example
///
/// ```
/// use racod_geom::Cell3;
/// let c = Cell3::new(1, 2, 3);
/// assert_eq!(c.manhattan(Cell3::new(0, 0, 0)), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cell3 {
    /// Column index.
    pub x: i64,
    /// Row index.
    pub y: i64,
    /// Layer index.
    pub z: i64,
}

impl Cell3 {
    /// Creates a cell from coordinates.
    #[inline]
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        Cell3 { x, y, z }
    }

    /// The cell containing a continuous point (floor semantics).
    #[inline]
    pub fn from_point(p: Vec3) -> Self {
        Cell3 { x: p.x.floor() as i64, y: p.y.floor() as i64, z: p.z.floor() as i64 }
    }

    /// The center of the cell in continuous coordinates.
    #[inline]
    pub fn center(self) -> Vec3 {
        Vec3::new(self.x as f32 + 0.5, self.y as f32 + 0.5, self.z as f32 + 0.5)
    }

    /// Component-wise offset.
    #[inline]
    pub fn offset(self, dx: i64, dy: i64, dz: i64) -> Self {
        Cell3 { x: self.x + dx, y: self.y + dy, z: self.z + dz }
    }

    /// Chebyshev (L∞) distance to another cell.
    #[inline]
    pub fn chebyshev(self, other: Cell3) -> i64 {
        (self.x - other.x).abs().max((self.y - other.y).abs()).max((self.z - other.z).abs())
    }

    /// Manhattan (L1) distance to another cell.
    #[inline]
    pub fn manhattan(self, other: Cell3) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs() + (self.z - other.z).abs()
    }

    /// Euclidean distance to another cell.
    #[inline]
    pub fn euclidean(self, other: Cell3) -> f64 {
        let dx = (self.x - other.x) as f64;
        let dy = (self.y - other.y) as f64;
        let dz = (self.z - other.z) as f64;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Embeds a 2D cell at `z = 0`.
    #[inline]
    pub fn from_cell2(c: Cell2) -> Self {
        Cell3 { x: c.x, y: c.y, z: 0 }
    }

    /// Drops the z coordinate.
    #[inline]
    pub fn xy(self) -> Cell2 {
        Cell2 { x: self.x, y: self.y }
    }
}

impl fmt::Display for Cell3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<(i64, i64, i64)> for Cell3 {
    fn from((x, y, z): (i64, i64, i64)) -> Self {
        Cell3::new(x, y, z)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Cell2 {}
    impl Sealed for super::Cell3 {}
}

/// What the word-row grid layout needs to know about a cell. Sealed:
/// [`Cell2`] and [`Cell3`] are the only two.
///
/// Both dimensions store x-rows of `u64` words; a 2D grid is the `z = 0`
/// slice of a 3D one (the paper's HOBB runs 2D the same way, its idle z
/// registers extending y). So a cell is a column `x` inside a row — `y` in
/// 2D, `(z, y)` in 3D — and an *extent* is written as a cell whose
/// coordinates are the grid's sizes.
pub trait GridCell:
    sealed::Sealed + Copy + Eq + Ord + std::hash::Hash + fmt::Debug + Send + Sync + 'static
{
    /// The column.
    fn x(self) -> i64;
    /// The row the cell lies in, as `(z, y)`; `z` is 0 in 2D.
    fn row(self) -> (i64, i64);
    /// Component-wise sum: `self` translated by `by`.
    fn translate(self, by: Self) -> Self;
    /// The cell's row index in a grid of sizes `extent` (rows ordered by
    /// `z`, then `y`), or `None` if the cell lies outside the grid.
    fn row_in(self, extent: Self) -> Option<usize>;

    /// The canonical scan order: ascending `(z, y, x)`.
    #[inline]
    fn scan_key(self) -> ((i64, i64), i64) {
        (self.row(), self.x())
    }
}

impl GridCell for Cell2 {
    #[inline]
    fn x(self) -> i64 {
        self.x
    }
    #[inline]
    fn row(self) -> (i64, i64) {
        (0, self.y)
    }
    #[inline]
    fn translate(self, by: Cell2) -> Cell2 {
        self.offset(by.x, by.y)
    }
    #[inline]
    fn row_in(self, extent: Cell2) -> Option<usize> {
        let inside = self.x >= 0 && self.y >= 0 && self.x < extent.x && self.y < extent.y;
        inside.then_some(self.y as usize)
    }
}

impl GridCell for Cell3 {
    #[inline]
    fn x(self) -> i64 {
        self.x
    }
    #[inline]
    fn row(self) -> (i64, i64) {
        (self.z, self.y)
    }
    #[inline]
    fn translate(self, by: Cell3) -> Cell3 {
        self.offset(by.x, by.y, by.z)
    }
    #[inline]
    fn row_in(self, extent: Cell3) -> Option<usize> {
        let inside = self.x >= 0
            && self.y >= 0
            && self.z >= 0
            && self.x < extent.x
            && self.y < extent.y
            && self.z < extent.z;
        inside.then(|| (self.z * extent.y + self.y) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_point_floors_negatives() {
        assert_eq!(Cell2::from_point(Vec2::new(-0.1, 0.0)), Cell2::new(-1, 0));
        assert_eq!(Cell2::from_point(Vec2::new(2.999, 3.0)), Cell2::new(2, 3));
        assert_eq!(Cell3::from_point(Vec3::new(-1.5, 0.5, 2.0)), Cell3::new(-2, 0, 2));
    }

    #[test]
    fn center_is_inside_cell() {
        let c = Cell2::new(4, -2);
        assert_eq!(Cell2::from_point(c.center()), c);
        let c3 = Cell3::new(4, -2, 7);
        assert_eq!(Cell3::from_point(c3.center()), c3);
    }

    #[test]
    fn distances_2d() {
        let a = Cell2::new(0, 0);
        let b = Cell2::new(3, -4);
        assert_eq!(a.chebyshev(b), 4);
        assert_eq!(a.manhattan(b), 7);
        assert!((a.euclidean(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances_3d() {
        let a = Cell3::new(1, 1, 1);
        let b = Cell3::new(3, 4, 7);
        assert_eq!(a.chebyshev(b), 6);
        assert_eq!(a.manhattan(b), 11);
        assert!((a.euclidean(b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn offsets() {
        assert_eq!(Cell2::new(1, 1).offset(-2, 3), Cell2::new(-1, 4));
        assert_eq!(Cell3::new(0, 0, 0).offset(1, 2, 3), Cell3::new(1, 2, 3));
    }

    #[test]
    fn embedding_roundtrip() {
        let c = Cell2::new(5, 9);
        assert_eq!(Cell3::from_cell2(c).xy(), c);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Cell2::new(0, 5) < Cell2::new(1, 0));
        assert!(Cell3::new(1, 0, 0) < Cell3::new(1, 0, 1));
    }
}
