#![warn(missing_docs)]

//! Occupancy grids, map formats, and environment generators.
//!
//! The paper's planners consume a bit-packed occupancy grid produced by the
//! robot's perception unit (§2.1): `'0'` means free, `'1'` means occupied.
//! The grid is stored in `u64` words, one bit per cell, in word-aligned
//! x-rows — exactly the memory-layout optimization described in §3.1.2 — in
//! one layout for both dimensions ([`BitGrid`], keyed by
//! [`racod_geom::GridCell`]; 2D is the `z = 0` slice of 3D). It exposes
//! *byte addresses* for each cell so the cache models in `racod-mem` and the
//! CODAcc reduction unit can operate on real address streams.
//!
//! The crate also provides:
//!
//! * a [Moving AI `.map`](https://movingai.com/benchmarks/) parser/writer
//!   ([`io`]), so real city snapshots drop in when available;
//! * deterministic synthetic generators ([`gen`]) for city-like 2D maps,
//!   random-obstacle fields, indoor room layouts, and a 3D campus — the
//!   substitutes for the Moving AI and OctoMap datasets documented in
//!   DESIGN.md.
//!
//! # Example
//!
//! ```
//! use racod_grid::BitGrid2;
//! use racod_geom::Cell2;
//!
//! let mut g = BitGrid2::new(64, 64);
//! g.set(Cell2::new(3, 4), true);
//! assert_eq!(g.get(Cell2::new(3, 4)), Some(true));
//! assert_eq!(g.get(Cell2::new(99, 0)), None); // out of bounds
//! ```

pub mod bitgrid;
pub mod bitgrid2;
pub mod bitgrid3;
pub mod delta;
pub mod gen;
pub mod inflate;
pub mod io;

pub use bitgrid::BitGrid;
pub use bitgrid2::BitGrid2;
pub use bitgrid3::BitGrid3;
pub use delta::{affected_cells, GridDelta2};

use racod_geom::{Cell2, Cell3};

/// Read access to a 2D occupancy grid.
///
/// Implemented by [`BitGrid2`]; planners and collision checkers are generic
/// over this trait so alternative storage (e.g. memory-mapped maps) can be
/// swapped in.
pub trait Occupancy2 {
    /// Grid width in cells.
    fn width(&self) -> u32;
    /// Grid height in cells.
    fn height(&self) -> u32;
    /// Occupancy of `cell`: `Some(true)` if occupied, `Some(false)` if free,
    /// `None` if the cell is outside the grid.
    fn occupied(&self, cell: Cell2) -> Option<bool>;

    /// Whether the cell lies inside the grid.
    fn in_bounds(&self, cell: Cell2) -> bool {
        cell.x >= 0
            && cell.y >= 0
            && (cell.x as u64) < self.width() as u64
            && (cell.y as u64) < self.height() as u64
    }
}

/// Read access to a 3D occupancy grid.
pub trait Occupancy3 {
    /// Grid extent in x.
    fn size_x(&self) -> u32;
    /// Grid extent in y.
    fn size_y(&self) -> u32;
    /// Grid extent in z.
    fn size_z(&self) -> u32;
    /// Occupancy of `cell`, or `None` out of bounds.
    fn occupied(&self, cell: Cell3) -> Option<bool>;

    /// Whether the cell lies inside the grid.
    fn in_bounds(&self, cell: Cell3) -> bool {
        cell.x >= 0
            && cell.y >= 0
            && cell.z >= 0
            && (cell.x as u64) < self.size_x() as u64
            && (cell.y as u64) < self.size_y() as u64
            && (cell.z as u64) < self.size_z() as u64
    }
}
