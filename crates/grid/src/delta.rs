//! Obstacle deltas for dynamic worlds.
//!
//! A static map is the degenerate case; real deployments watch obstacles
//! appear (a pallet set down), disappear (a door opened), and move (a
//! forklift crossing an aisle). This module gives the stack a first-class
//! vocabulary for those events:
//!
//! * [`GridDelta2`] — one obstacle event on a 2D grid;
//! * [`BitGrid2::apply_delta`] — in-place application, built on
//!   [`BitGrid2::set`] so the padding bits past `width` in each row's last
//!   word are never disturbed (the stability contract the u64/SIMD
//!   collision kernel's masked probes rely on);
//! * [`GridDelta2::cells`] — what a delta touches.
//!
//! Versioned, copy-on-write publication of a delta batch is the serving
//! layer's job (`racod_server::MapEntry::apply_deltas2`).

use crate::bitgrid2::BitGrid2;
use racod_geom::Cell2;

/// One obstacle event on a 2D occupancy grid.
///
/// Cells outside the grid are legitimate (a sensor may report an obstacle
/// beyond the mapped area); applying such a delta is a no-op for the
/// out-of-bounds part, exactly like [`BitGrid2::set`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridDelta2 {
    /// An obstacle appears: the cell becomes occupied.
    Appear {
        /// The cell that becomes occupied.
        cell: Cell2,
    },
    /// An obstacle disappears: the cell becomes free.
    Disappear {
        /// The cell that becomes free.
        cell: Cell2,
    },
    /// An obstacle moves one cell: `from` becomes free, `to` occupied.
    Move {
        /// The vacated cell.
        from: Cell2,
        /// The newly occupied cell.
        to: Cell2,
    },
}

impl GridDelta2 {
    /// The cells this delta touches (one or two).
    pub fn cells(&self) -> impl Iterator<Item = Cell2> {
        let pair = match *self {
            GridDelta2::Appear { cell } | GridDelta2::Disappear { cell } => [Some(cell), None],
            GridDelta2::Move { from, to } => [Some(from), Some(to)],
        };
        pair.into_iter().flatten()
    }
}

impl BitGrid2 {
    /// Applies one delta in place. Returns `true` if any in-bounds cell
    /// actually changed state (an `Appear` on an already-occupied cell, or
    /// any fully out-of-bounds delta, returns `false`).
    ///
    /// Built on [`BitGrid2::set`], so row padding bits keep whatever state
    /// the constructor gave them — the invariant the word-parallel
    /// collision kernel's edge-masked probes depend on.
    pub fn apply_delta(&mut self, delta: GridDelta2) -> bool {
        let mut changed = false;
        let mut write = |g: &mut BitGrid2, cell: Cell2, occupied: bool| {
            if g.get(cell) == Some(!occupied) {
                g.set(cell, occupied);
                changed = true;
            }
        };
        match delta {
            GridDelta2::Appear { cell } => write(self, cell, true),
            GridDelta2::Disappear { cell } => write(self, cell, false),
            GridDelta2::Move { from, to } => {
                write(self, from, false);
                write(self, to, true);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_delta_roundtrip() {
        let mut g = BitGrid2::new(32, 32);
        assert!(g.apply_delta(GridDelta2::Appear { cell: Cell2::new(3, 4) }));
        assert_eq!(g.get(Cell2::new(3, 4)), Some(true));
        assert!(g.apply_delta(GridDelta2::Move { from: Cell2::new(3, 4), to: Cell2::new(4, 4) }));
        assert_eq!(g.get(Cell2::new(3, 4)), Some(false));
        assert_eq!(g.get(Cell2::new(4, 4)), Some(true));
        assert!(g.apply_delta(GridDelta2::Disappear { cell: Cell2::new(4, 4) }));
        assert_eq!(g.count_occupied(), 0);
    }

    #[test]
    fn noop_and_out_of_bounds_deltas_report_unchanged() {
        let mut g = BitGrid2::new(8, 8);
        assert!(!g.apply_delta(GridDelta2::Disappear { cell: Cell2::new(2, 2) }));
        assert!(!g.apply_delta(GridDelta2::Appear { cell: Cell2::new(99, 0) }));
        g.set(Cell2::new(1, 1), true);
        assert!(!g.apply_delta(GridDelta2::Appear { cell: Cell2::new(1, 1) }));
    }
}
