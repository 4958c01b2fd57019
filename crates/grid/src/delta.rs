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
//! * [`affected_cells`] — the Chebyshev-dilated set of cells a delta batch
//!   can influence, used to decide whether cached work (a prior search, a
//!   memoized verdict) survives the delta.
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

    /// Whether every cell this delta touches only ever *gains* occupancy.
    /// An appear-only batch can never make an infeasible plan feasible, so
    /// a path that avoids the touched cells stays valid and optimal.
    pub fn is_appear_only(&self) -> bool {
        matches!(self, GridDelta2::Appear { .. })
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

/// The Chebyshev dilation of a delta batch: every cell within `radius` (in
/// the L∞ metric) of a touched cell, deduplicated and sorted row-major.
///
/// A footprint whose circumradius is at most `radius` cells cannot collide
/// with a changed cell unless its center lies in this set — which makes
/// the set the exact reuse test for per-state cached work: a prior
/// search's demand state, or a memoized verdict's center cell, is
/// unaffected by the batch iff it is not in this set.
pub fn affected_cells(deltas: &[GridDelta2], radius: i64) -> Vec<Cell2> {
    let radius = radius.max(0);
    let mut out = Vec::new();
    for d in deltas {
        for c in d.cells() {
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    out.push(c.offset(dx, dy));
                }
            }
        }
    }
    out.sort_unstable_by_key(|c| (c.y, c.x));
    out.dedup();
    out
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

    #[test]
    fn affected_cells_dilate_and_dedup() {
        let deltas = [
            GridDelta2::Appear { cell: Cell2::new(5, 5) },
            GridDelta2::Appear { cell: Cell2::new(6, 5) }, // overlapping neighborhood
        ];
        let cells = affected_cells(&deltas, 1);
        // Two overlapping 3x3 neighborhoods = 3 rows x 4 columns.
        assert_eq!(cells.len(), 12);
        let mut sorted = cells.clone();
        sorted.sort_unstable_by_key(|c| (c.y, c.x));
        assert_eq!(cells, sorted, "row-major sorted");
        assert!(cells.contains(&Cell2::new(4, 4)));
        assert!(cells.contains(&Cell2::new(7, 6)));
    }
}
