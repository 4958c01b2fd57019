//! Software reference collision checker.
//!
//! Enumerates the same sample lattice the HOBB registers map onto, reads the
//! grid cell by cell, and early-exits on the first occupied cell. This is
//! both the correctness oracle for the accelerator model and the *software
//! baseline* whose per-check work (cells inspected) feeds the timing
//! simulator's software cost model.

use crate::unit::Verdict;
use racod_geom::{Obb2, Obb3};
use racod_grid::{Occupancy2, Occupancy3};

/// Result of a software check: the verdict plus the work performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareCheck {
    /// The collision verdict.
    pub verdict: Verdict,
    /// Number of cells inspected before the verdict was reached (early exit
    /// on the first occupied or out-of-range cell).
    pub cells_checked: usize,
    /// Total number of cells in the footprint.
    pub cells_total: usize,
}

/// The one early-exit cell walk: probes `cells` in order and stops at the
/// first out-of-range (`Invalid`) or occupied (`Collision`) one. Every
/// cell-by-cell checker — the OBB baselines here and the template oracle
/// ([`crate::template_check_scalar`]) — is this walk over its cell list.
pub(crate) fn walk_cells<C: Copy>(
    cells: &[C],
    occupied: impl Fn(C) -> Option<bool>,
) -> SoftwareCheck {
    let at =
        |verdict, cells_checked| SoftwareCheck { verdict, cells_checked, cells_total: cells.len() };
    for (i, &c) in cells.iter().enumerate() {
        match occupied(c) {
            None => return at(Verdict::Invalid, i + 1),
            Some(true) => return at(Verdict::Collision, i + 1),
            Some(false) => {}
        }
    }
    at(Verdict::Free, cells.len())
}

/// Checks a 2D OBB against a grid in software.
///
/// # Example
///
/// ```
/// use racod_codacc::{software_check_2d, Verdict};
/// use racod_grid::BitGrid2;
/// use racod_geom::{Obb2, Vec2, Rotation2};
///
/// let grid = BitGrid2::new(32, 32);
/// let obb = Obb2::new(Vec2::new(5.0, 5.0), 3.0, 2.0, Rotation2::IDENTITY);
/// assert_eq!(software_check_2d(&grid, &obb).verdict, Verdict::Free);
/// ```
pub fn software_check_2d<G: Occupancy2>(grid: &G, obb: &Obb2) -> SoftwareCheck {
    walk_cells(&obb.sample_cells(), |c| grid.occupied(c))
}

/// Checks a 3D OBB against a voxel grid in software.
pub fn software_check_3d<G: Occupancy3>(grid: &G, obb: &Obb3) -> SoftwareCheck {
    walk_cells(&obb.sample_cells(), |c| grid.occupied(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::{Cell2, Cell3, Rotation2, Rotation3, Vec2, Vec3};
    use racod_grid::{BitGrid2, BitGrid3};

    #[test]
    fn free_space_is_free() {
        let grid = BitGrid2::new(32, 32);
        let obb = Obb2::new(Vec2::new(10.0, 10.0), 5.0, 3.0, Rotation2::from_angle(0.4));
        let out = software_check_2d(&grid, &obb);
        assert_eq!(out.verdict, Verdict::Free);
        assert_eq!(out.cells_checked, out.cells_total);
    }

    #[test]
    fn obstacle_collides_with_early_exit() {
        let mut grid = BitGrid2::new(32, 32);
        grid.set(Cell2::new(11, 10), true);
        let obb = Obb2::axis_aligned(Vec2::new(10.2, 10.2), 4.0, 2.0);
        let out = software_check_2d(&grid, &obb);
        assert_eq!(out.verdict, Verdict::Collision);
        assert!(out.cells_checked < out.cells_total, "early exit expected");
    }

    #[test]
    fn out_of_bounds_is_invalid() {
        let grid = BitGrid2::new(16, 16);
        let obb = Obb2::axis_aligned(Vec2::new(14.0, 14.0), 5.0, 5.0);
        assert_eq!(software_check_2d(&grid, &obb).verdict, Verdict::Invalid);
    }

    #[test]
    fn negative_coordinates_are_invalid() {
        let grid = BitGrid2::new(16, 16);
        let obb = Obb2::axis_aligned(Vec2::new(-1.0, 2.0), 3.0, 2.0);
        assert_eq!(software_check_2d(&grid, &obb).verdict, Verdict::Invalid);
    }

    #[test]
    fn rotated_check_respects_orientation() {
        let mut grid = BitGrid2::new(32, 32);
        // Obstacle just above a horizontal 6x1 box anchored at (10, 10).
        grid.set(Cell2::new(10, 13), true);
        let flat = Obb2::axis_aligned(Vec2::new(10.1, 10.1), 6.0, 1.0);
        assert_eq!(software_check_2d(&grid, &flat).verdict, Verdict::Free);
        // Rotate the box to vertical: now it crosses the obstacle.
        let upright = Obb2::new(
            Vec2::new(10.1, 10.1),
            6.0,
            1.0,
            Rotation2::from_angle(std::f32::consts::FRAC_PI_2),
        );
        assert_eq!(software_check_2d(&grid, &upright).verdict, Verdict::Collision);
    }

    #[test]
    fn check_3d_free_and_collision() {
        let mut grid = BitGrid3::new(16, 16, 16);
        let obb = Obb3::new(Vec3::new(4.0, 4.0, 4.0), 4.0, 2.0, 2.0, Rotation3::identity());
        assert_eq!(software_check_3d(&grid, &obb).verdict, Verdict::Free);
        grid.set(Cell3::new(5, 5, 5), true);
        assert_eq!(software_check_3d(&grid, &obb).verdict, Verdict::Collision);
    }

    #[test]
    fn check_3d_out_of_bounds() {
        let grid = BitGrid3::new(8, 8, 8);
        let obb = Obb3::axis_aligned(Vec3::new(6.0, 6.0, 6.0), 4.0, 1.0, 1.0);
        assert_eq!(software_check_3d(&grid, &obb).verdict, Verdict::Invalid);
    }
}
