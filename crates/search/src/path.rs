//! Canonical path costs.
//!
//! A float cost summed edge by edge depends on the order of the additions,
//! so two optimal paths between the same endpoints need not share its
//! bits. On a king-move grid the integer step counts of a path are a
//! canonical form of its cost; the functions here compute them and the
//! cost re-summed from them, the comparison key of every suite that lets
//! the engine pick a different equal-cost path.

use crate::heuristics::{SQRT2, SQRT3};
use racod_geom::{Cell2, Cell3};

/// Straight/diagonal step counts of a 2D grid path, or `None` when any
/// hop is not a unit king move (the path did not come from an 8-connected
/// grid search).
///
/// On an 8-connected grid every path cost is `a·1 + b·√2` with integer
/// `(a, b)`; since 1 and √2 are rationally independent, equal costs have
/// equal step counts — the counts are a *canonical* form of the cost that
/// is exact where float sums are not.
pub fn canonical_steps_2d(path: &[Cell2]) -> Option<(u64, u64)> {
    let mut straight = 0u64;
    let mut diagonal = 0u64;
    for w in path.windows(2) {
        let (dx, dy) = ((w[1].x - w[0].x).abs(), (w[1].y - w[0].y).abs());
        match (dx, dy) {
            (1, 0) | (0, 1) => straight += 1,
            (1, 1) => diagonal += 1,
            _ => return None,
        }
    }
    Some((straight, diagonal))
}

/// The canonical re-summed cost of a 2D grid path: `straight + diagonal ·
/// √2` computed from the integer step counts of
/// [`canonical_steps_2d`]. Any two optimal paths between the same
/// endpoints have the *same* step counts, so this value is bit-identical
/// across them — the comparison key of the ALT equivalence suite, which
/// cannot use path cells (a stronger heuristic legitimately picks a
/// different equal-cost path).
pub fn canonical_cost_2d(path: &[Cell2]) -> Option<f64> {
    canonical_steps_2d(path).map(|(s, d)| s as f64 + d as f64 * SQRT2)
}

/// Axis/face-diagonal/space-diagonal step counts of a 3D grid path, or
/// `None` when any hop is not a unit 26-connected move.
pub fn canonical_steps_3d(path: &[Cell3]) -> Option<(u64, u64, u64)> {
    let mut counts = [0u64; 3];
    for w in path.windows(2) {
        let nd = (w[1].x - w[0].x).abs() + (w[1].y - w[0].y).abs() + (w[1].z - w[0].z).abs();
        let unit = (w[1].x - w[0].x).abs() <= 1
            && (w[1].y - w[0].y).abs() <= 1
            && (w[1].z - w[0].z).abs() <= 1;
        if !unit || !(1..=3).contains(&nd) {
            return None;
        }
        counts[(nd - 1) as usize] += 1;
    }
    Some((counts[0], counts[1], counts[2]))
}

/// The canonical re-summed cost of a 3D grid path: `a + b·√2 + c·√3` from
/// the integer step counts (1, √2, √3 are rationally independent, so the
/// counts — hence this sum — are unique per optimal cost).
pub fn canonical_cost_3d(path: &[Cell3]) -> Option<f64> {
    canonical_steps_3d(path).map(|(a, b, c)| a as f64 + b as f64 * SQRT2 + c as f64 * SQRT3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_steps_count_moves() {
        let p = [Cell2::new(0, 0), Cell2::new(1, 0), Cell2::new(2, 1), Cell2::new(2, 2)];
        assert_eq!(canonical_steps_2d(&p), Some((2, 1)));
        let c = canonical_cost_2d(&p).unwrap();
        assert_eq!(c.to_bits(), (2.0 + SQRT2).to_bits(), "canonical sum is bit-stable");
        // Empty and single-cell paths have zero cost.
        assert_eq!(canonical_cost_2d(&[]), Some(0.0));
        assert_eq!(canonical_cost_2d(&[Cell2::new(5, 5)]), Some(0.0));
    }

    #[test]
    fn canonical_steps_reject_non_king_moves() {
        let p = [Cell2::new(0, 0), Cell2::new(2, 0)];
        assert_eq!(canonical_steps_2d(&p), None);
        let p = [Cell2::new(0, 0), Cell2::new(0, 0)];
        assert_eq!(canonical_steps_2d(&p), None, "a zero hop is not a move");
    }

    #[test]
    fn canonical_steps_3d_classify_diagonals() {
        let p =
            [Cell3::new(0, 0, 0), Cell3::new(1, 0, 0), Cell3::new(2, 1, 0), Cell3::new(3, 2, 1)];
        assert_eq!(canonical_steps_3d(&p), Some((1, 1, 1)));
        let c = canonical_cost_3d(&p).unwrap();
        assert_eq!(c.to_bits(), (1.0 + SQRT2 + SQRT3).to_bits());
        assert_eq!(canonical_steps_3d(&[Cell3::new(0, 0, 0), Cell3::new(2, 0, 0)]), None);
    }

    #[test]
    fn equal_cost_paths_share_the_canonical_sum() {
        // Two different shortest paths 2 east + 1 diagonal: same counts,
        // bit-identical canonical cost, different float sum order.
        let a = [Cell2::new(0, 0), Cell2::new(1, 1), Cell2::new(2, 1), Cell2::new(3, 1)];
        let b = [Cell2::new(0, 0), Cell2::new(1, 0), Cell2::new(2, 0), Cell2::new(3, 1)];
        assert_eq!(
            canonical_cost_2d(&a).unwrap().to_bits(),
            canonical_cost_2d(&b).unwrap().to_bits()
        );
    }
}
