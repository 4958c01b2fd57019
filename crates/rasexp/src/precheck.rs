//! The cells a 2D request will most likely demand-check first, computed
//! from its start and goal alone — a pure function of the request, so a
//! caller can precheck them before the search runs. RASExp's runahead
//! oracle speculates inside one running search; nothing in the library
//! speculates at request scope, and the service benchmark (`benchmark/`)
//! times this function as `rasexp.targets_us`.
//!
//! Three sources, in order:
//!
//! 1. the start's Chebyshev neighborhood — the first expansions' demand set;
//! 2. the goal's neighborhood — the final approach;
//! 3. a predicted chain from the start toward the goal, reusing the
//!    [`LastDirectionPredictor`] ("the path grows in its last direction",
//!    paper §3.2.1) seeded with the start→goal direction — the cone the
//!    search opens with.

use crate::predictor::LastDirectionPredictor;
use racod_geom::Cell2;
use racod_search::Direction;

/// The cells a 2D request is most likely to demand-check first: start and
/// goal Chebyshev neighborhoods of the given `radius`, plus a
/// `chain_depth`-long predicted chain from the start toward the goal.
/// Nothing in the library calls it; the service benchmark times it.
///
/// Deterministic and duplicate-free; order is start-neighborhood, then
/// goal-neighborhood, then chain. Cells are *not* clamped to any grid —
/// out-of-bounds targets are legitimate (their check verdict is `Invalid`,
/// and the search may ask about them too).
///
/// # Example
///
/// ```
/// use racod_rasexp::speculation_targets;
/// use racod_geom::Cell2;
///
/// let t = speculation_targets(Cell2::new(5, 5), Cell2::new(20, 5), 1, 4);
/// assert!(t.contains(&Cell2::new(5, 5)));   // start
/// assert!(t.contains(&Cell2::new(20, 5)));  // goal
/// assert!(t.contains(&Cell2::new(9, 5)));   // chain toward the goal
/// ```
pub fn speculation_targets(
    start: Cell2,
    goal: Cell2,
    radius: i64,
    chain_depth: usize,
) -> Vec<Cell2> {
    let radius = radius.max(0);
    let side = (2 * radius + 1) as usize;
    let mut out = Vec::with_capacity(2 * side * side + chain_depth);
    let push = |out: &mut Vec<Cell2>, c: Cell2| {
        // The set is tiny (tens of cells); linear dedup beats hashing.
        if !out.contains(&c) {
            out.push(c);
        }
    };
    for center in [start, goal] {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                push(&mut out, center.offset(dx, dy));
            }
        }
    }
    if chain_depth > 0 {
        let dir = Direction::between_2d(start, goal);
        if !dir.is_zero() {
            // Seed the last-direction predictor with a virtual parent one
            // step behind the start, so the chain is start + k·dir.
            let parent = start.offset(-dir.dx, -dir.dy);
            for c in LastDirectionPredictor::new(chain_depth).predict(start, Some(parent)) {
                push(&mut out, c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhoods_cover_both_endpoints() {
        let t = speculation_targets(Cell2::new(10, 10), Cell2::new(40, 40), 2, 0);
        assert_eq!(t.len(), 50, "two disjoint 5x5 neighborhoods");
        for dy in -2..=2 {
            for dx in -2..=2 {
                assert!(t.contains(&Cell2::new(10 + dx, 10 + dy)));
                assert!(t.contains(&Cell2::new(40 + dx, 40 + dy)));
            }
        }
    }

    #[test]
    fn chain_follows_start_to_goal_direction() {
        let t = speculation_targets(Cell2::new(0, 0), Cell2::new(30, 15), 0, 5);
        // gcd-unreduced direction clamps to (1, 1); chain marches diagonally.
        for k in 1..=5 {
            assert!(t.contains(&Cell2::new(k, k)), "missing chain cell {k}");
        }
    }

    #[test]
    fn overlapping_neighborhoods_deduplicate() {
        let t = speculation_targets(Cell2::new(5, 5), Cell2::new(6, 5), 1, 8);
        let mut sorted: Vec<_> = t.iter().map(|c| (c.x, c.y)).collect();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), before, "targets must be unique");
    }

    #[test]
    fn degenerate_start_equals_goal() {
        let t = speculation_targets(Cell2::new(3, 3), Cell2::new(3, 3), 1, 8);
        assert_eq!(t.len(), 9, "one neighborhood, no chain");
    }

    #[test]
    fn negative_radius_clamps_to_endpoints_only() {
        let t = speculation_targets(Cell2::new(1, 1), Cell2::new(9, 1), -3, 0);
        assert_eq!(t, vec![Cell2::new(1, 1), Cell2::new(9, 1)]);
    }

    #[test]
    fn targets_are_pure_in_the_request() {
        let a = speculation_targets(Cell2::new(2, 7), Cell2::new(60, 33), 2, 8);
        let b = speculation_targets(Cell2::new(2, 7), Cell2::new(60, 33), 2, 8);
        assert_eq!(a, b);
    }
}
