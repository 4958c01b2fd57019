//! Run digests: order-independent hashes over a set of planned results.
//!
//! Two flavors, both XOR-folded across a run so completion order never
//! matters:
//!
//! * [`plan_digest`] — *path-sensitive*: folds the request's map and
//!   endpoints plus the answer's cost bits and every path cell. Identical
//!   between two runs iff every plan came back bit-identical.
//! * [`plan_cost_digest`] — *path-insensitive*: for 2D answers it folds
//!   the canonical re-summed optimal cost (`a·1 + b·√2` recomputed in a
//!   fixed order) instead of the engine cost bits and path cells, so it
//!   is invariant under which equal-cost optimum came back. ALT landmark
//!   guidance may legitimately move the plan digest; it can never move
//!   this one.
//!
//! The trace subsystem leans on the second flavor: a recording folds
//! [`record_cost_digest`] over its planned records, a replay folds
//! [`plan_cost_digest`] over its live outcomes, and the two must match
//! bit-for-bit. The loadgen report prints both digests per run.

use racod_fault::{fnv1a, mix64};
use racod_search::canonical_cost_2d;
use racod_server::trace::PlanRecord;
use racod_server::{OutcomeKind, PlanRequest, Planned, PlannedPath, Workload};

/// Folds the request identity (map + endpoints) every digest starts from.
fn request_seed(map: &str, workload: &Workload) -> u64 {
    let mut h = mix64(fnv1a(map.as_bytes()));
    let mut fold = |v: u64| h = mix64(h ^ v);
    match workload {
        Workload::Plan2 { start, goal, .. } => {
            fold(start.x as u64);
            fold(start.y as u64);
            fold(goal.x as u64);
            fold(goal.y as u64);
        }
        Workload::Plan3 { start, goal, .. } => {
            fold(start.x as u64);
            fold(start.y as u64);
            fold(start.z as u64);
            fold(goal.x as u64);
            fold(goal.y as u64);
            fold(goal.z as u64);
        }
        Workload::Poison | Workload::PoisonWorker => {}
    }
    h
}

/// Order-independent hash of one planned result: the request's map and
/// endpoints plus the answer's cost bits and path cells. XOR-folded
/// across a run, this is identical between a local and a remote run iff
/// every plan came back bit-identical.
pub fn plan_digest(req: &PlanRequest, p: &Planned) -> u64 {
    let mut h = request_seed(req.map.as_str(), &req.workload);
    let mut fold = |v: u64| h = mix64(h ^ v);
    fold(p.cost.to_bits());
    match &p.path {
        PlannedPath::P2(path) => {
            fold(path.as_ref().map_or(u64::MAX, |c| c.len() as u64));
            if let Some(cells) = path {
                for c in cells {
                    fold(c.x as u64);
                    fold(c.y as u64);
                }
            }
        }
        PlannedPath::P3(path) => {
            fold(path.as_ref().map_or(u64::MAX, |c| c.len() as u64));
            if let Some(cells) = path {
                for c in cells {
                    fold(c.x as u64);
                    fold(c.y as u64);
                    fold(c.z as u64);
                }
            }
        }
    }
    h
}

/// Like [`plan_digest`], but insensitive to *which* equal-cost optimal
/// path came back: for 2D answers it folds the canonical re-summed path
/// cost instead of the engine cost bits and path cells. 3D answers have
/// no landmark path today, so their engine cost bits and path length
/// stand in for the canonical sum.
pub fn plan_cost_digest(req: &PlanRequest, p: &Planned) -> u64 {
    let mut h = request_seed(req.map.as_str(), &req.workload);
    let mut fold = |v: u64| h = mix64(h ^ v);
    match &p.path {
        PlannedPath::P2(Some(cells)) => {
            fold(canonical_cost_2d(cells).map_or(u64::MAX - 1, f64::to_bits));
        }
        PlannedPath::P2(None) => fold(u64::MAX),
        PlannedPath::P3(path) => {
            fold(p.cost.to_bits());
            fold(path.as_ref().map_or(u64::MAX, |c| c.len() as u64));
        }
    }
    h
}

/// The recording-side twin of [`plan_cost_digest`]: reconstructs the same
/// hash from a trace's [`PlanRecord`] fields instead of a live
/// [`Planned`]. `None` for non-planned records (they contribute nothing
/// to a run's cost digest). Replay asserts
/// `fold(record_cost_digest(recorded)) == fold(plan_cost_digest(replayed))`.
pub fn record_cost_digest(rec: &PlanRecord) -> Option<u64> {
    if rec.outcome != OutcomeKind::Planned {
        return None;
    }
    let mut h = request_seed(rec.req.map.as_str(), &rec.req.workload);
    let mut fold = |v: u64| h = mix64(h ^ v);
    match rec.req.workload {
        Workload::Plan2 { .. } => {
            // canon_cost_bits already encodes the canonical cost / the
            // u64::MAX "no path" sentinel — exactly what the live digest
            // folds.
            fold(rec.canon_cost_bits);
        }
        Workload::Plan3 { .. } => {
            fold(rec.cost_bits);
            fold(if rec.found { rec.path_len as u64 } else { u64::MAX });
        }
        Workload::Poison | Workload::PoisonWorker => {}
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::Cell2;
    use racod_server::trace::canonical_planned_cost_bits;
    use std::time::Duration;

    fn planned_2d(cells: Option<Vec<Cell2>>, cost: f64) -> Planned {
        Planned {
            path: PlannedPath::P2(cells),
            cost,
            expansions: 10,
            sim_cycles: 5,
            queue_wait: Duration::ZERO,
            service_time: Duration::ZERO,
            warm_start: false,
        }
    }

    #[test]
    fn record_digest_matches_live_digest_2d() {
        let req = PlanRequest::plan2("boston", Cell2::new(1, 2), Cell2::new(5, 6));
        for cells in [Some(vec![Cell2::new(1, 2), Cell2::new(2, 3), Cell2::new(5, 6)]), None] {
            let p = planned_2d(cells, 3.25);
            let live = plan_cost_digest(&req, &p);
            let mut rec = PlanRecord::pending(1, "t", &req, 0);
            rec.finalize(&racod_server::Outcome::Planned(p), 0, Duration::ZERO);
            assert_eq!(record_cost_digest(&rec), Some(live));
        }
    }

    #[test]
    fn record_digest_matches_live_digest_3d() {
        use racod_geom::Cell3;
        let req = PlanRequest::plan3("campus", Cell3::new(0, 0, 0), Cell3::new(4, 4, 4));
        let p = Planned {
            path: PlannedPath::P3(Some(vec![Cell3::new(0, 0, 0), Cell3::new(4, 4, 4)])),
            cost: 6.93,
            expansions: 3,
            sim_cycles: 2,
            queue_wait: Duration::ZERO,
            service_time: Duration::ZERO,
            warm_start: false,
        };
        let live = plan_cost_digest(&req, &p);
        let mut rec = PlanRecord::pending(1, "t", &req, 0);
        rec.finalize(&racod_server::Outcome::Planned(p), 0, Duration::ZERO);
        assert_eq!(record_cost_digest(&rec), Some(live));
    }

    #[test]
    fn cost_digest_ignores_equal_cost_path_choice() {
        // Two different staircases between the same endpoints have the
        // same canonical cost, so the cost digest agrees while the plan
        // digest does not.
        let req = PlanRequest::plan2("m", Cell2::new(0, 0), Cell2::new(2, 2));
        let a = planned_2d(
            Some(vec![
                Cell2::new(0, 0),
                Cell2::new(1, 0),
                Cell2::new(1, 1),
                Cell2::new(2, 1),
                Cell2::new(2, 2),
            ]),
            4.0,
        );
        let b = planned_2d(
            Some(vec![
                Cell2::new(0, 0),
                Cell2::new(0, 1),
                Cell2::new(1, 1),
                Cell2::new(1, 2),
                Cell2::new(2, 2),
            ]),
            4.0,
        );
        assert_eq!(canonical_planned_cost_bits(&a), canonical_planned_cost_bits(&b));
        assert_eq!(plan_cost_digest(&req, &a), plan_cost_digest(&req, &b));
        assert_ne!(plan_digest(&req, &a), plan_digest(&req, &b));
    }

    #[test]
    fn non_planned_records_contribute_nothing() {
        let req = PlanRequest::plan2("m", Cell2::new(0, 0), Cell2::new(2, 2));
        let mut rec = PlanRecord::pending(1, "t", &req, 0);
        rec.finalize(&racod_server::Outcome::Cancelled, usize::MAX, Duration::ZERO);
        assert_eq!(record_cost_digest(&rec), None);
    }
}
