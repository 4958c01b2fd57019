//! Acceptance: the arena-backed engine is bit-identical to the pre-arena
//! reference engine kept in `support` — same expansion order, same path,
//! same cost bits — and stays that way when one scratch arena is reused
//! across many plans over mixed maps, sizes, weights, and an epoch-counter
//! wraparound. The reference engine's scalar [`OpenList`] is tested here
//! too, along with the [`IntHeap`] that must pop in exactly its order.

mod support;

use proptest::prelude::*;
use racod_geom::Cell2;
use racod_grid::gen::random_map;
use racod_grid::Occupancy2;
use racod_search::{
    astar_in, pase, pase_in, AstarConfig, FnOracle, GridSpace2, IntHeap, PaseConfig, SearchScratch,
};
use support::{astar_reference, OpenList};

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// One hundred randomized plans through a single reused scratch arena, each
/// checked bit-for-bit against a fresh run of the pre-change reference
/// engine. Maps, sizes, and weights vary plan to plan (so the arena grows,
/// shrinks its live region, and re-serves slots stamped by earlier plans),
/// and the epoch counter is forced to the brink of wraparound mid-sequence.
#[test]
fn reused_scratch_is_bit_identical_to_reference_across_100_plans() {
    let mut rng = 0x5eed_u64;
    let mut scratch = SearchScratch::new();
    let sizes = [(24u32, 24u32), (48, 32), (33, 17), (64, 64), (9, 40)];
    for plan in 0..100u32 {
        if plan == 50 {
            // Two plans from wrapping: plans 51 and 52 cross the 2^32 epoch
            // boundary, exercising the full stamp reset.
            scratch.force_epoch(u32::MAX - 1);
        }
        let (w, h) = sizes[(lcg(&mut rng) % sizes.len() as u64) as usize];
        let density = (lcg(&mut rng) % 30) as f64 / 100.0;
        let weight = 1.0 + (lcg(&mut rng) % 4) as f64 * 0.5;
        let grid = random_map(lcg(&mut rng), w, h, density);
        let space = GridSpace2::eight_connected(w, h);
        let s = Cell2::new((lcg(&mut rng) % w as u64 / 4) as i64, 0);
        let g = Cell2::new(w as i64 - 1, h as i64 - 1);
        let config = AstarConfig { weight, record_expansions: true, ..AstarConfig::default() };

        let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let warm = astar_in(&space, s, g, &config, &mut o1, &mut scratch);
        let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let reference = astar_reference(&space, s, g, &config, &mut o2);

        assert_eq!(
            warm.expansion_order, reference.expansion_order,
            "plan {plan}: expansion order diverged ({w}x{h}, density {density}, w {weight})"
        );
        assert_eq!(warm.path, reference.path, "plan {plan}: path diverged");
        assert_eq!(
            warm.cost.to_bits(),
            reference.cost.to_bits(),
            "plan {plan}: cost bits diverged ({} vs {})",
            warm.cost,
            reference.cost
        );
        assert_eq!(warm.stats.expansions, reference.stats.expansions, "plan {plan}");
        assert_eq!(warm.termination, reference.termination, "plan {plan}");
        assert_eq!(warm.stats.scratch_reused, plan > 0, "plan {plan}: warmth flag");
    }
}

/// PA*SE through a reused arena matches a fresh-allocation run exactly:
/// same waves, same path, same cost bits, across mixed maps and thread
/// counts.
#[test]
fn reused_scratch_pase_matches_fresh_allocation() {
    let mut rng = 0xbeef_u64;
    let mut scratch = SearchScratch::new();
    for plan in 0..40u32 {
        if plan == 20 {
            scratch.force_epoch(u32::MAX - 1);
        }
        let w = 16 + (lcg(&mut rng) % 24) as u32;
        let h = 16 + (lcg(&mut rng) % 24) as u32;
        let grid = random_map(lcg(&mut rng), w, h, 0.2);
        let space = GridSpace2::eight_connected(w, h);
        let (s, g) = (Cell2::new(0, 0), Cell2::new(w as i64 - 1, h as i64 - 1));
        let config = PaseConfig {
            weight: 1.5,
            threads: 1 + (lcg(&mut rng) % 8) as usize,
            ..PaseConfig::default()
        };

        let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let warm = pase_in(&space, s, g, &config, &mut o1, &mut scratch);
        let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let fresh = pase(&space, s, g, &config, &mut o2);

        assert_eq!(warm.path, fresh.path, "plan {plan}: path diverged");
        assert_eq!(warm.cost.to_bits(), fresh.cost.to_bits(), "plan {plan}: cost bits");
        assert_eq!(warm.wave_sizes, fresh.wave_sizes, "plan {plan}: wave shapes diverged");
        assert_eq!(warm.stats.expansions, fresh.stats.expansions, "plan {plan}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-plan equivalence over the randomized map space: the arena
    /// engine and the reference engine agree bit-for-bit from a cold start
    /// too, for plain and weighted A*.
    #[test]
    fn arena_engine_matches_reference(seed in 0u64..5000, density in 0.0f64..0.35, eps in 1.0f64..3.0) {
        let grid = random_map(seed, 24, 24, density);
        let space = GridSpace2::eight_connected(24, 24);
        let (s, g) = (Cell2::new(0, 0), Cell2::new(23, 23));
        let config = AstarConfig { weight: eps, record_expansions: true, ..AstarConfig::default() };
        let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let arena = racod_search::astar(&space, s, g, &config, &mut o1);
        let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
        let reference = astar_reference(&space, s, g, &config, &mut o2);
        prop_assert_eq!(arena.expansion_order, reference.expansion_order);
        prop_assert_eq!(arena.path, reference.path);
        prop_assert_eq!(arena.cost.to_bits(), reference.cost.to_bits());
        prop_assert_eq!(arena.stats.expansions, reference.stats.expansions);
    }
}

/// The engine's integer-keyed heap pops in exactly the scalar open list's
/// `(f asc, g desc, seq asc)` order, bit for bit.
#[test]
fn heap_matches_scalar_open_list_exactly() {
    // Adversarial key mix: repeated f, repeated (f, g), zero keys.
    let keys: Vec<(f64, f64)> = (0..500)
        .map(|i| {
            let f = ((i * 7919) % 23) as f64 * 0.5;
            let g = ((i * 104729) % 7) as f64 * 0.25;
            (f, g)
        })
        .collect();
    let mut scalar = OpenList::new();
    let mut packed = IntHeap::new();
    for (i, &(f, g)) in keys.iter().enumerate() {
        scalar.push(i, f, g);
        packed.push(i as u32, f, g);
    }
    loop {
        let a = scalar.pop(|_| true);
        let b = packed.pop();
        match (a, b) {
            (None, None) => break,
            (Some((ai, af, ag)), Some((bi, bf, bg))) => {
                assert_eq!(ai, bi as usize);
                assert_eq!(af.to_bits(), bf.to_bits());
                assert_eq!(ag.to_bits(), bg.to_bits());
            }
            (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// The scalar open list the reference engine runs on.
mod open_list {
    use super::OpenList;

    #[test]
    fn doc_example_pops_lowest_f() {
        let mut open = OpenList::new();
        open.push(3, 10.0, 2.0);
        open.push(7, 9.0, 1.0);
        assert_eq!(open.pop(|_| true), Some((7, 9.0, 1.0)));
    }

    #[test]
    fn pops_in_f_order() {
        let mut open = OpenList::new();
        open.push(1, 5.0, 1.0);
        open.push(2, 3.0, 1.0);
        open.push(3, 4.0, 1.0);
        let order: Vec<usize> =
            std::iter::from_fn(|| open.pop(|_| true)).map(|(i, _, _)| i).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn ties_prefer_larger_g() {
        let mut open = OpenList::new();
        open.push(1, 5.0, 1.0);
        open.push(2, 5.0, 4.0);
        assert_eq!(open.pop(|_| true).unwrap().0, 2);
    }

    #[test]
    fn full_ties_prefer_earlier_insertion() {
        let mut open = OpenList::new();
        open.push(1, 5.0, 2.0);
        open.push(2, 5.0, 2.0);
        assert_eq!(open.pop(|_| true).unwrap().0, 1);
    }

    #[test]
    fn lazy_deletion_skips_stale() {
        let mut open = OpenList::new();
        open.push(1, 9.0, 3.0); // stale after improvement
        open.push(1, 7.0, 5.0);
        let best_g = 5.0;
        let popped = open.pop(|&(_, _, g)| (g - best_g).abs() < 1e-12).unwrap();
        assert_eq!(popped, (1, 7.0, 5.0));
        assert!(open.pop(|&(_, _, g)| (g - best_g).abs() < 1e-12).is_none());
    }

    #[test]
    fn empty_and_len() {
        let mut open = OpenList::new();
        assert!(open.is_empty());
        open.push(1, 1.0, 0.0);
        assert_eq!(open.len(), 1);
        assert_eq!(open.peek_f(), Some(1.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite")]
    fn nan_key_is_rejected_at_push() {
        let mut open = OpenList::new();
        open.push(0, f64::NAN, 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite")]
    fn infinite_g_is_rejected_at_push() {
        let mut open = OpenList::new();
        open.push(0, 1.0, f64::INFINITY);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut open = OpenList::new();
            for i in 0..100usize {
                open.push(i, (i % 10) as f64, (i % 7) as f64);
            }
            let mut order = Vec::new();
            while let Some((i, _, _)) = open.pop(|_| true) {
                order.push(i);
            }
            order
        };
        assert_eq!(build(), build());
    }
}
