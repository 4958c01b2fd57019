//! Acceptance for the ALT landmark heuristic: a stronger heuristic
//! legitimately changes expansion order and may pick a *different*
//! equal-cost path, so the contract is not bit-identity of paths but
//! bit-identity of the canonical re-summed cost — on an 8-connected grid
//! every path cost is `a·1 + b·√2` with unique integer step counts, so
//! two optimal paths always share the exact same canonical sum.
//!
//! Covered here: ALT-guided A* vs the pre-arena reference engine kept in
//! `support`, across random and city maps, Weighted A* bounded
//! suboptimality through [`AltSpace2`], and PA*SE optimality through
//! [`AltSpace2`].

mod support;

use racod_geom::Cell2;
use racod_grid::gen::{city_map, random_map, CityName};
use racod_grid::{BitGrid2, Occupancy2};
use racod_search::{
    astar_in, canonical_cost_2d, pase_in, AltSpace2, AstarConfig, FnOracle, GridSpace2,
    LandmarkPack2, PaseConfig, SearchScratch,
};
use support::astar_reference;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn build_pack(grid: &BitGrid2, k: usize) -> Option<LandmarkPack2> {
    LandmarkPack2::build(Occupancy2::width(grid), Occupancy2::height(grid), k, |c| {
        grid.occupied(c) == Some(false)
    })
}

fn free_cell(grid: &BitGrid2, rng: &mut u64) -> Cell2 {
    let (w, h) = (Occupancy2::width(grid) as u64, Occupancy2::height(grid) as u64);
    loop {
        let c = Cell2::new((lcg(rng) % w) as i64, (lcg(rng) % h) as i64);
        if grid.occupied(c) == Some(false) {
            return c;
        }
    }
}

/// ALT-guided A* returns a path whose canonical re-summed cost bit-equals
/// the reference engine's optimal cost, over many maps and endpoint pairs;
/// reachability verdicts agree exactly, and in aggregate the landmarks
/// must not *increase* expansions.
#[test]
fn alt_astar_cost_bitequals_reference_optimal() {
    let mut rng = 0xa17_u64;
    let mut scratch = SearchScratch::new();
    let mut total_ref = 0u64;
    let mut total_alt = 0u64;
    let mut compared = 0u32;
    let grids: Vec<BitGrid2> = vec![
        city_map(CityName::Boston, 64, 64),
        city_map(CityName::Berlin, 96, 96),
        random_map(41, 48, 48, 0.25),
        random_map(42, 80, 40, 0.3),
        random_map(43, 33, 57, 0.15),
    ];
    for grid in &grids {
        let (w, h) = (Occupancy2::width(grid), Occupancy2::height(grid));
        let space = GridSpace2::eight_connected(w, h);
        let pack = build_pack(grid, 8).expect("maps have free cells");
        let alt_space = AltSpace2::new(space, Some(&pack));
        for _ in 0..20 {
            let s = free_cell(grid, &mut rng);
            let g = free_cell(grid, &mut rng);
            let config = AstarConfig::default();

            let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let reference = astar_reference(&space, s, g, &config, &mut o1);
            let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let alt = astar_in(&alt_space, s, g, &config, &mut o2, &mut scratch);

            assert_eq!(reference.found(), alt.found(), "reachability must agree at {s}->{g}");
            total_ref += reference.stats.expansions;
            total_alt += alt.stats.expansions;
            let (Some(rp), Some(ap)) = (&reference.path, &alt.path) else { continue };
            let rc = canonical_cost_2d(rp).expect("reference path is king moves");
            let ac = canonical_cost_2d(ap).expect("alt path is king moves");
            assert_eq!(
                rc.to_bits(),
                ac.to_bits(),
                "canonical cost diverged at {s}->{g}: {rc} vs {ac}"
            );
            // The engine's accumulated float cost agrees with the
            // canonical re-sum to float tolerance.
            assert!((alt.cost - ac).abs() < 1e-6, "engine sum {} vs canonical {ac}", alt.cost);
            compared += 1;
        }
    }
    assert!(compared >= 50, "enough reachable pairs compared: {compared}");
    assert!(
        total_alt <= total_ref,
        "landmarks must not expand more in aggregate: {total_alt} vs {total_ref}"
    );
}

/// Weighted A* through the ALT space keeps its w-suboptimality bound: the
/// returned cost is ≤ w × the reference optimum.
#[test]
fn weighted_astar_stays_bounded_suboptimal_with_landmarks() {
    let mut rng = 0x3b_u64;
    let mut scratch = SearchScratch::new();
    for seed in 0..5u64 {
        let grid = random_map(seed + 70, 48, 48, 0.25);
        let space = GridSpace2::eight_connected(48, 48);
        let pack = build_pack(&grid, 6).unwrap();
        let alt_space = AltSpace2::new(space, Some(&pack));
        for &weight in &[1.5, 2.0, 3.0] {
            let s = free_cell(&grid, &mut rng);
            let g = free_cell(&grid, &mut rng);
            let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let optimal = astar_reference(&space, s, g, &AstarConfig::default(), &mut o1);
            let config = AstarConfig { weight, ..AstarConfig::default() };
            let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let wa = astar_in(&alt_space, s, g, &config, &mut o2, &mut scratch);
            assert_eq!(optimal.found(), wa.found());
            if wa.found() {
                assert!(
                    wa.cost <= weight * optimal.cost + 1e-9,
                    "WA*({weight}) broke its bound: {} vs {} optimal",
                    wa.cost,
                    optimal.cost
                );
            }
        }
    }
}

/// PA*SE at ε = 1 through the ALT space stays optimal: canonical costs
/// bit-equal the reference engine's.
#[test]
fn pase_stays_optimal_with_landmarks() {
    let mut rng = 0x9a5e_u64;
    let mut scratch = SearchScratch::new();
    for seed in 0..4u64 {
        let grid = random_map(seed + 320, 40, 40, 0.2);
        let space = GridSpace2::eight_connected(40, 40);
        let pack = build_pack(&grid, 6).unwrap();
        let alt_space = AltSpace2::new(space, Some(&pack));
        for _ in 0..6 {
            let s = free_cell(&grid, &mut rng);
            let g = free_cell(&grid, &mut rng);
            let mut o1 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let reference = astar_reference(&space, s, g, &AstarConfig::default(), &mut o1);
            let config = PaseConfig { weight: 1.0, threads: 4, ..PaseConfig::default() };
            let mut o2 = FnOracle::new(|c: Cell2| grid.occupied(c) == Some(false));
            let p = pase_in(&alt_space, s, g, &config, &mut o2, &mut scratch);
            assert_eq!(reference.found(), p.found());
            let (Some(rp), Some(pp)) = (&reference.path, &p.path) else { continue };
            assert_eq!(
                canonical_cost_2d(rp).unwrap().to_bits(),
                canonical_cost_2d(pp).unwrap().to_bits(),
                "PA*SE with landmarks must stay optimal at {s}->{g}"
            );
        }
    }
}
