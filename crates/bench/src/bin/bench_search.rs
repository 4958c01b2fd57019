//! Machine-readable search-core microbenchmark: emits `BENCH_search.json`
//! with ns/expansion and plans/s for A*, Weighted A*, and PA*SE, comparing a
//! cold scratch arena (fresh allocation per plan, the pre-arena behavior)
//! against a warm reused arena (epoch-stamped O(1) clear, the steady state a
//! server worker runs in). A row for the retained reference engine
//! (`astar_reference`: binary-heap open list, per-call `Vec` allocations)
//! anchors the comparison to the pre-change code path.
//!
//! `bench_search --help` lists the flags.
//!
//! `--gate` exits non-zero unless warm ns/expansion ≤ cold ns/expansion for
//! every engine (the CI smoke invariant: reusing the arena can never be
//! slower than reallocating it).
//!
//! A `churn` section measures incremental replanning: standing routes
//! replanned after every single-cell map delta, [`Replanner`] repair vs a
//! from-scratch rerun on a warm arena, bit-identical answers asserted on
//! every replan. `--gate` additionally requires the incremental engine to
//! clear 2x the from-scratch plans/s on this workload.
//!
//! An `alt` section measures the ALT landmark heuristic: the same plan
//! pairs searched octile-guided and landmark-guided on a warm arena, with
//! the canonical re-summed path costs asserted bit-identical (landmarks may
//! pick a different equal-cost optimum; the optimal cost itself never
//! moves) and the pack build time reported. `--gate` additionally requires
//! landmarks to cut expansions per plan by at least 2.5x.

use racod::grid::affected_cells;
use racod::prelude::*;
use racod::search::{
    astar_in, astar_reference, canonical_cost_2d, pase_in, AltSpace2, LandmarkPack2, PaseConfig,
    Replanner, SearchScratch,
};
use racod::sim::planner::free_near;
use racod::sim::D2;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Options {
    plans: usize,
    out: String,
    gate: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { plans: 200, out: "BENCH_search.json".to_string(), gate: false }
    }
}

const USAGE: &str = "\
bench_search — search-core microbenchmark, written as BENCH_search.json

usage: bench_search [--plans N] [--out PATH] [--gate]

  --gate  exit nonzero unless warm <= cold ns/expansion for every engine, the
          incremental replanner clears 2x from-scratch, and ALT cuts expansions 2.5x

example:
  cargo run --release -p racod-bench --bin bench_search -- --plans 40 --out /tmp/s.json --gate";

fn parse_args() -> Options {
    let mut o = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--plans" => {
                o.plans = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("invalid value for --plans");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                o.out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--gate" => {
                o.gate = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

/// Deterministic short-range start/goal pairs scattered across the map:
/// anchors from an LCG, endpoints snapped to free cells, pairs kept only
/// when connected (prechecked with one throwaway search). Short separations
/// make per-plan setup cost — the thing the arena removes — visible against
/// the expansion work.
fn plan_pairs(grid: &BitGrid2, space: &GridSpace2, n: usize) -> Vec<(Cell2, Cell2)> {
    let size = grid.width() as i64;
    let mut pairs = Vec::with_capacity(n);
    let mut seed: i64 = 42;
    while pairs.len() < n {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = (seed >> 33).rem_euclid(size - 96);
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let y = (seed >> 33).rem_euclid(size - 80);
        let s = free_near::<D2>(grid, Cell2::new(x, y));
        let g = free_near::<D2>(grid, Cell2::new(x + 64, y + 48));
        let mut oracle = FnOracle::new(|c: Cell2| grid.get(c) == Some(false));
        let probe = astar(space, s, g, &AstarConfig::default(), &mut oracle);
        if probe.found() {
            pairs.push((s, g));
        }
    }
    pairs
}

struct Measure {
    ns_per_expansion: f64,
    plans_per_sec: f64,
    expansions: u64,
    cost_sum: f64,
}

fn measure<F>(pairs: &[(Cell2, Cell2)], mut plan: F) -> Measure
where
    F: FnMut(Cell2, Cell2) -> (u64, f64),
{
    let t = Instant::now();
    let mut expansions = 0u64;
    let mut cost_sum = 0.0;
    for &(s, g) in pairs {
        let (e, c) = plan(s, g);
        expansions += e;
        cost_sum += c;
    }
    let ns = t.elapsed().as_nanos() as f64;
    Measure {
        ns_per_expansion: ns / expansions as f64,
        plans_per_sec: pairs.len() as f64 * 1e9 / ns,
        expansions,
        cost_sum,
    }
}

struct EngineRow {
    engine: &'static str,
    cold: Measure,
    warm: Measure,
}

struct ChurnMeasure {
    routes: usize,
    rounds: usize,
    replans: usize,
    repairs: usize,
    scratch_plans_per_sec: f64,
    incremental_plans_per_sec: f64,
}

/// Small-delta churn: a handful of standing routes, each replanned after
/// every single-cell world change, comparing [`Replanner`] repair against
/// a from-scratch rerun on a warm arena (the strongest honest baseline —
/// it already has the cold-allocation win priced in). Both branches see
/// the identical delta schedule and must agree bit-for-bit on every
/// replan; the speedup is pure work avoidance.
fn measure_churn(grid: &BitGrid2, space: &GridSpace2, pairs: &[(Cell2, Cell2)]) -> ChurnMeasure {
    use racod::grid::GridDelta2;
    let routes = pairs.len().min(8);
    let rounds = 50;
    let pairs = &pairs[..routes];
    let mut churn_grid = grid.clone();
    let size = churn_grid.width() as i64;

    let cfg = AstarConfig::default();
    let mut rps: Vec<Replanner<Cell2>> = (0..routes).map(|_| Replanner::new()).collect();
    for (rp, &(s, g)) in rps.iter_mut().zip(pairs) {
        let mut oracle = FnOracle::new(|c: Cell2| churn_grid.get(c) == Some(false));
        rp.plan_in(space, s, g, &cfg, &mut oracle);
    }
    let mut base_scratch = SearchScratch::new();

    let mut seed: i64 = 4242;
    let mut lcg = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33).rem_euclid(size)
    };

    let mut inc_ns = 0u128;
    let mut base_ns = 0u128;
    let mut repairs = 0usize;
    for _ in 0..rounds {
        let cell = Cell2::new(lcg(), lcg());
        let delta = if churn_grid.get(cell) == Some(true) {
            GridDelta2::Disappear { cell }
        } else {
            GridDelta2::Appear { cell }
        };
        churn_grid.apply_delta(delta);
        let affected = affected_cells(&[delta], 0);
        for (rp, &(s, g)) in rps.iter_mut().zip(pairs) {
            let t = Instant::now();
            let (inc, repaired) = {
                let mut oracle = FnOracle::new(|c: Cell2| churn_grid.get(c) == Some(false));
                rp.replan_in(space, s, g, &cfg, &mut oracle, &affected)
            };
            inc_ns += t.elapsed().as_nanos();
            repairs += usize::from(repaired);
            let t = Instant::now();
            let base = {
                let mut oracle = FnOracle::new(|c: Cell2| churn_grid.get(c) == Some(false));
                black_box(astar_in(space, s, g, &cfg, &mut oracle, &mut base_scratch))
            };
            base_ns += t.elapsed().as_nanos();
            assert_eq!(
                inc.cost.to_bits(),
                base.cost.to_bits(),
                "incremental replan diverged from from-scratch at ({s:?} -> {g:?})"
            );
            assert_eq!(inc.path, base.path, "incremental replan path diverged");
        }
    }

    let replans = routes * rounds;
    ChurnMeasure {
        routes,
        rounds,
        replans,
        repairs,
        scratch_plans_per_sec: replans as f64 * 1e9 / base_ns as f64,
        incremental_plans_per_sec: replans as f64 * 1e9 / inc_ns as f64,
    }
}

struct AltMeasure {
    landmarks: usize,
    pack_build_ms: f64,
    pack_bytes: usize,
    off: Measure,
    on: Measure,
}

/// ALT landmarks vs plain octile: the same plan pairs searched on a warm
/// arena with and without a precomputed [`LandmarkPack2`]. Landmarks may
/// legitimately settle on a different equal-cost optimum, so the engine's
/// accumulated float cost is not comparable bit-for-bit — instead both
/// branches re-sum their returned paths canonically and those sums must
/// agree exactly. The expansion ratio is the payoff being measured.
fn measure_alt(
    grid: &BitGrid2,
    space: &GridSpace2,
    pairs: &[(Cell2, Cell2)],
    k: usize,
) -> AltMeasure {
    let is_free = |c: Cell2| grid.get(c) == Some(false);
    let t = Instant::now();
    let pack =
        LandmarkPack2::build(grid.width(), grid.height(), k, is_free).expect("map has free cells");
    let pack_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = AstarConfig::default();

    let canonical = |r: &racod::search::SearchResult<Cell2>| {
        canonical_cost_2d(r.path.as_deref().expect("prechecked pair")).expect("king-move path")
    };
    let mut scratch = SearchScratch::new();
    let off = measure(pairs, |s, g| {
        let mut oracle = FnOracle::new(is_free);
        let r = black_box(astar_in(space, s, g, &cfg, &mut oracle, &mut scratch));
        (r.stats.expansions, canonical(&r))
    });
    let guided = AltSpace2::new(*space, Some(&pack));
    let mut scratch = SearchScratch::new();
    let on = measure(pairs, |s, g| {
        let mut oracle = FnOracle::new(is_free);
        let r = black_box(astar_in(&guided, s, g, &cfg, &mut oracle, &mut scratch));
        (r.stats.expansions, canonical(&r))
    });
    assert_eq!(
        off.cost_sum.to_bits(),
        on.cost_sum.to_bits(),
        "landmark guidance changed an optimal plan cost"
    );
    AltMeasure { landmarks: pack.len(), pack_build_ms, pack_bytes: pack.bytes(), off, on }
}

fn main() {
    let o = parse_args();
    let size: u32 = 512;
    let grid = city_map(CityName::Boston, size, size);
    let space = GridSpace2::eight_connected(size, size);
    let pairs = plan_pairs(&grid, &space, o.plans);
    let is_free = |c: Cell2| grid.get(c) == Some(false);

    let astar_cfg = AstarConfig::default();
    let wastar_cfg = AstarConfig { weight: 2.0, ..AstarConfig::default() };
    let pase_cfg = PaseConfig { weight: 2.0, threads: 4, window: 32, ..PaseConfig::default() };

    let mut rows = Vec::new();
    for (engine, cfg) in [("astar", &astar_cfg), ("wastar", &wastar_cfg)] {
        let cold = measure(&pairs, |s, g| {
            let mut oracle = FnOracle::new(is_free);
            let mut fresh = SearchScratch::new();
            let r = black_box(astar_in(&space, s, g, cfg, &mut oracle, &mut fresh));
            (r.stats.expansions, r.cost)
        });
        let mut scratch = SearchScratch::new();
        let warm = measure(&pairs, |s, g| {
            let mut oracle = FnOracle::new(is_free);
            let r = black_box(astar_in(&space, s, g, cfg, &mut oracle, &mut scratch));
            (r.stats.expansions, r.cost)
        });
        assert_eq!(
            cold.cost_sum.to_bits(),
            warm.cost_sum.to_bits(),
            "{engine}: warm scratch changed plan costs"
        );
        rows.push(EngineRow { engine, cold, warm });
    }

    let pase_cold = measure(&pairs, |s, g| {
        let mut oracle = FnOracle::new(is_free);
        let mut fresh = SearchScratch::new();
        let r = black_box(pase_in(&space, s, g, &pase_cfg, &mut oracle, &mut fresh));
        (r.stats.expansions, r.cost)
    });
    let mut pase_scratch = SearchScratch::new();
    let pase_warm = measure(&pairs, |s, g| {
        let mut oracle = FnOracle::new(is_free);
        let r = black_box(pase_in(&space, s, g, &pase_cfg, &mut oracle, &mut pase_scratch));
        (r.stats.expansions, r.cost)
    });
    assert_eq!(
        pase_cold.cost_sum.to_bits(),
        pase_warm.cost_sum.to_bits(),
        "pase: warm scratch changed plan costs"
    );
    rows.push(EngineRow { engine: "pase", cold: pase_cold, warm: pase_warm });

    // Pre-change engine datapoint: scalar binary-heap open list plus per-call
    // `Vec` allocations, exactly as the code stood before the arena.
    let reference = measure(&pairs, |s, g| {
        let mut oracle = FnOracle::new(is_free);
        let r = black_box(astar_reference(&space, s, g, &astar_cfg, &mut oracle));
        (r.stats.expansions, r.cost)
    });
    assert_eq!(
        reference.cost_sum.to_bits(),
        rows[0].warm.cost_sum.to_bits(),
        "reference engine disagrees with arena engine on plan costs"
    );

    let churn = measure_churn(&grid, &space, &pairs);
    let alt = measure_alt(&grid, &space, &pairs, 8);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"search_scratch_arena\",");
    let _ = writeln!(json, "  \"grid\": \"boston_{size}x{size}\",");
    let _ = writeln!(json, "  \"plans\": {},", pairs.len());
    let _ = writeln!(json, "  \"engines\": [");
    for (i, row) in rows.iter().enumerate() {
        let speedup = row.warm.plans_per_sec / row.cold.plans_per_sec;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"engine\": \"{}\",", row.engine);
        let _ = writeln!(
            json,
            "      \"expansions_per_plan\": {},",
            row.warm.expansions / pairs.len() as u64
        );
        let _ =
            writeln!(json, "      \"cold_ns_per_expansion\": {:.1},", row.cold.ns_per_expansion);
        let _ =
            writeln!(json, "      \"warm_ns_per_expansion\": {:.1},", row.warm.ns_per_expansion);
        let _ = writeln!(json, "      \"cold_plans_per_sec\": {:.0},", row.cold.plans_per_sec);
        let _ = writeln!(json, "      \"warm_plans_per_sec\": {:.0},", row.warm.plans_per_sec);
        let _ = writeln!(json, "      \"warm_speedup\": {speedup:.2}");
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let churn_speedup = churn.incremental_plans_per_sec / churn.scratch_plans_per_sec;
    let _ = writeln!(json, "  \"churn\": {{");
    let _ = writeln!(json, "    \"routes\": {},", churn.routes);
    let _ = writeln!(json, "    \"rounds\": {},", churn.rounds);
    let _ = writeln!(json, "    \"replans\": {},", churn.replans);
    let _ =
        writeln!(json, "    \"repair_rate\": {:.3},", churn.repairs as f64 / churn.replans as f64);
    let _ = writeln!(json, "    \"scratch_plans_per_sec\": {:.0},", churn.scratch_plans_per_sec);
    let _ = writeln!(
        json,
        "    \"incremental_plans_per_sec\": {:.0},",
        churn.incremental_plans_per_sec
    );
    let _ = writeln!(json, "    \"incremental_speedup\": {churn_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let alt_reduction = alt.off.expansions as f64 / alt.on.expansions as f64;
    let _ = writeln!(json, "  \"alt\": {{");
    let _ = writeln!(json, "    \"landmarks\": {},", alt.landmarks);
    let _ = writeln!(json, "    \"pack_build_ms\": {:.1},", alt.pack_build_ms);
    let _ = writeln!(json, "    \"pack_bytes\": {},", alt.pack_bytes);
    let _ = writeln!(
        json,
        "    \"expansions_per_plan_off\": {},",
        alt.off.expansions / pairs.len() as u64
    );
    let _ = writeln!(
        json,
        "    \"expansions_per_plan_on\": {},",
        alt.on.expansions / pairs.len() as u64
    );
    let _ = writeln!(json, "    \"plans_per_sec_off\": {:.0},", alt.off.plans_per_sec);
    let _ = writeln!(json, "    \"plans_per_sec_on\": {:.0},", alt.on.plans_per_sec);
    let _ = writeln!(json, "    \"expansion_reduction\": {alt_reduction:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"reference_ns_per_expansion\": {:.1},", reference.ns_per_expansion);
    let _ = writeln!(json, "  \"reference_plans_per_sec\": {:.0}", reference.plans_per_sec);
    let _ = writeln!(json, "}}");

    std::fs::write(&o.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", o.out);
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!("wrote {}", o.out);

    if o.gate {
        for row in &rows {
            if row.warm.ns_per_expansion > row.cold.ns_per_expansion {
                eprintln!(
                    "GATE FAIL: {} warm {:.1} ns/expansion > cold {:.1} ns/expansion",
                    row.engine, row.warm.ns_per_expansion, row.cold.ns_per_expansion
                );
                std::process::exit(1);
            }
        }
        if churn_speedup < 2.0 {
            eprintln!(
                "GATE FAIL: incremental replanning {churn_speedup:.2}x over from-scratch \
                 under small-delta churn (need >= 2x)"
            );
            std::process::exit(1);
        }
        if alt_reduction < 2.5 {
            eprintln!(
                "GATE FAIL: landmarks cut expansions {alt_reduction:.2}x over octile \
                 (need >= 2.5x)"
            );
            std::process::exit(1);
        }
        eprintln!("gate ok: warm ns/expansion <= cold for all engines");
        eprintln!("gate ok: incremental replanning {churn_speedup:.2}x under churn");
        eprintln!("gate ok: landmarks cut expansions {alt_reduction:.2}x");
    }
}
