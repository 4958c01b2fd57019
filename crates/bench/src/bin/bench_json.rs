//! Machine-readable collision-check microbenchmark: emits
//! `BENCH_codacc.json` with ns/check, checks/s, and the template-cache hit
//! rate, comparing the per-state OBB rasterization baseline against the
//! warm-cache word-parallel template kernel (per-pose and batched) on a
//! planning-style state sweep, plus the host cost and simulated cycles of
//! the CODAcc timing model on the same sweep, and a template leg: every
//! heading of a 128² map (car) and a 48² campus (drone) through one cache,
//! counting keys and distinct templates.
//!
//! `bench_json --help` lists the flags.

use racod::codacc::{simd_lanes, template_check_scalar};
use racod::prelude::*;
use racod::sim::{Dim, TemplateCache, TemplateCensus, D2, D3};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// How much slower than the committed baseline the gate tolerates before
/// failing. Shared CI runners jitter; a real regression from losing the
/// word-parallel path is >5x.
const GATE_TOLERANCE: f64 = 1.5;

/// Batch size for the batched pass — the scale of a PASE wave / dispatcher
/// chunk, where sorting by orientation amortizes template lookups.
const BATCH: usize = 64;

struct Options {
    checks: usize,
    out: String,
    gate: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options { checks: 200_000, out: "BENCH_codacc.json".to_string(), gate: None }
    }
}

const USAGE: &str = "\
bench_json — collision-check microbenchmark, written as BENCH_codacc.json

usage: bench_json [--checks N] [--out PATH] [--gate PATH]

  --gate PATH  CI-gate mode: write nothing; compare the warm per-pose and the
               timing-model ns/check against the committed baseline at PATH
               and exit nonzero on a regression beyond the noise tolerance,
               or if any cached template differs from its direct build

example:
  cargo run --release -p racod-bench --bin bench_json -- --checks 2000 --out /tmp/b.json";

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
            "--checks" => {
                o.checks = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("invalid value for --checks");
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
                o.gate = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for --gate");
                    std::process::exit(2);
                }));
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

/// Extracts a numeric field from the hand-written JSON this tool emits
/// (flat object, one `"key": value` per line).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    rest.split([',', '\n', '}']).next()?.trim().parse().ok()
}

/// A deterministic planning-style state sweep: states marching toward the
/// goal along many rays, mixing free, colliding, and out-of-bounds
/// placements — the distribution a search actually produces.
fn sweep_states(n: usize, size: i64) -> Vec<Cell2> {
    let mut states = Vec::with_capacity(n);
    let mut x: i64 = 7;
    let mut y: i64 = 13;
    for i in 0..n {
        // Simple LCG over the grid (plus a margin so some states land OOB).
        x = (x.wrapping_mul(1103515245).wrapping_add(12345)) % (size + 8);
        y = (y.wrapping_mul(69069).wrapping_add(1)) % (size + 8);
        states.push(Cell2::new((x - 4).abs(), (y - 4 + (i as i64 % 3)).abs()));
    }
    states
}

/// Every orientation key a `side`² map produces (the reduced direction
/// between any two cells, and `Axis`), each once.
fn map_headings(side: i64) -> Vec<RotKey> {
    let mut keys: Vec<RotKey> = (1 - side..side)
        .flat_map(|dy| (1 - side..side).map(move |dx| RotKey::from_direction(dx, dy)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// What one footprint's headings hold in a cache.
struct TemplateLeg {
    census: TemplateCensus,
    /// Mean time of one direct (uncached) template build.
    build_us: f64,
    /// Keys whose cached template differs from a direct build.
    mismatches: usize,
}

/// Every heading of a `side`² map through one fresh cache; then each key's
/// cached template against a timed direct build.
fn template_leg<D: Dim>(footprint: &D::Footprint, side: i64) -> TemplateLeg {
    let keys = map_headings(side);
    let cache = TemplateCache::<D>::new(keys.len());
    let cached: Vec<_> = keys.iter().map(|&k| cache.get(footprint, k).0).collect();
    let t = Instant::now();
    let direct: Vec<_> = keys.iter().map(|&k| black_box(D::template(footprint, k))).collect();
    let build_us = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    let mismatches = cached.iter().zip(&direct).filter(|(c, d)| ***c != **d).count();
    TemplateLeg { census: cache.census(), build_us, mismatches }
}

fn main() {
    let o = parse_args();
    let size: u32 = 512;
    let grid = city_map(CityName::Boston, size, size);
    let fp = Footprint2::car();
    let goal = Cell2::new(size as i64 - 10, size as i64 - 10);
    let states = sweep_states(o.checks, size as i64);

    // OBB baseline: per-state rasterization + early-exit cell walk.
    let t0 = Instant::now();
    let mut obb_verdicts = Vec::with_capacity(states.len());
    for &s in &states {
        let out = software_check_2d(&grid, &fp.obb_at(s, goal));
        obb_verdicts.push(out.verdict.is_free());
    }
    let obb_ns = t0.elapsed().as_nanos() as f64 / states.len() as f64;
    let obb_free: u64 = obb_verdicts.iter().map(|&v| u64::from(v)).sum();

    // Warm template path: first pass warms the per-rotation cache, second
    // pass is the measured steady state.
    let checker = TemplateChecker2::new(&grid, fp, goal);
    let mut hits = 0u64;
    let mut misses = 0u64;
    for &s in &states {
        let (_, hit) = checker.check_counted(s);
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let warm_hit_rate = hits as f64 / (hits + misses) as f64;
    let t1 = Instant::now();
    let mut template_verdicts = Vec::with_capacity(states.len());
    for &s in &states {
        let out = black_box(checker.check(black_box(s)));
        template_verdicts.push(out.verdict.is_free());
    }
    let template_ns = t1.elapsed().as_nanos() as f64 / states.len() as f64;

    // Batched warm path: the same states, fed as the wave-shaped batches
    // real consumers produce. PASE waves and the server dispatcher hand
    // the checker orientation-coherent chunks (states in one wave share a
    // heading ray) whose rotation keys they computed when sorting, so the
    // bench groups the sweep by rotation key once up front and probes
    // through `check_batch_keyed_into`; the boundary chunks that straddle
    // two keys exercise the sorted slow path. Gathering each wave is timed
    // — the dispatcher pays that too.
    let all_keys: Vec<RotKey> = states.iter().map(|&s| fp.rot_key(s, goal)).collect();
    let mut order: Vec<u32> = (0..states.len() as u32).collect();
    order.sort_by_key(|&i| all_keys[i as usize]);
    let sorted_states: Vec<Cell2> = order.iter().map(|&i| states[i as usize]).collect();
    let sorted_keys: Vec<RotKey> = order.iter().map(|&i| all_keys[i as usize]).collect();
    let mut group_order = Vec::with_capacity(BATCH);
    let mut out_checks = Vec::with_capacity(BATCH);
    let mut sorted_verdicts = Vec::with_capacity(states.len());
    let t2 = Instant::now();
    for (wave, wave_keys) in sorted_states.chunks(BATCH).zip(sorted_keys.chunks(BATCH)) {
        checker.check_batch_keyed_into(
            black_box(wave),
            wave_keys,
            &mut group_order,
            &mut out_checks,
        );
        sorted_verdicts.extend(out_checks.iter().map(|c| c.verdict.is_free()));
    }
    let batch_ns = t2.elapsed().as_nanos() as f64 / states.len() as f64;
    let mut batch_verdicts = vec![false; states.len()];
    for (&i, &v) in order.iter().zip(&sorted_verdicts) {
        batch_verdicts[i as usize] = v;
    }

    // The SIMD/batched kernel must agree with the scalar template walk on
    // every single state — the bit-identity contract, not a tolerance.
    let scalar_agree = states
        .iter()
        .enumerate()
        .filter(|&(i, &s)| {
            let (tpl, _) = checker.cache().get(&fp, fp.rot_key(s, goal));
            let scalar = template_check_scalar(&grid, s, &tpl).verdict.is_free();
            scalar == template_verdicts[i] && scalar == batch_verdicts[i]
        })
        .count();
    let scalar_agreement = scalar_agree as f64 / states.len() as f64;
    assert!(scalar_agreement == 1.0, "kernel diverged from scalar walk: {scalar_agreement}");

    // Template semantics translate the reference rasterization exactly; the
    // per-state OBB rasterization can differ by an f32 rounding cell at a
    // vanishing fraction of states. Anything beyond that is a kernel bug.
    let obb_agree = obb_verdicts.iter().zip(&template_verdicts).filter(|(a, b)| a == b).count();
    let obb_agreement = obb_agree as f64 / states.len() as f64;
    assert!(obb_agreement > 0.999, "OBB/kernel agreement collapsed: {obb_agreement}");

    // Timing-model leg: the sweep through the CODAcc model on 8 units, each
    // check expanding its (already cached) template as the simulator does.
    // The first pass warms the pool's caches and buffers.
    let templates: Vec<_> =
        states.iter().map(|&s| checker.cache().get(&fp, fp.rot_key(s, goal)).0).collect();
    let mut pool = CodaccPool::new(8);
    let mut cells = Vec::new();
    let mut model_pass = || {
        let mut cycles = 0;
        for (i, (&s, tpl)) in states.iter().zip(&templates).enumerate() {
            tpl.expand_into(black_box(s), &mut cells);
            cycles += pool.check_cells(i % 8, &grid, &cells).cycles;
        }
        cycles
    };
    model_pass();
    let t3 = Instant::now();
    let model_cycles = model_pass();
    let model_ns = t3.elapsed().as_nanos() as f64 / states.len() as f64;
    let model_cycles_per_check = model_cycles as f64 / states.len() as f64;

    let car_templates = template_leg::<D2>(&fp, 128);
    let drone_templates = template_leg::<D3>(&Footprint3::drone(), 48);
    let template_mismatches = car_templates.mismatches + drone_templates.mismatches;

    let speedup = obb_ns / template_ns;
    let checks_per_sec = 1e9 / template_ns;
    let batch_checks_per_sec = 1e9 / batch_ns;

    if let Some(baseline_path) = &o.gate {
        let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read gate baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let base_ns = json_number(&baseline, "template_ns_per_check").unwrap_or_else(|| {
            eprintln!("baseline {baseline_path} has no template_ns_per_check");
            std::process::exit(1);
        });
        let base_model_ns = json_number(&baseline, "model_ns_per_check").unwrap_or_else(|| {
            eprintln!("baseline {baseline_path} has no model_ns_per_check");
            std::process::exit(1);
        });
        eprintln!(
            "gate: warm {template_ns:.1} ns/check vs baseline {base_ns:.1} ns/check, \
             model {model_ns:.1} ns/check vs baseline {base_model_ns:.1} ns/check \
             (tolerance {GATE_TOLERANCE}x), batched {batch_ns:.1} ns/check, \
             simd_lanes {}, {template_mismatches} cached templates differ from a direct build",
            simd_lanes()
        );
        if template_mismatches > 0 {
            eprintln!("gate FAILED: a cached template differs from its direct build");
            std::process::exit(1);
        }
        if template_ns > base_ns * GATE_TOLERANCE {
            eprintln!("gate FAILED: warm ns/check regressed beyond tolerance");
            std::process::exit(1);
        }
        if model_ns > base_model_ns * GATE_TOLERANCE {
            eprintln!("gate FAILED: timing-model ns/check regressed beyond tolerance");
            std::process::exit(1);
        }
        eprintln!("gate passed");
        return;
    }

    assert_eq!(template_mismatches, 0, "a cached template differs from its direct build");
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"codacc_software_check_2d\",");
    let _ = writeln!(json, "  \"grid\": \"boston_{size}x{size}\",");
    let _ = writeln!(json, "  \"footprint\": \"car_16x8_toward_goal\",");
    let _ = writeln!(json, "  \"checks\": {},", states.len());
    let _ = writeln!(json, "  \"simd_lanes\": {},", simd_lanes());
    let _ = writeln!(json, "  \"free_fraction\": {:.4},", obb_free as f64 / states.len() as f64);
    let _ = writeln!(json, "  \"scalar_agreement\": {scalar_agreement:.6},");
    let _ = writeln!(json, "  \"obb_agreement\": {obb_agreement:.6},");
    let _ = writeln!(json, "  \"scalar_ns_per_check\": {obb_ns:.1},");
    let _ = writeln!(json, "  \"template_ns_per_check\": {template_ns:.1},");
    let _ = writeln!(json, "  \"template_checks_per_sec\": {checks_per_sec:.0},");
    let _ = writeln!(json, "  \"batch_ns_per_check\": {batch_ns:.1},");
    let _ = writeln!(json, "  \"batch_checks_per_sec\": {batch_checks_per_sec:.0},");
    let _ = writeln!(json, "  \"model_ns_per_check\": {model_ns:.1},");
    let _ = writeln!(json, "  \"model_cycles_per_check\": {model_cycles_per_check:.4},");
    let _ = writeln!(json, "  \"warm_speedup\": {speedup:.2},");
    let _ = writeln!(json, "  \"template_cache_hit_rate\": {warm_hit_rate:.4},");
    let _ = writeln!(json, "  \"template_cache_entries\": {},", checker.cache().len());
    let _ = writeln!(json, "  \"template_keys\": {},", car_templates.census.keys);
    let _ = writeln!(json, "  \"template_distinct\": {},", car_templates.census.distinct);
    let _ = writeln!(json, "  \"template_bytes\": {},", car_templates.census.bytes);
    let _ = writeln!(json, "  \"template_build_us\": {:.2},", car_templates.build_us);
    let _ = writeln!(json, "  \"drone_template_keys\": {},", drone_templates.census.keys);
    let _ = writeln!(json, "  \"drone_template_distinct\": {},", drone_templates.census.distinct);
    let _ = writeln!(json, "  \"drone_template_build_us\": {:.2}", drone_templates.build_us);
    let _ = writeln!(json, "}}");

    std::fs::write(&o.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", o.out);
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!("wrote {}", o.out);
}
