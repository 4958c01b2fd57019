//! Golden simulated results: the exact metrics of a few fixed plans,
//! pinned as literal constants.
//!
//! The constants were captured at the commit *before* the planner surface
//! was folded over `Dim` (through the old `plan_{software,racod}_{2d,3d}`
//! names) and have not been edited since: a refactor that claims
//! bit-identity must leave this file's numbers alone. A change that moves
//! simulated results on purpose regenerates them deliberately — run with
//! `-- --nocapture` and paste the printed table.

use racod::codacc::CodaccPool;
use racod::grid::gen::{campus_3d, city_map, CityName};
use racod::mem::{CacheConfig, LatencyModel};
use racod::prelude::*;
use std::sync::Arc;

/// `(cost bits, path states, expansions, cycles, spec issued, spec used,
/// L0 hits, L0 misses, template hits, template misses)`.
type Row = (u64, usize, u64, u64, u64, u64, u64, u64, u64, u64);

/// One row per backend: software BM ×4, software RASExp ×4 depth 8, RACOD
/// ×8, one CODAcc without RASExp, then RACOD on one warm pool and one
/// shared template cache, cold and again warm.
fn rows<D: Dim>(sc: &Scenario<'_, D>) -> Vec<Row> {
    let (sw, hw) = (CostModel::i3_software(), CostModel::racod());
    let shared = sc.clone().with_template_cache(Arc::default());
    let mut pool = CodaccPool::new(8);
    let one_codacc = Backend::Racod {
        units: 1,
        runahead: false,
        latency: LatencyModel::default(),
        l0: CacheConfig::l0_default(),
    };
    [
        plan(sc, Backend::software(4, None), &sw),
        plan(sc, Backend::software(4, Some(8)), &sw),
        plan(sc, Backend::racod(8), &hw),
        plan(sc, one_codacc, &hw),
        plan(&shared, Backend::RacodPooled(&mut pool), &hw),
        plan(&shared, Backend::RacodPooled(&mut pool), &hw),
    ]
    .iter()
    .map(|out| {
        let l0 = out.l0_stats.unwrap_or_default();
        (
            out.result.cost.to_bits(),
            out.result.path.as_ref().map_or(0, |p| p.len()),
            out.result.stats.expansions,
            out.cycles,
            out.stats.spec_issued,
            out.stats.spec_used,
            l0.hits,
            l0.misses,
            out.tstats.hits,
            out.tstats.misses,
        )
    })
    .collect()
}

const GOLDEN: [(&str, [Row; 6]); 5] = [
    (
        "boston/car",
        [
            (4639265816502892434, 108, 2180, 1419248, 0, 0, 0, 0, 1004, 1581),
            (4639265816502892434, 108, 2180, 515206, 1738, 1585, 0, 0, 1077, 1661),
            (4639265816502892434, 108, 2180, 74646, 2426, 2096, 4596, 13274, 1142, 1773),
            (4639265816502892434, 108, 2180, 152796, 0, 0, 3279, 12867, 1004, 1581),
            (4639265816502892434, 108, 2180, 75001, 2426, 2096, 4597, 13273, 1142, 1773),
            (4639265816502892434, 108, 2180, 74923, 2426, 2096, 9194, 26546, 1231, 1684),
        ],
    ),
    (
        "boston/point",
        [
            (4639988043010233430, 119, 1109, 143247, 0, 0, 0, 0, 1575, 1),
            (4639988043010233430, 119, 1109, 74769, 1256, 1030, 0, 0, 1801, 1),
            (4639988043010233430, 119, 1109, 35737, 1863, 1383, 885, 1171, 2055, 1),
            (4639988043010233430, 119, 1109, 59405, 0, 0, 1216, 360, 1575, 1),
            (4639988043010233430, 119, 1109, 37033, 1739, 1273, 820, 1222, 2041, 1),
            (4639988043010233430, 119, 1109, 37008, 1740, 1273, 1639, 2446, 2043, 0),
        ],
    ),
    (
        "shanghai/car",
        [
            (4639265816502892433, 108, 1464, 951536, 0, 0, 0, 0, 592, 1286),
            (4639265816502892433, 108, 1464, 385417, 1209, 1049, 0, 0, 673, 1365),
            (4639265816502892433, 108, 1464, 51354, 1840, 1473, 2716, 10329, 745, 1500),
            (4639265816502892433, 108, 1464, 104919, 0, 0, 2233, 9150, 592, 1286),
            (4639265816502892433, 108, 1464, 51622, 1834, 1473, 2709, 10325, 742, 1497),
            (4639265816502892433, 108, 1464, 51559, 1835, 1473, 5412, 20659, 881, 1359),
        ],
    ),
    (
        "shanghai/point",
        [
            (4639988043010233430, 119, 887, 118399, 0, 0, 0, 0, 1353, 1),
            (4639988043010233430, 119, 887, 61665, 1034, 883, 0, 0, 1504, 1),
            (4639988043010233430, 119, 887, 28858, 1581, 1181, 689, 1065, 1753, 1),
            (4639988043010233430, 119, 887, 48675, 0, 0, 1056, 298, 1353, 1),
            (4639988043010233430, 119, 887, 29989, 1454, 1080, 654, 1074, 1727, 1),
            (4639988043010233430, 119, 887, 29967, 1454, 1080, 1307, 2149, 1728, 0),
        ],
    ),
    (
        "campus/drone",
        [
            (4634323912693288715, 44, 6838, 2827316, 0, 0, 0, 0, 11472, 631),
            (4634323912693288715, 44, 6838, 1579342, 7380, 6056, 0, 0, 12759, 668),
            (4634323912693288715, 44, 6838, 431992, 12281, 9309, 3766, 57176, 14349, 726),
            (4634323912693288715, 44, 6838, 599193, 0, 0, 8527, 43879, 11472, 631),
            (4634323912693288715, 44, 6838, 434031, 12201, 9257, 3562, 57509, 14327, 720),
            (4634323912693288715, 44, 6838, 433878, 12209, 9264, 7086, 115057, 15048, 0),
        ],
    ),
];

#[test]
fn simulated_results_match_the_golden_table() {
    let mut actual: Vec<(String, Vec<Row>)> = Vec::new();
    for city in [CityName::Boston, CityName::Shanghai] {
        let grid = city_map(city, 128, 128);
        for (robot, footprint) in [("car", Footprint2::car()), ("point", Footprint2::point())] {
            let sc = Scenario2::new(&grid)
                .with_footprint(footprint)
                .with_free_endpoints((5, 5), (120, 120));
            actual.push((format!("{}/{robot}", city.as_str()), rows(&sc)));
        }
    }
    let campus = campus_3d(3, 48, 48, 24);
    let sc = Scenario3::new(&campus).with_free_endpoints((3, 3, 6), (44, 44, 10));
    actual.push(("campus/drone".to_string(), rows(&sc)));

    for (name, rows) in &actual {
        println!("    (\"{name}\", [");
        for row in rows {
            println!("        {row:?},");
        }
        println!("    ]),");
    }
    assert_eq!(actual.len(), GOLDEN.len());
    for ((name, rows), (golden_name, golden_rows)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        for (i, (row, golden)) in rows.iter().zip(golden_rows).enumerate() {
            assert_eq!(*row, golden, "{name}, backend {i}");
        }
    }
}
