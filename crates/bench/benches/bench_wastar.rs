//! Figure 10 bench: planning episodes under different heuristics and
//! heuristic weights (plus Dijkstra).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use racod::prelude::*;
use std::hint::black_box;

fn bench_wastar(c: &mut Criterion) {
    let grid = city_map(CityName::Paris, 256, 256);
    let base_cost = CostModel::i3_software();

    let mut group = c.benchmark_group("fig10_heuristics");
    for (h, name) in [
        (Heuristic2::Euclidean, "euclidean"),
        (Heuristic2::Manhattan, "manhattan"),
        (Heuristic2::Zero, "dijkstra"),
    ] {
        for eps in [1.0f64, 2.0] {
            if name == "dijkstra" && eps > 1.0 {
                continue;
            }
            let sc = Scenario2::new(&grid)
                .with_free_endpoints((10, 10), (245, 245))
                .with_space(GridSpace2::eight_connected(256, 256).with_heuristic(h))
                .with_astar(AstarConfig { weight: eps, ..Default::default() });
            group.bench_with_input(BenchmarkId::new(name, format!("eps{eps}")), &sc, |b, sc| {
                b.iter(|| black_box(plan(sc, Backend::software(4, None), &base_cost).cycles))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_wastar
}
criterion_main!(benches);
