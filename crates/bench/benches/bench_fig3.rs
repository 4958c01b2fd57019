//! Figure 3 bench: one full 2D planning episode per platform point
//! (software baseline; RACOD at 1 / 32 units) on a city map.

use criterion::{criterion_group, criterion_main, Criterion};
use racod::prelude::*;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let grid = city_map(CityName::Boston, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
    let base_cost = CostModel::i3_software();
    let racod_cost = CostModel::racod();

    let mut group = c.benchmark_group("fig3_city_planning");
    group.bench_function("software_baseline_4t", |b| {
        b.iter(|| black_box(plan(&sc, Backend::software(4, None), &base_cost).cycles))
    });
    group.bench_function("racod_1_unit", |b| {
        b.iter(|| black_box(plan(&sc, Backend::racod(1), &racod_cost).cycles))
    });
    group.bench_function("racod_32_units", |b| {
        b.iter(|| black_box(plan(&sc, Backend::racod(32), &racod_cost).cycles))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_fig3
}
criterion_main!(benches);
