//! Figure 5 bench: 3D drone planning episodes per platform point.

use criterion::{criterion_group, criterion_main, Criterion};
use racod::prelude::*;
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let grid = campus_3d(0xD205, 64, 64, 24);
    let sc = Scenario3::new(&grid).with_free_endpoints((3, 3, 12), (60, 60, 12));
    let base_cost = CostModel::i3_software();
    let racod_cost = CostModel::racod();

    let mut group = c.benchmark_group("fig5_drone_planning");
    group.bench_function("software_baseline_4t", |b| {
        b.iter(|| black_box(plan(&sc, Backend::software(4, None), &base_cost).cycles))
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
    targets = bench_fig5
}
criterion_main!(benches);
