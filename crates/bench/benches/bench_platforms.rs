//! Figure 13 bench: one planning episode per platform configuration,
//! including the *real* threaded software planner (wall clock, not model).

use criterion::{criterion_group, criterion_main, Criterion};
use racod::parallel::{ParallelConfig, ParallelPlanner};
use racod::prelude::*;
use racod::sim::pase_model::plan_pase_2d;
use std::hint::black_box;
use std::sync::Arc;

fn bench_platforms(c: &mut Criterion) {
    let grid = city_map(CityName::Boston, 256, 256);
    let sc = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));

    let mut group = c.benchmark_group("fig13_platforms");
    group.bench_function("model_bm_32t", |b| {
        let cost = CostModel::xeon_software();
        b.iter(|| black_box(plan(&sc, Backend::software(32, None), &cost).cycles))
    });
    group.bench_function("model_rasexp_32t", |b| {
        let cost = CostModel::xeon_software();
        b.iter(|| black_box(plan(&sc, Backend::software(32, Some(32)), &cost).cycles))
    });
    group.bench_function("model_pase_32t", |b| {
        let cost = CostModel::xeon_software();
        b.iter(|| black_box(plan_pase_2d(&sc, 32, &cost).cycles))
    });
    group.bench_function("model_racod_32u", |b| {
        let cost = CostModel::racod();
        b.iter(|| black_box(plan(&sc, Backend::racod(32), &cost).cycles))
    });
    group.finish();

    // Real threads: the point-robot software RASExp planner end to end.
    let shared = Arc::new(city_map(CityName::Boston, 256, 256));
    let (s, g) = (sc.start, sc.goal);
    let mut group = c.benchmark_group("fig13_real_threads");
    group.sample_size(10);
    for (name, cfg) in
        [("bm_8t", ParallelConfig::baseline(8)), ("rasexp_8t_r16", ParallelConfig::rasexp(8, 16))]
    {
        let gridref = shared.clone();
        group.bench_function(name, move |b| {
            let gridref = gridref.clone();
            b.iter(|| {
                let g2 = gridref.clone();
                let planner = ParallelPlanner::new(cfg, move |c: Cell2| g2.get(c) == Some(false));
                let space = GridSpace2::eight_connected(256, 256);
                black_box(planner.plan(&space, s, g).result.cost)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_platforms
}
criterion_main!(benches);
