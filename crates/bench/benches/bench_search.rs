//! Substrate bench: raw search-engine throughput (expansions/second) and
//! the engine's open-list ([`IntHeap`]) operations, independent of
//! collision costs — the serial bottleneck RACOD leaves behind after
//! accelerating collision detection.

use criterion::{criterion_group, criterion_main, Criterion};
use racod::prelude::*;
use racod::search::IntHeap;
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    c.bench_function("astar_free_space_256", |b| {
        let grid = BitGrid2::new(256, 256);
        let space = GridSpace2::eight_connected(256, 256);
        b.iter(|| {
            let mut oracle = FnOracle::new(|c: Cell2| grid.get(c) == Some(false));
            black_box(
                astar(
                    &space,
                    Cell2::new(1, 1),
                    Cell2::new(254, 254),
                    &AstarConfig::default(),
                    &mut oracle,
                )
                .cost,
            )
        })
    });

    c.bench_function("astar_city_point_robot", |b| {
        let grid = city_map(CityName::Shanghai, 256, 256);
        let space = GridSpace2::eight_connected(256, 256);
        let s = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(8, 8));
        let g = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(248, 248));
        b.iter(|| {
            let mut oracle = FnOracle::new(|c: Cell2| grid.get(c) == Some(false));
            black_box(astar(&space, s, g, &AstarConfig::default(), &mut oracle).found())
        })
    });

    c.bench_function("int_heap_push_pop_10k", |b| {
        b.iter(|| {
            let mut open = IntHeap::new();
            for i in 0..10_000u32 {
                open.push(i, (i % 97) as f64, (i % 13) as f64);
            }
            let mut count = 0;
            while open.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_search
}
criterion_main!(benches);
