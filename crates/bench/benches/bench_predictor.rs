//! Figure 8 bench: cost of the semantic predictor per expansion and the
//! VLDP hardware predictor per access.

use criterion::{criterion_group, criterion_main, Criterion};
use racod::prelude::*;
use racod::rasexp::{LastDirectionPredictor, VldpPredictor};
use std::hint::black_box;

fn bench_predictor(c: &mut Criterion) {
    c.bench_function("semantic_predict_depth32", |b| {
        let pred = LastDirectionPredictor::new(32);
        b.iter(|| {
            black_box(pred.predict(black_box(Cell2::new(100, 100)), Some(Cell2::new(99, 99))))
        })
    });

    c.bench_function("vldp_access", |b| {
        let mut vldp = VldpPredictor::new(8);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4);
            vldp.access(black_box(addr));
        })
    });

    // Full runahead planning (functional oracle) on a city map — the cost
    // of the whole Fig 8 semantic data point.
    c.bench_function("rasexp_planning_r32", |b| {
        let grid = city_map(CityName::Boston, 256, 256);
        let space = GridSpace2::eight_connected(256, 256);
        let start = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(8, 8));
        let goal = racod::sim::planner::free_near::<D2>(&grid, Cell2::new(248, 248));
        b.iter(|| {
            let mut oracle =
                RunaheadOracle::new(&space, RunaheadConfig::with_runahead(32), |c: Cell2| {
                    grid.get(c) == Some(false)
                });
            black_box(astar(&space, start, goal, &AstarConfig::default(), &mut oracle).cost)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_predictor
}
criterion_main!(benches);
