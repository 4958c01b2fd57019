//! Table 2 companion bench: throughput of individual CODAcc checks vs the
//! software reference checker, across OBB sizes and orientations — plus the
//! warm-cache word-parallel template kernel that the planners check with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use racod::geom::FootprintTemplate2;
use racod::prelude::*;
use std::hint::black_box;

fn bench_checks(c: &mut Criterion) {
    let grid = city_map(CityName::Boston, 512, 512);
    let mut group = c.benchmark_group("collision_check_2d");
    for &(l, w) in &[(4.0f32, 2.0f32), (16.0, 8.0), (45.0, 18.0)] {
        let obb = Obb2::centered(Vec2::new(200.0, 200.0), l, w, Rotation2::from_angle(0.45));
        group.bench_with_input(BenchmarkId::new("software", format!("{l}x{w}")), &obb, |b, obb| {
            b.iter(|| black_box(software_check_2d(&grid, black_box(obb))))
        });
        group.bench_with_input(
            BenchmarkId::new("codacc_model", format!("{l}x{w}")),
            &obb,
            |b, obb| {
                let mut pool = CodaccPool::new(1);
                b.iter(|| black_box(pool.check_2d(0, &grid, black_box(obb))))
            },
        );
        // The warm-cache fast path: template precompiled, per-check work is
        // the masked-AND scan. Same state as the OBB above.
        let tpl = FootprintTemplate2::for_box(l, w, Rotation2::from_angle(0.45));
        let state = Cell2::new(200, 200);
        group.bench_with_input(
            BenchmarkId::new("template_kernel", format!("{l}x{w}")),
            &tpl,
            |b, tpl| b.iter(|| black_box(template_check(&grid, black_box(state), tpl))),
        );
    }
    group.finish();

    // The area/power model evaluation itself (trivially fast; included so
    // `bench_codacc` covers all of Table 2's artifacts).
    c.bench_function("table2_model", |b| {
        b.iter(|| {
            let m = AreaPowerModel::default();
            black_box(m.system_area_mm2(32) + m.system_power_mw(32))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_checks
}
criterion_main!(benches);
