//! Criterion bench behind Figure 10(e): size-10 computation time against
//! |OS|, over the famous-author ladder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sizel_bench::{Bench, GdsKind};
use sizel_core::algo::{BottomUp, DpKnapsack, SizeLAlgorithm, TopPath};
use sizel_core::osgen::generate_os;

fn full_scale() -> bool {
    std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_scalability(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let ctx = bench.ctx(GdsKind::Author, 0);
    let l = 10usize;
    let mut group = c.benchmark_group("fig10e/size10_vs_os_size");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for (name, tds) in bench.ladder() {
        let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
        let size = generate_os(&ctx, tds, None).len();
        let algos: [(&str, &dyn SizeLAlgorithm); 3] =
            [("bottom_up", &BottomUp), ("top_path", &TopPath), ("optimal_dp", &DpKnapsack)];
        for (algo_name, algo) in algos {
            group.bench_with_input(
                BenchmarkId::new(algo_name, format!("{name}_{size}t")),
                &complete,
                |b, os| b.iter(|| black_box(algo.compute(black_box(os), l))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
