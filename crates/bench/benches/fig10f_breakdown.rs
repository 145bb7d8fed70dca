//! Criterion bench behind Figure 10(f): the OS-generation side of the cost
//! breakdown — complete vs prelim-l, on the Supplier GDS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sizel_bench::{Bench, GdsKind};
use sizel_core::osgen::generate_os;
use sizel_core::prelim::generate_prelim;

fn full_scale() -> bool {
    std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_breakdown(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let ctx = bench.ctx(GdsKind::Supplier, 0);
    let tds = bench.samples(GdsKind::Supplier, 1)[0];
    let mut group = c.benchmark_group("fig10f/os_generation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for l in [10usize, 50] {
        group.bench_with_input(BenchmarkId::new("complete", l), &l, |b, &l| {
            b.iter(|| black_box(generate_os(&ctx, tds, Some(l as u32 - 1))))
        });
        group.bench_with_input(BenchmarkId::new("prelim", l), &l, |b, &l| {
            b.iter(|| black_box(generate_prelim(&ctx, tds, l)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_breakdown);
criterion_main!(benches);
