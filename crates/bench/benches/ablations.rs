//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the paper's Algorithm-1 DP (exponential child-combination enumeration)
//!   vs the knapsack-merge DP that computes the same optimum in O(n·l²);
//! * Top-Path vs the §5.2 `s(v)` precomputation variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sizel_bench::{Bench, GdsKind};
use sizel_core::algo::{DpKnapsack, DpNaive, SizeLAlgorithm, TopPath, TopPathOpt};
use sizel_core::osgen::generate_os;

fn full_scale() -> bool {
    std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_dp_variants(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let ctx = bench.ctx(GdsKind::Author, 0);
    let tds = bench.samples(GdsKind::Author, 1)[0];
    let mut group = c.benchmark_group("ablation/dp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for l in [4usize, 8, 12] {
        let os = generate_os(&ctx, tds, Some(l as u32 - 1));
        group.bench_with_input(BenchmarkId::new("knapsack", l), &l, |b, &l| {
            b.iter(|| black_box(DpKnapsack.compute(black_box(&os), l)))
        });
        // The naive DP is budgeted so the bench cannot hang; exceeding the
        // budget still costs the budgeted work, which is the honest number.
        let naive = DpNaive { budget: 20_000_000 };
        group.bench_with_input(BenchmarkId::new("paper_naive", l), &l, |b, &l| {
            b.iter(|| black_box(naive.try_compute(black_box(&os), l)))
        });
    }
    group.finish();
}

fn bench_top_path_variants(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let ctx = bench.ctx(GdsKind::Author, 0);
    let tds = bench.samples(GdsKind::Author, 1)[0];
    let mut group = c.benchmark_group("ablation/top_path");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for l in [10usize, 50] {
        let os = generate_os(&ctx, tds, Some(l as u32 - 1));
        group.bench_with_input(BenchmarkId::new("reference", l), &l, |b, &l| {
            b.iter(|| black_box(TopPath.compute(black_box(&os), l)))
        });
        group.bench_with_input(BenchmarkId::new("s_of_v", l), &l, |b, &l| {
            b.iter(|| black_box(TopPathOpt.compute(black_box(&os), l)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dp_variants, bench_top_path_variants);
criterion_main!(benches);
