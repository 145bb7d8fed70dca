//! Data-layout bench: the cost of materializing Object Summaries.
//!
//! Measures the two ROADMAP hot paths the CSR-arena PR targets:
//!
//! * `generate_os` on the famous-author ladder (Figure 10e's 1000+-tuple
//!   OSs) — dominated by per-node allocation before the flat CSR arena,
//! * prelim-l generation from either tuple source through a pooled arena —
//!   dominated by the `select_eq_top_l` Avoidance-Condition-2 probes both
//!   sources issue, which the importance-sorted FK index turns into
//!   bounded prefix scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sizel_bench::{Bench, GdsKind};
use sizel_core::os::OsArenaPool;
use sizel_core::osgen::{generate_os, generate_os_pooled, OsSource};
use sizel_core::prelim::generate_prelim_pooled;

fn full_scale() -> bool {
    std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_generate(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let ctx = bench.ctx(GdsKind::Author, 0);
    let mut group = c.benchmark_group("os_layout/generate_os");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for (name, tds) in bench.ladder() {
        let size = generate_os(&ctx, tds, None, OsSource::DataGraph).len();
        group.bench_with_input(
            BenchmarkId::new("data_graph", format!("{name}_{size}t")),
            &tds,
            |b, &tds| b.iter(|| black_box(generate_os(&ctx, tds, None, OsSource::DataGraph))),
        );
        // The steady-state serving path: arena + scratch recycled, zero
        // allocations per generation (tests/alloc_guard.rs).
        let mut pool = OsArenaPool::new();
        group.bench_with_input(
            BenchmarkId::new("data_graph_pooled", format!("{name}_{size}t")),
            &tds,
            |b, &tds| {
                b.iter(|| {
                    let os = generate_os_pooled(&ctx, tds, None, OsSource::DataGraph, &mut pool);
                    let n = black_box(os.len());
                    pool.release(os);
                    n
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("database", format!("{name}_{size}t")),
            &tds,
            |b, &tds| b.iter(|| black_box(generate_os(&ctx, tds, None, OsSource::Database))),
        );
    }
    group.finish();
}

fn bench_prelim(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    let mut group = c.benchmark_group("os_layout/prelim");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for kind in [GdsKind::Author, GdsKind::Supplier] {
        let ctx = bench.ctx(kind, 0);
        let tds = bench.samples(kind, 1)[0];
        let mut pool = OsArenaPool::new();
        for l in [15usize, 50] {
            for (source, name) in
                [(OsSource::Database, "database"), (OsSource::DataGraph, "data_graph")]
            {
                let id = format!("{}_{name}_pooled", kind.label().replace(' ', "_"));
                group.bench_with_input(BenchmarkId::new(id, l), &l, |b, &l| {
                    b.iter(|| {
                        let (os, _) = generate_prelim_pooled(&ctx, tds, l, source, &mut pool);
                        let n = black_box(os.len());
                        pool.release(os);
                        n
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_generate, bench_prelim);
criterion_main!(benches);
