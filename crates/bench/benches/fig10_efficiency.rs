//! Criterion bench behind Figure 10(a-d): size-l computation time per
//! method × input (complete vs prelim-l OS), per GDS case.
//!
//! Set `SIZEL_BENCH_FULL=1` to run at the calibrated benchmark scale; the
//! default quick scale keeps `cargo bench` under a minute per group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sizel_bench::{Bench, GdsKind};
use sizel_core::algo::{BottomUp, SizeLAlgorithm, TopPath};
use sizel_core::osgen::generate_os;
use sizel_core::prelim::generate_prelim;

fn full_scale() -> bool {
    std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_fig10(c: &mut Criterion) {
    let bench = Bench::new(!full_scale());
    for kind in GdsKind::ALL {
        let mut group = c.benchmark_group(format!("fig10/{}", kind.label().replace(' ', "_")));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(1));
        let ctx = bench.ctx(kind, 0);
        let tds = bench.samples(kind, 1)[0];
        for l in [10usize, 30] {
            let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
            let (prelim, _) = generate_prelim(&ctx, tds, l);
            let cases: [(&str, &dyn SizeLAlgorithm, &sizel_core::os::Os); 4] = [
                ("bottom_up/complete", &BottomUp, &complete),
                ("bottom_up/prelim", &BottomUp, &prelim),
                ("top_path/complete", &TopPath, &complete),
                ("top_path/prelim", &TopPath, &prelim),
            ];
            for (name, algo, input) in cases {
                group.bench_with_input(BenchmarkId::new(name, l), &l, |b, &l| {
                    b.iter(|| black_box(algo.compute(black_box(input), l)));
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
