//! Serving-layer throughput: queries/second against caller-thread count
//! on the fig10 DBLP workload (benchmark-scale database, the famous-author
//! head plus band-sampled DSs, l and algorithm crossed as in Figure 10).
//!
//! The server has no threads of its own, so `N` is the number of caller
//! threads sharing it — the shape a net dispatch pool has: each
//! iteration spawns `N` scoped threads, thread `t` serving requests
//! `t, t+N, …` of the set (the spawns are inside the timed region, the
//! same for every regime). Three regimes per thread count:
//! * `uncached` — cache disabled: how the sequential engine scales over
//!   callers sharing one read lock.
//! * `warm-cache` — cache enabled; it warms during the first iteration
//!   (emptying it between batches would require rebuilding the server),
//!   so reported numbers are the steady state.
//! * `sequential` — the PR-1 engine loop, the 1-thread baseline.
//!
//! `SIZEL_BENCH_FULL=1` uses more samples; the default keeps `cargo
//! bench` under a minute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::{Arc, OnceLock, RwLock};

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{EngineConfig, QueryOptions, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::{ServeConfig, SizeLServer};

fn engine() -> Arc<RwLock<SizeLEngine>> {
    static E: OnceLock<Arc<RwLock<SizeLEngine>>> = OnceLock::new();
    Arc::clone(E.get_or_init(|| {
        let d = generate(&DblpConfig::bench());
        Arc::new(RwLock::new(
            SizeLEngine::build(
                d.db,
                |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
                EngineConfig::new(vec![
                    ("Author".into(), presets::dblp_author_gds_config()),
                    ("Paper".into(), presets::dblp_paper_gds_config()),
                ]),
            )
            .expect("bench DBLP engine builds"),
        ))
    }))
}

/// The fig10 DBLP workload: the famous-author ladder keywords crossed
/// with Figure 10's l axis (subset) and both greedy methods, on prelim
/// and complete inputs.
fn workload() -> Vec<(String, QueryOptions)> {
    let keywords = [
        "Christos Faloutsos",
        "Michalis Faloutsos",
        "Petros Faloutsos",
        "Ariadne Metaxa",
        "Stavros Koronis",
        "Faloutsos",
    ];
    let mut set = Vec::new();
    for kw in keywords {
        for l in [10usize, 30, 50] {
            for algo in [AlgoKind::TopPath, AlgoKind::BottomUp] {
                for prelim in [true, false] {
                    set.push((
                        kw.to_owned(),
                        QueryOptions { l, algo, prelim, ..QueryOptions::default() },
                    ));
                }
            }
        }
    }
    set
}

fn bench_serve_throughput(c: &mut Criterion) {
    let engine = engine();
    let set = workload();
    let full = std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1");

    let mut group = c.benchmark_group("serve_throughput_fig10_dblp");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(std::time::Duration::from_secs(if full { 5 } else { 2 }));

    // The PR-1 sequential engine: the 1× reference.
    group.bench_with_input(BenchmarkId::new("sequential", 1), &set, |b, set| {
        let engine = engine.read().unwrap();
        b.iter(|| {
            for (kw, opts) in set {
                criterion::black_box(engine.query_with(kw, *opts));
            }
        });
    });

    // One iteration: `threads` callers split the set over one server.
    let drive = |server: &SizeLServer, set: &[(String, QueryOptions)], threads: usize| {
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for (kw, opts) in set.iter().skip(t).step_by(threads) {
                        criterion::black_box(server.query(kw, *opts));
                    }
                });
            }
        });
    };

    for threads in [1usize, 2, 4, 8] {
        // Caller scaling with caching off: every query recomputes.
        let server = SizeLServer::from_shared(
            Arc::clone(&engine),
            ServeConfig { cache_capacity: 0, cache_shards: 16, ..ServeConfig::default() },
        );
        group.bench_with_input(BenchmarkId::new("uncached", threads), &set, |b, set| {
            b.iter(|| drive(&server, set, threads));
        });

        // Steady-state with the summary cache: after the first iteration
        // every (tds, l, algo, prelim, source) is a hit.
        let server = SizeLServer::from_shared(
            Arc::clone(&engine),
            ServeConfig { cache_capacity: 4096, cache_shards: 16, ..ServeConfig::default() },
        );
        group.bench_with_input(BenchmarkId::new("warm-cache", threads), &set, |b, set| {
            b.iter(|| drive(&server, set, threads));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
