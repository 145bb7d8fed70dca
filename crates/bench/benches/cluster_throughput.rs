//! Cluster-serving throughput (ISSUE 5): the sharded router vs a single
//! server on the fig10 DBLP workload, the batched vs folded mutation
//! apply, and the hot-key-after-write latency with the continual-refresh
//! worker on and off.
//!
//! Groups:
//! * `cluster_throughput_dblp` — `single_server` is the PR-2 serving
//!   baseline; `cluster/N` routes the same batch through an N-shard
//!   partitioned router (per-DS fan-out + merge). NOTE: on the 1-CPU
//!   reference container cross-shard parallelism cannot show up — the
//!   interesting single-core signal is the router overhead.
//! * `apply_amortization` — `folded/B` applies B mutations one
//!   `SizeLEngine::apply` at a time (B DataGraph rebuilds);
//!   `batched/B` applies them as one `apply_batch` (one rebuild).
//! * `cluster_apply` — `shards/N` is one 8 + 8 batch through an N-shard
//!   partitioned router's `apply_batch`: flat in N, the shards sharing
//!   one engine.
//! * Hot-key-after-write latency is measured with a manual timer (the
//!   refresh completes asynchronously, so it cannot sit inside a
//!   criterion closure) and printed after the run; EXPERIMENTS.md §PR 5
//!   records the reference numbers.
//!
//! `SIZEL_BENCH_FULL=1` uses more samples; the default keeps `cargo
//! bench` fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

use sizel_cluster::{ClusterConfig, ClusterRouter, RefreshConfig};
use sizel_core::engine::{EngineConfig, Mutation, QueryOptions, SizeLEngine};
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::{ServeConfig, SizeLServer};
use sizel_storage::Value;

fn build_engine() -> SizeLEngine {
    let d = generate(&DblpConfig::small());
    SizeLEngine::build(
        d.db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), presets::dblp_author_gds_config()),
            ("Paper".into(), presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("small DBLP engine builds")
}

fn serve_config() -> ServeConfig {
    ServeConfig { cache_capacity: 4096, cache_shards: 16, hot_capacity: 64 }
}

/// The fig10 famous-author workload (small-DBLP subset).
fn workload() -> Vec<(String, QueryOptions)> {
    ["Christos Faloutsos", "Michalis Faloutsos", "Petros Faloutsos", "Faloutsos"]
        .into_iter()
        .flat_map(|kw| {
            [10usize, 30].into_iter().flat_map(move |l| {
                [true, false].into_iter().map(move |prelim| {
                    (kw.to_owned(), QueryOptions { l, prelim, ..QueryOptions::default() })
                })
            })
        })
        .collect()
}

/// Fresh-pk author + junction-row mutation batches.
struct MutationSource {
    next_author: i64,
    next_junction: i64,
    paper_pk: i64,
}

impl MutationSource {
    fn new(engine: &SizeLEngine) -> Self {
        let db = engine.db();
        MutationSource {
            next_author: max_pk(db, "Author") + 1,
            next_junction: max_pk(db, "AuthorPaper") + 1,
            paper_pk: max_pk(db, "Paper"),
        }
    }

    fn batch(&mut self, size: usize) -> Vec<Mutation> {
        let mut ms = Vec::with_capacity(size * 2);
        for _ in 0..size {
            let a = self.next_author;
            self.next_author += 1;
            let j = self.next_junction;
            self.next_junction += 1;
            ms.push(Mutation::insert("Author", vec![Value::Int(a), format!("Churn A{a}").into()]));
            ms.push(Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j), Value::Int(a), Value::Int(self.paper_pk)],
            ));
        }
        ms
    }
}

fn bench_cluster_throughput(c: &mut Criterion) {
    let full = std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1");
    let set = workload();

    let mut group = c.benchmark_group("cluster_throughput_dblp");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(Duration::from_secs(if full { 5 } else { 2 }));

    // Baseline: one server, whole queries.
    let server = SizeLServer::new(build_engine(), serve_config());
    group.bench_with_input(BenchmarkId::new("single_server", 1), &set, |b, set| {
        b.iter(|| criterion::black_box(server.batch_query(set)));
    });
    drop(server);

    // The partitioned router at 1/2/4 shards (refresh off: measuring the
    // serving path, not the background worker).
    for shards in [1usize, 2, 4] {
        let engines: Vec<SizeLEngine> = (0..shards).map(|_| build_engine()).collect();
        let cluster = ClusterRouter::partitioned(
            engines,
            ClusterConfig { serve: serve_config(), refresh: None },
        )
        .expect("cluster builds");
        group.bench_with_input(BenchmarkId::new("cluster", shards), &set, |b, set| {
            b.iter(|| criterion::black_box(cluster.batch_query(set).expect("partitioned query")));
        });
    }
    group.finish();

    // Batched vs folded apply: the per-insert derived-state refresh
    // amortization (one DataGraph rebuild per batch vs one per insert).
    let mut group = c.benchmark_group("apply_amortization");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(Duration::from_secs(if full { 5 } else { 2 }));
    let batch_size = 8usize; // 8 authors + 8 junction rows per batch

    let mut engine = build_engine();
    let mut muts = MutationSource::new(&engine);
    group.bench_function(format!("folded/{batch_size}"), |b| {
        b.iter(|| {
            for m in muts.batch(batch_size) {
                engine.apply(m).expect("folded apply");
            }
        });
    });
    let mut engine = build_engine();
    let mut muts = MutationSource::new(&engine);
    group.bench_function(format!("batched/{batch_size}"), |b| {
        b.iter(|| {
            engine.apply_batch(muts.batch(batch_size)).expect("batched apply");
        });
    });
    group.finish();

    // The cluster's write cost against its shard count: the same batch
    // through `ClusterRouter::apply_batch` (refresh off). The shards
    // share one engine, so one apply and N purges — flat in N.
    let mut group = c.benchmark_group("cluster_apply");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(Duration::from_secs(if full { 5 } else { 2 }));
    for shards in [1usize, 2, 4] {
        let cluster = ClusterRouter::partitioned(
            (0..shards).map(|_| build_engine()).collect(),
            ClusterConfig { serve: serve_config(), refresh: None },
        )
        .expect("cluster builds");
        let mut muts = MutationSource::new(&cluster.shard(0).engine());
        group.bench_function(format!("shards/{shards}"), |b| {
            b.iter(|| cluster.apply_batch(muts.batch(batch_size)).expect("cluster apply"));
        });
    }
    group.finish();

    // Hot-key latency after a write, refresh worker off vs on. Manual
    // timing: the refresh completes asynchronously, so the "on" case
    // waits for the worker before timing the (now warm) read. The hot
    // key is deliberately an *expensive* summary (complete OS of the
    // biggest famous author, l = 50) — the regime the refresh exists
    // for; cheap prelim summaries recompute in ~10 µs, below the 1-CPU
    // box's scheduling noise.
    let hot_kw = "Christos Faloutsos";
    let hot_opts = QueryOptions { l: 50, prelim: false, ..QueryOptions::default() };
    let rounds = if full { 40 } else { 15 };
    let mut report = Vec::new();
    for refresh_on in [false, true] {
        let cluster = ClusterRouter::partitioned(
            vec![build_engine()],
            ClusterConfig {
                serve: serve_config(),
                refresh: refresh_on
                    .then(|| RefreshConfig { budget: 16, interval: Duration::from_millis(5) }),
            },
        )
        .expect("cluster builds");
        let mut muts = MutationSource::new(&cluster.shard(0).engine());
        for _ in 0..4 {
            let _ = cluster.query(hot_kw, hot_opts).unwrap(); // heat the key
        }
        let mut total = Duration::ZERO;
        for _ in 0..rounds {
            cluster.apply_batch(muts.batch(1)).expect("write");
            if refresh_on {
                // Wait for the worker to finish this epoch's re-warm.
                let before = cluster.stats().refresh.rewarmed_keys;
                let deadline = Instant::now() + Duration::from_secs(5);
                while cluster.stats().refresh.rewarmed_keys == before && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let t0 = Instant::now();
            criterion::black_box(cluster.query(hot_kw, hot_opts).unwrap());
            total += t0.elapsed();
        }
        report.push((refresh_on, total / rounds as u32));
    }
    for (on, avg) in report {
        eprintln!(
            "cluster_throughput: hot-key query latency after write, refresh {}: {:?}/query",
            if on { "ON (post-rewarm)" } else { "OFF (cold recompute)" },
            avg
        );
    }
}

criterion_group!(benches, bench_cluster_throughput);
criterion_main!(benches);
