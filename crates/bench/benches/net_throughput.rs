//! Network front-end throughput (ISSUE 7): the wire path vs the
//! in-process router on the same workload, pipelining depth, and the
//! framing codec alone.
//!
//! Groups:
//! * `net_roundtrip` — `in_process` calls `ClusterRouter::batch_query_at`
//!   directly; `loopback_<backend>/D` pushes the same batch through a
//!   real TCP loopback with D requests pipelined per iteration, once
//!   per reactor backend (`poll` and, on Linux, `epoll`). The
//!   poll-vs-epoll spread at depth 1 is exactly the idle-sleep latency
//!   floor the readiness reactor deletes (ISSUE 8). NOTE: on the 1-CPU
//!   reference container the reactor threads and the bench thread
//!   share one core — loopback numbers are upper bounds on protocol
//!   overhead.
//! * `net_codec` — encode/decode of a realistic `Results` payload, no
//!   sockets: the codec's own cost.
//!
//! `SIZEL_BENCH_FULL=1` uses more samples; the default keeps `cargo
//! bench` fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::{EngineConfig, QueryOptions, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_net::frame::Opcode;
use sizel_net::wire::{decode_reply, encode_query_payload, encode_results_payload};
use sizel_net::{NetClient, NetConfig, NetServer, ReactorChoice};
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::ServeConfig;

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
            [10usize, 30]
                .into_iter()
                .map(move |l| (kw.to_owned(), QueryOptions { l, ..QueryOptions::default() }))
        })
        .collect()
}

fn bench_net_throughput(c: &mut Criterion) {
    let full = std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1");
    let set = workload();

    let router = Arc::new(
        ClusterRouter::partitioned(
            vec![build_engine(), build_engine()],
            ClusterConfig { serve: serve_config(), refresh: None },
        )
        .expect("cluster builds"),
    );

    let mut group = c.benchmark_group("net_roundtrip");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(Duration::from_secs(if full { 5 } else { 2 }));

    // Baseline: the same calls with no wire in between.
    group.bench_with_input(BenchmarkId::new("in_process", 0), &set, |b, set| {
        b.iter(|| criterion::black_box(router.batch_query_at(set).expect("query")));
    });

    // The wire path at pipeline depths 1 and 8, once per reactor
    // backend: one iteration sends D copies of the batch before reading
    // any reply. Depth 1 is where the poll loop's idle-sleep floor
    // dominates and the epoll reactor's doorbell wakeups pay off.
    let payload = encode_query_payload(&set);
    let backends: &[ReactorChoice] = if cfg!(target_os = "linux") {
        &[ReactorChoice::Poll, ReactorChoice::Epoll]
    } else {
        &[ReactorChoice::Poll]
    };
    for &reactor in backends {
        let cfg = NetConfig { reactor, ..Default::default() };
        let server =
            NetServer::bind(Arc::clone(&router), "127.0.0.1:0", cfg).expect("bind loopback");
        let name = format!("loopback_{}", server.reactor_kind().name());
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        for depth in [1usize, 8] {
            group.bench_with_input(BenchmarkId::new(&name, depth), &payload, |b, payload| {
                b.iter(|| {
                    let ids: Vec<u64> = (0..depth)
                        .map(|_| client.send(Opcode::Query, payload).expect("send"))
                        .collect();
                    for id in ids {
                        let (op, reply) = client.recv_for(id).expect("reply");
                        assert_eq!(op, Opcode::Results);
                        criterion::black_box(reply);
                    }
                });
            });
        }
    }
    group.finish();

    // Per-request latency percentiles (PR 9): criterion reports means;
    // tail behavior is where a request's time on its reactor shows up.
    // Each timed iteration pipelines D requests and attributes
    // duration/D to every request; p50/p99 come from the sorted
    // per-request samples. Printed to stderr next to the criterion
    // output (there is no hidden cap: every iteration is a sample).
    let rounds = if full { 400 } else { 150 };
    for &reactor in backends {
        let cfg = NetConfig { reactor, ..Default::default() };
        let server =
            NetServer::bind(Arc::clone(&router), "127.0.0.1:0", cfg).expect("bind loopback");
        let name = server.reactor_kind().name();
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        for depth in [1usize, 8] {
            let mut samples_us: Vec<f64> = Vec::with_capacity(rounds);
            for round in 0..rounds + 20 {
                let start = std::time::Instant::now();
                let ids: Vec<u64> = (0..depth)
                    .map(|_| client.send(Opcode::Query, &payload).expect("send"))
                    .collect();
                for id in ids {
                    let (op, reply) = client.recv_for(id).expect("reply");
                    assert_eq!(op, Opcode::Results);
                    criterion::black_box(reply);
                }
                // The first 20 rounds warm caches and buffers.
                if round >= 20 {
                    samples_us.push(start.elapsed().as_secs_f64() * 1e6 / depth as f64);
                }
            }
            samples_us.sort_by(|a, b| a.total_cmp(b));
            let pct = |p: f64| samples_us[((samples_us.len() - 1) as f64 * p) as usize];
            eprintln!(
                "net_latency/{name}/depth{depth}: p50={:.1}us p99={:.1}us (n={})",
                pct(0.50),
                pct(0.99),
                samples_us.len()
            );
        }
        let hits = server.counters().fastpath_hits.load(std::sync::atomic::Ordering::Relaxed);
        eprintln!("net_latency/{name}: requests run on a reactor {hits}");
    }

    // The codec alone: a realistic Results payload, no sockets.
    let (epoch, results) = router.batch_query_at(&set).expect("oracle");
    let encoded = encode_results_payload(epoch, &results);
    let mut group = c.benchmark_group("net_codec");
    group.sample_size(if full { 60 } else { 20 });
    group.measurement_time(Duration::from_secs(if full { 5 } else { 2 }));
    group.bench_function("encode_results", |b| {
        b.iter(|| criterion::black_box(encode_results_payload(epoch, &results)));
    });
    group.bench_function("decode_results", |b| {
        b.iter(|| criterion::black_box(decode_reply(Opcode::Results, &encoded).expect("decodes")));
    });
    group.finish();
}

criterion_group!(benches, bench_net_throughput);
criterion_main!(benches);
