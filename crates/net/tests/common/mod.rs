//! Shared fixture for the net integration tests: a small partitioned
//! DBLP cluster behind a loopback [`NetServer`] (the same engines the
//! cluster suites build).

#![allow(dead_code, unused_imports)] // each test binary uses the subset it needs

use std::sync::Arc;

use sizel_cluster::{ClusterConfig, ClusterRouter, RefreshConfig};
use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_net::{NetConfig, NetServer, ReactorChoice};
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::ServeConfig;

/// A fresh engine over `cfg`.
pub fn build_engine(cfg: &DblpConfig) -> SizeLEngine {
    SizeLEngine::build(
        generate(cfg).db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        engine_config(),
    )
    .expect("engine builds")
}

/// N identically-built replica engines.
pub fn replicas(cfg: &DblpConfig, n: usize) -> Vec<SizeLEngine> {
    (0..n).map(|_| build_engine(cfg)).collect()
}

/// The engine configuration every fixture shares.
pub fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![
        ("Author".into(), presets::dblp_author_gds_config()),
        ("Paper".into(), presets::dblp_paper_gds_config()),
    ])
}

/// A keyword resolving to pre-existing DS tuples of the fixture.
pub fn existing_keyword(engine: &SizeLEngine) -> String {
    let tid = engine.db().table_id("Author").unwrap();
    let name =
        engine.db().table(tid).value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
    name.split(' ').next().unwrap().to_owned()
}

/// Small per-shard serving configuration.
pub fn small_serve() -> ServeConfig {
    ServeConfig { cache_capacity: 128, cache_shards: 4, hot_capacity: 16 }
}

/// A 2-shard partitioned cluster over the tiny DBLP fixture, refresh
/// worker ON (fast interval, so epochs see live re-warm traffic during
/// the suites).
pub fn tiny_cluster() -> Arc<ClusterRouter> {
    let cfg = DblpConfig::tiny();
    Arc::new(
        ClusterRouter::partitioned(
            replicas(&cfg, 2),
            ClusterConfig {
                serve: small_serve(),
                refresh: Some(RefreshConfig {
                    budget: 8,
                    interval: std::time::Duration::from_millis(5),
                }),
            },
        )
        .expect("cluster builds"),
    )
}

/// Binds a loopback server over `router` with `cfg`.
pub fn serve(router: Arc<ClusterRouter>, cfg: NetConfig) -> NetServer {
    NetServer::bind(router, "127.0.0.1:0", cfg).expect("bind loopback")
}

/// The reactor backends this test run exercises: both on Linux, the
/// portable poll loop alone elsewhere. When `SIZEL_NET_REACTOR` is set
/// (the CI matrix), only that backend runs — each matrix job proves one
/// backend in isolation instead of re-proving both twice.
pub fn reactor_choices() -> Vec<ReactorChoice> {
    let all = if cfg!(target_os = "linux") {
        vec![ReactorChoice::Poll, ReactorChoice::Epoll]
    } else {
        vec![ReactorChoice::Poll]
    };
    match std::env::var("SIZEL_NET_REACTOR") {
        Ok(v) => {
            let want = match v.as_str() {
                "poll" => ReactorChoice::Poll,
                "epoll" => ReactorChoice::Epoll,
                other => panic!("unknown SIZEL_NET_REACTOR backend `{other}`"),
            };
            let picked: Vec<_> = all.into_iter().filter(|c| *c == want).collect();
            assert!(!picked.is_empty(), "SIZEL_NET_REACTOR={v} unavailable on this platform");
            picked
        }
        Err(_) => all,
    }
}

/// Runs `body` once per reactor backend under test — the differential
/// harness: every suite that goes through this helper proves the epoll
/// reactor and the poll oracle behaviorally identical.
pub fn for_each_reactor(body: impl Fn(ReactorChoice)) {
    for choice in reactor_choices() {
        eprintln!("--- reactor backend: {choice:?} ---");
        body(choice);
    }
}
