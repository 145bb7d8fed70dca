//! The read path's lookup policy, pinned through the router's public
//! entry points: on a path that may wait, every hit is one cache lookup
//! on its owner shard and a miss is computed there and then, on the
//! caller's thread; the never-blocking path probes and declines at its
//! first miss. The serve counters tell them apart — a waiting lookup
//! records a `hit`, or a `miss` and a computed summary; only a failed
//! probe records a `probe_miss` — and a warm answer is the cached `Arc`
//! itself, whichever entry point returned it. (The test names date from
//! the serve worker pool: "queues" now reads "computes".)

use std::sync::Arc;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::QueryOptions;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{ServeConfig, SharedResult};

mod common;
use common::{build_engine, existing_keyword, replicas};

/// Refresh off: a background re-warm would move the counters under test.
fn quiet_config() -> ClusterConfig {
    ClusterConfig { serve: ServeConfig::default(), refresh: None }
}

/// `(hits, misses, probe_misses, summaries_computed)` summed over shards.
fn counters(cluster: &ClusterRouter) -> [u64; 4] {
    let stats = cluster.stats();
    [
        stats.total(|s| s.cache.hits),
        stats.total(|s| s.cache.misses),
        stats.total(|s| s.cache.probe_misses),
        stats.total(|s| s.summaries_computed),
    ]
}

/// Runs `ask` and returns its answer with the counter movement it caused.
fn moved(
    cluster: &ClusterRouter,
    ask: impl Fn() -> Vec<SharedResult>,
) -> (Vec<SharedResult>, [u64; 4]) {
    let before = counters(cluster);
    let answer = ask();
    let after = counters(cluster);
    (answer, std::array::from_fn(|i| after[i] - before[i]))
}

/// Asks twice: the cold answer misses and computes once per hit, with
/// one lookup each; the warm one is those same `Arc`s for one cache hit
/// each. Returns the warm answer.
fn assert_cold_then_warm(
    cluster: &ClusterRouter,
    ask: impl Fn() -> Vec<SharedResult>,
) -> Vec<SharedResult> {
    let (cold, cold_moved) = moved(cluster, &ask);
    let n = cold.len() as u64;
    assert!(n > 0, "the fixture keyword resolves to data subjects");
    assert_eq!(cold_moved, [0, n, 0, n], "cold: one miss and one summary per hit, no probe");
    let (warm, warm_moved) = moved(cluster, &ask);
    assert_eq!(warm_moved, [n, 0, 0, 0], "warm: one hit per hit, nothing computed");
    assert_eq!(warm.len(), cold.len());
    assert!(cold.iter().zip(&warm).all(|(c, w)| Arc::ptr_eq(c, w)));
    warm
}

#[test]
fn batch_query_at_probes_first_and_queues_only_misses() {
    let cfg = DblpConfig::tiny();
    let cluster =
        ClusterRouter::partitioned(replicas(&cfg, 2), quiet_config()).expect("cluster builds");
    // Two requests over the same subjects under different keys.
    let kw = existing_keyword(&cluster.shard(0).engine());
    let requests = vec![
        (kw.clone(), QueryOptions::default()),
        (kw, QueryOptions { l: 5, ..Default::default() }),
    ];
    // Cold, the never-blocking path declines at its first failed probe
    // and computes nothing: the only place a `probe_miss` is recorded.
    let (declined, declined_moved) = moved(&cluster, || {
        cluster.try_batch_query_cached(&requests).map_or(vec![], |a| a.1.concat())
    });
    assert!(declined.is_empty());
    assert_eq!(declined_moved, [0, 0, 1, 0]);

    let ask = || cluster.batch_query_at(&requests).expect("query").1.concat();
    let warm = assert_cold_then_warm(&cluster, ask);

    // The never-blocking wrapper runs the same body: same Arcs, same
    // counter movement.
    let (cached, cached_moved) = moved(&cluster, || {
        cluster.try_batch_query_cached(&requests).expect("everything is cached").1.concat()
    });
    assert_eq!(cached_moved, [warm.len() as u64, 0, 0, 0]);
    assert!(warm.iter().zip(&cached).all(|(w, c)| Arc::ptr_eq(w, c)));
}

#[test]
fn query_tenant_probes_first_and_queues_only_misses() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::multi_tenant(
        vec![("acme".into(), build_engine(&cfg)), ("globex".into(), build_engine(&cfg))],
        quiet_config(),
    )
    .expect("cluster builds");
    let kw = existing_keyword(&cluster.shard(1).engine());
    let ask = || cluster.query_tenant("globex", &kw, QueryOptions::default()).expect("query");
    assert_cold_then_warm(&cluster, ask);
    // All of it on the tenant's own shard, which also counted the queries.
    let stats = cluster.stats();
    assert_eq!(stats.per_shard[0].cache.hits + stats.per_shard[0].cache.misses, 0);
    assert_eq!((stats.per_shard[0].queries_served, stats.per_shard[1].queries_served), (0, 2));
}
