//! The read path's lookup policy, pinned through the router's public
//! entry points: every hit is probed on the caller's thread and only a
//! miss is queued on its owner shard. The serve counters tell the two
//! apart — a probe that fails records a `probe_miss`, the queued job
//! then records the authoritative `miss` and computes; a probe that
//! succeeds records a `hit` and nothing else — and a warm answer is the
//! cached `Arc` itself, whichever entry point returned it.

use std::sync::Arc;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::QueryOptions;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{ServeConfig, SharedResult};

mod common;
use common::{build_engine, existing_keyword, replicas};

/// Refresh off: a background re-warm would move the counters under test.
fn quiet_config() -> ClusterConfig {
    ClusterConfig { serve: ServeConfig::with_workers(2), refresh: None }
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

/// Asks twice: the cold answer probes, misses and computes once per hit;
/// the warm one is those same `Arc`s for one cache hit each. Returns the
/// warm answer.
fn assert_cold_then_warm(
    cluster: &ClusterRouter,
    ask: impl Fn() -> Vec<SharedResult>,
) -> Vec<SharedResult> {
    let (cold, cold_moved) = moved(cluster, &ask);
    let n = cold.len() as u64;
    assert!(n > 0, "the fixture keyword resolves to data subjects");
    assert_eq!(cold_moved, [0, n, n, n], "cold: one probe miss, one miss, one summary per hit");
    let (warm, warm_moved) = moved(cluster, &ask);
    assert_eq!(warm_moved, [n, 0, 0, 0], "warm: one hit per hit, nothing queued");
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
