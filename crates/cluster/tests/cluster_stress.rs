//! Concurrent readers vs a batch writer (ISSUE 5 satellite): clients
//! hammer the partitioned cluster while batched mutations land. The one
//! engine read guard each answer holds must make every response a
//! *consistent* snapshot — equal to the sequential answer at one of the
//! epochs the stream passed through; a torn result (hits of the old
//! epoch merged with summaries of the new one) matches none of them.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use sizel_cluster::{ClusterConfig, ClusterRouter, RefreshConfig};
use sizel_core::engine::QueryOptions;
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{Mutation, ServeConfig};
use sizel_storage::Value;

mod common;
use common::{build_engine, existing_keyword, fingerprint, replicas};

#[test]
fn concurrent_readers_vs_batch_writer_always_observe_one_epoch() {
    let cfg = DblpConfig::tiny();
    let cluster = Arc::new(
        ClusterRouter::partitioned(
            replicas(&cfg, 3),
            ClusterConfig {
                serve: ServeConfig { cache_capacity: 128, cache_shards: 4, hot_capacity: 16 },
                // The refresh worker runs during the stress: it must never
                // surface anything the sequential engine would not.
                refresh: Some(RefreshConfig { budget: 8, interval: Duration::from_millis(10) }),
            },
        )
        .expect("cluster builds"),
    );
    let mut baseline = build_engine(&cfg);
    let kw = existing_keyword(&baseline);
    let opts = QueryOptions { l: 8, ..Default::default() };

    // The batched mutation stream: four batches, junction rows naming
    // authors created in the same batch.
    let (a, p, j) = (
        max_pk(baseline.db(), "Author"),
        max_pk(baseline.db(), "Paper"),
        max_pk(baseline.db(), "AuthorPaper"),
    );
    let batches: Vec<Vec<Mutation>> = (0..4)
        .map(|i| {
            vec![
                Mutation::insert(
                    "Author",
                    vec![Value::Int(a + 1 + i), format!("Stress Author{i}").into()],
                ),
                Mutation::insert(
                    "AuthorPaper",
                    vec![Value::Int(j + 1 + i), Value::Int(a + 1 + i), Value::Int(p)],
                ),
            ]
        })
        .collect();

    let n_clients = 4;
    let barrier = Arc::new(Barrier::new(n_clients + 1));
    let clients: Vec<_> = (0..n_clients)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            let barrier = Arc::clone(&barrier);
            let kw = kw.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (0..30)
                    .map(|_| fingerprint(&cluster.query(&kw, opts).expect("partitioned query")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    barrier.wait();
    // The writer folds the same batches into the sequential baseline and
    // records its answer at every epoch the stream passes through.
    let mut legal = vec![fingerprint(&baseline.query_with(&kw, opts))];
    for batch in batches {
        cluster.apply_batch(batch.clone()).expect("batched apply under readers");
        for m in batch {
            baseline.apply(m).expect("baseline fold");
        }
        legal.push(fingerprint(&baseline.query_with(&kw, opts)));
    }

    for client in clients {
        for fp in client.join().expect("client thread") {
            assert!(
                legal.contains(&fp),
                "a concurrent cluster response matched no epoch of the stream (torn snapshot?)"
            );
        }
    }

    // Post-stream: the cluster settles byte-identical to the baseline.
    assert_eq!(fingerprint(&cluster.query(&kw, opts).unwrap()), *legal.last().unwrap());
    let stats = cluster.stats();
    assert!(stats.epochs.windows(2).all(|w| w[0] == w[1]), "replicas aligned: {stats:?}");
}
