//! The cluster equivalence oracle (ISSUE 5 acceptance): a partitioned
//! cluster — sharded per-DS serving, **batched** mutation apply, and the
//! continual-refresh worker running — must produce output byte-identical
//! to one sequential single-engine baseline **at every epoch** of the
//! mutation stream.

use std::time::{Duration, Instant};

use sizel_cluster::{ClusterConfig, ClusterError, ClusterRouter, RefreshConfig};
use sizel_core::engine::{QueryOptions, ResultRanking, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{Mutation, ServeConfig};
use sizel_storage::{RowId, StorageError, TupleRef, Value};

mod common;
use common::{build_engine, existing_keyword, fingerprint, replicas};

fn test_cluster_config(refresh: bool) -> ClusterConfig {
    ClusterConfig {
        serve: ServeConfig { cache_capacity: 256, cache_shards: 4, hot_capacity: 32 },
        refresh: refresh.then(|| RefreshConfig { budget: 16, interval: Duration::from_millis(10) }),
    }
}

/// Batches of mutations with intra-batch references (junction rows
/// naming authors/papers created earlier in the same batch), ending in a
/// mixed batch (ISSUE 6): a retitle, a rename-then-delete chained behind
/// the junction delete that frees the row, and a fresh insert — all in
/// one settlement.
fn mutation_batches(e: &SizeLEngine) -> Vec<Vec<Mutation>> {
    let (a, p, j) =
        (max_pk(e.db(), "Author"), max_pk(e.db(), "Paper"), max_pk(e.db(), "AuthorPaper"));
    let year_pk = {
        let t = e.db().table(e.db().table_id("Year").unwrap());
        t.pk_of(sizel_storage::RowId(0))
    };
    vec![
        vec![
            Mutation::insert("Author", vec![Value::Int(a + 1), "Quorra Veldt".into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 1), Value::Int(a + 1), Value::Int(p)],
            ),
        ],
        vec![
            Mutation::insert(
                "Paper",
                vec![Value::Int(p + 1), "veldt summaries revisited".into(), Value::Int(year_pk)],
            ),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 2), Value::Int(a + 1), Value::Int(p + 1)],
            ),
            Mutation::insert("Author", vec![Value::Int(a + 2), "Brann Oxley".into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 3), Value::Int(a + 2), Value::Int(p + 1)],
            ),
        ],
        vec![
            Mutation::update(
                "Paper",
                p + 1,
                vec![Value::Int(p + 1), "veldt summaries reiterated".into(), Value::Int(year_pk)],
            ),
            Mutation::update("Author", a + 2, vec![Value::Int(a + 2), "Brann Quillfeather".into()]),
            Mutation::delete("AuthorPaper", j + 3),
            Mutation::delete("Author", a + 2),
            Mutation::insert("Author", vec![Value::Int(a + 3), "Mirelle Stroud".into()]),
        ],
    ]
}

/// Queries covering pre-existing and inserted DSs, both named sources (one
/// cache entry), both rankings.
fn query_set(existing: &str) -> Vec<(String, QueryOptions)> {
    let mut set = Vec::new();
    for kw in [existing, "Quorra", "Veldt", "Brann", "veldt", "Oxley", "reiterated", "Mirelle"] {
        for (prelim, source) in
            [(true, OsSource::DataGraph), (false, OsSource::DataGraph), (true, OsSource::Database)]
        {
            set.push((kw.to_owned(), QueryOptions { l: 8, prelim, source, ..Default::default() }));
        }
        set.push((
            kw.to_owned(),
            QueryOptions { l: 6, ranking: ResultRanking::SummaryImportance, ..Default::default() },
        ));
    }
    set
}

#[test]
fn sharded_batched_refreshed_cluster_is_byte_identical_to_sequential_engine_at_every_epoch() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 3), test_cluster_config(true))
        .expect("cluster builds");
    let mut baseline = build_engine(&cfg);
    let set = query_set(&existing_keyword(&baseline));
    let batches = mutation_batches(&baseline);

    for step in 0..=batches.len() {
        // Twice per epoch: the second pass reads the (possibly refreshed)
        // caches — byte-identical either way.
        for round in 0..2 {
            for (kw, opts) in &set {
                let got = cluster.query(kw, *opts).expect("partitioned query");
                let want = baseline.query_with(kw, *opts);
                assert_eq!(
                    fingerprint(&got),
                    fingerprint(&want),
                    "step {step} round {round}: {kw:?} {opts:?} diverged from the baseline"
                );
            }
        }
        if let Some(batch) = batches.get(step) {
            let epoch = cluster.apply_batch(batch.clone()).expect("batched apply");
            for m in batch.clone() {
                baseline.apply(m).expect("baseline fold");
            }
            assert_eq!(epoch, baseline.epoch(), "step {step}: cluster epoch diverged");
            let stats = cluster.stats();
            assert!(stats.epochs.iter().all(|&e| e == epoch), "replica epochs aligned");
        }
    }

    // All of the per-DS work landed in the one memo.
    let stats = cluster.stats();
    assert!(stats.per_shard[0].summaries_computed > 0, "the memo computed nothing: {stats:?}");
    assert_eq!(
        stats.per_shard[0].mutations_applied,
        batches.iter().map(Vec::len).sum::<usize>() as u64,
        "every mutation is applied, and counted, once"
    );
}

/// Graph builds and epoch steps summed over the cluster's distinct
/// engines, each counted once (engines compared by address).
fn graph_builds_and_epochs(cluster: &ClusterRouter) -> (u64, u64) {
    let mut seen = Vec::new();
    (0..cluster.shards())
        .map(|i| {
            let engine = cluster.shard(i).engine();
            let addr = &*engine as *const SizeLEngine;
            if seen.contains(&addr) {
                return (0, 0);
            }
            seen.push(addr);
            (engine.db().access().maint().graph_builds, engine.epoch().get())
        })
        .fold((0, 0), |(g, e), (dg, de)| (g + dg, e + de))
}

#[test]
fn partitioned_shards_share_one_engine_and_a_batch_builds_no_graph() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 3), test_cluster_config(false))
        .expect("cluster builds");
    // One guard at a time: the address outlives the guard it was read under.
    let address = |i: usize| &*cluster.shard(i).engine() as *const SizeLEngine;
    for i in 1..cluster.shards() {
        assert_eq!(address(i), address(0), "shard {i} holds an engine of its own");
    }
    let batches = mutation_batches(&cluster.shard(0).engine());
    for (step, batch) in batches.into_iter().enumerate() {
        let (builds, epoch) = graph_builds_and_epochs(&cluster);
        let n = batch.len() as u64;
        cluster.apply_batch(batch).expect("batched apply");
        let after = graph_builds_and_epochs(&cluster);
        assert_eq!(after, (builds, epoch + n), "batch {step}: applied once, no graph built");
    }
}

#[test]
fn a_partitioned_router_is_one_memo_sized_as_its_shards() {
    let cfg = DblpConfig::tiny();
    let serve = test_cluster_config(false).serve;
    for n in [1, 3] {
        let cluster = ClusterRouter::partitioned(replicas(&cfg, n), test_cluster_config(false))
            .expect("cluster builds");
        assert_eq!(cluster.shards(), 1, "{n} engines: one server");
        let stats = cluster.stats();
        assert_eq!(stats.per_shard[0].cache.capacity, n * serve.cache_capacity, "{n} engines");
        let tds =
            TupleRef::new(cluster.shard(0).engine().db().table_id("Author").unwrap(), RowId(7));
        assert_eq!(cluster.shard_of(tds), 0, "every subject is the one server's");
    }
}

#[test]
fn a_write_purges_every_shard_and_a_pre_write_key_recomputes_at_the_new_epoch() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 2), test_cluster_config(false))
        .expect("cluster builds");
    let mut baseline = build_engine(&cfg);
    let author = baseline.db().table_id("Author").unwrap();
    let opts = QueryOptions { l: 8, ..Default::default() };
    // Sixteen subjects warm the memo.
    let subjects: Vec<TupleRef> = (0..16).map(|r| TupleRef::new(author, RowId(r))).collect();
    for &tds in &subjects {
        cluster.summarize_at(tds, opts).expect("partitioned summary");
    }
    let pre_write = subjects[5];

    let before = cluster.stats().per_shard[0];
    let a = max_pk(baseline.db(), "Author");
    let write = vec![Mutation::insert("Author", vec![Value::Int(a + 1), "Purge Probe".into()])];
    let epoch = cluster.apply_batch(write.clone()).expect("write");
    baseline.apply_batch(write).expect("baseline write");
    let after = cluster.stats().per_shard[0];
    assert_eq!(
        after.cache.invalidations - before.cache.invalidations,
        subjects.len() as u64,
        "the write purged every superseded entry: {before:?} -> {after:?}"
    );

    let (served_at, got) = cluster.summarize_at(pre_write, opts).expect("partitioned summary");
    let read = cluster.stats().per_shard[0];
    assert_eq!(served_at, epoch, "served at the new epoch");
    assert_eq!(
        (
            read.cache.misses - after.cache.misses,
            read.summaries_computed - after.summaries_computed
        ),
        (1, 1),
        "the pre-write key is a miss that recomputes"
    );
    assert_eq!(fingerprint(&[got]), fingerprint(&[baseline.summarize(pre_write, opts)]));
}

#[test]
fn a_batch_rejected_mid_way_keeps_the_sequential_folds_applied_prefix() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 3), test_cluster_config(true))
        .expect("cluster builds");
    let mut baseline = build_engine(&cfg);
    let set = query_set(&existing_keyword(&baseline));
    // Batch 0 (Quorra and her junction row), then a junction row naming
    // no author, then an author the rejection keeps out (Mirelle).
    let j = max_pk(baseline.db(), "AuthorPaper");
    let mut batch = mutation_batches(&baseline).swap_remove(0);
    batch.push(Mutation::insert(
        "AuthorPaper",
        vec![Value::Int(j + 9), Value::Int(1 << 40), Value::Int(0)],
    ));
    batch.push(Mutation::insert("Author", vec![Value::Int(1 << 41), "Mirelle Stroud".into()]));

    let rejected = cluster.apply_batch(batch.clone());
    assert!(
        matches!(rejected, Err(ClusterError::Storage(StorageError::DanglingForeignKey { .. }))),
        "{rejected:?}"
    );
    for m in batch {
        if baseline.apply(m).is_err() {
            break;
        }
    }
    assert!(cluster.stats().epochs.iter().all(|&e| e == baseline.epoch()), "the fold's epoch");
    for (kw, opts) in &set {
        assert_eq!(
            fingerprint(&cluster.query(kw, *opts).expect("partitioned query")),
            fingerprint(&baseline.query_with(kw, *opts)),
            "{kw:?} {opts:?} diverged from the fold's applied prefix"
        );
    }
}

#[test]
fn batch_query_fans_out_and_merges_in_rank_order() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 4), test_cluster_config(false))
        .expect("cluster builds");
    let baseline = build_engine(&cfg);
    let kw = existing_keyword(&baseline);
    let requests: Vec<(String, QueryOptions)> = vec![
        (kw.clone(), QueryOptions { l: 8, ..Default::default() }),
        (kw.clone(), QueryOptions { l: 5, prelim: false, ..Default::default() }),
        (
            kw.clone(),
            QueryOptions { l: 6, ranking: ResultRanking::SummaryImportance, ..Default::default() },
        ),
        ("zzz-no-such-keyword".into(), QueryOptions::default()),
    ];
    let got = cluster.batch_query(&requests).expect("batch fan-out");
    assert_eq!(got.len(), requests.len());
    for ((kw, opts), row) in requests.iter().zip(&got) {
        assert_eq!(
            fingerprint(row),
            fingerprint(&baseline.query_with(kw, *opts)),
            "{kw:?} {opts:?} diverged after the merge"
        );
    }
    assert!(got[3].is_empty(), "unknown keywords stay empty through the router");
}

#[test]
fn refresh_worker_rewarms_hot_keys_so_readers_skip_cold_recomputes() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(replicas(&cfg, 2), test_cluster_config(true))
        .expect("cluster builds");
    let baseline = build_engine(&cfg);
    let kw = existing_keyword(&baseline);
    let opts = QueryOptions { l: 8, ..Default::default() };

    // Heat the key set.
    for _ in 0..4 {
        let _ = cluster.query(&kw, opts).unwrap();
    }

    // A batched write purges every shard's cache; the refresh worker is
    // signalled and must re-warm the hot keys within its budget.
    let a = max_pk(baseline.db(), "Author");
    cluster
        .apply_batch(vec![Mutation::insert(
            "Author",
            vec![Value::Int(a + 1), "Refresh Probe".into()],
        )])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.stats().refresh.rewarmed_keys == 0 {
        assert!(Instant::now() < deadline, "refresh worker never re-warmed: {:?}", cluster.stats());
        std::thread::sleep(Duration::from_millis(5));
    }

    // The steady-state reader of the hot key is now served without any
    // new summary computation — the refresh paid the cold recomputes.
    let computed_before: Vec<u64> =
        cluster.stats().per_shard.iter().map(|s| s.summaries_computed).collect();
    let got = cluster.query(&kw, opts).unwrap();
    let computed_after: Vec<u64> =
        cluster.stats().per_shard.iter().map(|s| s.summaries_computed).collect();
    assert_eq!(
        computed_before, computed_after,
        "hot-key readers must not eat cold recomputes after a refreshed write"
    );
    // And what the refresh warmed is byte-identical to the live baseline.
    let mut baseline = baseline;
    baseline
        .apply(Mutation::insert("Author", vec![Value::Int(a + 1), "Refresh Probe".into()]))
        .unwrap();
    assert_eq!(fingerprint(&got), fingerprint(&baseline.query_with(&kw, opts)));
}

#[test]
fn replica_validation_rejects_mismatched_shards() {
    let a = build_engine(&DblpConfig::tiny());
    let mut b = build_engine(&DblpConfig::tiny());
    let pk = max_pk(b.db(), "Author") + 1;
    b.apply(Mutation::insert("Author", vec![Value::Int(pk), "Drift".into()])).unwrap();
    assert!(matches!(
        ClusterRouter::partitioned(vec![a, b], test_cluster_config(false)),
        Err(ClusterError::ReplicaMismatch(_))
    ));
    assert!(matches!(
        ClusterRouter::partitioned(vec![], test_cluster_config(false)),
        Err(ClusterError::ReplicaMismatch(_))
    ));
}
