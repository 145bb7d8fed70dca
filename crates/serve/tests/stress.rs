//! The equivalence oracle for the serving layer: every path through the
//! server must produce output *byte-identical* to the sequential
//! `SizeLEngine` from PR 1 — same DS tuples in the same order, same float
//! bits, same materialized size-l OS trees.
//!
//! The stress tests are barrier-driven: N client threads release at once
//! and hammer the same query set through one server (so cache misses,
//! hits, and concurrent same-key computations all occur), then every
//! response is compared against the sequential baseline fingerprint.
//!
//! Tests honor `RUST_TEST_THREADS` (each test is self-contained; the
//! shared engine is read-only) and pass in any order.

use std::sync::{Arc, Barrier};

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{QueryOptions, QueryResult, ResultRanking, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_serve::{ServeConfig, SizeLServer};

mod common;
use common::{build_engine, fingerprint, seq_fingerprint, small_engine as engine};

/// The workload: real hits (one DS, several DSs, Paper-table DSs), misses,
/// and empty queries, crossed with every algorithm/input/source/ranking
/// combination the engine serves.
fn query_set() -> Vec<(String, QueryOptions)> {
    let keywords = [
        "Faloutsos",
        "Christos Faloutsos",
        "Michalis Faloutsos",
        "Petros Faloutsos",
        "Power-law",
        "declustering",
        "xylophone quantum", // no hits
    ];
    let mut set = Vec::new();
    for kw in keywords {
        for l in [5usize, 15] {
            for algo in [AlgoKind::TopPath, AlgoKind::BottomUp, AlgoKind::Optimal] {
                for prelim in [true, false] {
                    set.push((
                        kw.to_owned(),
                        QueryOptions {
                            l,
                            algo,
                            prelim,
                            source: OsSource::DataGraph,
                            ranking: ResultRanking::default(),
                        },
                    ));
                }
            }
        }
    }
    // A few database-source and summary-ranked probes (slower, so fewer).
    set.push((
        "Faloutsos".into(),
        QueryOptions {
            l: 10,
            algo: AlgoKind::TopPath,
            prelim: true,
            source: OsSource::Database,
            ranking: ResultRanking::default(),
        },
    ));
    set.push((
        "Faloutsos".into(),
        QueryOptions {
            l: 10,
            algo: AlgoKind::TopPath,
            prelim: true,
            source: OsSource::DataGraph,
            ranking: ResultRanking::SummaryImportance,
        },
    ));
    set
}

/// Sequential ground truth, computed directly on the engine.
fn baseline(engine: &SizeLEngine, set: &[(String, QueryOptions)]) -> Vec<String> {
    set.iter()
        .map(|(kw, opts)| {
            let results = engine.query_with(kw, *opts);
            let refs: Vec<&QueryResult> = results.iter().collect();
            fingerprint(&refs)
        })
        .collect()
}

#[test]
fn n_thread_stress_matches_sequential_engine() {
    let engine = engine();
    let set = query_set();
    let expected = baseline(&engine.read().unwrap(), &set);

    let n_threads = 8;
    let server = Arc::new(SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 256, cache_shards: 8, ..ServeConfig::default() },
    ));
    let barrier = Arc::new(Barrier::new(n_threads));
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let set = set.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // Each thread walks the set from a different offset so
                // first-touch (miss) and re-touch (hit) interleave across
                // threads.
                for i in 0..set.len() {
                    let j = (i + t * 7) % set.len();
                    let (kw, opts) = &set[j];
                    let got = server.query(kw, *opts);
                    assert_eq!(
                        fingerprint(&got),
                        expected[j],
                        "thread {t} query {j} ({kw:?}, {opts:?}) diverged from the \
                         sequential engine"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = server.stats();
    assert_eq!(stats.queries_served, (n_threads * set.len()) as u64);
    assert!(stats.cache.hits > 0, "8 threads re-running the set must hit the cache");
}

#[test]
fn batch_query_matches_sequential_engine_and_dedups() {
    let engine = engine();
    let set = query_set();
    let expected = baseline(&engine.read().unwrap(), &set);

    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 512, cache_shards: 4, ..ServeConfig::default() },
    );
    // Duplicate the whole set 3x in interleaved order: results must come
    // back in submission order, each identical to its baseline.
    let mut batch = Vec::new();
    let mut expect_order = Vec::new();
    for round in 0..3 {
        for i in 0..set.len() {
            let j = (i + round) % set.len();
            batch.push(set[j].clone());
            expect_order.push(j);
        }
    }
    let responses = server.batch_query(&batch);
    assert_eq!(responses.len(), batch.len());
    for (resp, &j) in responses.iter().zip(&expect_order) {
        assert_eq!(fingerprint(resp), expected[j]);
    }
    // Only the distinct requests did index + summary work.
    let stats = server.stats();
    assert_eq!(stats.queries_served, set.len() as u64, "duplicates served without new work");
}

#[test]
fn uncached_server_still_matches() {
    // cache_capacity = 0 disables memoization entirely; the serving path
    // itself must still be equivalence-preserving.
    let engine = engine();
    let set: Vec<(String, QueryOptions)> = query_set().into_iter().take(12).collect();
    let expected = baseline(&engine.read().unwrap(), &set);
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    for ((kw, opts), want) in set.iter().zip(&expected) {
        assert_eq!(&fingerprint(&server.query(kw, *opts)), want);
    }
    let stats = server.stats();
    assert_eq!(stats.cache.hits, 0);
    assert_eq!(stats.cache.len, 0);
}

#[test]
fn single_worker_server_serializes_correctly() {
    // Many producers against one single-shard cache (the name dates from
    // the worker pool; the callers are the only threads now): results
    // must still be correct.
    let engine = engine();
    let server = Arc::new(SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 64, cache_shards: 1, ..ServeConfig::default() },
    ));
    let expected = fingerprint(
        &engine.read().unwrap().query("Faloutsos", 15).iter().collect::<Vec<&QueryResult>>(),
    );
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let server = Arc::clone(&server);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let got =
                        server.query("Faloutsos", QueryOptions { l: 15, ..Default::default() });
                    assert_eq!(fingerprint(&got), expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

/// The server has no thread to lose and no panic boundary of its own: a
/// summary that panics unwinds into its caller with the original
/// payload, and — read guards never poison — the same server then reads
/// and writes as if nothing had happened.
#[test]
fn a_panicking_summary_unwinds_into_the_caller_and_poisons_nothing() {
    use sizel_datagen::dblp::DblpConfig;
    use sizel_storage::{RowId, TableId, TupleRef, Value};

    let server = SizeLServer::new(build_engine(&DblpConfig::small()), ServeConfig::default());
    let opts = QueryOptions::default();
    let bogus = TupleRef::new(TableId(999), RowId(0));
    let in_engine = std::panic::catch_unwind(|| server.engine().summarize(bogus, opts))
        .expect_err("the engine panics on a table out of range");
    let in_server =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.summarize(bogus, opts)))
            .expect_err("and the server lets it through");
    let message = |p: &Box<dyn std::any::Any + Send>| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
    };
    assert!(message(&in_server).is_some(), "a message payload, not a wrapper");
    assert_eq!(message(&in_server), message(&in_engine), "the original panic");

    let got = server.query("Faloutsos", opts);
    assert!(!got.is_empty(), "the fixture keyword resolves to data subjects");
    assert_eq!(fingerprint(&got), seq_fingerprint(&server.engine(), "Faloutsos", opts));
    let next_pk = sizel_core::test_fixtures::max_pk(server.engine().db(), "Author") + 1;
    let before = server.epoch();
    let after = server
        .apply_batch(vec![sizel_serve::Mutation::insert(
            "Author",
            vec![Value::Int(next_pk), "Quorra Veldt".into()],
        )])
        .expect("the write lock is not poisoned");
    assert!(after > before);
    let got = server.query("Quorra", opts);
    assert_eq!(got.len(), 1, "the inserted author is served");
    assert_eq!(fingerprint(&got), seq_fingerprint(&server.engine(), "Quorra", opts));
}
