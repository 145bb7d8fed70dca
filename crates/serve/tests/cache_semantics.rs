//! Cache-correctness tests at the server level: the memoized summary must
//! behave exactly like recomputation — hits after misses, bounded
//! occupancy with LRU eviction, and *never* a stale `Os` when any
//! key-relevant option (`algo`, `prelim`, `l`, `source`) differs.

use std::sync::Arc;

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{QueryOptions, QueryResult};
use sizel_core::osgen::OsSource;
use sizel_serve::{ServeConfig, SizeLServer};

mod common;
use common::small_engine as engine;

fn opts(l: usize, algo: AlgoKind, prelim: bool) -> QueryOptions {
    QueryOptions { l, algo, prelim, ..QueryOptions::default() }
}

/// Field-by-field equality against a freshly computed sequential result,
/// including the flat arena's full structure: parent links, depths, and
/// the CSR child slices.
fn assert_same(cached: &QueryResult, fresh: &QueryResult) {
    assert_eq!(cached.tds, fresh.tds);
    assert_eq!(cached.ds_label, fresh.ds_label);
    assert_eq!(cached.global_score.to_bits(), fresh.global_score.to_bits());
    assert_eq!(cached.input_os_size, fresh.input_os_size);
    assert_eq!(cached.result, fresh.result);
    assert_eq!(cached.summary.len(), fresh.summary.len());
    for ((ia, a), (ib, b)) in cached.summary.iter().zip(fresh.summary.iter()) {
        assert_eq!(a.tuple, b.tuple);
        assert_eq!(a.gds_node, b.gds_node);
        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.depth, b.depth);
        assert_eq!(cached.summary.children(ia), fresh.summary.children(ib));
    }
}

#[test]
fn hit_after_miss_returns_identical_result() {
    let engine = engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 64, ..ServeConfig::default() },
    );
    let o = opts(15, AlgoKind::TopPath, true);

    let first = server.query("Faloutsos", o);
    let after_miss = server.stats();
    assert_eq!(after_miss.cache.hits, 0);
    assert_eq!(after_miss.cache.misses, 3, "one miss per Faloutsos DS");
    assert_eq!(after_miss.summaries_computed, 3);

    let second = server.query("Faloutsos", o);
    let after_hit = server.stats();
    assert_eq!(after_hit.cache.hits, 3, "all three summaries re-served from cache");
    assert_eq!(after_hit.summaries_computed, 3, "no recomputation on a hit");
    // The hit is the same Arc, not merely an equal value.
    for (a, b) in first.iter().zip(&second) {
        assert!(Arc::ptr_eq(a, b), "a cache hit shares the stored summary");
    }
    // And both match sequential recomputation.
    for (res, fresh) in second.iter().zip(engine.read().unwrap().query_with("Faloutsos", o)) {
        assert_same(res, &fresh);
    }
}

#[test]
fn eviction_at_capacity_keeps_serving_correctly() {
    let engine = engine();
    // Capacity 2 with one shard: three distinct summaries cannot coexist,
    // so the Faloutsos trio forces an eviction on every pass.
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 2, cache_shards: 1, ..ServeConfig::default() },
    );
    let o = opts(10, AlgoKind::TopPath, true);
    for _ in 0..4 {
        let got = server.query("Faloutsos", o);
        for (res, fresh) in got.iter().zip(engine.read().unwrap().query_with("Faloutsos", o)) {
            assert_same(res, &fresh);
        }
    }
    let stats = server.stats();
    assert!(stats.cache.len <= 2, "occupancy bounded by capacity");
    assert!(stats.cache.evictions > 0, "capacity pressure must evict");
    assert!(stats.summaries_computed > 3, "evicted summaries are recomputed, not served stale");
}

#[test]
fn no_stale_os_across_algo_and_prelim_combinations() {
    let engine = engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 256, ..ServeConfig::default() },
    );
    // Warm the cache with one combination, then request every other
    // combination of (algo, prelim, l, source): each must be computed
    // fresh and match its own sequential baseline — a cache hit handed to
    // the wrong combination would fail the byte comparison.
    let warm = opts(15, AlgoKind::TopPath, true);
    let _ = server.query("Christos Faloutsos", warm);

    let combos = [
        opts(15, AlgoKind::TopPath, false),
        opts(15, AlgoKind::BottomUp, true),
        opts(15, AlgoKind::BottomUp, false),
        opts(15, AlgoKind::Optimal, true),
        opts(15, AlgoKind::Optimal, false),
        opts(10, AlgoKind::TopPath, true), // same algo/prelim, different l
        QueryOptions { source: OsSource::Database, ..opts(15, AlgoKind::TopPath, true) },
    ];
    for o in combos {
        let got = server.query("Christos Faloutsos", o);
        let fresh = engine.read().unwrap().query_with("Christos Faloutsos", o);
        assert_eq!(got.len(), fresh.len());
        for (a, b) in got.iter().zip(&fresh) {
            assert_same(a, b);
        }
    }
    // 1 warm + 7 combos, all distinct keys: zero hits is the proof that no
    // combination was served from another combination's entry.
    let stats = server.stats();
    assert_eq!(stats.cache.hits, 0, "distinct (algo, prelim, l, source) never alias");
    assert_eq!(stats.summaries_computed, 8);

    // Re-requesting the warm combination still hits.
    let _ = server.query("Christos Faloutsos", warm);
    assert_eq!(server.stats().cache.hits, 1);
}

#[test]
fn cached_flat_os_round_trips_byte_identically_through_batch_query() {
    // The cache stores the flat CSR `Os` by `Arc`; a batch that mixes
    // first-touch misses, in-batch duplicates, and warm re-requests must
    // hand every client the exact arena the sequential engine computes —
    // same node slab, same child slices, same float bits.
    let engine = engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 128, ..Default::default() },
    );
    let a = opts(15, AlgoKind::TopPath, true);
    let b = opts(10, AlgoKind::Optimal, false);
    let batch: Vec<(String, QueryOptions)> = vec![
        ("Faloutsos".into(), a),
        ("Christos Faloutsos".into(), b),
        ("Faloutsos".into(), a), // in-batch duplicate
        ("Power-law".into(), a),
    ];
    let first = server.batch_query(&batch);
    let second = server.batch_query(&batch); // warm: all summaries hit

    for (responses, (kw, o)) in [&first, &second].into_iter().flat_map(|r| r.iter().zip(&batch)) {
        let fresh = engine.read().unwrap().query_with(kw, *o);
        assert_eq!(responses.len(), fresh.len(), "{kw}");
        for (res, seq) in responses.iter().zip(&fresh) {
            assert_same(res, seq);
        }
    }
    // In-batch duplicates share the very same Arc, and the warm pass
    // re-serves the cached arenas rather than equal copies.
    for (x, y) in first[0].iter().zip(&first[2]) {
        assert!(Arc::ptr_eq(x, y), "duplicate requests share one computation");
    }
    for (x, y) in first[0].iter().zip(&second[0]) {
        assert!(Arc::ptr_eq(x, y), "the warm pass serves the cached arena");
    }
    let stats = server.stats();
    assert!(stats.cache.hits > 0);
}
