//! The per-DS summarize path and the hot-key re-warm hook (ISSUE 5):
//! per-item `summarize` must be byte-identical to the engine's,
//! and `rewarm_hottest` must pre-pay exactly the recomputes that a hot
//! reader would otherwise eat after a write — at the current epoch, under
//! the same staleness proof as demand fill.

use sizel_core::engine::QueryOptions;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{Mutation, ServeConfig, SizeLServer};
use sizel_storage::{TupleRef, Value};

mod common;
use common::{build_engine, fingerprint};
use sizel_core::test_fixtures::max_pk;

fn test_config() -> ServeConfig {
    ServeConfig { cache_capacity: 256, cache_shards: 4, hot_capacity: 32 }
}

/// An existing keyword plus the DS tuples it resolves to.
fn probe(server: &SizeLServer) -> (String, Vec<TupleRef>) {
    let engine = server.engine();
    let kw = {
        let tid = engine.db().table_id("Author").unwrap();
        let name =
            engine.db().table(tid).value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
        name.split(' ').next().unwrap().to_owned()
    };
    let hits = engine.ds_hits(&kw);
    assert!(!hits.is_empty(), "fixture keyword must resolve");
    (kw, hits)
}

#[test]
fn summarize_batch_is_byte_identical_to_the_engine() {
    let server = SizeLServer::new(build_engine(&DblpConfig::tiny()), test_config());
    let (_, hits) = probe(&server);
    let opts = [
        QueryOptions { l: 8, ..Default::default() },
        QueryOptions { l: 5, prelim: false, ..Default::default() },
        QueryOptions { l: 8, source: sizel_core::osgen::OsSource::Database, ..Default::default() },
    ];
    let items: Vec<(TupleRef, QueryOptions)> =
        hits.iter().flat_map(|&t| opts.iter().map(move |&o| (t, o))).collect();
    // Twice: cold pass computes, warm pass serves the same Arc'd entries.
    for round in 0..2 {
        let got: Vec<_> = items.iter().map(|&(tds, o)| server.summarize(tds, o)).collect();
        assert_eq!(got.len(), items.len());
        let engine = server.engine();
        for ((tds, o), r) in items.iter().zip(&got) {
            let want = engine.summarize(*tds, *o);
            assert_eq!(
                fingerprint(std::slice::from_ref(r)),
                fingerprint(&[want]),
                "round {round}: {tds:?} {o:?} diverged from the engine"
            );
        }
    }
    assert!(server.stats().cache.hits > 0, "the second pass hits the cache");
}

#[test]
fn rewarm_recomputes_hot_keys_before_readers_do() {
    let server = SizeLServer::new(build_engine(&DblpConfig::tiny()), test_config());
    let (kw, _) = probe(&server);
    let opts = QueryOptions { l: 8, ..Default::default() };
    // Heat the key set.
    for _ in 0..4 {
        let _ = server.query(&kw, opts);
    }
    assert!(!server.hottest(8).is_empty(), "queries feed the hotness sketch");

    // A mutation purges every cached entry (superseded epoch)...
    let (author, junction, paper) = {
        let e = server.engine();
        (max_pk(e.db(), "Author"), max_pk(e.db(), "AuthorPaper"), max_pk(e.db(), "Paper"))
    };
    server
        .apply(Mutation::insert("Author", vec![Value::Int(author + 1), "Renn Calloway".into()]))
        .unwrap();
    server
        .apply(Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(junction + 1), Value::Int(author + 1), Value::Int(paper)],
        ))
        .unwrap();
    assert_eq!(server.stats().cache.len, 0, "the purge drops superseded entries");

    // ...and the re-warm pays the recomputes proactively.
    let warmed = server.rewarm_hottest(8);
    assert!(warmed > 0, "hot keys are recomputed at the new epoch");
    assert_eq!(server.stats().rewarmed, warmed as u64);

    // A steady-state reader of the hot key now misses nothing: the query
    // is served without a single new summary computation, byte-identical
    // to the sequential engine at the current epoch.
    let computed_before = server.stats().summaries_computed;
    let got = server.query(&kw, opts);
    assert_eq!(
        server.stats().summaries_computed,
        computed_before,
        "the hot reader must not eat a cold recompute after the re-warm"
    );
    assert_eq!(fingerprint(&got), fingerprint(&server.engine().query_with(&kw, opts)));
}

/// The refresh worker is no reader: a re-warm pass — the keys it
/// recomputes and the keys it skips as current — moves none of the
/// reader-facing lookup counters the hit ratio is computed from.
#[test]
fn a_rewarm_pass_moves_no_reader_lookup_counter() {
    let server = SizeLServer::new(build_engine(&DblpConfig::tiny()), test_config());
    let (kw, _) = probe(&server);
    let opts = QueryOptions { l: 8, ..Default::default() };
    for _ in 0..2 {
        let _ = server.query(&kw, opts);
    }
    let author = max_pk(server.engine().db(), "Author");
    server
        .apply(Mutation::insert("Author", vec![Value::Int(author + 1), "Oriel Wendt".into()]))
        .unwrap();
    let lookups = |s: &SizeLServer| {
        let c = s.stats().cache;
        (c.hits, c.misses, c.probe_misses)
    };
    let before = lookups(&server);
    // The first pass recomputes what the write purged; the second finds
    // every key current and skips it.
    assert!(server.rewarm_hottest(8) > 0, "the write left hot keys to re-warm");
    assert_eq!(server.rewarm_hottest(8), 0, "every hot key is current now");
    assert!(server.stats().rewarmed > 0);
    assert_eq!(lookups(&server), before, "a re-warm is not a reader lookup");
}

#[test]
fn rewarm_respects_the_budget_and_skips_current_entries() {
    let server = SizeLServer::new(build_engine(&DblpConfig::tiny()), test_config());
    let (kw, hits) = probe(&server);
    let opts = QueryOptions { l: 6, ..Default::default() };
    let _ = server.query(&kw, opts);
    // Everything the query touched is cached at the current epoch: a
    // re-warm finds nothing to do.
    assert_eq!(server.rewarm_hottest(16), 0, "current-epoch entries are skipped");

    // After a purge, the budget caps the recompute count.
    let author = max_pk(server.engine().db(), "Author");
    server
        .apply(Mutation::insert("Author", vec![Value::Int(author + 1), "Mira Stonewell".into()]))
        .unwrap();
    let warmed = server.rewarm_hottest(1);
    assert!(warmed <= 1, "budget bounds the refresh work");
    assert!(warmed <= hits.len());
}
