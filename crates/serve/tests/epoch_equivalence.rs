//! The mutation-workload equivalence oracle (ISSUE 4, satellite b;
//! extended by ISSUE 6 to the full insert/update/delete model): an
//! interleaved mutation/query stream against [`SizeLServer`] must produce
//! summaries **byte-identical to a freshly rebuilt sequential engine at
//! each epoch** — the cache, keyed by the mutation epoch, must never
//! serve a summary computed against superseded data, including summaries
//! whose rows were renamed or deleted mid-stream.
//!
//! Three angles:
//! * `exact_stream_*` — exact-policy applies, compared per epoch against
//!   an engine rebuilt from scratch over an identically-mutated database
//!   (the strongest oracle: every float bit comes out equal).
//! * `incremental_stream_*` — incremental-policy applies, compared
//!   against the same engine queried sequentially (internal consistency:
//!   what the live engine computes is what every server path returns),
//!   plus the recompute-after-epoch-bump proof that stale entries are
//!   unreachable.
//! * `concurrent_*` — clients hammer the server while a writer applies
//!   mutations; every response must equal the sequential answer of one
//!   of the epochs the stream passed through.

use std::sync::{Arc, Barrier};

use sizel_core::engine::{QueryOptions, SizeLEngine};
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{Mutation, MutationOp, ServeConfig, SizeLServer};
use sizel_storage::Value;

mod common;
use common::{build_engine, engine_config, fingerprint, generate_dblp, seq_fingerprint};
use sizel_core::test_fixtures::max_pk;

/// The mutation script: two new authors linked into existing papers and a
/// fresh paper (the ISSUE 4 insert prefix), then the ISSUE 6 suffix — a
/// paper retitle, an author rename, two junction deletes, and finally the
/// delete of the renamed author once nothing references it. Quorra Veldt
/// keeps one junction throughout, so a live summary survives the churn.
/// Pure function of the base engine.
fn mutation_script(engine: &SizeLEngine) -> Vec<Mutation> {
    let db = engine.db();
    let (author, paper, junction) =
        (max_pk(db, "Author"), max_pk(db, "Paper"), max_pk(db, "AuthorPaper"));
    // Any existing Year row serves as the new paper's venue.
    let year_pk = {
        let t = db.table(db.table_id("Year").unwrap());
        t.pk_of(sizel_storage::RowId(0))
    };
    vec![
        Mutation::insert("Author", vec![Value::Int(author + 1), "Quorra Veldt".into()]),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(junction + 1), Value::Int(author + 1), Value::Int(paper)],
        ),
        Mutation::insert("Author", vec![Value::Int(author + 2), "Brann Oxley".into()]),
        Mutation::insert(
            "Paper",
            vec![Value::Int(paper + 1), "veldt summaries revisited".into(), Value::Int(year_pk)],
        ),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(junction + 2), Value::Int(author + 2), Value::Int(paper + 1)],
        ),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(junction + 3), Value::Int(author + 1), Value::Int(paper + 1)],
        ),
        // -- ISSUE 6: updates re-tokenize, deletes retire rows -----------
        Mutation::update(
            "Paper",
            paper + 1,
            vec![Value::Int(paper + 1), "veldt summaries reiterated".into(), Value::Int(year_pk)],
        ),
        Mutation::update(
            "Author",
            author + 2,
            vec![Value::Int(author + 2), "Brann Quillfeather".into()],
        ),
        Mutation::delete("AuthorPaper", junction + 3),
        Mutation::delete("AuthorPaper", junction + 2),
        Mutation::delete("Author", author + 2),
    ]
}

/// Queries covering pre-existing, freshly inserted, renamed, and deleted
/// DSs, both named tuple sources (one cache entry), prelim and complete
/// inputs. Keywords whose rows die mid-stream ("Oxley", then
/// "Quillfeather") must go dark at the right epoch — an empty answer is a
/// fingerprinted answer too.
fn query_set(engine: &SizeLEngine) -> Vec<(String, QueryOptions)> {
    let existing = {
        let tid = engine.db().table_id("Author").unwrap();
        let t = engine.db().table(tid);
        let name = t.value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
        name.split(' ').next().unwrap().to_owned()
    };
    let mut set = Vec::new();
    for kw in [
        existing.as_str(),
        "Quorra",
        "Veldt",
        "Brann",
        "veldt",
        "Oxley",
        "Quillfeather",
        "reiterated",
    ] {
        for (prelim, source) in [
            (true, sizel_core::osgen::OsSource::DataGraph),
            (false, sizel_core::osgen::OsSource::DataGraph),
            (true, sizel_core::osgen::OsSource::Database),
        ] {
            set.push((kw.to_owned(), QueryOptions { l: 8, prelim, source, ..Default::default() }));
        }
    }
    set
}

/// Replays an applied prefix through the plain storage API (the oracle's
/// database takes the same mutations by kind, minus scoring).
fn replay(d: &mut sizel_datagen::dblp::Dblp, applied: &[Mutation]) {
    for m in applied {
        match &m.op {
            MutationOp::Insert { values } => {
                d.db.insert(&m.table, values.clone()).unwrap();
            }
            MutationOp::Update { pk, values } => {
                d.db.update(&m.table, *pk, values.clone()).unwrap();
            }
            MutationOp::Delete { pk } => {
                d.db.delete(&m.table, *pk).unwrap();
            }
        }
    }
}

#[test]
fn exact_stream_is_byte_identical_to_fresh_rebuild_at_each_epoch() {
    let cfg = DblpConfig::tiny();
    let server = SizeLServer::new(
        build_engine(&cfg),
        ServeConfig { cache_capacity: 256, cache_shards: 4, ..ServeConfig::default() },
    );
    let (script, set) = {
        let e = server.engine();
        (mutation_script(&e), query_set(&e))
    };

    let mut applied: Vec<Mutation> = Vec::new();
    for step in 0..=script.len() {
        // Oracle: a sequential engine rebuilt from scratch over an
        // identically-mutated database.
        let mut d = generate_dblp(&cfg);
        replay(&mut d, &applied);
        let oracle = SizeLEngine::build(
            d.db,
            |db, sg, dg| sizel_rank::dblp_ga(sizel_rank::GaPreset::Ga1, db, sg, dg),
            engine_config(),
        )
        .unwrap();

        // Every query — twice, so the second pass is served from the
        // epoch-keyed cache — must match the oracle byte-for-byte.
        for round in 0..2 {
            for (kw, opts) in &set {
                let got = server.query(kw, *opts);
                let want = seq_fingerprint(&oracle, kw, *opts);
                assert_eq!(
                    fingerprint(&got),
                    want,
                    "step {step} round {round}: {kw:?} {opts:?} diverged from the fresh rebuild"
                );
            }
        }

        if let Some(m) = script.get(step) {
            let before = server.epoch();
            let after = server.apply(m.clone().exact()).unwrap();
            assert!(after > before, "apply must advance the epoch");
            applied.push(m.clone());
        }
    }
    let stats = server.stats();
    assert_eq!(stats.mutations_applied, script.len() as u64);
    assert!(stats.cache.hits > 0, "the second pass of each epoch must hit the cache");
}

#[test]
fn incremental_stream_matches_its_engine_and_never_serves_stale_entries() {
    let server = SizeLServer::new(
        build_engine(&DblpConfig::tiny()),
        ServeConfig { cache_capacity: 256, cache_shards: 4, ..ServeConfig::default() },
    );
    let (script, set) = {
        let e = server.engine();
        (mutation_script(&e), query_set(&e))
    };

    for step in 0..=script.len() {
        // Warm pass + cached pass, both compared against the shared
        // engine queried sequentially under a read guard.
        for _ in 0..2 {
            for (kw, opts) in &set {
                let got = server.query(kw, *opts);
                let want = seq_fingerprint(&server.engine(), kw, *opts);
                assert_eq!(fingerprint(&got), want, "step {step}: {kw:?} {opts:?}");
            }
        }
        if let Some(m) = script.get(step) {
            let computed_before = server.stats().summaries_computed;
            let hit_kw = &set[0];
            let _ = server.query(&hit_kw.0, hit_kw.1); // cached at the old epoch
            server.apply(m.clone()).unwrap();
            let _ = server.query(&hit_kw.0, hit_kw.1);
            let computed_after = server.stats().summaries_computed;
            assert!(
                computed_after > computed_before,
                "step {step}: post-mutation query must recompute, not reuse the stale entry"
            );
        }
    }

    // The surviving inserted author is served with a real summary; the
    // deleted one (and its pre-rename token) went dark.
    let quorra = server.query("Quorra", QueryOptions { l: 8, ..Default::default() });
    assert_eq!(quorra.len(), 1);
    assert!(quorra[0].summary.len() > 1, "the junction rows joined the summary");
    for gone in ["Oxley", "Quillfeather"] {
        let hits = server.query(gone, QueryOptions { l: 8, ..Default::default() });
        assert!(hits.is_empty(), "{gone:?} must stop matching once the row is renamed/deleted");
    }
}

#[test]
fn concurrent_queries_during_mutations_always_observe_a_consistent_epoch() {
    let server = Arc::new(SizeLServer::new(
        build_engine(&DblpConfig::tiny()),
        ServeConfig { cache_capacity: 128, cache_shards: 4, ..ServeConfig::default() },
    ));
    let script = mutation_script(&server.engine());
    let probe: (String, QueryOptions) = {
        let e = server.engine();
        query_set(&e)[0].clone()
    };

    // The writer records the sequential fingerprint of the probe at every
    // epoch the stream passes through; every concurrent response must
    // equal one of them (a torn or stale answer matches none).
    let n_clients = 4;
    let barrier = Arc::new(Barrier::new(n_clients + 1));
    let clients: Vec<_> = (0..n_clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let probe = probe.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (0..40).map(|_| fingerprint(&server.query(&probe.0, probe.1))).collect::<Vec<_>>()
            })
        })
        .collect();

    barrier.wait();
    let mut legal = vec![seq_fingerprint(&server.engine(), &probe.0, probe.1)];
    for m in &script {
        server.apply(m.clone()).unwrap();
        legal.push(seq_fingerprint(&server.engine(), &probe.0, probe.1));
    }
    for client in clients {
        for fp in client.join().expect("client thread") {
            assert!(
                legal.contains(&fp),
                "a concurrent response matched no epoch of the mutation stream"
            );
        }
    }
}
