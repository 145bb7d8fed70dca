//! Integration oracle for the full mutation model:
//! [`SizeLEngine::apply`] / [`apply_batch`] over **insert, update, and
//! delete** mutations must keep every derived layer — keyword index,
//! forward arrays, installed rank scores, sorted FK and link postings —
//! in lockstep, under both refresh policies.
//!
//! [`apply_batch`]: SizeLEngine::apply_batch

use sizel_core::engine::{EngineConfig, Mutation, QueryOptions, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_core::test_fixtures::{max_pk, result_fingerprint as fingerprint};
use sizel_datagen::dblp::{generate, Dblp, DblpConfig};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_storage::{Database, StorageError, Value};

fn fresh_engine(d: Dblp) -> SizeLEngine {
    SizeLEngine::build(
        d.db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), presets::dblp_author_gds_config()),
            ("Paper".into(), presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("engine builds")
}

/// The mixed script: the insert prefix builds two authors sharing a new
/// paper, the suffix renames one author and the paper, then unlinks and
/// deletes the other author — the RESTRICT-legal order (the junction
/// delete must precede the author delete).
fn mixed_script(e: &SizeLEngine) -> Vec<Mutation> {
    let (a, p, j) =
        (max_pk(e.db(), "Author"), max_pk(e.db(), "Paper"), max_pk(e.db(), "AuthorPaper"));
    let year_pk = {
        let t = e.db().table(e.db().table_id("Year").unwrap());
        t.pk_of(sizel_storage::RowId(0))
    };
    vec![
        Mutation::insert("Author", vec![Value::Int(a + 1), "Orla Vexley".into()]),
        Mutation::insert("AuthorPaper", vec![Value::Int(j + 1), Value::Int(a + 1), Value::Int(p)]),
        Mutation::insert(
            "Paper",
            vec![Value::Int(p + 1), "mutable summaries under churn".into(), Value::Int(year_pk)],
        ),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(j + 2), Value::Int(a + 1), Value::Int(p + 1)],
        ),
        Mutation::insert("Author", vec![Value::Int(a + 2), "Tamsin Quell".into()]),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(j + 3), Value::Int(a + 2), Value::Int(p + 1)],
        ),
        Mutation::update("Author", a + 1, vec![Value::Int(a + 1), "Orla Quillwright".into()]),
        Mutation::update(
            "Paper",
            p + 1,
            vec![Value::Int(p + 1), "mutable summaries reiterated".into(), Value::Int(year_pk)],
        ),
        Mutation::delete("AuthorPaper", j + 3),
        Mutation::delete("Author", a + 2),
    ]
}

/// Every table's forward arrays equal a fresh `by_pk` resolution of its
/// live rows' keys.
fn assert_forward_resolved(db: &Database) {
    for (_, t) in db.tables() {
        for fk in &t.schema.fks {
            let target = db.table(db.table_id(&fk.ref_table).unwrap());
            for r in t.live_rows() {
                let fresh = t.value(r, fk.column).as_int().and_then(|k| target.by_pk(k));
                assert_eq!(t.forward(fk.column).get(r), fresh, "{}.{fk:?} {r:?}", t.schema.name);
            }
        }
    }
}

/// Both databases' tables hold the same installed score in every row
/// slot, to the bit.
fn assert_same_scores(a: &Database, b: &Database) {
    for ((_, x), (_, y)) in a.tables().zip(b.tables()) {
        assert_eq!(x.len(), y.len(), "{}", x.schema.name);
        for r in (0..x.len() as u32).map(sizel_storage::RowId) {
            assert_eq!(
                x.installed_score(r).to_bits(),
                y.installed_score(r).to_bits(),
                "{} {r:?}",
                x.schema.name
            );
        }
    }
}

fn existing_keyword(e: &SizeLEngine) -> String {
    let tid = e.db().table_id("Author").unwrap();
    let name = e.db().table(tid).value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
    name.split(' ').next().unwrap().to_owned()
}

/// Keywords spanning survivors ("Quillwright", "reiterated"), the
/// renamed-away and deleted tokens ("Vexley", "Tamsin", "Quell", "churn"),
/// and a pre-existing DS.
fn probe_keywords(existing: &str) -> Vec<String> {
    ["Orla", "Quillwright", "Vexley", "Tamsin", "Quell", "reiterated", "churn", existing]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn mixed_batch_is_byte_identical_to_the_fold_across_churn_and_compaction() {
    let mut batched = fresh_engine(generate(&DblpConfig::tiny()));
    let mut folded = fresh_engine(generate(&DblpConfig::tiny()));
    let existing = existing_keyword(&batched);
    let script = mixed_script(&batched);

    let before = batched.db().access().maint();
    let be = batched.apply_batch(script.clone()).unwrap();
    let batch_work = batched.db().access().maint().since(before);
    assert_eq!(batch_work.graph_builds, 0, "a mixed batch builds no data graph: {batch_work:?}");
    // The batch updates two link targets (an Author, a Paper); their
    // junction pairs re-sort in place.
    assert_eq!(batch_work.link_rebuilds, 0, "no link rebuild: {batch_work:?}");
    let mut fe = folded.epoch();
    for m in script {
        fe = folded.apply(m).unwrap();
    }
    assert_eq!(be, fe, "epochs");
    assert_forward_resolved(batched.db());
    assert_forward_resolved(folded.db());
    assert_same_scores(batched.db(), folded.db());
    assert_eq!(batched.per_table_max(), folded.per_table_max());

    for kw in probe_keywords(&existing) {
        for opts in [
            QueryOptions { l: 8, ..QueryOptions::default() },
            QueryOptions { l: 10, source: OsSource::Database, ..Default::default() },
            QueryOptions { l: 6, prelim: false, ..Default::default() },
        ] {
            let b0 = batched.db().access().snapshot();
            let b = batched.query_with(&kw, opts);
            let b_cost = batched.db().access().snapshot().since(b0);
            let f0 = folded.db().access().snapshot();
            let f = folded.query_with(&kw, opts);
            let f_cost = folded.db().access().snapshot().since(f0);
            assert_eq!(fingerprint(&b), fingerprint(&f), "{kw} {opts:?} diverged from the fold");
            assert_eq!(b_cost, f_cost, "{kw} {opts:?} paper-cost accounting diverged");
        }
    }
    // Both paths keep the Database-source prefix scans live after the
    // deletes.
    for e in [&batched, &folded] {
        e.db().access().reset();
        let _ = e.query_with(
            &existing,
            QueryOptions { l: 10, source: OsSource::Database, ..Default::default() },
        );
        let probes = e.db().access().probes();
        assert!(
            probes.fast > 0 && probes.heap == 0,
            "fast paths survive the mixed batch: {probes:?}"
        );
    }
}

#[test]
fn exact_mixed_stream_is_byte_identical_to_fresh_rebuild_at_every_epoch() {
    let cfg = DblpConfig::tiny();
    let mut live = fresh_engine(generate(&cfg));
    let existing = existing_keyword(&live);
    let script = mixed_script(&live);

    let mut applied: Vec<Mutation> = Vec::new();
    for step in 0..=script.len() {
        // Oracle: replay the applied prefix through the plain storage API
        // and rebuild every derived structure from scratch.
        let mut d = generate(&cfg);
        for m in &applied {
            match &m.op {
                sizel_core::engine::MutationOp::Insert { values } => {
                    d.db.insert(&m.table, values.clone()).unwrap();
                }
                sizel_core::engine::MutationOp::Update { pk, values } => {
                    d.db.update(&m.table, *pk, values.clone()).unwrap();
                }
                sizel_core::engine::MutationOp::Delete { pk } => {
                    d.db.delete(&m.table, *pk).unwrap();
                }
            }
        }
        let rebuilt = fresh_engine(d);
        assert_forward_resolved(live.db());
        assert_same_scores(live.db(), rebuilt.db());

        for kw in probe_keywords(&existing) {
            for opts in [
                QueryOptions { l: 8, ..QueryOptions::default() },
                QueryOptions { l: 10, source: OsSource::Database, ..Default::default() },
            ] {
                assert_eq!(
                    fingerprint(&live.query_with(&kw, opts)),
                    fingerprint(&rebuilt.query_with(&kw, opts)),
                    "step {step}: {kw} {opts:?} diverged from the fresh rebuild"
                );
            }
        }

        if let Some(m) = script.get(step) {
            let before = live.epoch();
            let after = live.apply(m.clone().exact()).unwrap();
            assert!(after > before, "step {step}: apply must advance the epoch");
            applied.push(m.clone());
        }
    }
}

#[test]
fn incremental_mixed_stream_stays_consistent_and_reiterate_refreshes_ranks() {
    let mut live = fresh_engine(generate(&DblpConfig::tiny()));
    let existing = existing_keyword(&live);
    for m in mixed_script(&live) {
        live.apply(m).unwrap();
        assert_forward_resolved(live.db());
    }

    // Updated tokens serve; renamed-away and deleted tokens are dark.
    let opts = QueryOptions { l: 8, ..QueryOptions::default() };
    let orla = live.query_with("Quillwright", opts);
    assert_eq!(orla.len(), 1, "the renamed author serves under the new token");
    assert!(orla[0].summary.len() > 1, "junction rows joined the summary");
    orla[0].summary.validate().unwrap();
    for dark in ["Vexley", "Tamsin", "Quell", "churn"] {
        assert!(
            live.query_with(dark, opts).is_empty(),
            "{dark:?} must stop matching after the rename/delete"
        );
    }

    // Both tuple sources agree byte-for-byte after the mixed stream.
    for kw in probe_keywords(&existing) {
        let a = live.query_with(
            &kw,
            QueryOptions { l: 10, source: OsSource::DataGraph, ..Default::default() },
        );
        let b = live.query_with(
            &kw,
            QueryOptions { l: 10, source: OsSource::Database, ..Default::default() },
        );
        assert_eq!(fingerprint(&a), fingerprint(&b), "{kw}: sources diverged post-stream");
    }

    // The prefix-scan fast path survived the deletes.
    live.db().access().reset();
    let _ = live.query_with(
        &existing,
        QueryOptions { l: 15, source: OsSource::Database, prelim: true, ..Default::default() },
    );
    let probes = live.db().access().probes();
    assert!(probes.fast > 0, "prefix scans survive the mixed stream: {probes:?}");

    // Bounded re-iteration tightens the incremental score estimates in
    // place: it advances the epoch, and the engine keeps serving
    // internally-consistent answers from the refreshed vector.
    let before = live.epoch();
    let after = live.reiterate(3);
    assert!(after > before, "reiterate must advance the epoch");
    assert_eq!(live.epoch(), after);
    let orla = live.query_with("Quillwright", opts);
    assert_eq!(orla.len(), 1);
    orla[0].summary.validate().unwrap();
    for kw in ["Quillwright", existing.as_str()] {
        let a = live.query_with(
            kw,
            QueryOptions { l: 10, source: OsSource::DataGraph, ..Default::default() },
        );
        let b = live.query_with(
            kw,
            QueryOptions { l: 10, source: OsSource::Database, ..Default::default() },
        );
        assert_eq!(fingerprint(&a), fingerprint(&b), "{kw}: sources diverged after reiterate");
    }
    live.db().access().reset();
    let _ = live.query_with(
        &existing,
        QueryOptions { l: 15, source: OsSource::Database, prelim: true, ..Default::default() },
    );
    let probes = live.db().access().probes();
    assert!(probes.fast > 0, "prefix scans survive reiterate: {probes:?}");
}

#[test]
fn rejected_mutations_leave_the_engine_untouched() {
    let mut live = fresh_engine(generate(&DblpConfig::tiny()));
    let existing = existing_keyword(&live);
    let (a, p, j) =
        (max_pk(live.db(), "Author"), max_pk(live.db(), "Paper"), max_pk(live.db(), "AuthorPaper"));
    live.apply(Mutation::insert("Author", vec![Value::Int(a + 1), "Orla Vexley".into()])).unwrap();
    live.apply(Mutation::insert(
        "AuthorPaper",
        vec![Value::Int(j + 1), Value::Int(a + 1), Value::Int(p)],
    ))
    .unwrap();

    let epoch = live.epoch();
    let probe = fingerprint(&live.query_with(&existing, QueryOptions::default()));

    // RESTRICT: a still-referenced author cannot be deleted.
    let err = live.apply(Mutation::delete("Author", a + 1)).unwrap_err();
    assert!(
        matches!(
            &err,
            StorageError::RestrictedDelete { table, referencing_table, .. }
                if table == "Author" && referencing_table == "AuthorPaper"
        ),
        "unexpected error: {err:?}"
    );

    // Missing rows: updates and deletes of absent pks are rejected.
    let absent = a + 999;
    assert!(matches!(
        live.apply(Mutation::update("Author", absent, vec![Value::Int(absent), "Nobody".into()])),
        Err(StorageError::MissingRow { .. })
    ));
    assert!(matches!(
        live.apply(Mutation::delete("Author", absent)),
        Err(StorageError::MissingRow { .. })
    ));

    // The primary key is immutable under update.
    assert!(matches!(
        live.apply(Mutation::update(
            "Author",
            a + 1,
            vec![Value::Int(a + 500), "Renumbered".into()]
        )),
        Err(StorageError::ImmutablePrimaryKey { .. })
    ));

    // Nothing moved: same epoch, same bytes out.
    assert_eq!(live.epoch(), epoch, "rejected mutations must not advance the epoch");
    assert_eq!(
        fingerprint(&live.query_with(&existing, QueryOptions::default())),
        probe,
        "rejected mutations must not perturb served summaries"
    );
}
