//! Integration oracle for the full mutation model:
//! [`SizeLEngine::apply`] / [`apply_batch`] over **insert, update, and
//! delete** mutations must keep every derived layer — keyword index,
//! FK parents, installed rank scores, sorted FK postings —
//! in lockstep, under both refresh policies.
//!
//! [`apply_batch`]: SizeLEngine::apply_batch

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{EngineConfig, Mutation, QueryOptions, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_core::test_fixtures::{fk_prefix_scan_fires, max_pk, result_fingerprint as fingerprint};
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

/// Every live row's parent, as the resolver reads it, equals a fresh
/// `by_pk` of its key.
fn assert_parents_resolved(db: &Database) {
    for (_, t) in db.tables() {
        for fk in &t.schema.fks {
            let target = db.table(db.table_id(&fk.ref_table).unwrap());
            for r in t.live_rows() {
                let fresh = t.value(r, fk.column).as_int().and_then(|k| target.by_pk(k));
                let parent = t.parent_of(fk.column, r, target);
                assert_eq!(parent, fresh, "{}.{fk:?} {r:?}", t.schema.name);
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
    let mut tables: Vec<&str> = script.iter().map(|m| m.table.as_str()).collect();
    tables.sort_unstable();
    tables.dedup();
    let touched = tables.len() as u64;

    let before = batched.db().access().maint();
    let be = batched.apply_batch(script.clone()).unwrap();
    let batch_work = batched.db().access().maint().since(before);
    assert_eq!(batch_work.graph_builds, 0, "a mixed batch builds no data graph: {batch_work:?}");
    // The batch updates two junction targets (an Author, a Paper); their
    // junctions hold nothing ordered by them, so only the touched tables'
    // runs re-sort, at most once each.
    assert!(batch_work.posting_resorts <= touched, "one settlement per table: {batch_work:?}");
    let mut fe = folded.epoch();
    for m in script {
        fe = folded.apply(m).unwrap();
    }
    assert_eq!(be, fe, "epochs");
    assert_parents_resolved(batched.db());
    assert_parents_resolved(folded.db());
    assert_same_scores(batched.db(), folded.db());
    assert_eq!(batched.per_table_max(), folded.per_table_max());

    for kw in probe_keywords(&existing) {
        for opts in [
            QueryOptions { l: 8, ..QueryOptions::default() },
            QueryOptions { l: 10, ..Default::default() },
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
    // Both paths keep the installed order live for FK prefix scans
    // after the deletes; summaries probe junction steps, one heap probe
    // each.
    for e in [&batched, &folded] {
        e.db().access().reset();
        let _ = e.query_with(&existing, QueryOptions { l: 10, ..Default::default() });
        let probes = e.db().access().probes();
        assert!(probes.fast == 0 && probes.heap > 0, "junction steps only: {probes:?}");
        assert!(
            fk_prefix_scan_fires(e.db(), "AuthorPaper", "author_id"),
            "fast paths survive the mixed batch"
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
        assert_parents_resolved(live.db());
        assert_same_scores(live.db(), rebuilt.db());

        for kw in probe_keywords(&existing) {
            for opts in [
                QueryOptions { l: 8, ..QueryOptions::default() },
                QueryOptions { l: 10, ..Default::default() },
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
    for m in mixed_script(&live) {
        live.apply(m).unwrap();
        assert_parents_resolved(live.db());
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

    // The installed order survived the deletes.
    assert!(
        fk_prefix_scan_fires(live.db(), "Citation", "citing_id"),
        "prefix scans survive the mixed stream"
    );

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
    assert!(fk_prefix_scan_fires(live.db(), "Paper", "year_id"), "prefix scans survive reiterate");
}

/// The tuple source a request names changes nothing: not the answer, not
/// the paper cost the engine counts, not the probe mix.
#[test]
fn the_tuple_source_is_inert() {
    let e = fresh_engine(generate(&DblpConfig::tiny()));
    // Eight keywords that hit: four authors' first names, four papers'
    // last title words.
    let mut keywords = Vec::new();
    for (table, word) in [("Author", 0), ("Paper", usize::MAX)] {
        let t = e.db().table(e.db().table_id(table).unwrap());
        for r in t.live_rows().take(4) {
            let text = t.value(r, 1).as_str().unwrap().to_owned();
            let words: Vec<&str> = text.split(' ').collect();
            keywords.push(words[word.min(words.len() - 1)].to_owned());
        }
    }
    let algos = [
        AlgoKind::Optimal,
        AlgoKind::OptimalNaive,
        AlgoKind::BottomUp,
        AlgoKind::TopPath,
        AlgoKind::TopPathOpt,
    ];
    let access = e.db().access();
    let mut answered = 0;
    for kw in &keywords {
        for l in [1, 5, 15, 40] {
            for algo in algos {
                for prelim in [true, false] {
                    let run = |source| {
                        let (s0, p0) = (access.snapshot(), access.probes());
                        let opts = QueryOptions { l, algo, prelim, source, ..Default::default() };
                        let fp = fingerprint(&e.query_with(kw, opts));
                        let p1 = access.probes();
                        (fp, access.snapshot().since(s0), (p1.fast - p0.fast, p1.heap - p0.heap))
                    };
                    let (graph, database) = (run(OsSource::DataGraph), run(OsSource::Database));
                    assert_eq!(graph, database, "{kw} l={l} {algo:?} prelim={prelim}");
                    answered += usize::from(!graph.0.is_empty() && graph.1.joins > 0);
                }
            }
        }
    }
    assert!(answered > 200, "only {answered} requests returned summaries that probed");
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
