//! Crash-injection tests for the WAL-backed disk tier (ISSUE 10
//! tentpole): a process that dies between the WAL append and the
//! settlement — or mid-append, leaving a torn final record — must
//! recover, by rebuilding the engine over the same base data and
//! re-attaching the tier, to a state **byte-identical** to the
//! committed-epoch baseline: same query fingerprints, same epochs.
//!
//! "Crash" here is simulated honestly: the first engine is dropped (no
//! graceful checkpoint), and the torn/unsettled records are produced by
//! writing to the WAL file directly — exactly the bytes a dying process
//! would have left.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sizel_core::durability::{encode_batch, DiskTierConfig};
use sizel_core::engine::{EngineConfig, Mutation, QueryOptions, SizeLEngine};
use sizel_core::test_fixtures::{max_pk, result_fingerprint};
use sizel_datagen::dblp::{generate, Dblp, DblpConfig};
use sizel_disk::Wal;
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_storage::{AccessStats, StorageError, Value};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sizel-crash-{}-{}-{}", std::process::id(), tag, n));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// A mixed insert/update/delete script exercising every mutation kind.
fn script(e: &SizeLEngine) -> Vec<Mutation> {
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
            vec![Value::Int(p + 1), "durable summaries after crashes".into(), Value::Int(year_pk)],
        ),
        Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(j + 2), Value::Int(a + 1), Value::Int(p + 1)],
        ),
        Mutation::update("Author", a + 1, vec![Value::Int(a + 1), "Orla Quillwright".into()]),
        Mutation::delete("AuthorPaper", j + 2),
    ]
}

/// A state fingerprint: ranked summaries for keywords spanning mutated
/// and pre-existing rows, plus the epoch.
fn fingerprint(e: &SizeLEngine) -> String {
    let mut out = format!("epoch={:?}", e.epoch());
    for kw in ["Orla", "Quillwright", "Vexley", "durable", "crashes"] {
        let results = e.query(kw, 5);
        out.push_str(&format!("|{kw}:{}", result_fingerprint(&results)));
    }
    out
}

fn wal_only(dir: &std::path::Path) -> DiskTierConfig {
    DiskTierConfig::new(dir)
}

/// The tables a tier checkpoints: every posting list an Author or Paper
/// summary probes.
const PAGED_TABLES: [&str; 4] = ["AuthorPaper", "Citation", "Paper", "Year"];

#[test]
fn recovery_replays_the_wal_into_a_byte_identical_engine() {
    let dir = temp_dir("replay");

    // First life: attach (empty WAL), run the script as one batch, then
    // a batch the validator rejects (duplicate primary key) — its WAL
    // record exists, its settlement never happened.
    let mut first = fresh_engine(generate(&DblpConfig::tiny()));
    let report = first.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report, Default::default(), "nothing to replay on a fresh directory");
    let ms = script(&first);
    let n_ok = ms.len();
    let dup = max_pk(first.db(), "Author");
    first.apply_batch(ms).unwrap();
    first
        .apply_batch(vec![Mutation::insert("Author", vec![Value::Int(dup), "Dup".into()])])
        .unwrap_err();
    let committed = fingerprint(&first);
    drop(first); // crash: no checkpoint, no truncate

    // Second life: same base data, same directory.
    let mut second = fresh_engine(generate(&DblpConfig::tiny()));
    let report = second.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report.batches_replayed, 2);
    assert_eq!(report.mutations_replayed, n_ok + 1);
    assert_eq!(report.batches_rejected, 1, "the duplicate-pk batch is rejected again");
    assert!(!report.wal_tail_damaged);
    assert_eq!(fingerprint(&second), committed);

    // Third life: the WAL was kept, so recovery is repeatable.
    let mut third = fresh_engine(generate(&DblpConfig::tiny()));
    third.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(fingerprint(&third), committed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_rejected_oversized_batch_does_not_poison_the_wal() {
    // A batch is logged before it is validated, so a rejected batch's
    // record stays in the WAL and must be one recovery can read — names
    // and rows past 65 535 (where a 16-bit length wraps) included. A
    // CRC-valid record that does not decode fails every later
    // `attach_disk` and loses the batches acknowledged after it.
    let dir = temp_dir("poison");

    let mut first = fresh_engine(generate(&DblpConfig::tiny()));
    first.attach_disk(wal_only(&dir)).unwrap();
    first.apply_batch(vec![Mutation::delete("x".repeat(70_000), 1)]).unwrap_err();
    first.apply_batch(vec![Mutation::insert("Author", vec![Value::Null; 70_000])]).unwrap_err();
    let ms = script(&first);
    first.apply_batch(ms).unwrap();
    let committed = fingerprint(&first);
    drop(first);

    let mut second = fresh_engine(generate(&DblpConfig::tiny()));
    let report = second.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report.batches_replayed, 3);
    assert_eq!(report.batches_rejected, 2, "both oversized batches are rejected again");
    assert_eq!(fingerprint(&second), committed, "the batch acknowledged after them survives");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_kill_between_wal_append_and_settlement_still_recovers_the_batch() {
    let dir = temp_dir("unsettled");

    // The victim settles only a prefix of the script...
    let mut victim = fresh_engine(generate(&DblpConfig::tiny()));
    victim.attach_disk(wal_only(&dir)).unwrap();
    let ms = script(&victim);
    let (prefix, suffix) = (ms[..4].to_vec(), ms[4..].to_vec());
    victim.apply_batch(prefix.clone()).unwrap();
    drop(victim);
    // ...and died right after appending the suffix's WAL record, before
    // touching the database: write exactly that record by hand.
    {
        let (mut wal, _) = Wal::open(&dir.join("wal.log"), 1).unwrap();
        wal.append(&encode_batch(0, &suffix)).unwrap();
    }

    // The baseline never crashed and applied both batches.
    let mut baseline = fresh_engine(generate(&DblpConfig::tiny()));
    baseline.apply_batch(prefix).unwrap();
    baseline.apply_batch(suffix).unwrap();

    let mut recovered = fresh_engine(generate(&DblpConfig::tiny()));
    let report = recovered.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report.batches_replayed, 2, "the unsettled record replays too");
    assert_eq!(report.batches_rejected, 0);
    assert_eq!(fingerprint(&recovered), fingerprint(&baseline));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_record_that_does_not_decode_fails_the_attach_before_anything_applies() {
    // Two intact records; the second's first mutation carries 1 in the
    // reserved byte after its table name, a value no build decodes. The
    // attach must fail as a whole: the first record is not applied, and
    // no tier is left attached.
    let dir = temp_dir("reserved");
    let mut engine = fresh_engine(generate(&DblpConfig::tiny()));
    let ms = script(&engine);
    let (prefix, suffix) = (ms[..4].to_vec(), ms[4..].to_vec());
    let mut bad = encode_batch(0, &suffix);
    let reserved = 8 + 4 + 4 + suffix[0].table.len();
    assert_eq!(bad[reserved], 0);
    bad[reserved] = 1;
    {
        let (mut wal, _) = Wal::open(&dir.join("wal.log"), 1).unwrap();
        wal.append(&encode_batch(0, &prefix)).unwrap();
        wal.append(&bad).unwrap();
    }

    let before = fingerprint(&engine);
    let epoch = engine.epoch();
    let err = engine.attach_disk(wal_only(&dir)).unwrap_err();
    assert!(matches!(err, StorageError::Durability(_)), "{err:?}");
    assert_eq!(engine.epoch(), epoch, "no record was applied");
    assert_eq!(fingerprint(&engine), before);
    assert!(engine.disk_stats().is_none(), "no tier is attached");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_final_record_is_discarded_and_recovery_stops_at_the_committed_prefix() {
    let dir = temp_dir("torn");

    let mut victim = fresh_engine(generate(&DblpConfig::tiny()));
    victim.attach_disk(wal_only(&dir)).unwrap();
    let ms = script(&victim);
    let (prefix, suffix) = (ms[..4].to_vec(), ms[4..].to_vec());
    victim.apply_batch(prefix.clone()).unwrap();
    drop(victim);
    // The crash tore the suffix's record: only half its bytes landed.
    let record = encode_batch(0, &suffix);
    {
        let (mut wal, _) = Wal::open(&dir.join("wal.log"), 1).unwrap();
        wal.append(&record).unwrap();
    }
    let path = dir.join("wal.log");
    let bytes = std::fs::read(&path).unwrap();
    let torn = bytes.len() - record.len() / 2;
    std::fs::write(&path, &bytes[..torn]).unwrap();

    // Baseline: the suffix never committed, so it is not part of the
    // recovered state.
    let mut baseline = fresh_engine(generate(&DblpConfig::tiny()));
    baseline.apply_batch(prefix).unwrap();

    let mut recovered = fresh_engine(generate(&DblpConfig::tiny()));
    let report = recovered.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report.batches_replayed, 1, "only the committed prefix replays");
    assert!(report.wal_tail_damaged, "the torn tail was detected");
    assert!(report.wal_truncated_bytes > 0, "and truncated away");
    assert_eq!(fingerprint(&recovered), fingerprint(&baseline));

    // The healed WAL accepts new batches: apply the suffix for real and
    // a fourth life converges to the full-script state.
    recovered.apply_batch(suffix.clone()).unwrap();
    let full = fingerprint(&recovered);
    drop(recovered);
    let mut fourth = fresh_engine(generate(&DblpConfig::tiny()));
    let report = fourth.attach_disk(wal_only(&dir)).unwrap();
    assert_eq!(report.batches_replayed, 2);
    assert!(!report.wal_tail_damaged);
    assert_eq!(fingerprint(&fourth), full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_tables_serve_identical_answers_through_mutations_and_checkpoints() {
    let dir = temp_dir("paged");

    let mut ram = fresh_engine(generate(&DblpConfig::tiny()));
    let mut paged = fresh_engine(generate(&DblpConfig::tiny()));
    let report = paged
        .attach_disk(DiskTierConfig {
            fsync_every: 4,
            paged_tables: vec!["Author".into(), "AuthorPaper".into()],
            ..DiskTierConfig::new(&dir)
        })
        .unwrap();
    assert!(report.generation > 0, "the attach checkpointed a segment generation");
    assert_eq!(fingerprint(&paged), fingerprint(&ram), "a checkpoint changes no answer");

    let ms = script(&ram);
    ram.apply_batch(ms.clone()).unwrap();
    paged.apply_batch(ms).unwrap();
    assert_eq!(fingerprint(&paged), fingerprint(&ram));

    // A checkpoint re-sorts the runs from the installed scores and
    // snapshots the mutated postings.
    let generation = paged.checkpoint_disk().unwrap();
    assert!(generation > report.generation);
    assert_eq!(fingerprint(&paged), fingerprint(&ram));

    let stats = paged.disk_stats().expect("tier attached");
    assert_eq!(stats.store.generation, generation);
    assert_eq!(generation, 2, "the attach's checkpoint and this one");
    assert_eq!(stats.wal_appends, 1);
    assert!(stats.wal_bytes > 0);

    // WAL truncation after an external base snapshot: nothing replays.
    paged.truncate_wal().unwrap();
    assert_eq!(paged.disk_stats().unwrap().wal_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The space the packed segment layout promises: a checkpoint costs
/// bytes in proportion to the posting entries it holds (4 per row id,
/// plus a slot header and a directory entry per list),
/// not a page per list — on DBLP, whose lists average under five
/// entries, at most 24 bytes per entry, directory included.
#[test]
fn a_checkpoint_of_the_dblp_posting_tables_costs_at_most_24_bytes_per_entry() {
    let dir = temp_dir("space");
    let tables = PAGED_TABLES;
    let mut engine = fresh_engine(generate(&DblpConfig::small()));
    let (mut lists, mut entries) = (0usize, 0usize);
    for name in tables {
        let t = engine.db().table(engine.db().table_id(name).unwrap());
        for rows in t.sorted_fk_indexes().flat_map(|(_, i)| i.posting_lists()).map(|(_, r)| r) {
            lists += 1;
            entries += rows.len();
        }
    }
    assert!(lists > 1000 && entries > lists, "the pin needs many short lists to mean anything");

    engine
        .attach_disk(DiskTierConfig {
            paged_tables: tables.map(String::from).to_vec(),
            ..DiskTierConfig::new(&dir)
        })
        .unwrap();
    let files: Vec<_> =
        std::fs::read_dir(dir.join("segments")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "one installed generation, no temporary file: {files:?}");
    let bytes = std::fs::metadata(&files[0]).unwrap().len() as usize;
    assert!(
        bytes <= 24 * entries,
        "{bytes} segment bytes for {entries} entries in {lists} lists = {:.1} B/entry",
        bytes as f64 / entries as f64
    );
    assert_eq!(engine.disk_stats().unwrap().store.lists, lists as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A tier that checkpoints the posting tables moves no probe: its engine
/// answers as a tier-less one does, with the same paper-cost accounting
/// and the same mix of prefix-scan and heap probes — after the attach,
/// after a batch and after a re-checkpoint. The runs serve every probe
/// on both sides.
#[test]
fn a_tier_with_paged_tables_probes_as_a_tier_less_engine() {
    let dir = temp_dir("probe-mix");
    let mut plain = fresh_engine(generate(&DblpConfig::tiny()));
    let mut tiered = fresh_engine(generate(&DblpConfig::tiny()));
    tiered
        .attach_disk(DiskTierConfig {
            paged_tables: PAGED_TABLES.map(String::from).to_vec(),
            ..DiskTierConfig::new(&dir)
        })
        .unwrap();
    // Summaries (their junction steps are heap probes), then the TOP-l
    // probe of every FK column of the checkpointed tables — the prefix
    // scan no DBLP summary issues.
    let opts = QueryOptions::default();
    let reads = |e: &SizeLEngine| -> (String, AccessStats, (u64, u64)) {
        let (db, access) = (e.db(), e.db().access());
        let (a0, p0) = (access.snapshot(), access.probes());
        let mut fp = format!("epoch={:?}", e.epoch());
        for kw in ["Faloutsos", "Orla", "durable", "summaries"] {
            fp.push_str(&format!("|{kw}:{}", result_fingerprint(&e.query_with(kw, opts))));
        }
        for name in PAGED_TABLES {
            let (tid, t) = (db.table_id(name).unwrap(), db.table(db.table_id(name).unwrap()));
            let li = |r| t.installed_score(r);
            for (fk, key) in t.schema.fks.iter().flat_map(|fk| (1..=8).map(move |k| (fk, k))) {
                let rows = db.select_eq_top_l(tid, fk.column, key, 5, 0.0, true, &li);
                fp.push_str(&format!("|{name}.{}={key}:{rows:?}", fk.column));
            }
        }
        let (a1, p1) = (access.snapshot(), access.probes());
        (fp, a1.since(a0), (p1.fast - p0.fast, p1.heap - p0.heap))
    };
    let same = |plain: &SizeLEngine, tiered: &SizeLEngine, when: &str| {
        let expect = reads(plain);
        assert!(expect.2 .0 > 0 && expect.2 .1 > 0, "{when}: both kinds of probe ran");
        assert_eq!(reads(tiered), expect, "{when}");
    };
    same(&plain, &tiered, "after the attach");
    let ms = script(&plain);
    plain.apply_batch(ms.clone()).unwrap();
    tiered.apply_batch(ms).unwrap();
    same(&plain, &tiered, "after a batch");
    tiered.checkpoint_disk().unwrap();
    same(&plain, &tiered, "after a re-checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}
