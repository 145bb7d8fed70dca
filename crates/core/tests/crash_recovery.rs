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
use std::sync::Arc;

use sizel_core::durability::{encode_batch, DiskTierConfig};
use sizel_core::engine::{EngineConfig, Mutation, SizeLEngine};
use sizel_core::os::FetchScratch;
use sizel_core::test_fixtures::{max_pk, result_fingerprint};
use sizel_core::{OsContext, OsSource};
use sizel_datagen::dblp::{generate, Dblp, DblpConfig};
use sizel_disk::page::LINK_PER_PAGE;
use sizel_disk::{PagedStore, Wal};
use sizel_graph::{presets, DataGraph, Gds, GdsConfig, JoinSpec, SchemaGraph};
use sizel_rank::{dblp_ga, AuthorityGraph, GaPreset, RankConfig};
use sizel_storage::{Database, ProbeCost, TableSchema, TupleRef, Value};

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
    DiskTierConfig { dir: dir.to_path_buf(), cache_pages: 64, fsync_every: 1, paged_tables: vec![] }
}

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
            dir: dir.clone(),
            cache_pages: 8,
            fsync_every: 4,
            paged_tables: vec!["Author".into(), "AuthorPaper".into()],
        })
        .unwrap();
    assert!(report.generation > 0, "the attach checkpointed a segment generation");
    assert_eq!(fingerprint(&paged), fingerprint(&ram), "paged probes change no answer");

    // Mutations stale the segment stamp: probes fall back to the heap
    // paths, answers stay equal.
    let ms = script(&ram);
    ram.apply_batch(ms.clone()).unwrap();
    paged.apply_batch(ms).unwrap();
    assert_eq!(fingerprint(&paged), fingerprint(&ram));

    // A checkpoint re-pages the mutated postings and re-routes probes.
    let generation = paged.checkpoint_disk().unwrap();
    assert!(generation > report.generation);
    assert_eq!(fingerprint(&paged), fingerprint(&ram));

    let stats = paged.disk_stats().expect("tier attached");
    assert_eq!(stats.store.generation, generation);
    assert_eq!(stats.store.checkpoints, 2);
    assert_eq!(stats.wal_appends, 1);
    assert!(stats.wal_bytes > 0);

    // WAL truncation after an external base snapshot: nothing replays.
    paged.truncate_wal().unwrap();
    assert_eq!(paged.disk_stats().unwrap().wal_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The space the packed segment layout promises: a checkpoint costs
/// bytes in proportion to the posting entries it holds (4 per FK row id,
/// 8 per link pair, plus a slot header and a directory entry per list),
/// not a page per list — on DBLP, whose lists average under five
/// entries, at most 24 bytes per entry, directory included.
#[test]
fn a_checkpoint_of_the_dblp_posting_tables_costs_at_most_24_bytes_per_entry() {
    let dir = temp_dir("space");
    let tables = ["AuthorPaper", "Citation", "Paper", "Year"];
    let mut engine = fresh_engine(generate(&DblpConfig::small()));
    let (mut lists, mut entries) = (0usize, 0usize);
    for name in tables {
        let t = engine.db().table(engine.db().table_id(name).unwrap());
        for rows in t.sorted_fk_indexes().flat_map(|(_, i)| i.posting_lists()).map(|(_, r)| r) {
            lists += 1;
            entries += rows.len();
        }
        for pairs in t.sorted_link_indexes().flat_map(|(_, i)| i.groups()).map(|(_, p, _)| p) {
            lists += 1;
            entries += pairs.len();
        }
    }
    assert!(lists > 1000 && entries > lists, "the pin needs many short lists to mean anything");

    engine
        .attach_disk(DiskTierConfig {
            dir: dir.clone(),
            cache_pages: 8,
            fsync_every: 1,
            paged_tables: tables.map(String::from).to_vec(),
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

/// Everything an [`OsContext`] borrows, over Parent / Child / Rel where
/// `Rel` is a junction whose `parent_id` groups sit on every boundary of
/// the packed link page: empty, one pair, a page less one, exactly a
/// page, a page and one, exactly three pages, and a two-page run whose
/// tail page the two short groups after it share.
struct JunctionStack {
    db: Database,
    sg: SchemaGraph,
    gds: Gds,
}

const JUNCTION_GROUPS: [usize; 9] = [
    0,
    1,
    LINK_PER_PAGE - 1,
    LINK_PER_PAGE,
    LINK_PER_PAGE + 1,
    3 * LINK_PER_PAGE,
    2 * LINK_PER_PAGE + 5,
    3,
    5,
];

fn junction_stack() -> JunctionStack {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(TableSchema::builder("Child").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Rel")
            .pk("id")
            .fk("parent_id", "Parent")
            .fk("child_id", "Child")
            .junction()
            .build()
            .unwrap(),
    )
    .unwrap();
    const CHILDREN: i64 = 2000;
    for parent in 0..JUNCTION_GROUPS.len() as i64 {
        db.insert("Parent", vec![Value::Int(parent)]).unwrap();
    }
    for child in 0..CHILDREN {
        db.insert("Child", vec![Value::Int(child)]).unwrap();
    }
    let mut rel_pk = 0;
    for (parent, &n) in JUNCTION_GROUPS.iter().enumerate() {
        for _ in 0..n {
            // Consecutive multiples of 7 mod 2000: distinct within a group.
            let row = vec![
                Value::Int(rel_pk),
                Value::Int(parent as i64),
                Value::Int(rel_pk * 7 % CHILDREN),
            ];
            db.insert("Rel", row).unwrap();
            rel_pk += 1;
        }
    }
    db.validate_foreign_keys().unwrap();
    let sg = SchemaGraph::from_database(&db);
    let dg = DataGraph::build(&db, &sg);
    let ga = AuthorityGraph::uniform("uniform", &sg, &dg, 0.3);
    let scores = sizel_rank::compute(&db, &sg, &dg, &ga, &RankConfig::default());
    sizel_rank::install_importance_order(&mut db, &dg, &scores);
    let parent = db.table_id("Parent").unwrap();
    let mut gds = Gds::build(&db, &sg, &GdsConfig { theta: 0.0, ..GdsConfig::default() }, parent);
    gds.set_stats(&scores.per_table_max);
    JunctionStack { db, sg, gds }
}

/// The accounted junction TOP-l probe (`children_of_top_l` over a
/// `ViaJunction` step — the only consumer of link cursors) returns the
/// same tuples and charges the same paper-cost accesses from packed
/// pages as from RAM, for link lists on every packing boundary, whether
/// the cache holds two pages or all of them.
#[test]
fn junction_probes_over_every_packing_boundary_account_identically_from_pages() {
    let ram = junction_stack();
    let rel = ram.db.table_id("Rel").unwrap();
    let parent_t = ram.db.table_id("Parent").unwrap();
    let (via, _) = ram
        .gds
        .iter()
        .find(|(_, n)| matches!(n.join, JoinSpec::ViaJunction { junction, .. } if junction == rel))
        .expect("Parent reaches Child through the Rel junction");
    let ram_ctx = OsContext::new(&ram.db, &ram.sg, &ram.gds, ram.db.fk_order());
    let tds = |key: usize| {
        TupleRef::new(parent_t, ram.db.table(parent_t).by_pk(key as i64).expect("a parent row"))
    };
    // A threshold that ends scans inside their lists: the local
    // importance half-way down the three-page list.
    let mut whole = Vec::new();
    let mut scratch = FetchScratch::default();
    let l_all = 4 * LINK_PER_PAGE;
    ram_ctx.children_of_top_l(
        via,
        tds(5),
        None,
        OsSource::Database,
        l_all,
        0.0,
        &mut scratch,
        &mut whole,
    );
    let half_way = ram_ctx.local_importance(via, whole[whole.len() / 2]);

    for cache_pages in [2, 1024] {
        let dir = temp_dir("junction");
        let mut paged = junction_stack();
        let store = Arc::new(PagedStore::new(&dir, cache_pages).unwrap());
        store.checkpoint_from(&paged.db, &[rel]).unwrap();
        paged.db.evict_table_postings(rel);
        paged.db.set_pager(Arc::<PagedStore>::clone(&store));
        let paged_ctx = OsContext::new(&paged.db, &paged.sg, &paged.gds, paged.db.fk_order());

        let mut cut_short = 0;
        for (key, &group) in JUNCTION_GROUPS.iter().enumerate() {
            let tds = tds(key);
            // A short prefix, one that crosses a page boundary, the whole
            // list; and a threshold that cuts the scan short of `l`.
            for (l, largest_l) in
                [(1, 0.0), (10, 0.0), (LINK_PER_PAGE + 1, 0.0), (l_all, 0.0), (l_all, half_way)]
            {
                let probe = |ctx: &OsContext, scratch: &mut FetchScratch| {
                    scratch.cost = ProbeCost::default();
                    let mut out = Vec::new();
                    ctx.children_of_top_l(
                        via,
                        tds,
                        None,
                        OsSource::Database,
                        l,
                        largest_l,
                        scratch,
                        &mut out,
                    );
                    let cost = scratch.cost;
                    (out, cost.access, (cost.probes.fast, cost.probes.heap))
                };
                let from_ram = probe(&ram_ctx, &mut scratch);
                let from_pages = probe(&paged_ctx, &mut scratch);
                assert_eq!(from_ram, from_pages, "key {key} ({group} pairs) l {l} > {largest_l}");
                assert_eq!(from_pages.2, (1, 0), "key {key} l {l}: the paged probe fell back");
                if largest_l == 0.0 {
                    assert_eq!(from_pages.0.len(), l.min(group), "key {key} l {l}");
                } else if (1..group).contains(&from_pages.0.len()) {
                    cut_short += 1;
                }
            }
        }
        assert!(cut_short > 0, "the threshold ended no scan inside its list");
        let stats = store.stats();
        assert_eq!(stats.cache.read_errors, 0);
        assert!(stats.cache.misses > 0 && stats.resident_pages <= cache_pages as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
